"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
Each criterion prints exactly one line of the form

    [ACCEPT nn] PASS - detail

and fails the suite if its checks or its runtime budget are violated.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from powfrac.expsum import (
    GenericPhase,
    PhaseSpec,
    calibrate_mean_value_shortening,
    calibrate_pair_count_vs_mean_value,
    direct_monomial_sum,
    kusmin_landau_check,
    read_calibration,
    vdc_transform_sum,
    write_calibration,
)
from powfrac.fraccore import tuple_count
from powfrac.paircount import (
    DyadicBlockQuery,
    PairQuery,
    count_pairs_block,
    count_pairs_bruteforce,
    count_pairs_interval,
    coverage_profile,
    exceptional_measure,
)
from powfrac.sieve import (
    SieveProblem,
    classical_bounds,
    dense_gram_eigenvalue,
    l1_sieve_sum,
    sieve_gram_eigenvalue,
    sieve_matrix,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[ACCEPT {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_sweep_matches_bruteforce():
    t0 = time.perf_counter()
    rng = random.Random(101)
    mismatches = 0
    checked = 0
    for k in (1, 2, 3):
        for n_max in range(1, 7):
            for _ in range(20):
                y = Fraction(rng.randint(1, n_max ** (2 * k)), rng.randint(1, 7))
                q = PairQuery(
                    k, n_max, y,
                    coprime=rng.random() < 0.5,
                    metric=rng.choice(("line", "circle")),
                )
                if count_pairs_interval(q) != count_pairs_bruteforce(q):
                    mismatches += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(1, ok, f"{checked} random queries, {mismatches} sweep/bruteforce "
                    f"mismatches, {elapsed:.1f}s (cap 60s)")


def test_criterion_02_near_pair_sharpness_trend():
    t0 = time.perf_counter()
    grid = (8, 12, 16, 20, 24)
    r = {}
    for n in grid:
        count = count_pairs_interval(PairQuery(2, n, Fraction(n**3)))
        r[n] = Fraction(count, n**3)
    # r(N) <= C0 * sqrt(N) with C0 = r(8)/sqrt(8), i.e. 8*r(N)^2 <= N*r(8)^2,
    # which integer cross-multiplication decides exactly.
    bound_ok = all(8 * r[n] ** 2 <= n * r[8] ** 2 for n in grid)
    slopes = [
        (math.log(float(r[b])) - math.log(float(r[a]))) / (math.log(b) - math.log(a))
        for a, b in zip(grid, grid[1:])
    ]
    elapsed = time.perf_counter() - t0
    ok = bound_ok and elapsed < 300.0
    slope_txt = ", ".join(f"{s:+.3f}" for s in slopes)
    _verdict(2, ok, f"r(N) <= r(8)*sqrt(N/8) exact on {grid}; local slopes "
                    f"[{slope_txt}]; {elapsed:.1f}s (cap 300s)")


def test_criterion_03_block_constant_three():
    rng = random.Random(303)
    violations = 0
    for _ in range(50):
        k = rng.randint(1, 3)
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        u1 = rng.randint(1, (2 * n1) ** k)
        u2 = rng.randint(1, (2 * n2) ** k)
        y = Fraction(rng.randint(1, 4 ** (k + 1)), rng.randint(1, 5))
        j = count_pairs_block(DyadicBlockQuery(k, u1, n1, u2, n2, y))
        j1 = count_pairs_block(DyadicBlockQuery(k, u1, n1, u1, n1, y))
        j2 = count_pairs_block(DyadicBlockQuery(k, u2, n2, u2, n2, y))
        if j * j > 9 * j1 * j2:
            violations += 1
    _verdict(3, violations == 0,
             f"J^2 <= 9*J1*J2 exact on 50 random dyadic blocks, "
             f"{violations} violations")


def test_criterion_04_coverage_identities_exact():
    failures = []
    thresholds = 0
    for k in (1, 2):
        for n_max in range(1, 11):
            y = Fraction(n_max ** (k + 1))
            prof = coverage_profile(k, n_max, y)
            s_size = tuple_count(k, n_max, coprime=True)
            expected = s_size * min(Fraction(2, 1) / y, Fraction(1))
            integral = prof.integral()
            if integral != expected:
                failures.append((k, n_max, "integral"))
            for t in range(1, s_size + 1):
                if t * exceptional_measure(prof, t) > integral:
                    failures.append((k, n_max, t))
                thresholds += 1
    _verdict(4, not failures,
             f"integral == |S|*min(2/Y,1) and T*measure <= integral, exact, "
             f"k<=2 N<=10, {thresholds} thresholds, {len(failures)} failures")


def test_criterion_05_exceptional_measure_trend():
    rows = []
    exact_ok = True
    trend_ok = True
    for n in range(8, 25):
        y = Fraction(n**3)
        prof = coverage_profile(2, n, y)
        s_size = tuple_count(2, n, coprime=True)
        root = math.isqrt(n)
        t = root if root * root == n else root + 1
        mu = exceptional_measure(prof, t)
        if mu * t * n**3 > 2 * s_size:  # Chebyshev form, exact rationals
            exact_ok = False
        envelope = n ** (-0.1)
        if float(mu) > envelope:
            trend_ok = False
        rows.append(f"N={n}: mu={float(mu):.2e} <= {envelope:.2e}")
    ok = exact_ok and trend_ok
    _verdict(5, ok, f"measure <= 2|S|/(T*N^3) exact and below N^-0.1 envelope "
                    f"for N in 8..24 ({rows[0]}; {rows[-1]})")


def test_criterion_06_vdc_transform_error_budget():
    t0 = time.perf_counter()
    worst = 0.0
    bad = 0
    points = 0
    for alpha in (-1.0, 0.5, 1.5, 2.5):
        for y in (1e2, 1e3, 1e4):
            for n_scale in (20.0, 50.0):
                spec = PhaseSpec(alpha, y, n_scale, 2.0)
                direct = direct_monomial_sum(spec)
                value, budget = vdc_transform_sum(spec)
                err = abs(direct - value)
                worst = max(worst, err / budget)
                if err > 10.0 * budget:
                    bad += 1
                points += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120.0
    _verdict(6, ok, f"|direct - transform| <= 10*budget at {points} grid "
                    f"points, worst err/budget {worst:.3f}, {elapsed:.1f}s (cap 120s)")


def test_criterion_07_kusmin_landau_random_phases():
    rng = random.Random(707)
    failures = 0
    for _ in range(100):
        s = rng.uniform(1.2, 3.0)
        a = rng.uniform(1.0, 30.0)
        m0 = rng.randint(0, 3)
        p_lo = rng.uniform(0.05, 0.45)
        p_hi = rng.uniform(p_lo + 0.05, 0.95)
        # monotone monomial f = c*x^s with f' ranging inside (m0+p_lo, m0+p_hi)
        coef = (m0 + p_lo) / (s * a ** (s - 1))
        b = min(a * ((m0 + p_hi) / (m0 + p_lo)) ** (1 / (s - 1)), a + 400.0)
        lam = min(p_lo, 1 - p_hi)
        phase = GenericPhase(
            f=lambda x, c=coef, p=s: c * x**p,
            df=lambda x, c=coef, p=s: c * p * x ** (p - 1),
            d2f=lambda x, c=coef, p=s: c * p * (p - 1) * x ** (p - 2),
            a=a,
            b=b,
        )
        if not kusmin_landau_check(phase, lam).passed:
            failures += 1
    _verdict(7, failures == 0,
             f"|sum| <= cot(pi*lam/2) on 100 random monotone monomial phases, "
             f"{failures} failures")


def test_criterion_08_sieve_eigenvalue_grid():
    t0 = time.perf_counter()
    combos = []
    for k in range(1, 9):
        for n in range(1, 201):
            if tuple_count(k, n, coprime=True) <= 200:
                combos.append((k, n))
            else:
                break
    worst_rel = 0.0
    bound_failures = 0
    instances = 0
    for k, n in combos:
        p_rows = tuple_count(k, n, coprime=True)
        for m in range(1, 201):
            prob = SieveProblem(k, n, m)
            dense = dense_gram_eigenvalue(prob)
            fast = sieve_gram_eigenvalue(prob)
            worst_rel = max(worst_rel, abs(fast - dense) / dense)
            rep = classical_bounds(k, n, m)
            if not (dense >= max(m, p_rows) - 1e-6
                    and dense <= 2 * min(rep.classical_1, rep.classical_2)):
                bound_failures += 1
            instances += 1
    shift_worst = 0.0
    for k, n in ((1, 6), (2, 4), (3, 2)):
        for m in (1, 21, 200):
            base = dense_gram_eigenvalue(SieveProblem(k, n, m, m_offset=0))
            for offset in (17, 10**6):
                shifted = dense_gram_eigenvalue(SieveProblem(k, n, m, m_offset=offset))
                shift_worst = max(shift_worst, abs(shifted - base) / base)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and bound_failures == 0 and shift_worst <= 1e-6
    _verdict(8, ok, f"{instances} (k,N,M) instances with P,M <= 200: "
                    f"toeplitz vs dense worst rel {worst_rel:.1e}, "
                    f"{bound_failures} bound failures, offset-invariance worst "
                    f"rel {shift_worst:.1e}, {elapsed:.0f}s")


def test_criterion_09_l1_bound_calibrated():
    rng = np.random.default_rng(909)
    cs_failures = 0
    dual_route_gap = 0.0
    ratios = {}
    for n in range(2, 7):
        for m_len in (10, 100):
            prob = SieveProblem(2, n, m_len)
            b = sieve_matrix(prob)
            p_rows = b.shape[0]
            cs_cap = math.sqrt(p_rows * dense_gram_eigenvalue(prob))
            rhs = n**3 + math.sqrt(m_len) * n**1.5
            draws = rng.normal(size=(m_len, 100)) + 1j * rng.normal(size=(m_len, 100))
            draws /= np.linalg.norm(draws, axis=0, keepdims=True)
            l1_values = np.abs(b @ draws).sum(axis=0)
            cs_failures += int((l1_values > cs_cap * (1 + 1e-9)).sum())
            ratios[(n, m_len)] = float(l1_values.max()) / rhs
            # the vectorized route must agree with the library entry point
            gap = abs(l1_sieve_sum(prob, draws[:, 0]) - float(l1_values[0]))
            dual_route_gap = max(dual_route_gap, gap)
    c_cal = ratios[(2, 10)]
    stable = all(c_cal / 4 <= rho <= 4 * c_cal for rho in ratios.values())
    ok = cs_failures == 0 and stable and dual_route_gap <= 1e-9
    spread = max(ratios.values()) / min(ratios.values())
    _verdict(9, ok, f"100 random unit alphas per instance: l1 <= sqrt(P*Delta) "
                    f"({cs_failures} failures); C_cal={c_cal:.3f} stable within "
                    f"factor 4 (spread {spread:.2f})")


def test_criterion_10_mean_value_calibration(tmp_path):
    first = [calibrate_pair_count_vs_mean_value(), calibrate_mean_value_shortening()]
    second = [calibrate_pair_count_vs_mean_value(), calibrate_mean_value_shortening()]
    bytes_first = json.dumps(first, sort_keys=True).encode()
    bytes_second = json.dumps(second, sort_keys=True).encode()
    rerun_ok = bytes_first == bytes_second

    pair_entry, shorten_entry = first
    c_pair = pair_entry["measured_constant"]
    c_shorten = shorten_entry["measured_constant"]
    cap_ok = c_pair <= 16.0 and c_shorten <= 16.0
    grid_ok = all(
        row["pair_count"] <= c_pair * row["mean_value"] * (1 + 1e-12)
        for row in pair_entry["grid"]
    )

    path = tmp_path / "calibration.json"
    write_calibration(path, first)
    file_ok = json.dumps(read_calibration(path), sort_keys=True).encode() == bytes_first

    ok = rerun_ok and cap_ok and grid_ok and file_ok
    _verdict(10, ok, f"J <= C_cal*meanvalue with C_cal={c_pair:.3f} <= 16; "
                     f"window-shortening C={c_shorten:.3f}; calibration file "
                     f"byte-identical on rerun={rerun_ok}")
