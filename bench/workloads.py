"""The four benchmark workloads: seeded query lists and the check of every answer.

A round is one pass over a workload's query list.  Each round draws fresh
parameters from the run's seeded generator and no query repeats within a
run, so work shared between calls is only the work the inputs really share
(the same (k, N) across rounds, nested M prefixes, offset-invariant Gram
matrices).  Sizes inside a round are held in narrow bands so that a round
costs about the same on every seed.

Queries go through ``powfrac.cli.main(argv)``, except the two library-only
entry points (``calibrate_*`` and ``stationary_phase_generic``), which have
no subcommand.  A query's ``check`` runs after timing; it raises
``CheckFailed`` when the answer is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles as O
from oracles import CheckFailed, close, need

# Pair counts decided by the repository's O(P^2) oracle up to this many points.
ORACLE_POINTS = 300
REFUSED = 3  # exit code of a resource-cap refusal


@dataclass
class Query:
    tag: str
    argv: list[str] | None = None   # a powfrac subcommand line
    call: str | None = None         # or a library-only entry point
    kwargs: dict = field(default_factory=dict)
    expect: int = 0                 # expected exit code
    check: Callable | None = None   # check(outcome, siblings_by_tag)
    answer: Callable | None = None  # the part of the answer kept as a reference

    def key(self) -> tuple:
        if self.argv is not None:
            return tuple(self.argv)
        return (self.call, json.dumps(self.kwargs, sort_keys=True))


@dataclass
class Outcome:
    exit_code: int | None
    stdout: str
    stderr: str
    value: object
    error: str | None
    seconds: float

    @property
    def payload(self) -> dict:
        return json.loads(self.stdout)


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _fraction_in(rng, lo: Fraction, hi: Fraction, den: int = 1000) -> Fraction:
    """A seeded rational in [lo, hi] with denominator dividing den."""
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def _flag(on: bool, name: str) -> list[str]:
    return [name] if on else []


# -- count queries -------------------------------------------------------------

def pairs_query(tag, k, n, y, coprime, metric, line_peer=None, method="sweep"):
    argv = ["pairs", "--k", str(k), "--n-max", str(n), "--y", rat(y), "--metric", metric,
            *_flag(coprime, "--coprime"), *(["--method", method] if method != "sweep" else [])]

    def check(out, sib):
        count = out.payload["count"]
        p = O.point_total(k, n, coprime)
        need(p <= count <= p * p, f"count {count} outside [P, P^2] with P={p}")
        need((count - p) % 2 == 0, "ordered off-diagonal pairs come in twos")
        if p <= ORACLE_POINTS or method == "oracle":
            from powfrac.paircount import PairQuery, count_pairs_bruteforce, count_pairs_interval
            q = PairQuery(k, n, y, coprime, metric)
            other = count_pairs_interval(q) if method == "oracle" else count_pairs_bruteforce(q)
            need(count == other, f"count {count} != independent path {other}")
        if line_peer is not None:
            line = sib[line_peer].payload["count"]
            need(count >= line and (count - line) % 2 == 0,
                 f"circle count {count} vs line count {line}")

    return Query(tag, argv, check=check, answer=lambda out: out.payload["count"])


def sharpness_query(tag, k, n_list, coprime):
    argv = ["sharpness-study", "--k", str(k), "--n-list", ",".join(map(str, n_list)),
            *_flag(coprime, "--coprime")]

    def check(out, sib):
        rows = out.payload["rows"]
        need([r["n"] for r in rows] == list(n_list), "one row per requested n")
        prev = None
        for r in rows:
            n, count = r["n"], r["count"]
            p = O.point_total(k, n, coprime)
            need(p <= count <= p * p and (count - p) % 2 == 0, f"row n={n}: count {count}")
            ratio = count / n ** (k + 1)
            need(r["ratio"] == ratio, f"row n={n}: ratio {r['ratio']} != {ratio}")
            if p <= ORACLE_POINTS:
                from powfrac.paircount import PairQuery, count_pairs_bruteforce
                exact = count_pairs_bruteforce(PairQuery(k, n, Fraction(n ** (k + 1)), coprime))
                need(count == exact, f"row n={n}: count {count} != oracle {exact}")
            if prev is None:
                need(r["log_slope"] is None, "first row has no slope")
            else:
                slope = (math.log(ratio) - math.log(prev[1])) / (math.log(n) - math.log(prev[0]))
                close(r["log_slope"], slope, 1e-12, f"row n={n} log_slope")
            prev = (n, ratio)

    return Query(tag, argv, check=check,
                 answer=lambda out: [r["count"] for r in out.payload["rows"]])


def window_query(tag, k, n, x, y, coprime):
    argv = ["window", "--k", str(k), "--n-max", str(n), "--x", rat(x), "--y", rat(y),
            *_flag(not coprime, "--no-coprime")]

    def check(out, sib):
        count = out.payload["count"]
        expected = O.window_count(k, n, x, y, coprime)
        need(count == expected, f"window count {count} != lattice count {expected}")

    return Query(tag, argv, check=check)


def measure_query(tag, k, n, y, threshold, coprime):
    argv = ["measure", "--k", str(k), "--n-max", str(n), "--y", rat(y),
            "--threshold", str(threshold), *_flag(not coprime, "--no-coprime")]

    def check(out, sib):
        rep = out.payload
        p = O.point_total(k, n, coprime)
        need(rep["point_count"] == p, f"point_count {rep['point_count']} != {p}")
        integral = Fraction(rep["integral"])
        need(integral == p * min(2 / y, Fraction(1)), f"integral {integral} != |S| min(2/Y, 1)")
        measure = Fraction(rep["measure"])
        need(0 <= measure <= 1 and threshold * measure <= integral,
             f"measure {measure} breaks T * measure <= integral")
        need(rep["measure_float"] == float(measure), "measure_float is float(measure)")
        if p <= 40:
            exact = O.small_measure(k, n, y, threshold, coprime)
            need(measure == exact, f"measure {measure} != elementary-interval sum {exact}")

    return Query(tag, argv, check=check, answer=lambda out: out.payload["measure"])


def blocks_query(tag, k, u1, n1, u2, n2, y, closed=False, diagonals=None):
    argv = ["blocks", "--k", str(k), "--u1", str(u1), "--n1", str(n1), "--u2", str(u2),
            "--n2", str(n2), "--y", rat(y), *_flag(closed, "--closed")]

    def check(out, sib):
        count = out.payload["count"]
        expected = O.block_count(k, u1, n1, u2, n2, y, closed)
        need(count == expected, f"block count {count} != integer-key count {expected}")
        if diagonals is not None:
            j1, j2 = (sib[t].payload["count"] for t in diagonals)
            need(count * count <= 9 * j1 * j2, f"J^2 <= 9 J1 J2 fails: {count}, {j1}, {j2}")

    return Query(tag, argv, check=check)


def enumerate_query(tag, k, n, coprime, sort, limit):
    argv = ["enumerate", "--k", str(k), "--n-max", str(n), "--limit", str(limit),
            *_flag(coprime, "--coprime"), *_flag(sort, "--sorted")]

    def check(out, sib):
        rep = out.payload
        listing = O.fractions_listing(k, n, coprime)
        if sort:
            listing.sort(key=lambda t: (Fraction(t[0], t[1] ** k), t[1], t[0]))
        need(rep["count"] == len(listing) == O.point_total(k, n, coprime), "tuple count")
        need(rep["truncated"] == (limit < len(listing)), "truncated flag")
        need([(t["u"], t["n"], t["k"]) for t in rep["tuples"]]
             == [(u, m, k) for u, m in listing[:limit]], "listed tuples")

    return Query(tag, argv, check=check)


# -- exponential-sum queries ----------------------------------------------------

def expsum_direct_query(tag, alpha, y, n_scale, eta):
    argv = ["expsum-direct", "--alpha", repr(alpha), "--y", repr(y), "--n-scale", repr(n_scale),
            "--eta", repr(eta)]

    def check(out, sib):
        rep = out.payload
        ns = O.interior(n_scale, eta * n_scale)
        need(rep["terms"] == len(ns), "term count")
        value, allowance = O.phase_sum(O.monomial(alpha, y, n_scale), ns)
        need(abs(complex(rep["value_re"], rep["value_im"]) - value) <= allowance,
             f"direct sum off by more than its rounding allowance {allowance:g}")

    return Query(tag, argv, check=check)


def expsum_vdc_query(tag, alpha, y, n_scale, eta):
    argv = ["expsum-vdc", "--alpha", repr(alpha), "--y", repr(y), "--n-scale", repr(n_scale),
            "--eta", repr(eta)]

    def check(out, sib):
        rep = out.payload
        value, allowance = O.phase_sum(O.monomial(alpha, y, n_scale),
                                       O.interior(n_scale, eta * n_scale))
        need(abs(complex(rep["direct_re"], rep["direct_im"]) - value) <= allowance, "direct side")
        budget = n_scale / math.sqrt(y) + math.log(y)
        close(rep["budget"], budget, 1e-12, "transform budget")
        err = abs(complex(rep["direct_re"], rep["direct_im"])
                  - complex(rep["transform_re"], rep["transform_im"]))
        need(err <= budget, f"|direct - transform| = {err:g} exceeds the budget {budget:g}")

    return Query(tag, argv, check=check)


def kusmin_query(tag, coef, a, b, lam):
    argv = ["kusmin", "--coef", repr(coef), "--a", repr(a), "--b", repr(b), "--lam", repr(lam)]

    def check(out, sib):
        rep = out.payload
        value, allowance = O.phase_sum(lambda x: coef * x, range(math.ceil(a), math.floor(b) + 1))
        need(abs(rep["magnitude"] - abs(value)) <= allowance + 1e-12, "|sum|")
        bound = 1 / math.tan(math.pi * lam / 2)
        close(rep["bound"], bound, 1e-12, "cot(pi lam / 2)")
        need(rep["passed"] and rep["magnitude"] <= bound + 1e-9, "Kusmin-Landau bound")

    return Query(tag, argv, check=check)


def meanvalue_query(tag, k, n_range, u_range, y_max):
    argv = ["meanvalue", "--k", str(k), "--n-lo", str(n_range[0]), "--n-hi", str(n_range[1]),
            "--u-lo", str(u_range[0]), "--u-hi", str(u_range[1]), "--y-max", repr(y_max)]

    def check(out, sib):
        rep = out.payload
        phis = np.array([u / n**k for n in range(n_range[0], n_range[1] + 1)
                         for u in range(u_range[0], u_range[1] + 1)])
        from powfrac.expsum import MeanValueSpec
        close(rep["value"], O.closed_mean_value(phis, y_max),
              MeanValueSpec.rel_tol, "mean value against the closed form")
        need(rep["pair_count"] == O.phase_pairs(phis, y_max), "phase pair count")

    return Query(tag, argv, check=check)


def calibrate_pair_query(tag, sizes, y_values):
    kwargs = {"k_values": [1, 2], "sizes": sizes, "y_values": y_values}

    def check(out, sib):
        from powfrac.expsum import MeanValueSpec
        entry = out.value
        need(entry["lemma_id"] == "pair_count_vs_mean_value", "lemma id")
        need(len(entry["grid"]) == 2 * len(sizes) * len(y_values), "grid size")
        for row in entry["grid"]:
            phis = O.power_phases(row["k"], row["size"])
            close(row["mean_value"], O.closed_mean_value(phis, row["y_max"]),
                  MeanValueSpec.rel_tol, "calibration mean value")
            need(row["pair_count"] == O.phase_pairs(phis, row["y_max"]), "calibration pairs")
            need(row["ratio"] == row["pair_count"] / row["mean_value"], "ratio")
        need(entry["measured_constant"] == max(r["ratio"] for r in entry["grid"]), "max ratio")

    return Query(tag, call="calibrate_pair_count_vs_mean_value", kwargs=kwargs, check=check)


def calibrate_shortening_query(tag, sizes, y_pairs):
    kwargs = {"k_values": [1, 2], "sizes": sizes, "y_pairs": y_pairs}

    def check(out, sib):
        from powfrac.expsum import MeanValueSpec
        entry = out.value
        need(entry["lemma_id"] == "mean_value_window_shortening", "lemma id")
        for row in entry["grid"]:
            phis = O.power_phases(row["k"], row["size"])
            exact = (O.closed_mean_value(phis, row["y_long"])
                     / O.closed_mean_value(phis, row["y_short"]))
            close(row["ratio"], exact, 2 * MeanValueSpec.rel_tol, "shortening ratio")
        need(entry["measured_constant"] == max(r["ratio"] for r in entry["grid"]), "max ratio")

    return Query(tag, call="calibrate_mean_value_shortening", kwargs=kwargs, check=check)


def stationary_query(tag, alpha, y, n_scale, eta):
    kwargs = {"alpha": alpha, "y": y, "n_scale": n_scale, "eta": eta}

    def check(out, sib):
        value, budget = out.value
        direct, _ = O.phase_sum(O.monomial(alpha, y, n_scale), O.interior(n_scale, eta * n_scale))
        need(abs(direct - value) <= budget,
             f"|direct - dual| = {abs(direct - value):g} exceeds the budget {budget:g}")

    return Query(tag, call="stationary_phase_generic", kwargs=kwargs, check=check)


# -- sieve queries ---------------------------------------------------------------

def sieve_delta_query(tag, k, n, m_len, m_offset, method, peer=None, prefix_of=None):
    """Delta_k(N, M); ``peer`` is the same (k, N, M) by the other method at another
    offset, ``prefix_of`` the same (k, N, offset) with a longer window."""
    argv = ["sieve-delta", "--k", str(k), "--n-max", str(n), "--m-len", str(m_len),
            "--m-offset", str(m_offset), "--method", method]

    def check(out, sib):
        rep = out.payload
        p = O.point_total(k, n, True)
        delta = rep["delta"]
        need(rep["p_rows"] == p, "row count")
        need(max(m_len, p) * (1 - 1e-9) <= delta <= p * m_len * (1 + 1e-9),
             f"Delta {delta} outside [max(M, P), P*M]")
        if peer is not None:
            # Offset invariance: the Gram matrix is Toeplitz in the window index.
            close(delta, sib[peer].payload["delta"], 1e-8, f"{method} vs offset peer")
        elif method == "power" and p * m_len <= 20000:
            from powfrac.sieve import SieveProblem, dense_gram_eigenvalue
            close(delta, dense_gram_eigenvalue(SieveProblem(k, n, m_len, m_offset)), 1e-8,
                  "power vs dense oracle")
        elif p * m_len <= 20000:
            b = O.sieve_matrix(k, n, m_len, m_offset)
            close(delta, float(np.linalg.eigvalsh(b.conj().T @ b)[-1]), 1e-9,
                  "dense vs an independently built Gram matrix")
        if prefix_of is not None:
            # Nested windows are principal submatrices, so Delta is monotone in M.
            need(delta <= sib[prefix_of].payload["delta"] * (1 + 1e-9), "monotone in M")

    return Query(tag, argv, check=check)


def sieve_l1_query(tag, k, n, m_len, m_offset, mode, seed, basis_index=0):
    argv = ["sieve-l1", "--k", str(k), "--n-max", str(n), "--m-len", str(m_len),
            "--m-offset", str(m_offset), "--alpha-mode", mode, "--seed", str(seed),
            "--basis-index", str(basis_index)]

    def check(out, sib):
        rep = out.payload
        alpha = O.unit_alpha(mode, m_len, seed, basis_index)
        b = O.sieve_matrix(k, n, m_len, m_offset)
        close(rep["value"], float(np.abs(b @ alpha).sum()), 1e-9, "l1 sum")
        norm = float(np.linalg.norm(alpha))
        p = b.shape[0]
        need(rep["cs_bound"] >= math.sqrt(p * max(m_len, p)) * norm * (1 - 1e-9),
             "cs_bound uses Delta >= max(M, P)")
        need(rep["within_cs"] and rep["value"] <= rep["cs_bound"] * (1 + 1e-9),
             "l1 <= sqrt(P Delta) |alpha|")

    return Query(tag, argv, check=check)


def sieve_dual_query(tag, k, n, m_len, m_offset, mode, seed):
    argv = ["sieve-dual", "--k", str(k), "--n-max", str(n), "--m-len", str(m_len),
            "--m-offset", str(m_offset), "--coeff-mode", mode, "--seed", str(seed)]

    def check(out, sib):
        rep = out.payload
        b = O.sieve_matrix(k, n, m_len, m_offset)
        c = O.row_coeffs(mode, b.shape[0], seed)
        close(rep["value"], float((np.abs(c @ b) ** 2).sum()), 1e-9, "dual form")
        close(rep["coeff_norm_sq"], float(b.shape[0]), 1e-12, "|c|^2 of unimodular rows")
        need(rep["delta_bound"] >= max(m_len, b.shape[0]) * b.shape[0] * (1 - 1e-9),
             "delta_bound uses Delta >= max(M, P)")
        need(rep["within_bound"] and rep["value"] <= rep["delta_bound"] * (1 + 1e-9),
             "dual form <= Delta |c|^2")

    return Query(tag, argv, check=check)


def bounds_query(tag, k, n, m, fmt):
    argv = ["bounds", "--k", str(k), "--n", str(n), "--m", str(m), "--format", fmt]

    def check(out, sib):
        expected = O.classical(k, n, m)
        if fmt == "csv":
            (row,) = list(csv.DictReader(io.StringIO(out.stdout)))
            got = {key: float(row[key]) for key in expected}
        else:
            got = {key: out.payload[key] for key in expected}
        for key, value in expected.items():
            close(got[key], value, 1e-15, key)

    return Query(tag, argv, check=check)


def refused_query(tag, argv):
    def check(out, sib):
        need("resource limit" in out.stderr and out.stdout == "", "refused before any report")

    return Query(tag, argv, expect=REFUSED, check=check)


# -- workloads -------------------------------------------------------------------
# Each round function takes the run's random.Random and returns the round's
# queries.  The runner redraws a round whose queries repeat an earlier one.

def counts_round(rng) -> list[Query]:
    """Large exact counts on k = 2..3 (P up to 4*10^4).

    Why: fraccore enumeration and the Fraction sweeps in paircount do nearly all
    the work while numpy and sieve stay idle, so lattice-point counting must
    show its gain here.  Y sits around the critical scale N^(k+1).
    """
    qs = []
    for k, n, coprime, tag in ((2, 40, False, "p2"), (3, 18, True, "p3")):
        y = n ** (k + 1) * _fraction_in(rng, Fraction(1, 2), Fraction(2))
        qs.append(pairs_query(tag + "line", k, n, y, coprime, "line"))
        qs.append(pairs_query(tag + "circle", k, n, y, coprime, "circle", line_peer=tag + "line"))
    qs.append(sharpness_query("sharp", 2, [rng.randint(6, 9), rng.randint(16, 24),
                                           rng.randint(32, 36)], False))
    for k, n, coprime, tag in ((2, 56, True, "w2"), (3, 14, False, "w3")):
        x = Fraction(rng.randint(0, 9999), 10000)
        y = n**k * _fraction_in(rng, Fraction(1, 4), Fraction(1))
        qs.append(window_query(tag, k, n, x, y, coprime))
    y = 28**3 * _fraction_in(rng, Fraction(1, 2), Fraction(2))
    qs.append(measure_query("measure", 2, 28, y, rng.randint(1, 4), True))
    k = 2
    u1, n1 = rng.randint(200, 300), rng.randint(10, 14)
    u2, n2 = rng.randint(200, 300), rng.randint(10, 14)
    y = Fraction(rng.randint(10**6, 4 * 10**6), rng.randint(1, 4))
    qs.append(blocks_query("j1", k, u1, n1, u1, n1, y))
    qs.append(blocks_query("j2", k, u2, n2, u2, n2, y))
    qs.append(blocks_query("j12", k, u1, n1, u2, n2, y, diagonals=("j1", "j2")))
    return qs


# (k, N) with 100 <= P <= 200, the criterion-08 grid's largest instances.
_GRID_K1 = [(1, n) for n in range(18, 25)]
_GRID_KBIG = [(2, 8), (2, 9), (3, 5), (4, 4)]


def sieve_round(rng) -> list[Query]:
    """Delta_k(N, M), l1 sums and dual forms.

    Why: sieve does nearly all the work.  The grid shares input through nested
    M prefixes and offset invariance, which a Toeplitz rebuild exploits; the
    large window exposes the P*M^2 cost of each power-iteration sweep.
    """
    qs = []
    for g, (k, n) in enumerate((rng.choice(_GRID_K1), rng.choice(_GRID_KBIG))):
        m3 = rng.randint(160, 200)
        lens = (rng.randint(10, 60), rng.randint(80, m3 - 20), m3)
        off_power, off_dense = rng.randint(0, 999), rng.randint(10**6, 10**9)
        for i, m in enumerate(lens):
            nxt = f"g{g}power{i + 1}" if i < 2 else None
            qs.append(sieve_delta_query(f"g{g}power{i}", k, n, m, off_power, "power",
                                        prefix_of=nxt))
            qs.append(sieve_delta_query(f"g{g}dense{i}", k, n, m, off_dense, "dense",
                                        peer=f"g{g}power{i}"))
    m = rng.randint(1000, 1040)
    qs.append(sieve_delta_query("wide_power", 2, 6, m, rng.randint(0, 999), "power"))
    qs.append(sieve_delta_query("wide_dense", 2, 6, m, rng.randint(10**6, 10**9), "dense",
                                peer="wide_power"))
    qs.append(sieve_l1_query("l1", 2, 5, rng.randint(250, 300), rng.randint(0, 10**6), "random",
                             rng.randint(0, 10**6)))
    qs.append(sieve_dual_query("dual", 1, 15, rng.randint(250, 300), rng.randint(0, 10**6),
                               "random-unimodular", rng.randint(0, 10**6)))
    return qs


def meanvalue_round(rng) -> list[Query]:
    """Mean values, exponential sums, stationary phase and both calibrations.

    Why: expsum does nearly all the work, and adaptive Simpson dominates both
    time and memory (the size-12 window sets the peak), so a closed-form mean
    value must show in wall_s and peak_rss_mb.  Simpson's time and memory
    grow with P * Y, so each Y stays in a narrow band.
    """
    u = rng.uniform
    return [
        meanvalue_query("mv12", 2, (1, 12), (1, 12), round(u(100, 102), 4)),
        meanvalue_query("mv10", 1, (1, 10), (1, 10), round(u(145, 148), 4)),
        meanvalue_query("mv8", 2, (1, 8), (1, 12), round(u(70, 72), 4)),
        expsum_direct_query("direct", rng.choice([-1.0, -0.5, 0.5, 1.5]), round(u(1e4, 1e6), 2),
                            round(u(3e5, 3.2e5), 2), round(u(1.9, 2.0), 4)),
        expsum_vdc_query("vdc", rng.choice([-1.0, -0.5, 0.5, 1.5, 2.5]), round(u(1e6, 1e8), 2),
                         round(u(2e4, 2.2e4), 2), round(u(1.9, 2.1), 4)),
        kusmin_query("kusmin", round(u(0.1, 0.9), 6), 1.0, float(rng.randint(250000, 260000)),
                     0.05),
        stationary_query("stationary", 1.5, round(u(4e6, 5e6), 2), round(u(900, 1000), 2),
                         round(u(2.0, 2.1), 4)),
        calibrate_pair_query("cal_pairs", sorted(rng.sample(range(2, 9), 3)),
                             [round(u(2, 16), 3) for _ in range(2)]),
        calibrate_shortening_query("cal_short", sorted(rng.sample(range(2, 9), 3)),
                                   [[round(u(8, 16), 3), round(u(2, 8), 3)] for _ in range(3)]),
    ]


def _small_pairs_size(rng):
    k = rng.randint(1, 3)
    return k, rng.randint(1, (6, 6, 4)[k - 1])


def small_queries_round(rng) -> list[Query]:
    """Tiny queries across all 14 subcommands, plus over-cap requests.

    Why: per-call cost is the work here, most of it in cli (argparse is
    rebuilt on every call).  paircount and sieve see the same entry points as
    in counts and sieve at sizes where a higher fixed cost loses.  The
    refusals exercise the refuse-before-work path (exit 3).
    """
    r, u = rng.randint, rng.uniform
    qs = []
    for i in range(3):
        t = str(i)
        k, n = _small_pairs_size(rng)
        qs.append(enumerate_query("enum" + t, k, n, rng.random() < 0.5, rng.random() < 0.5,
                                  r(1, 1000)))
        k, n = _small_pairs_size(rng)
        qs.append(pairs_query("pairs" + t, k, n, Fraction(r(1, 4 ** (2 * k)), r(1, 9)),
                              rng.random() < 0.5, rng.choice(["line", "circle"]),
                              method=rng.choice(["sweep", "oracle"])))
        k = r(1, 3)
        qs.append(blocks_query("blocks" + t, k, r(1, 4), r(1, 4), r(1, 4), r(1, 4),
                               Fraction(r(1, 8 ** (k + 1)), r(1, 9)), closed=rng.random() < 0.5))
        k, n = _small_pairs_size(rng)
        qs.append(window_query("window" + t, k, n, Fraction(r(0, 999), 1000),
                               Fraction(r(1, 4 ** (k + 1)), r(1, 9)), rng.random() < 0.5))
        k = r(1, 3)
        qs.append(measure_query("measure" + t, k, r(1, (4, 4, 3)[k - 1]),
                                Fraction(r(2, 4 ** (k + 1)), r(1, 9)), r(1, 4), rng.random() < 0.5))
        # Distinct n and no --coprime: a repeated n divides by log(n/n) = 0, and
        # sharpness_study ignores --coprime; both are program defects left standing.
        qs.append(sharpness_query("sharp" + t, r(1, 3), rng.sample(range(1, 7), r(1, 4)), False))
        alpha = rng.choice([-1.0, -0.5, 0.5, 1.5, 2.5])
        qs.append(expsum_direct_query("direct" + t, alpha, round(u(1, 100), 4),
                                      round(u(2, 30), 4), round(u(1.2, 3), 4)))
        qs.append(expsum_vdc_query("vdc" + t, alpha, round(u(50, 200), 4), round(u(2, 30), 4),
                                   round(u(1.3, 3), 4)))
        coef = round(u(0.1, 0.9), 6)
        qs.append(kusmin_query("kusmin" + t, coef, float(r(0, 5)), float(r(6, 30)),
                               round(u(0.02, min(coef, 1 - coef)), 6)))
        k = r(1, 2)
        n_lo, u_lo = r(1, 4), r(1, 4)
        qs.append(meanvalue_query("meanvalue" + t, k, (n_lo, r(n_lo, 4)), (u_lo, r(u_lo, 4)),
                                  round(u(1, 10), 4)))
        k, n = _small_pairs_size(rng)
        m = r(1, 30)
        qs.append(sieve_delta_query("delta" + t, k, min(n, 4), m, r(0, 10**6),
                                    rng.choice(["power", "dense"])))
        mode = rng.choice(["random", "ones", "basis"])
        qs.append(sieve_l1_query("l1" + t, k, min(n, 4), m, r(0, 10**6), mode, r(0, 10**6),
                                 basis_index=r(0, m - 1)))
        qs.append(sieve_dual_query("dual" + t, k, min(n, 4), m, r(0, 10**6),
                                   rng.choice(["ones", "random-unimodular"]), r(0, 10**6)))
        qs.append(bounds_query("bounds" + t, r(1, 3), r(1, 1000), r(1, 10**6),
                               rng.choice(["json", "csv"])))
    # Past the default caps (2*10^6 points, 5*10^6 matrix entries).
    big = str(r(70, 200))
    qs.append(refused_query("refuse_pairs", ["pairs", "--k", "3", "--n-max", big,
                                             "--y", rat(Fraction(r(1, 10**9), r(1, 9)))]))
    qs.append(refused_query("refuse_measure", ["measure", "--k", "3", "--n-max", big,
                                               "--y", rat(Fraction(r(1, 10**9), r(1, 9))),
                                               "--threshold", str(r(1, 9)), "--no-coprime"]))
    qs.append(refused_query("refuse_delta", ["sieve-delta", "--k", "3", "--n-max", str(r(30, 60)),
                                             "--m-len", str(r(100, 10**4)),
                                             "--m-offset", str(r(0, 10**6))]))
    return qs


WORKLOADS = {
    "counts": counts_round,
    "sieve": sieve_round,
    "meanvalue": meanvalue_round,
    "small-queries": small_queries_round,
}

# The speed-calibration kernel (speed.py) whose resource use resembles each
# workload's: the sieve's time goes mostly to power-iteration products over
# an M x M Gram matrix of about 17 MB, bound by memory bandwidth.
SPEED_PROFILE = {
    "counts": "python",
    "sieve": "memory",
    "meanvalue": "memory",
    "small-queries": "python",
}


def check_round(queries: list[Query], outcomes: list[Outcome],
                reference: dict | None) -> list[str | None]:
    """One verdict per query: None when the answer passes, else why it failed."""
    siblings = {q.tag: o for q, o in zip(queries, outcomes)}
    verdicts = []
    for q, out in zip(queries, outcomes):
        try:
            need(out.error is None, f"raised {out.error}")
            need(out.exit_code == q.expect, f"exit {out.exit_code}, expected {q.expect}")
            if q.check is not None:
                q.check(out, siblings)
            if reference is not None and q.tag in reference:
                need(q.answer(out) == reference[q.tag],
                     f"answer differs from the recorded reference {reference[q.tag]!r}")
            verdicts.append(None)
        except CheckFailed as exc:
            verdicts.append(f"{q.tag}: {exc}")
        except Exception as exc:  # a malformed report fails its query
            verdicts.append(f"{q.tag}: {type(exc).__name__}: {exc}")
    return verdicts
