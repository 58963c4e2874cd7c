"""Command-line front end: every operation as a subcommand with
machine-readable JSON/CSV reports.

Rationals are accepted only as "p/q" strings (never floats), so
thresholds survive parsing exactly.  Reports carry a top-level
"schema": 1 field and are byte-stable for a fixed config and seed,
except for the elapsed_ms timing field.  Exit codes: 0 success,
2 argument validation, 3 resource-cap refusal, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from itertools import islice

import numpy as np

from . import expsum, paircount, sieve
from .errors import (CoprimalityError, DimensionError, PowfracError, RangeError,
                     ResourceError)
from .fraccore import (EnumerationSpec, enumerate_tuples, format_rational, parse_rational,
                       tuple_count)

SCHEMA = 1


def _positive_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise ValueError(f"expected a positive rational, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _emit(args, payload: dict, csv_lines: list[str] | None = None) -> None:
    """Write the report (JSON by default, CSV when selected) and a summary line."""
    if getattr(args, "format", "json") == "csv" and csv_lines is not None:
        text = "\n".join(csv_lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(text)
        summary_stream = sys.stderr
    summary = payload.get("summary", payload.get("command", ""))
    print(summary, file=summary_stream)


def _cap(args) -> int | None:
    env = os.environ.get("POWFRAC_MAX_POINTS")
    return int(env) if env else None


def cmd_enumerate(args) -> int:
    spec = EnumerationSpec(args.k, args.n_max, args.coprime, args.sorted)
    start = time.perf_counter()
    spec.validate()
    count = tuple_count(spec.k, spec.n_max, spec.coprime)
    cap = _cap(args)
    if cap is not None and count > cap:
        raise ResourceError(f"enumerate: {count} tuples exceeds cap {cap}")
    shown = list(islice(enumerate_tuples(spec), args.limit))
    payload = {
        "schema": SCHEMA,
        "command": "enumerate",
        "k": args.k,
        "n_max": args.n_max,
        "coprime": args.coprime,
        "sorted": args.sorted,
        "count": count,
        "truncated": len(shown) < count,
        "tuples": [f.to_json() for f in shown],
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"enumerate: {count} tuples (k={args.k}, n_max={args.n_max})",
    }
    _emit(args, payload)
    return 0


def cmd_pairs(args) -> int:
    q = paircount.PairQuery(args.k, args.n_max, args.y, args.coprime, args.metric)
    start = time.perf_counter()
    if args.method == "oracle":
        count = paircount.count_pairs_bruteforce(q, _cap(args))
    else:
        count = paircount.count_pairs_interval(q, _cap(args))
    payload = {
        "schema": SCHEMA,
        "command": "pairs",
        "query": {
            "k": args.k,
            "n_max": args.n_max,
            "y": format_rational(args.y),
            "coprime": args.coprime,
            "metric": args.metric,
        },
        "count": count,
        "method": args.method,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"pairs: count={count} (k={args.k}, n_max={args.n_max}, y={format_rational(args.y)})",
    }
    _emit(args, payload)
    return 0


def cmd_blocks(args) -> int:
    q = paircount.DyadicBlockQuery(args.k, args.u1, args.n1, args.u2, args.n2, args.y)
    start = time.perf_counter()
    count = paircount.count_pairs_block(q, closed=args.closed, max_points=_cap(args))
    payload = {
        "schema": SCHEMA,
        "command": "blocks",
        "query": {
            "k": args.k,
            "u1": args.u1,
            "n1": args.n1,
            "u2": args.u2,
            "n2": args.n2,
            "y": format_rational(args.y),
        },
        "closed": args.closed,
        "count": count,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"blocks: count={count}",
    }
    _emit(args, payload)
    return 0


def cmd_window(args) -> int:
    start = time.perf_counter()
    count = paircount.window_count(args.k, args.n_max, args.x, args.y,
                                   coprime=not args.no_coprime, max_points=_cap(args))
    payload = {
        "schema": SCHEMA,
        "command": "window",
        "k": args.k,
        "n_max": args.n_max,
        "x": format_rational(args.x),
        "y": format_rational(args.y),
        "coprime": not args.no_coprime,
        "count": count,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"window: count={count} at x={format_rational(args.x)}",
    }
    _emit(args, payload)
    return 0


def cmd_measure(args) -> int:
    start = time.perf_counter()
    profile = paircount.coverage_profile(args.k, args.n_max, args.y,
                                         coprime=not args.no_coprime, max_points=_cap(args))
    measure = paircount.exceptional_measure(profile, args.threshold)
    integral = profile.integral()
    if args.profile_csv:
        with open(args.profile_csv, "w") as fh:
            fh.write("breakpoint_p,breakpoint_q,depth\n")
            for p_num, p_den, depth in profile.csv_rows():
                fh.write(f"{p_num},{p_den},{depth}\n")
    payload = {
        "schema": SCHEMA,
        "command": "measure",
        "k": args.k,
        "n_max": args.n_max,
        "y": format_rational(args.y),
        "coprime": not args.no_coprime,
        "threshold": args.threshold,
        "point_count": profile.point_count,
        "radius": format_rational(profile.radius),
        "integral": format_rational(integral),
        "measure": format_rational(measure),
        "measure_float": float(measure),
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"measure: {format_rational(measure)} at threshold {args.threshold}",
    }
    _emit(args, payload)
    return 0


def cmd_expsum_direct(args) -> int:
    spec = expsum.PhaseSpec(args.alpha, args.y, args.n_scale, args.eta)
    spec.validate()
    start = time.perf_counter()
    value = expsum.direct_monomial_sum(spec)
    payload = {
        "schema": SCHEMA,
        "command": "expsum-direct",
        "alpha": args.alpha,
        "y": args.y,
        "n_scale": args.n_scale,
        "eta": args.eta,
        "value_re": value.real,
        "value_im": value.imag,
        "magnitude": abs(value),
        "terms": expsum.monomial_term_count(spec),
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"expsum-direct: |sum|={abs(value):.6g} over {expsum.monomial_term_count(spec)} terms",
    }
    _emit(args, payload)
    return 0


def cmd_expsum_vdc(args) -> int:
    spec = expsum.PhaseSpec(args.alpha, args.y, args.n_scale, args.eta)
    spec.validate()
    start = time.perf_counter()
    direct = expsum.direct_monomial_sum(spec)
    value, budget = expsum.vdc_transform_sum(spec)
    abs_err = abs(direct - value)
    ratio = abs_err / budget if budget > 0 else math.inf
    payload = {
        "schema": SCHEMA,
        "command": "expsum-vdc",
        "alpha": args.alpha,
        "y": args.y,
        "n_scale": args.n_scale,
        "eta": args.eta,
        "direct_re": direct.real,
        "direct_im": direct.imag,
        "transform_re": value.real,
        "transform_im": value.imag,
        "abs_err": abs_err,
        "budget": budget,
        "ratio": ratio,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"expsum-vdc: abs_err={abs_err:.6g} budget={budget:.6g}",
    }
    header = "alpha,y,n_scale,eta,direct_re,direct_im,transform_re,transform_im,abs_err,budget,ratio"
    row = ",".join(
        repr(v) for v in (args.alpha, args.y, args.n_scale, args.eta, direct.real,
                          direct.imag, value.real, value.imag, abs_err, budget, ratio)
    )
    _emit(args, payload, csv_lines=[header, row])
    return 0


def cmd_kusmin(args) -> int:
    coef, power = args.coef, args.power
    phase = expsum.GenericPhase(
        f=lambda x: coef * x**power,
        df=lambda x: coef * power * x ** (power - 1),
        d2f=lambda x: coef * power * (power - 1) * x ** (power - 2),
        a=args.a,
        b=args.b,
    )
    start = time.perf_counter()
    report = expsum.kusmin_landau_check(phase, args.lam)
    payload = {
        "schema": SCHEMA,
        "command": "kusmin",
        "coef": coef,
        "power": power,
        "a": args.a,
        "b": args.b,
        "lam": args.lam,
        "magnitude": report.magnitude,
        "bound": report.bound,
        "passed": report.passed,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"kusmin: |sum|={report.magnitude:.6g} bound={report.bound:.6g} passed={report.passed}",
    }
    _emit(args, payload)
    return 0


def cmd_meanvalue(args) -> int:
    spec = expsum.MeanValueSpec(
        phi=expsum.power_phase(args.k),
        i1=(args.n_lo, args.n_hi),
        i2=(args.u_lo, args.u_hi),
        y_max=args.y_max,
    )
    start = time.perf_counter()
    value = expsum.mean_value_integral(spec)
    pairs = expsum.phase_pair_count(spec)
    payload = {
        "schema": SCHEMA,
        "command": "meanvalue",
        "k": args.k,
        "n_range": [args.n_lo, args.n_hi],
        "u_range": [args.u_lo, args.u_hi],
        "y_max": args.y_max,
        "value": value,
        "pair_count": pairs,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"meanvalue: value={value:.6g} pair_count={pairs}",
    }
    _emit(args, payload)
    return 0


def cmd_sieve_delta(args) -> int:
    problem = sieve.SieveProblem(args.k, args.n_max, args.m_len, args.m_offset)
    problem.validate()
    start = time.perf_counter()
    if args.method == "dense":
        delta = sieve.dense_gram_eigenvalue(problem, _cap(args))
    else:
        delta = sieve.sieve_gram_eigenvalue(problem, max_entries=_cap(args))
    payload = {
        "schema": SCHEMA,
        "command": "sieve-delta",
        "k": args.k,
        "n_max": args.n_max,
        "m_len": args.m_len,
        "m_offset": args.m_offset,
        "method": args.method,
        "p_rows": sieve.row_count(problem),
        "delta": delta,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"sieve-delta: delta={delta:.8g} (P={sieve.row_count(problem)}, M={args.m_len})",
    }
    _emit(args, payload)
    return 0


def _make_alpha(args, m_len: int) -> np.ndarray:
    if args.alpha_mode == "ones":
        return np.ones(m_len, dtype=complex)
    if args.alpha_mode == "basis":
        if not 0 <= args.basis_index < m_len:
            raise ValueError(f"basis index {args.basis_index} outside [0, {m_len})")
        v = np.zeros(m_len, dtype=complex)
        v[args.basis_index] = 1.0
        return v
    rng = np.random.default_rng(args.seed)
    v = rng.standard_normal(m_len) + 1j * rng.standard_normal(m_len)
    return v / np.linalg.norm(v)


def cmd_sieve_l1(args) -> int:
    problem = sieve.SieveProblem(args.k, args.n_max, args.m_len, args.m_offset)
    problem.validate()
    alpha = _make_alpha(args, args.m_len)
    start = time.perf_counter()
    value = sieve.l1_sieve_sum(problem, alpha, _cap(args))
    delta = sieve.sieve_gram_eigenvalue(problem, max_entries=_cap(args))
    p_rows = sieve.row_count(problem)
    cs_bound = math.sqrt(p_rows * delta) * float(np.linalg.norm(alpha))
    payload = {
        "schema": SCHEMA,
        "command": "sieve-l1",
        "k": args.k,
        "n_max": args.n_max,
        "m_len": args.m_len,
        "m_offset": args.m_offset,
        "alpha_mode": args.alpha_mode,
        "seed": args.seed,
        "value": value,
        "cs_bound": cs_bound,
        "within_cs": value <= cs_bound * (1 + 1e-9),
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"sieve-l1: value={value:.6g} <= {cs_bound:.6g}",
    }
    _emit(args, payload)
    return 0


def cmd_sieve_dual(args) -> int:
    problem = sieve.SieveProblem(args.k, args.n_max, args.m_len, args.m_offset)
    problem.validate()
    p_rows = sieve.row_count(problem)
    if args.coeff_mode == "ones":
        coeffs = np.ones(p_rows, dtype=complex)
    else:
        rng = np.random.default_rng(args.seed)
        coeffs = np.exp(2j * np.pi * rng.random(p_rows))
    start = time.perf_counter()
    value = sieve.dual_quadratic_form(problem, coeffs, _cap(args))
    delta = sieve.sieve_gram_eigenvalue(problem, max_entries=_cap(args))
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    bound = delta * norm_sq
    payload = {
        "schema": SCHEMA,
        "command": "sieve-dual",
        "k": args.k,
        "n_max": args.n_max,
        "m_len": args.m_len,
        "m_offset": args.m_offset,
        "coeff_mode": args.coeff_mode,
        "seed": args.seed,
        "value": value,
        "coeff_norm_sq": norm_sq,
        "delta_bound": bound,
        "within_bound": value <= bound * (1 + 1e-9),
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"sieve-dual: value={value:.6g} <= {bound:.6g}",
    }
    _emit(args, payload)
    return 0


def cmd_bounds(args) -> int:
    report = sieve.classical_bounds(args.k, args.n, args.m)
    payload = {
        "schema": SCHEMA,
        "command": "bounds",
        "k": args.k,
        "n": args.n,
        "m": args.m,
        **report.to_json(),
        "summary": (
            f"bounds: classical_1={report.classical_1} classical_2={report.classical_2} "
            f"conjecture={report.conjecture} cor2_rhs={report.cor2_rhs}"
        ),
    }
    header = "k,n,m,classical_1,classical_2,conjecture,cor2_rhs"
    row = ",".join(
        str(v) for v in (args.k, args.n, args.m, report.classical_1,
                         report.classical_2, report.conjecture, report.cor2_rhs)
    )
    _emit(args, payload, csv_lines=[header, row])
    return 0


def cmd_sharpness_study(args) -> int:
    start = time.perf_counter()
    rows = paircount.sharpness_study(args.k, args.n_list, coprime=args.coprime,
                                     max_points=_cap(args))
    json_rows = [
        {
            "n": r["n"],
            "count": r["count"],
            "ratio": float(r["ratio"]),
            "log_slope": r["log_slope"],
        }
        for r in rows
    ]
    payload = {
        "schema": SCHEMA,
        "command": "sharpness-study",
        "k": args.k,
        "rows": json_rows,
        "elapsed_ms": 1000 * (time.perf_counter() - start),
        "summary": f"sharpness-study: {len(rows)} rows, last ratio {float(rows[-1]['ratio']):.6g}",
    }
    header = "n,count,ratio,log_slope"
    csv_lines = [header] + [
        f"{r['n']},{r['count']},{float(r['ratio'])!r},{'' if r['log_slope'] is None else repr(r['log_slope'])}"
        for r in rows
    ]
    _emit(args, payload, csv_lines=csv_lines)
    return 0


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", help="write the report to this path instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="report format (csv only for tabular commands; default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powfrac",
        description="Exact spacing statistics and large-sieve constants for "
                    "fractions with power denominator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list tuples u/n^k")
    sp.add_argument("--k", type=int, required=True, help="exponent k >= 1")
    sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
    sp.add_argument("--coprime", action="store_true", help="keep only gcd(u,n)=1")
    sp.add_argument("--sorted", action="store_true", help="emit in increasing value order")
    sp.add_argument("--limit", type=int, default=1000, help="max tuples to print (default 1000)")
    _add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("pairs", help="ordered near-pair count within 1/y")
    sp.add_argument("--k", type=int, required=True, help="exponent k >= 1")
    sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
    sp.add_argument("--y", type=_positive_rational, required=True,
                    help='threshold scale as "p/q"; pairs within 1/y count')
    sp.add_argument("--coprime", action="store_true", help="restrict to gcd(u,n)=1 tuples")
    sp.add_argument("--metric", choices=("line", "circle"), default="line",
                    help="absolute value on R (line) or distance mod 1 (circle)")
    sp.add_argument("--method", choices=("sweep", "oracle"), default="sweep",
                    help="sorted sweep (default) or the O(P^2) oracle")
    _add_common(sp)
    sp.set_defaults(func=cmd_pairs)

    sp = sub.add_parser("blocks", help="near-pair count over dyadic boxes")
    sp.add_argument("--k", type=int, required=True, help="exponent k >= 1")
    sp.add_argument("--u1", type=int, required=True, help="first numerator block start")
    sp.add_argument("--n1", type=int, required=True, help="first base block start")
    sp.add_argument("--u2", type=int, required=True, help="second numerator block start")
    sp.add_argument("--n2", type=int, required=True, help="second base block start")
    sp.add_argument("--y", type=_positive_rational, required=True, help='threshold scale "p/q"')
    sp.add_argument("--closed", action="store_true",
                    help="use closed ranges [U,2U]x[N,2N] instead of half-open")
    _add_common(sp)
    sp.set_defaults(func=cmd_blocks)

    sp = sub.add_parser("window", help="points within circle distance 1/y of x")
    sp.add_argument("--k", type=int, required=True, help="exponent k >= 1")
    sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
    sp.add_argument("--x", type=parse_rational, required=True, help='window center as "p/q"')
    sp.add_argument("--y", type=_positive_rational, required=True, help='window scale "p/q"')
    sp.add_argument("--no-coprime", action="store_true",
                    help="count all tuples, not only gcd(u,n)=1")
    _add_common(sp)
    sp.set_defaults(func=cmd_window)

    sp = sub.add_parser("measure", help="coverage profile and exceptional-set measure")
    sp.add_argument("--k", type=int, required=True, help="exponent k >= 1")
    sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
    sp.add_argument("--y", type=_positive_rational, required=True, help='arc scale "p/q" (radius 1/y)')
    sp.add_argument("--threshold", type=int, required=True, help="depth threshold T >= 1")
    sp.add_argument("--no-coprime", action="store_true",
                    help="use all tuples, not only gcd(u,n)=1")
    sp.add_argument("--profile-csv", help="also write the full step function to this CSV path")
    _add_common(sp)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("expsum-direct", help="direct monomial exponential sum")
    sp.add_argument("--alpha", type=float, required=True, help="monomial exponent (nonzero)")
    sp.add_argument("--y", type=float, required=True, help="amplitude y >= 0")
    sp.add_argument("--n-scale", type=float, required=True, help="left endpoint / scale")
    sp.add_argument("--eta", type=float, required=True, help="interval ratio > 1")
    _add_common(sp)
    sp.set_defaults(func=cmd_expsum_direct)

    sp = sub.add_parser("expsum-vdc", help="stationary-phase transform vs direct sum")
    sp.add_argument("--alpha", type=float, required=True,
                    help="monomial exponent (not a positive integer)")
    sp.add_argument("--y", type=float, required=True, help="amplitude y > 0")
    sp.add_argument("--n-scale", type=float, required=True, help="left endpoint / scale")
    sp.add_argument("--eta", type=float, required=True, help="interval ratio > 1")
    _add_common(sp)
    sp.set_defaults(func=cmd_expsum_vdc)

    sp = sub.add_parser("kusmin", help="Kusmin-Landau bound check for f(n)=coef*n^power")
    sp.add_argument("--coef", type=float, required=True, help="phase coefficient")
    sp.add_argument("--power", type=float, default=1.0, help="phase power (default 1)")
    sp.add_argument("--a", type=float, required=True, help="left endpoint (inclusive)")
    sp.add_argument("--b", type=float, required=True, help="right endpoint (inclusive)")
    sp.add_argument("--lam", type=float, required=True,
                    help="lower bound on distance of f' to the integers, in (0,1)")
    _add_common(sp)
    sp.set_defaults(func=cmd_kusmin)

    sp = sub.add_parser("meanvalue", help="square mean of the bilinear sum over [-y,y]")
    sp.add_argument("--k", type=int, required=True, help="phase exponent: phi = u/n^k")
    sp.add_argument("--n-lo", type=int, required=True, help="n interval start (inclusive)")
    sp.add_argument("--n-hi", type=int, required=True, help="n interval end (inclusive)")
    sp.add_argument("--u-lo", type=int, required=True, help="u interval start (inclusive)")
    sp.add_argument("--u-hi", type=int, required=True, help="u interval end (inclusive)")
    sp.add_argument("--y-max", type=float, required=True, help="integration half-length Y")
    _add_common(sp)
    sp.set_defaults(func=cmd_meanvalue)

    sp = sub.add_parser("sieve-delta", help="optimal sieve constant (top Gram eigenvalue)")
    sp.add_argument("--k", type=int, required=True, help="modulus exponent k >= 1")
    sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
    sp.add_argument("--m-len", type=int, required=True, help="coefficient window length M")
    sp.add_argument("--m-offset", type=int, default=0, help="window offset K (default 0)")
    sp.add_argument("--method", choices=("power", "dense"), default="power",
                    help="real Toeplitz Gram matrix (default) or the complex dense oracle")
    _add_common(sp)
    sp.set_defaults(func=cmd_sieve_delta)

    sp = sub.add_parser("sieve-l1", help="l1-of-rows sieve sum for a coefficient vector")
    sp.add_argument("--k", type=int, required=True, help="modulus exponent k >= 1")
    sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
    sp.add_argument("--m-len", type=int, required=True, help="coefficient window length M")
    sp.add_argument("--m-offset", type=int, default=0, help="window offset K (default 0)")
    sp.add_argument("--alpha-mode", choices=("random", "ones", "basis"), default="random",
                    help="coefficient vector: seeded random unit, all ones, or a basis vector")
    sp.add_argument("--basis-index", type=int, default=0,
                    help="index for --alpha-mode basis (default 0)")
    sp.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    _add_common(sp)
    sp.set_defaults(func=cmd_sieve_l1)

    sp = sub.add_parser("sieve-dual", help="dual quadratic form over the window")
    sp.add_argument("--k", type=int, required=True, help="modulus exponent k >= 1")
    sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
    sp.add_argument("--m-len", type=int, required=True, help="coefficient window length M")
    sp.add_argument("--m-offset", type=int, default=0, help="window offset K (default 0)")
    sp.add_argument("--coeff-mode", choices=("ones", "random-unimodular"), default="ones",
                    help="row coefficients: all ones or seeded unimodular draws")
    sp.add_argument("--seed", type=int, default=42, help="random seed (default 42)")
    _add_common(sp)
    sp.set_defaults(func=cmd_sieve_dual)

    sp = sub.add_parser("bounds", help="baseline sieve bound table")
    sp.add_argument("--k", type=int, required=True, help="modulus exponent k >= 1")
    sp.add_argument("--n", type=int, required=True, help="maximum base n")
    sp.add_argument("--m", type=int, required=True, help="window length M")
    _add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("sharpness-study", help="near-pair counts at the critical scale y=n^(k+1)")
    sp.add_argument("--k", type=int, required=True, help="exponent k >= 1")
    sp.add_argument("--n-list", type=_int_list, required=True,
                    help="comma-separated bases, e.g. 8,12,16,20,24")
    sp.add_argument("--coprime", action="store_true", help="restrict to gcd(u,n)=1 tuples")
    _add_common(sp)
    sp.set_defaults(func=cmd_sharpness_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RangeError, CoprimalityError, DimensionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except PowfracError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
