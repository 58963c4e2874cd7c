"""Command-line front end: every operation as a subcommand with
machine-readable JSON/CSV reports.

Rationals are accepted only as "p/q" strings (never floats), so
thresholds survive parsing exactly.  Reports carry a top-level
"schema": 1 field, are strict JSON (no NaN or Infinity), and are
byte-stable for a fixed config and seed, except for the elapsed_ms
timing field.  Exit codes follow the error's type alone: 0 success,
3 ResourceError (a resource-cap refusal), 2 any other PowfracError or
an argument argparse refuses, 1 anything else (an internal error).

The CLI only parses and reports: each cmd_* calls public library names and
returns (fields, summary, table rows or None), and main() writes the report,
or with --format csv its table rows by the one CSV rule of _csv.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from itertools import islice

import numpy as np

from . import expsum, paircount, sieve
from .errors import PowfracError, RangeError, ResourceError
from .fraccore import (EnumerationSpec, check_tuples, enumerate_tuples, format_rational,
                       parse_rational)

SCHEMA = 1


def _positive_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise ValueError(f"expected a positive rational, got {text!r}")
    return value


def _output_path(text: str) -> str:
    """A file path a report can be written to, checked before any work is done."""
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"the directory of {text!r} does not exist")
    return text


def _int_at_least(low: int):
    """An int option refused below low at parse time, before any work is done."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names it in its "invalid int value" message
    return parse


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _csv(rows: list[dict]) -> str:
    """The one CSV rule: the first row's keys as the header, then each value by repr,
    None as an empty field."""
    lines = [",".join(rows[0])]
    lines += [",".join("" if v is None else repr(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(args, report: dict, rows: list[dict] | None) -> None:
    """Write the report (JSON by default, CSV of its rows when selected) and its summary."""
    if rows is not None and args.format == "csv":
        text = _csv(rows)
    else:
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(text)
        summary_stream = sys.stderr
    print(report["summary"], file=summary_stream)


def cmd_enumerate(args):
    spec = EnumerationSpec(args.k, args.n_max, args.coprime, args.sorted)
    count = check_tuples(spec, "enumerate")
    shown = list(islice(enumerate_tuples(spec), min(args.limit, count)))
    fields = {**asdict(spec), "count": count, "truncated": len(shown) < count,
              "tuples": [{"u": f.u, "n": f.n, "k": f.k} for f in shown]}
    return fields, f"enumerate: {count} tuples (k={args.k}, n_max={args.n_max})", None


def cmd_pairs(args):
    q = paircount.PairQuery(args.k, args.n_max, args.y, args.coprime, args.metric)
    if args.method == "oracle":
        count = paircount.count_pairs_bruteforce(q)
    else:
        count = paircount.count_pairs_interval(q)
    y = format_rational(q.y)
    fields = {"query": {**asdict(q), "y": y}, "count": count, "method": args.method}
    return fields, f"pairs: count={count} (k={args.k}, n_max={args.n_max}, y={y})", None


def cmd_blocks(args):
    q = paircount.DyadicBlockQuery(args.k, args.u1, args.n1, args.u2, args.n2, args.y)
    count = paircount.count_pairs_block(q, closed=args.closed)
    fields = {"query": {**asdict(q), "y": format_rational(q.y)}, "closed": args.closed,
              "count": count}
    return fields, f"blocks: count={count}", None


def cmd_window(args):
    count = paircount.window_count(args.k, args.n_max, args.x, args.y, coprime=not args.no_coprime)
    fields = {"k": args.k, "n_max": args.n_max, "x": format_rational(args.x),
              "y": format_rational(args.y), "coprime": not args.no_coprime, "count": count}
    return fields, f"window: count={count} at x={format_rational(args.x)}", None


def cmd_measure(args):
    profile = paircount.coverage_profile(args.k, args.n_max, args.y, coprime=not args.no_coprime)
    measure = paircount.exceptional_measure(profile, args.threshold)
    if args.profile_csv:
        rows = [{"breakpoint_p": b.numerator, "breakpoint_q": b.denominator, "depth": depth}
                for b, depth in zip(profile.breakpoints, profile.depths)]
        with open(args.profile_csv, "w") as fh:
            fh.write(_csv(rows))
    fields = {"k": args.k, "n_max": args.n_max, "y": format_rational(args.y),
              "coprime": not args.no_coprime, "threshold": args.threshold,
              "point_count": profile.point_count, "radius": format_rational(profile.radius),
              "integral": format_rational(profile.integral()),
              "measure": format_rational(measure), "measure_float": float(measure)}
    return fields, f"measure: {format_rational(measure)} at threshold {args.threshold}", None


def cmd_expsum_direct(args):
    spec = expsum.PhaseSpec(args.alpha, args.y, args.n_scale, args.eta)
    value = expsum.direct_monomial_sum(spec)
    terms = expsum.monomial_term_count(spec)
    fields = {**asdict(spec), "value_re": value.real, "value_im": value.imag,
              "magnitude": abs(value), "terms": terms}
    return fields, f"expsum-direct: |sum|={abs(value):.6g} over {terms} terms", None


def cmd_expsum_vdc(args):
    spec = expsum.PhaseSpec(args.alpha, args.y, args.n_scale, args.eta)
    # Both term counts are checked before either sum evaluates a phase.
    expsum.monomial_term_count(spec)
    expsum.dual_term_count(spec)
    direct = expsum.direct_monomial_sum(spec)
    value, budget = expsum.vdc_transform_sum(spec)
    abs_err = abs(direct - value)
    fields = {**asdict(spec), "direct_re": direct.real, "direct_im": direct.imag,
              "transform_re": value.real, "transform_im": value.imag, "abs_err": abs_err,
              "budget": budget, "ratio": abs_err / budget if budget > 0 else None}
    return fields, f"expsum-vdc: abs_err={abs_err:.6g} budget={budget:.6g}", [fields]


def cmd_kusmin(args):
    phase = expsum.power_law_phase(args.coef, args.power, args.a, args.b)
    report = expsum.kusmin_landau_check(phase, args.lam)
    fields = {"coef": args.coef, "power": args.power, "a": args.a, "b": args.b, "lam": args.lam,
              **asdict(report)}
    summary = (f"kusmin: |sum|={report.magnitude:.6g} bound={report.bound:.6g} "
               f"passed={report.passed}")
    return fields, summary, None


def cmd_meanvalue(args):
    if args.k != 0 and args.n_lo <= 0 <= args.n_hi:
        raise RangeError(f"phase u/n^{args.k} is undefined at n = 0 in [{args.n_lo}, {args.n_hi}]")
    spec = expsum.MeanValueSpec(phi=expsum.power_phase(args.k), i1=(args.n_lo, args.n_hi),
                                i2=(args.u_lo, args.u_hi), y_max=args.y_max)
    value = expsum.mean_value_integral(spec)
    pairs = expsum.phase_pair_count(spec)
    fields = {"k": args.k, "n_range": [args.n_lo, args.n_hi], "u_range": [args.u_lo, args.u_hi],
              "y_max": args.y_max, "value": value, "pair_count": pairs}
    return fields, f"meanvalue: value={value:.6g} pair_count={pairs}", None


def _sieve_problem(args) -> tuple[sieve.SieveProblem, int]:
    """The problem and its row count; refuses past the cap first."""
    problem = sieve.SieveProblem(args.k, args.n_max, args.m_len, args.m_offset)
    return problem, sieve.row_count(problem)


def cmd_sieve_delta(args):
    problem, p_rows = _sieve_problem(args)
    if args.method == "dense":
        delta = sieve.dense_gram_eigenvalue(problem)
    else:
        delta = sieve.sieve_gram_eigenvalue(problem)
    fields = {**asdict(problem), "method": args.method, "p_rows": p_rows, "delta": delta}
    return fields, f"sieve-delta: delta={delta:.8g} (P={p_rows}, M={args.m_len})", None


def _make_alpha(args) -> np.ndarray:
    m_len = args.m_len
    if args.alpha_mode == "ones":
        return np.ones(m_len, dtype=complex)
    if args.alpha_mode == "basis":
        if not 0 <= args.basis_index < m_len:
            raise RangeError(f"basis index {args.basis_index} outside [0, {m_len})")
        v = np.zeros(m_len, dtype=complex)
        v[args.basis_index] = 1.0
        return v
    rng = np.random.default_rng(args.seed)
    v = rng.standard_normal(m_len) + 1j * rng.standard_normal(m_len)
    return v / np.linalg.norm(v)


def cmd_sieve_l1(args):
    problem, p_rows = _sieve_problem(args)
    alpha = _make_alpha(args)
    value = sieve.l1_sieve_sum(problem, alpha)
    delta = sieve.sieve_gram_eigenvalue(problem)
    cs_bound = math.sqrt(p_rows * delta) * float(np.linalg.norm(alpha))
    fields = {**asdict(problem), "alpha_mode": args.alpha_mode, "seed": args.seed,
              "value": value, "cs_bound": cs_bound, "within_cs": value <= cs_bound * (1 + 1e-9)}
    return fields, f"sieve-l1: value={value:.6g} <= {cs_bound:.6g}", None


def cmd_sieve_dual(args):
    problem, p_rows = _sieve_problem(args)
    if args.coeff_mode == "ones":
        coeffs = np.ones(p_rows, dtype=complex)
    else:
        rng = np.random.default_rng(args.seed)
        coeffs = np.exp(2j * np.pi * rng.random(p_rows))
    value = sieve.dual_quadratic_form(problem, coeffs)
    delta = sieve.sieve_gram_eigenvalue(problem)
    norm_sq = float(np.sum(np.abs(coeffs) ** 2))
    bound = delta * norm_sq
    fields = {**asdict(problem), "coeff_mode": args.coeff_mode, "seed": args.seed,
              "value": value, "coeff_norm_sq": norm_sq, "delta_bound": bound,
              "within_bound": value <= bound * (1 + 1e-9)}
    return fields, f"sieve-dual: value={value:.6g} <= {bound:.6g}", None


def cmd_bounds(args):
    report = sieve.classical_bounds(args.k, args.n, args.m)
    fields = {"k": args.k, "n": args.n, "m": args.m, **asdict(report)}
    summary = (f"bounds: classical_1={report.classical_1} classical_2={report.classical_2} "
               f"conjecture={report.conjecture} cor2_rhs={report.cor2_rhs}")
    return fields, summary, [fields]


def cmd_sharpness_study(args):
    rows = paircount.sharpness_study(args.k, args.n_list, coprime=args.coprime)
    summary = f"sharpness-study: {len(rows)} rows, last ratio {rows[-1]['ratio']:.6g}"
    return {"k": args.k, "rows": rows}, summary, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powfrac",
        description="Exact spacing statistics and large-sieve constants for "
                    "fractions with power denominator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, k_help=None, n_max=False, tabular=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--output", type=_output_path,
                        help="write the report to this path instead of stdout")
        if tabular:
            sp.add_argument("--format", choices=("json", "csv"), default="json",
                            help="report format (default json)")
        if k_help:
            sp.add_argument("--k", type=int, required=True, help=k_help)
        if n_max:
            sp.add_argument("--n-max", type=int, required=True, help="maximum base n")
        return sp.add_argument

    def sieve_window(arg):
        arg("--m-len", type=int, required=True, help="coefficient window length M")
        arg("--m-offset", type=int, default=0, help="window offset K (default 0)")

    def monomial_phase(arg, alpha_help, y_help):
        arg("--alpha", type=float, required=True, help=alpha_help)
        arg("--y", type=float, required=True, help=y_help)
        arg("--n-scale", type=float, required=True, help="left endpoint / scale")
        arg("--eta", type=float, required=True, help="interval ratio > 1")

    k_help, sieve_k = "exponent k >= 1", "modulus exponent k >= 1"
    arg = command("enumerate", cmd_enumerate, "list tuples u/n^k", k_help, n_max=True)
    arg("--coprime", action="store_true", help="keep only gcd(u,n)=1")
    arg("--sorted", action="store_true", help="emit in increasing value order")
    arg("--limit", type=_int_at_least(0), default=1000, help="max tuples to print (default 1000)")

    arg = command("pairs", cmd_pairs, "ordered near-pair count within 1/y", k_help, n_max=True)
    arg("--y", type=_positive_rational, required=True,
        help='threshold scale as "p/q"; pairs within 1/y count')
    arg("--coprime", action="store_true", help="restrict to gcd(u,n)=1 tuples")
    arg("--metric", choices=("line", "circle"), default="line",
        help="absolute value on R (line) or distance mod 1 (circle)")
    arg("--method", choices=("sweep", "oracle"), default="sweep",
        help="the fast count (default) or the O(P^2) oracle")

    arg = command("blocks", cmd_blocks, "near-pair count over dyadic boxes", k_help)
    arg("--u1", type=int, required=True, help="first numerator block start")
    arg("--n1", type=int, required=True, help="first base block start")
    arg("--u2", type=int, required=True, help="second numerator block start")
    arg("--n2", type=int, required=True, help="second base block start")
    arg("--y", type=_positive_rational, required=True, help='threshold scale "p/q"')
    arg("--closed", action="store_true",
        help="use closed ranges [U,2U]x[N,2N] instead of half-open")

    arg = command("window", cmd_window, "points within circle distance 1/y of x", k_help,
                  n_max=True)
    arg("--x", type=parse_rational, required=True, help='window center as "p/q"')
    arg("--y", type=_positive_rational, required=True, help='window scale "p/q"')
    arg("--no-coprime", action="store_true", help="count all tuples, not only gcd(u,n)=1")

    arg = command("measure", cmd_measure, "coverage profile and exceptional-set measure", k_help,
                  n_max=True)
    arg("--y", type=_positive_rational, required=True, help='arc scale "p/q" (radius 1/y)')
    arg("--threshold", type=_int_at_least(1), required=True, help="depth threshold T >= 1")
    arg("--no-coprime", action="store_true", help="use all tuples, not only gcd(u,n)=1")
    arg("--profile-csv", type=_output_path,
        help="also write the full step function to this CSV path")

    arg = command("expsum-direct", cmd_expsum_direct, "direct monomial exponential sum")
    monomial_phase(arg, "monomial exponent (nonzero)", "amplitude y >= 0")
    arg = command("expsum-vdc", cmd_expsum_vdc, "stationary-phase transform vs direct sum",
                  tabular=True)
    monomial_phase(arg, "monomial exponent (not a positive integer)", "amplitude y > 0")

    arg = command("kusmin", cmd_kusmin, "Kusmin-Landau bound check for f(n)=coef*n^power")
    arg("--coef", type=float, required=True, help="phase coefficient")
    arg("--power", type=float, default=1.0, help="phase power (default 1)")
    arg("--a", type=float, required=True, help="left endpoint (inclusive)")
    arg("--b", type=float, required=True, help="right endpoint (inclusive)")
    arg("--lam", type=float, required=True,
        help="lower bound on distance of f' to the integers, in (0,1)")

    arg = command("meanvalue", cmd_meanvalue, "square mean of the bilinear sum over [-y,y]",
                  "phase exponent: phi = u/n^k")
    arg("--n-lo", type=int, required=True, help="n interval start (inclusive)")
    arg("--n-hi", type=int, required=True, help="n interval end (inclusive)")
    arg("--u-lo", type=int, required=True, help="u interval start (inclusive)")
    arg("--u-hi", type=int, required=True, help="u interval end (inclusive)")
    arg("--y-max", type=float, required=True, help="integration half-length Y")

    arg = command("sieve-delta", cmd_sieve_delta, "optimal sieve constant (top Gram eigenvalue)",
                  sieve_k, n_max=True)
    sieve_window(arg)
    arg("--method", choices=("power", "dense"), default="power",
        help="fast path (default): real half-blocks of the Dirichlet kernel when P < M, "
             "else of the Toeplitz Gram matrix; or the complex dense oracle")

    arg = command("sieve-l1", cmd_sieve_l1, "l1-of-rows sieve sum for a coefficient vector",
                  sieve_k, n_max=True)
    sieve_window(arg)
    arg("--alpha-mode", choices=("random", "ones", "basis"), default="random",
        help="coefficient vector: seeded random unit, all ones, or a basis vector")
    arg("--basis-index", type=int, default=0, help="index for --alpha-mode basis (default 0)")
    arg("--seed", type=_int_at_least(0), default=42, help="random seed >= 0 (default 42)")

    arg = command("sieve-dual", cmd_sieve_dual, "dual quadratic form over the window", sieve_k,
                  n_max=True)
    sieve_window(arg)
    arg("--coeff-mode", choices=("ones", "random-unimodular"), default="ones",
        help="row coefficients: all ones or seeded unimodular draws")
    arg("--seed", type=_int_at_least(0), default=42, help="random seed >= 0 (default 42)")

    arg = command("bounds", cmd_bounds, "baseline sieve bound table", sieve_k, tabular=True)
    arg("--n", type=int, required=True, help="maximum base n")
    arg("--m", type=int, required=True, help="window length M")

    arg = command("sharpness-study", cmd_sharpness_study,
                  "near-pair counts at the critical scale y=n^(k+1)", k_help, tabular=True)
    arg("--n-list", type=_int_list, required=True,
        help="comma-separated bases, e.g. 8,12,16,20,24")
    arg("--coprime", action="store_true", help="restrict to gcd(u,n)=1 tuples")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        start = time.perf_counter()
        fields, summary, rows = args.func(args)
        report = {"schema": SCHEMA, "command": args.command, **fields,
                  "elapsed_ms": 1000 * (time.perf_counter() - start), "summary": summary}
        _emit(args, report, rows)
        return 0
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except PowfracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
