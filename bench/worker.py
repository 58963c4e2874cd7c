"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh interpreter per run, so that peak memory is
the workload's own.  One client runs a closed loop: each query starts only
after the previous one returned.  Rounds (one pass over the workload's
query list, freshly drawn) repeat until the next one would take the
measured time past ``--seconds``.  Every answer is checked after its round,
outside the timed region.  Speed calibrations run between queries
(speed.py), and every reported time is in reference-speed seconds.

With ``--trace 1`` rounds alternate untraced and traced; the traced rounds
give the per-layer metrics, and the ratio of the two medians gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

REFERENCE = BENCH / "reference.json"
MAX_REDRAWS = 1000


def _library_call(name: str, kwargs: dict):
    from powfrac import expsum
    if name == "stationary_phase_generic":
        return expsum.stationary_phase_generic(expsum.monomial_phase(expsum.PhaseSpec(**kwargs)))
    return getattr(expsum, name)(**kwargs)


def execute(cli, query, tracer=None, query_id=None) -> Outcome:
    """Run one query; the clock covers the call and the capture of its output."""
    out, err = io.StringIO(), io.StringIO()
    code = value = error = None
    if tracer is not None:
        tracer.query_id = query_id
    start = time.perf_counter()
    try:
        if query.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(query.argv)
                except SystemExit as exc:  # argparse rejects the line
                    code = exc.code if isinstance(exc.code, int) else 2
        else:
            value = _library_call(query.call, query.kwargs)
            code = 0
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), value, error, seconds)


def draw_round(make, rng, seen: set) -> list:
    """The next round whose queries all differ from every earlier query of the run."""
    for _ in range(MAX_REDRAWS):
        queries = make(rng)
        keys = [q.key() for q in queries]
        if len(set(keys)) == len(keys) and not seen.intersection(keys):
            seen.update(keys)
            return queries
    raise RuntimeError("could not draw a round of unseen queries")


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }
    head = SRC.parent / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = SRC.parent / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        info["commit"] = ref
    return info


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_path: Path | None = None, reference: dict | None = None) -> dict:
    import powfrac
    import powfrac.cli as cli
    if not Path(powfrac.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"powfrac imported from {powfrac.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()

    make = workloads.WORKLOADS[workload]
    refs = (reference or {}).get(workload, {}).get(str(seed), {})
    rng = random.Random(seed)
    seen: set = set()
    rounds = []  # (traced, [[raw seconds, speed factor] per query])
    failures: list[str] = []
    report_bytes = 0
    measured = 0.0
    calibrator = speed.Calibrator(workloads.SPEED_PROFILE[workload])
    while True:
        queries = draw_round(make, rng, seen)
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        outcomes, cells = [], []
        for i, q in enumerate(queries):
            outcomes.append(execute(cli, q, tracer if traced else None, (len(rounds), i)))
            cells.append(calibrator.add(outcomes[-1].seconds))
        if traced:
            tracer.uninstall()
            report_bytes += sum(len(o.stdout.encode()) for o in outcomes)
        # Checked at once, untimed, so that no round's outputs are kept.
        verdicts = workloads.check_round(queries, outcomes, refs.get(str(len(rounds))))
        failures += [v for v in verdicts if v is not None]
        rounds.append((traced, cells))
        measured += sum(c[0] for c in cells)
        typical = statistics.median(sum(c[0] for c in r[1]) for r in rounds)
        if len(rounds) >= (2 if trace else 1) and measured + typical > seconds:
            calibrator.flush()
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)

    attempted = sum(len(r[1]) for r in rounds)
    ref_seconds = [sum(t * f for t, f in r[1]) for r in rounds]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    if trace:
        tracer.query_scale = {(n, i): f for n, r in enumerate(rounds)
                              for i, (_, f) in enumerate(r[1])}
        traced_rounds = sum(1 for r in rounds if r[0])
        metrics = tracer.layer_metrics(traced_rounds)
        metrics["cli.report_bytes"] = report_bytes / traced_rounds
        metrics["trace.overhead_frac"] = (
            statistics.median(t for t, r in zip(ref_seconds, rounds) if r[0])
            / statistics.median(t for t, r in zip(ref_seconds, rounds) if not r[0]) - 1)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_path)
    else:
        latencies_ms = [1000 * t * f for r in rounds for t, f in r[1]]
        cuts = statistics.quantiles(latencies_ms, n=20)  # every round has several queries
        metrics = {
            "wall_s": statistics.median(ref_seconds),
            "peak_rss_mb": peak_rss_mb,
            "query_p50_ms": cuts[9],
            "query_p95_ms": cuts[18],
        }
    result["metrics"] = metrics
    result["round_seconds"] = [sum(t for t, _ in r[1]) for r in rounds]  # raw, unscaled
    result["machine"] = machine_info()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="write the traced run's spans here")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else None
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
