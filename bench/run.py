"""powfrac benchmark: four workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload counts --seed 1 --seconds 22 --trace 0
    python3 bench/run.py                      # every workload, untraced and traced

One workload: the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  With
no ``--workload`` every workload runs in turn, and a table of every metric
with its unit is printed.

Each run starts a fresh interpreter for the workload (worker.py) with the
BLAS thread count pinned, so peak memory and set-up time are its own.
``setup_s`` is the median over several fresh interpreters of the time from
starting the interpreter until ``powfrac.cli`` is imported, each rescaled by
the start-up time of a fixed reference interpreter.  The package is
imported from ``src/`` of this checkout; without it the benchmark exits
with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_FILE.read_text()) if SPEC_FILE.is_file() else {}

WORKLOADS = ("counts", "sieve", "meanvalue", "small-queries")
BLAS_THREADS = "1"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import powfrac.cli; "
         "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
# The same start-up, importing a fixed set of modules (numpy among them) but
# not powfrac: a gauge of how fast the machine starts interpreters just now.
REFERENCE_PROBE = ("import time, argparse, dataclasses, fractions, json, numpy; "
                   "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
# About one reference probe's time on the 2-core machine of the recorded
# baseline in its fast state.
REFERENCE_PROBE_S = 0.145


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # The refusals rely on the library's default caps, not on the caller's.
    env.pop("POWFRAC_MAX_POINTS", None)
    return env


def _probe(code: str, env: dict) -> float:
    """Seconds from starting an interpreter on ``code`` until it prints the time."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout) - start


def setup_seconds(env: dict) -> float:
    """Median time from starting an interpreter until powfrac.cli is imported,
    in reference-speed seconds.

    Each set-up probe runs right before a reference probe and is rescaled by
    it: reported = probe * REFERENCE_PROBE_S / reference probe.  Start-up
    (exec, loading, imports) slows less than interpreter work when the
    machine is loaded, so the speed.py kernels do not fit it; the reference
    probe has its profile.  Work added to importing powfrac moves the
    figure in full, because the reference probe does not import it."""
    samples = []
    for _ in range(SETUP_PROBES):
        setup = _probe(PROBE, env)
        samples.append(setup * REFERENCE_PROBE_S / _probe(REFERENCE_PROBE, env))
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    setup = None if trace else setup_seconds(env)
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=WORKER_TIMEOUT_S)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if setup is not None:
        result["metrics"]["setup_s"] = setup
    return result


def _units() -> dict:
    return {m["name"]: m["unit"] for m in SPEC.get("end_to_end", []) + SPEC.get("per_layer", [])}


def labelled(metrics: dict) -> dict:
    units = _units()
    return {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()}


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; print every metric with its unit."""
    units = _units()
    results = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        results[workload] = {"untraced": plain, "traced": traced}
        print(f"== {workload}: attempted {plain['attempted']}, failed {plain['failed']}, "
              f"rounds {len(plain['round_seconds'])}")
        metrics = dict(plain["metrics"], failed_frac=plain["failed"] / plain["attempted"])
        for name, value in metrics.items():
            print(f"  {name:<40} {value:>14.6g} {units.get(name, '1')}")
        layer_total = sum(traced["metrics"][f"{layer}.self_s"]
                          for layer in ("fraccore", "paircount", "sieve", "expsum", "cli"))
        for layer in ("fraccore", "paircount", "sieve", "expsum", "cli"):
            self_s = traced["metrics"][f"{layer}.self_s"]
            print(f"  {layer + '.self_s':<40} {self_s:>14.6g} s   "
                  f"({100 * self_s / layer_total:5.1f}% of layer self time)")
        print(f"  {'trace.overhead_frac':<40} {traced['metrics']['trace.overhead_frac']:>14.6g}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{seed}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {path.relative_to(ROOT)}")
    ok = all(r["untraced"]["correct"] and r["traced"]["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC.get("run_seconds", 22))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "powfrac" / "cli.py").is_file():
        print(f"error: no powfrac package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"machine": result["machine"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": labelled(result["metrics"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
