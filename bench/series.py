"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/series.py --seeds 1-10 --out .bench_out/series.json
    python3 bench/series.py --workloads counts --seeds 1-5 --trace

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.  With
``--trace`` it adds one traced run per workload and prints the per-layer
self-time table.  The summary is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("fraccore", "paircount", "sieve", "expsum", "cli")


def one_run(workload: str, seed: int, trace: bool) -> tuple[dict, float]:
    """One run.py result, with the machine line printed before it, and its duration."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(int(trace))]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=180)
    machine_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    result.update(json.loads(machine_line))
    return result, time.monotonic() - start


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "series.json")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs, durations = [], []
        for seed in args.seeds:
            result, seconds = one_run(workload, seed, trace=False)
            runs.append(result)
            durations.append(seconds)
            print(f"{workload} seed {seed}: {seconds:.1f}s, failed {result['failed']}/"
                  f"{result['attempted']}", file=sys.stderr, flush=True)
        entry = {"attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                 "run_seconds_taken": durations, "metrics": {}}
        print(f"== {workload}  ({len(runs)} runs, each {min(durations):.0f}-{max(durations):.0f}s)")
        for name, bound in bounds.items():
            stats = summary([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            steady &= bool(stats["spread"] <= bound)
            print(f"  {name:<14} median {stats['median']:>11.5g} {stats['unit']:<3} "
                  f"Q1 {stats['q1']:>11.5g}  Q3 {stats['q3']:>11.5g}  "
                  f"spread {stats['spread']:.3f} (bound {bound}){flag}")
        if args.trace:
            traced, _ = one_run(workload, args.seeds[0], trace=True)
            layer = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["traced_seed"] = args.seeds[0]
            entry["per_layer"] = layer
            total = sum(layer[f"{name}.self_s"] for name in LAYERS)
            shares = ", ".join(f"{name} {100 * layer[f'{name}.self_s'] / total:.1f}%"
                               for name in LAYERS)
            print(f"  self time per round {total:.4g} s: {shares}; "
                  f"trace overhead {layer['trace.overhead_frac']:+.3f}")
        report["machine"] = runs[-1]["machine"]
        report["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
