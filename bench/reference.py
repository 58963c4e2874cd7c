"""Record reference answers for the counts beyond the O(P^2) oracle's reach.

    python3 bench/reference.py --seeds 1-10 --rounds 12

Replays the rounds the benchmark draws for each seed, untimed, and stores
the answer of every query that keeps one (pair counts, sharpness rows and
exceptional measures) in reference.json.  worker.py compares those answers
on the shipped seeds; other seeds rely on the exact identities alone.
Rerun only when the counts workload's query list changes.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402
from series import seed_range  # noqa: E402

WORKLOAD = "counts"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--rounds", type=int, default=12)
    args = ap.parse_args(argv)
    import powfrac.cli as cli

    table = {}
    for seed in args.seeds:
        rng, seen = random.Random(seed), set()
        per_round = {}
        for r in range(args.rounds):
            queries = worker.draw_round(workloads.WORKLOADS[WORKLOAD], rng, seen)
            answers = {}
            for q in queries:
                if q.answer is not None:
                    out = worker.execute(cli, q)
                    if out.exit_code != q.expect:
                        raise SystemExit(f"seed {seed} round {r} {q.tag}: exit {out.exit_code}")
                    answers[q.tag] = q.answer(out)
            per_round[str(r)] = answers
        table[str(seed)] = per_round
        print(f"seed {seed}: {args.rounds} rounds recorded", file=sys.stderr, flush=True)
    worker.REFERENCE.write_text(json.dumps({WORKLOAD: table}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
