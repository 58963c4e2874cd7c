"""Tests of the benchmark itself: answer checks catch wrong answers, the
independent oracles agree with the library, the tracer's self-time
arithmetic holds, and rounds are seeded and never repeat a query.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from powfrac import cli, expsum, paircount, sieve  # noqa: E402
from powfrac.fraccore import tuple_count  # noqa: E402
from tracer import Tracer  # noqa: E402


def _small_run(seconds=0.3):
    return worker.run("small-queries", 11, seconds, False)


def test_small_queries_pass_unchanged():
    result = _small_run()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("module,name,corrupt", [
    (paircount, "count_pairs_interval", lambda f: lambda *a, **k: f(*a, **k) + 2),
    (paircount, "window_count", lambda f: lambda *a, **k: f(*a, **k) + 1),
    (paircount, "count_pairs_block", lambda f: lambda *a, **k: f(*a, **k) + 1),
    (sieve, "sieve_gram_eigenvalue", lambda f: lambda *a, **k: f(*a, **k) * (1 + 1e-6)),
    (sieve, "dense_gram_eigenvalue", lambda f: lambda *a, **k: f(*a, **k) * (1 + 1e-6)),
    (expsum, "mean_value_integral", lambda f: lambda *a, **k: f(*a, **k) * 1.001),
    (expsum, "direct_monomial_sum", lambda f: lambda *a, **k: f(*a, **k) + 1e-6),
])
def test_corrupted_answer_raises_failed_frac(monkeypatch, module, name, corrupt):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    result = _small_run()
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_cross_query_identities_are_checked():
    """circle >= line and J^2 <= 9 J1 J2 are checked between sibling queries."""
    line = workloads.pairs_query("line", 1, 3, Fraction(7), False, "line")
    circle = workloads.pairs_query("circle", 1, 3, Fraction(7), False, "circle", line_peer="line")
    good = [worker.execute(cli, q) for q in (line, circle)]
    assert workloads.check_round([line, circle], good, None) == [None, None]
    bad = workloads.Outcome(0, '{"count": 0}', "", None, None, 0.0)
    verdicts = workloads.check_round([line, circle], [good[0], bad], None)
    assert verdicts[0] is None and verdicts[1] is not None


def test_reference_answers_are_compared():
    q = workloads.pairs_query("p", 1, 3, Fraction(7), False, "line")
    out = worker.execute(cli, q)
    count = out.payload["count"]
    assert workloads.check_round([q], [out], {"p": count}) == [None]
    assert workloads.check_round([q], [out], {"p": count + 2}) != [None]


def test_oracles_agree_with_the_library():
    rng = random.Random(3)
    for _ in range(40):
        k, n = rng.randint(1, 3), rng.randint(1, 5)
        coprime = rng.random() < 0.5
        x, y = Fraction(rng.randint(0, 99), 100), Fraction(rng.randint(1, 200), rng.randint(1, 5))
        assert oracles.point_total(k, n, coprime) == tuple_count(k, n, coprime)
        assert oracles.window_count(k, n, x, y, coprime) == paircount.window_count(
            k, n, x, y, coprime=coprime)
        q = paircount.DyadicBlockQuery(k, rng.randint(1, 5), rng.randint(1, 4),
                                       rng.randint(1, 5), rng.randint(1, 4), y)
        closed = rng.random() < 0.5
        assert oracles.block_count(k, q.u1, q.n1, q.u2, q.n2, y, closed) == \
            paircount.count_pairs_block(q, closed=closed)
        if oracles.point_total(k, n, coprime) <= 40:
            t = rng.randint(1, 4)
            profile = paircount.coverage_profile(k, n, y, coprime=coprime)
            assert oracles.small_measure(k, n, y, t, coprime) == \
                paircount.exceptional_measure(profile, t)
    spec = expsum.MeanValueSpec(expsum.power_phase(2), (1, 5), (1, 5), 30.0)
    value = expsum.mean_value_integral(spec)
    closed = oracles.closed_mean_value(oracles.power_phases(2, 5), 30.0)
    assert abs(closed - value) <= spec.rel_tol * value


def test_tracer_self_times_partition_the_root_span():
    tracer = Tracer()
    original = paircount.enumerate_tuples
    tracer.install()
    try:
        tracer.query_id = (0, 7)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["pairs", "--k", "2", "--n-max", "6", "--y", "50/1"]) == 0
    finally:
        tracer.uninstall()
    assert paircount.enumerate_tuples is original
    names = {s[1]: s for s in tracer.spans}
    root = names["cli.main"]
    assert root[5] is None and all(s[6] == (0, 7) for s in tracer.spans)
    assert names["paircount.count_pairs_interval"][5] == root[0]
    assert names["fraccore.enumerate_tuples"][5] == names["paircount.count_pairs_interval"][0]
    assert tracer.counters["fraccore.enumerate.tuples"] == tuple_count(2, 6)
    assert sum(tracer.self_times().values()) == pytest.approx(root[4], rel=1e-9)
    metrics = tracer.layer_metrics(rounds=1)
    assert metrics["paircount.calls"] == 1
    assert metrics["cli.self_s"] > 0 and metrics["sieve.self_s"] == 0


def test_rounds_are_seeded_and_never_repeat():
    for name, make in workloads.WORKLOADS.items():
        keys = []
        for seed in (1, 1, 2):
            rng, seen = random.Random(seed), set()
            rounds = [worker.draw_round(make, rng, seen) for _ in range(3)]
            flat = [q.key() for r in rounds for q in r]
            assert len(flat) == len(set(flat)), name
            keys.append(flat)
        assert keys[0] == keys[1] and keys[0] != keys[2], name
