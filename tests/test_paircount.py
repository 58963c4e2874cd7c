"""Near-pair, block, window, coverage and measure counting."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powfrac import (CoverageProfile, DyadicBlockQuery, EnumerationSpec, MultiplicativeNearQuery,
                     PairQuery, RangeError, ReciprocalPairQuery, ResourceError,
                     count_multiplicative_near, count_pairs_block,
                     count_pairs_block_single, count_pairs_bruteforce,
                     count_pairs_interval, count_pairs_reciprocal, coverage_profile,
                     enumerate_tuples, exceptional_measure, sharpness_study, tuple_count,
                     window_count)


def _random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.randint(1, 64)
    num = rng.randint(lo * den, hi * den)
    return Fraction(max(num, lo * den), den)


def test_interval_examples():
    assert count_pairs_interval(PairQuery(1, 2, Fraction(10))) == 5
    assert count_pairs_interval(PairQuery(2, 2, Fraction(2))) == 21
    # 1/y covers the maximal gap, so every ordered pair counts
    assert count_pairs_interval(PairQuery(2, 2, Fraction(1))) == 25


def test_interval_validation():
    with pytest.raises(RangeError):
        count_pairs_interval(PairQuery(1, 2, Fraction(0)))
    with pytest.raises(RangeError):
        count_pairs_interval(PairQuery(1, 0, Fraction(2)))
    with pytest.raises(RangeError):
        count_pairs_interval(PairQuery(1, 2, Fraction(2), metric="torus"))


def test_interval_resource_cap():
    with pytest.raises(ResourceError):
        count_pairs_interval(PairQuery(2, 4, Fraction(3)), max_points=5)


def test_sweep_matches_bruteforce_sample():
    rng = random.Random(2024)
    for k in (1, 2):
        for n_max in (2, 3, 4):
            for metric in ("line", "circle"):
                for _ in range(6):
                    y = _random_rational(rng, 1, n_max ** (2 * k))
                    q = PairQuery(k, n_max, y, rng.random() < 0.5, metric)
                    assert count_pairs_interval(q) == count_pairs_bruteforce(q)


def test_ordered_count_decomposition():
    # ordered count = diagonal + 2 * (unordered off-diagonal count)
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randint(1, 2)
        n_max = rng.randint(2, 5)
        y = _random_rational(rng, 1, n_max ** (2 * k))
        q = PairQuery(k, n_max, y)
        total = count_pairs_interval(q)
        p = tuple_count(k, n_max)
        assert total >= p
        assert (total - p) % 2 == 0


def test_monotonicity_in_y_and_n():
    rng = random.Random(11)
    for _ in range(8):
        k = rng.randint(1, 2)
        n_max = rng.randint(2, 5)
        y1 = _random_rational(rng, 1, 40)
        y2 = y1 + rng.randint(1, 10)
        assert count_pairs_interval(PairQuery(k, n_max, y1)) >= count_pairs_interval(
            PairQuery(k, n_max, y2)
        )
        assert count_pairs_interval(PairQuery(k, n_max, y1)) <= count_pairs_interval(
            PairQuery(k, n_max + 1, y1)
        )


def test_circle_metric_wraparound():
    # points 1/10 and 1 sit at circle distance 1/10 but line distance 9/10
    line = count_pairs_interval(PairQuery(1, 10, Fraction(10), coprime=True, metric="line"))
    circ = count_pairs_interval(PairQuery(1, 10, Fraction(10), coprime=True, metric="circle"))
    assert circ > line
    # threshold at half circumference counts all ordered pairs
    p = tuple_count(1, 5, coprime=True)
    assert count_pairs_interval(PairQuery(1, 5, Fraction(2), coprime=True, metric="circle")) == p * p


def test_block_examples():
    assert count_pairs_block(DyadicBlockQuery(1, 1, 1, 1, 1, Fraction(10))) == 1
    assert count_pairs_block(DyadicBlockQuery(2, 4, 2, 1, 1, Fraction(8))) == 1
    # swapping the two blocks leaves the count unchanged
    assert count_pairs_block(DyadicBlockQuery(2, 1, 1, 4, 2, Fraction(8))) == 1


def test_block_swap_symmetry_random():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randint(1, 3)
        u1, n1 = rng.randint(1, 12), rng.randint(1, 4)
        u2, n2 = rng.randint(1, 12), rng.randint(1, 4)
        y = _random_rational(rng, 1, 64)
        a = count_pairs_block(DyadicBlockQuery(k, u1, n1, u2, n2, y))
        b = count_pairs_block(DyadicBlockQuery(k, u2, n2, u1, n1, y))
        assert a == b


def test_block_closed_convention_differs():
    # closed boxes include the 2U and 2N edges and can only add tuples
    q = DyadicBlockQuery(1, 1, 1, 1, 1, Fraction(10**6))
    assert count_pairs_block(q) == 1
    assert count_pairs_block(q, closed=True) == 6  # values {1, 1/2, 2, 1}
    rng = random.Random(13)
    for _ in range(10):
        q = DyadicBlockQuery(rng.randint(1, 2), rng.randint(1, 8), rng.randint(1, 3),
                             rng.randint(1, 8), rng.randint(1, 3), _random_rational(rng, 1, 30))
        assert count_pairs_block(q, closed=True) >= count_pairs_block(q)


def test_block_three_constant_inequality_sample():
    rng = random.Random(99)
    for _ in range(15):
        k = rng.randint(1, 3)
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        u1 = rng.randint(1, (2 * n1) ** k)
        u2 = rng.randint(1, (2 * n2) ** k)
        y = _random_rational(rng, 1, (2 * max(n1, n2)) ** (2 * k))
        j = count_pairs_block(DyadicBlockQuery(k, u1, n1, u2, n2, y))
        j1 = count_pairs_block_single(u1, n1, k, y)
        j2 = count_pairs_block_single(u2, n2, k, y)
        assert j * j <= 9 * j1 * j2


def test_window_examples():
    assert window_count(1, 2, Fraction(0), Fraction(4)) == 1
    assert window_count(1, 2, Fraction(1, 2), Fraction(4)) == 1
    # radius 1/2 reaches every point on the circle
    assert window_count(1, 2, Fraction(1, 3), Fraction(2)) == 2


def test_coverage_examples():
    prof = coverage_profile(1, 2, Fraction(4))
    # two radius-1/4 arcs around 1/2 and 0 tile the circle
    assert prof.breakpoints == (Fraction(1, 4), Fraction(3, 4))
    assert prof.depths == (1, 1)
    assert prof.integral() == 1
    assert exceptional_measure(prof, 1) == 1
    assert exceptional_measure(prof, 2) == 0  # arcs only meet at endpoints
    # both endpoints are covered twice (arcs are closed)
    assert prof.point_depths == (2, 2)
    wide = coverage_profile(1, 2, Fraction(1))
    assert wide.depths == (2,)
    assert wide.integral() == 2


def test_coverage_integral_identity_random():
    rng = random.Random(31)
    for _ in range(15):
        k = rng.randint(1, 2)
        n_max = rng.randint(1, 6)
        y = _random_rational(rng, 1, 50)
        prof = coverage_profile(k, n_max, y)
        expected = prof.point_count * min(2 / y, Fraction(1))
        assert prof.integral() == expected
        for t in range(1, prof.point_count + 1):
            assert t * exceptional_measure(prof, t) <= expected
        assert exceptional_measure(prof, prof.point_count + 1) == 0


def test_window_count_equals_profile_depth():
    rng = random.Random(4)
    k, n_max, y = 2, 5, Fraction(40)
    prof = coverage_profile(k, n_max, y)
    for _ in range(100):
        x = Fraction(rng.randint(0, 400), rng.randint(1, 400))
        assert window_count(k, n_max, x, y) == prof.depth_at(x)
    # breakpoints themselves: exact depth includes closed-arc endpoints
    for b in prof.breakpoints[:25]:
        assert window_count(k, n_max, b, y) == prof.depth_at(b)


def test_exceptional_measure_validation():
    prof = coverage_profile(1, 2, Fraction(4))
    with pytest.raises(RangeError):
        exceptional_measure(prof, 0)


def test_reciprocal_examples():
    assert count_pairs_reciprocal(ReciprocalPairQuery(1, 1, 1, Fraction(1))) == 14
    # only exact equalities survive a huge z
    assert count_pairs_reciprocal(ReciprocalPairQuery(1, 1, 1, Fraction(10**6))) == 6


def test_reciprocal_count_structure():
    rng = random.Random(17)
    for _ in range(10):
        q = ReciprocalPairQuery(rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3),
                                _random_rational(rng, 1, 20))
        count = count_pairs_reciprocal(q)
        tuples = (q.m + 1) * (q.u + 1)
        assert count >= tuples  # diagonal always within any positive 1/z
        assert (count - tuples) % 2 == 0


def test_multiplicative_examples():
    r = count_multiplicative_near(MultiplicativeNearQuery(1, 1, 1, 0))
    assert r.count == 6
    assert count_multiplicative_near(MultiplicativeNearQuery(1, 1, 1, 4)).count == 16
    assert count_multiplicative_near(MultiplicativeNearQuery(2, 1, 1, 1)).count == 6


def test_multiplicative_cap_dominates_count():
    rng = random.Random(23)
    for _ in range(20):
        q = MultiplicativeNearQuery(rng.randint(1, 3), rng.randint(1, 6),
                                    rng.randint(1, 6), rng.randint(0, 30))
        r = count_multiplicative_near(q)
        assert r.count <= r.divisor_cap
        assert r.max_multiplicity >= 1


def test_sharpness_study_rows():
    rows = sharpness_study(2, [4, 6, 8])
    assert [r["n"] for r in rows] == [4, 6, 8]
    assert rows[0]["log_slope"] is None
    for r in rows:
        assert r["count"] == count_pairs_interval(PairQuery(2, r["n"], Fraction(r["n"] ** 3)))
        assert r["ratio"] == pytest.approx(r["count"] / r["n"] ** 3)
    assert all(isinstance(r["log_slope"], float) for r in rows[1:])


# Property tests: every caller of the shared window sweep against a double loop.
# Thresholds sit on the exact gap between two drawn values, so pairs tie at the
# window edges; two coincident values fall back to a drawn threshold.

def _threshold(draw, v1: Fraction, v2: Fraction) -> Fraction:
    gap = abs(v1 - v2)
    return gap if gap else Fraction(1, draw(st.integers(1, 10**6)))


@st.composite
def pair_queries(draw):
    k = draw(st.integers(1, 3))
    n_max = draw(st.integers(1, (12, 5, 3)[k - 1]))
    coprime, metric = draw(st.booleans()), draw(st.sampled_from(["line", "circle"]))
    vals = [f.value for f in enumerate_tuples(EnumerationSpec(k, n_max, coprime))]
    t = _threshold(draw, draw(st.sampled_from(vals)), draw(st.sampled_from(vals)))
    if metric == "circle" and t < 1 and draw(st.booleans()):
        t = 1 - t  # the tie then falls on the wrap-around edge
    return PairQuery(k, n_max, 1 / t, coprime, metric)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair_queries())
def test_interval_sweep_matches_bruteforce(q):
    assert count_pairs_interval(q) == count_pairs_bruteforce(q)


def _block_side(u_start: int, n_start: int, k: int, closed: bool) -> list[tuple[int, int]]:
    extra = 1 if closed else 0
    return [(u, n**k) for n in range(n_start, 2 * n_start + extra)
            for u in range(u_start, 2 * u_start + extra)]


@st.composite
def block_queries(draw):
    k, closed = draw(st.integers(1, 3)), draw(st.booleans())
    u1, n1, u2, n2 = (draw(st.integers(1, hi)) for hi in (8, 4, 8, 4))
    a = Fraction(*draw(st.sampled_from(_block_side(u1, n1, k, closed))))
    b = Fraction(*draw(st.sampled_from(_block_side(u2, n2, k, closed))))
    return DyadicBlockQuery(k, u1, n1, u2, n2, 1 / _threshold(draw, a, b)), closed


@settings(derandomize=True, max_examples=200, deadline=None)
@given(block_queries())
def test_block_sweep_matches_cross_multiplication(case):
    q, closed = case
    yp, yq = q.y.numerator, q.y.denominator
    expected = sum(1 for u1, d1 in _block_side(q.u1, q.n1, q.k, closed)
                   for u2, d2 in _block_side(q.u2, q.n2, q.k, closed)
                   if abs(u1 * d2 - u2 * d1) * yp <= yq * d1 * d2)
    assert count_pairs_block(q, closed=closed) == expected


def _reciprocal_side(k: int, m: int, u: int) -> list[tuple[int, int]]:
    """(n^k, u_i) for each value (n/M)^k U/u_i of the closed boxes."""
    return [(n**k, w) for n in range(m, 2 * m + 1) for w in range(u, 2 * u + 1)]


@st.composite
def reciprocal_queries(draw):
    k, m, u = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    side = [Fraction(nk * u, m**k * w) for nk, w in _reciprocal_side(k, m, u)]
    t = _threshold(draw, draw(st.sampled_from(side)), draw(st.sampled_from(side)))
    return ReciprocalPairQuery(k, m, u, 1 / t)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(reciprocal_queries())
def test_reciprocal_sweep_matches_cross_multiplication(q):
    side = _reciprocal_side(q.k, q.m, q.u)
    zp, zq = q.z.numerator, q.z.denominator
    # |U a/(M^k w1) - U b/(M^k w2)| <= 1/z  <=>  U |a w2 - b w1| zp <= zq M^k w1 w2
    expected = sum(1 for a, w1 in side for b, w2 in side
                   if q.u * abs(a * w2 - b * w1) * zp <= zq * q.m**q.k * w1 * w2)
    assert count_pairs_reciprocal(q) == expected


def _products(k: int, m: int, v_start: int) -> list[int]:
    return [n**k * w for n in range(m, 2 * m + 1) for w in range(v_start, 2 * v_start + 1)]


@st.composite
def multiplicative_queries(draw):
    k, m, v = draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    prods = _products(k, m, v)
    return MultiplicativeNearQuery(k, m, v, abs(draw(st.sampled_from(prods))
                                                - draw(st.sampled_from(prods))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(multiplicative_queries())
def test_multiplicative_sweep_matches_double_loop(q):
    prods = _products(q.k, q.m, q.v_start)
    report = count_multiplicative_near(q)
    assert report.count == sum(1 for a in prods for b in prods if abs(a - b) <= q.h)
    assert report.max_multiplicity == max(prods.count(p) for p in prods)
