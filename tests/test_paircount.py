"""Near-pair, block, window, coverage and measure counting."""

import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powfrac import expsum, paircount
from powfrac import (CoverageProfile, DyadicBlockQuery, EnumerationSpec, PairQuery, RangeError,
                     ResourceError, count_pairs_block, count_pairs_bruteforce,
                     count_pairs_interval, coverage_profile, enumerate_tuples,
                     exceptional_measure, sharpness_study, tuple_count, window_count)
from powfrac.fraccore import reduced_denominators


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


def test_interval_resource_cap(monkeypatch):
    monkeypatch.setenv("POWFRAC_MAX_POINTS", "5")
    with pytest.raises(ResourceError):
        count_pairs_interval(PairQuery(2, 4, Fraction(3)))


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
        j1 = count_pairs_block(DyadicBlockQuery(k, u1, n1, u1, n1, y))
        j2 = count_pairs_block(DyadicBlockQuery(k, u2, n2, u2, n2, y))
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


def test_sharpness_study_rows():
    rows = sharpness_study(2, [4, 6, 8])
    assert [r["n"] for r in rows] == [4, 6, 8]
    assert rows[0]["log_slope"] is None
    for r in rows:
        assert r["count"] == count_pairs_interval(PairQuery(2, r["n"], Fraction(r["n"] ** 3)))
        assert r["ratio"] == pytest.approx(r["count"] / r["n"] ** 3)
    assert all(isinstance(r["log_slope"], float) for r in rows[1:])


def _pair_distances(c1: int, c2: int, circle: bool) -> list[Fraction]:
    """Sorted exact distances |v1/c1 - v2/c2|, 1 <= v_i <= c_i, by a double loop."""
    dists = []
    for v1 in range(1, c1 + 1):
        for v2 in range(1, c2 + 1):
            d = abs(Fraction(v1, c1) - Fraction(v2, c2))
            dists.append(min(d, 1 - d) if circle else d)
    return sorted(dists)


def test_pair_closed_form_matches_double_loop():
    """One pair of table entries against its double loop, at t = R/l and
    (R + 1/2)/l for R = 0..l+1 with l = lcm(c1, c2): ties at every reach, the
    triangle edges R = beta - 1 and R = beta, the halves 2R = l - 1 and 2R = l,
    everything past l; and at a threshold with a 31-digit denominator."""
    for c1 in range(1, 13):
        for c2 in range(1, 13):
            l = math.lcm(c1, c2)
            ts = [Fraction(r, 2 * l) for r in range(2 * l + 4)] + [Fraction(1, 10**30 + 7)]
            for circle in (False, True):
                dists = _pair_distances(c1, c2, circle)
                for t in ts:
                    # t = yq/yp; t = 0 counts the coincident pairs
                    got = paircount._pair_count(c1, c2, t.denominator, t.numerator, circle)
                    assert got == bisect_right(dists, t), (c1, c2, t, circle)


def test_line_pair_count_is_at_most_one_strip_per_pair_of_entries(monkeypatch):
    """Below the denominators some line pairs are near only across 0 = 1, so the
    line count needs lattice strips: at least one _near call, and at most one per
    unordered pair of table entries."""
    q = PairQuery(2, 6, Fraction(7, 3))
    calls = []
    near = paircount._near
    monkeypatch.setattr(paircount, "_near", lambda *a: calls.append(a) or near(*a))
    assert count_pairs_interval(q) == count_pairs_bruteforce(q)
    entries = len(reduced_denominators(2, 6, False))
    assert 1 <= len(calls) <= entries * (entries + 1) // 2


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("coprime", [False, True])
def test_reduced_denominator_table(k, coprime):
    """The weighted table stands for every tuple once, and its pairs of
    entries stay within a fixed multiple of the tuple count the cap bounds."""
    for n_max in range(1, 61):
        table = reduced_denominators(k, n_max, coprime)
        tuples = tuple_count(k, n_max, coprime)
        assert sum(w * c for c, w in table.items()) == tuples, n_max
        assert all(table.values()), n_max
        size = len(table)
        # one closed form per unordered pair of entries
        assert size * (size + 1) // 2 <= 2 * tuples, n_max


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
def test_block_strips_match_cross_multiplication(case):
    q, closed = case
    yp, yq = q.y.numerator, q.y.denominator
    expected = sum(1 for u1, d1 in _block_side(q.u1, q.n1, q.k, closed)
                   for u2, d2 in _block_side(q.u2, q.n2, q.k, closed)
                   if abs(u1 * d2 - u2 * d1) * yp <= yq * d1 * d2)
    assert count_pairs_block(q, closed=closed) == expected


def circle_distance(z: Fraction, x: Fraction) -> Fraction:
    """Distance from z - x to the nearest integer; exact, in [0, 1/2]."""
    d = (z - x) % 1
    return min(d, 1 - d)


def test_circle_distance_examples():
    assert circle_distance(Fraction(1), Fraction(0)) == 0
    assert circle_distance(Fraction(1, 2), Fraction(0)) == Fraction(1, 2)
    assert circle_distance(Fraction(3, 4), Fraction(0)) == Fraction(1, 4)


def test_circle_distance_symmetry_and_range():
    rng = random.Random(42)
    for _ in range(200):
        z = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        d = circle_distance(z, x)
        assert d == circle_distance(x, z)
        assert 0 <= d <= Fraction(1, 2)
        # shifting either argument by an integer changes nothing
        assert d == circle_distance(z + 3, x - 2)


def _enumerated_window(k: int, n_max: int, x: Fraction, y: Fraction, coprime: bool) -> int:
    """The enumerating window count: every tuple's exact circle distance to x."""
    t = 1 / y
    return sum(1 for f in enumerate_tuples(EnumerationSpec(k, n_max, coprime))
               if circle_distance(f.value, x) <= t)


@st.composite
def window_queries(draw):
    k = draw(st.integers(1, 3))
    n_max = draw(st.integers(1, (12, 5, 3)[k - 1]))
    coprime = draw(st.booleans())
    vals = [f.value for f in enumerate_tuples(EnumerationSpec(k, n_max, coprime))]
    # the gap between two values: past 1/2 (every point counts) or any finer gap
    t = _threshold(draw, draw(st.sampled_from(vals)), draw(st.sampled_from(vals)))
    # x sits on the exact edge of a point's window, so the window's own edges
    # meet other points; from the smallest point or from 1 it falls across
    # the wrap at 0/1
    v = draw(st.one_of(st.sampled_from([min(vals), Fraction(1)]), st.sampled_from(vals)))
    x = v + draw(st.sampled_from([-t, t]))
    return k, n_max, x + draw(st.integers(-1, 1)), 1 / t, coprime


@settings(derandomize=True, max_examples=300, deadline=None)
@given(window_queries())
def test_window_count_matches_enumeration(case):
    assert window_count(*case) == _enumerated_window(*case)


# Mid-size counts against the sweep over the sorted values, at thresholds from
# past the whole circle down to exact coincidence, with 31-digit numerators and
# denominators.
_BIG = 10**30 + 7
_EXTREME_Y = [Fraction(_BIG, _BIG + 1),         # 1/y > 1: every line pair counts
              Fraction(2),                      # 1/y = 1/2: every circle pair counts
              Fraction(2 * _BIG + 1, _BIG),     # 1/y just below 1/2
              Fraction(_BIG, 10**26),           # 1/y about 10^-4
              Fraction(_BIG + 2, _BIG),         # 1/y just below 1
              Fraction(_BIG)]                   # only coincident values


def _swept_count(vals: list, y: Fraction, metric: str) -> int:
    """The near-pair count by expsum's two-pointer sweep, exact on Fractions."""
    t = 1 / y
    if metric == "circle" and t >= Fraction(1, 2):
        return len(vals) ** 2
    line = expsum._pairs_within(vals, vals, -t, t)
    return line if metric == "line" else line + 2 * expsum._pairs_within(vals, vals, -1, t - 1)


@pytest.mark.parametrize("k, n_max, coprime", [(2, 24, False), (3, 10, True), (1, 60, True)])
def test_interval_matches_sorted_sweep_mid_size(k, n_max, coprime):
    vals = sorted(f.value for f in enumerate_tuples(EnumerationSpec(k, n_max, coprime)))
    critical = n_max ** (k + 1)
    ys = _EXTREME_Y + [Fraction(critical * _BIG, _BIG + 2), Fraction(critical, 3)]
    for y in ys:
        for metric in ("line", "circle"):
            q = PairQuery(k, n_max, y, coprime, metric)
            assert count_pairs_interval(q) == _swept_count(vals, y, metric), (y, metric)


def test_lattice_counts_never_enumerate(monkeypatch):
    def refuse(*spec):
        raise AssertionError(f"reached {spec}")

    # k = 1 with the gcd filter, and small coprime queries, whose tables
    # carry negative Moebius weights, against the oracle
    few_tuples = [PairQuery(1, 30, Fraction(900), True, "line"),
                  PairQuery(1, 30, Fraction(900), True, "circle"),
                  PairQuery(2, 6, Fraction(216), True, "line"),
                  PairQuery(2, 6, Fraction(216), True, "circle")]
    expected = [count_pairs_bruteforce(q) for q in few_tuples]
    monkeypatch.setattr(paircount, "fraction_table", refuse)
    assert count_pairs_block(DyadicBlockQuery(2, 100, 8, 120, 9, Fraction(10**5))) > 0
    # near-pair counts with Y past every denominator, and window counts, are
    # closed forms over complete residue systems: no lattice strip either
    monkeypatch.setattr(paircount, "_near", refuse)
    for coprime in (False, True):
        for metric in ("line", "circle"):
            assert count_pairs_interval(PairQuery(2, 30, Fraction(27000), coprime, metric)) > 0
    assert [count_pairs_interval(q) for q in few_tuples] == expected
    assert window_count(2, 30, Fraction(1, 3), Fraction(900)) > 0
    assert len(sharpness_study(2, [10, 20, 30])) == 3


def test_block_cap_counts_strips(monkeypatch):
    """Block counts are capped in strips, one per pair of bases, not in tuples."""
    monkeypatch.delenv("POWFRAC_MAX_POINTS", raising=False)
    # 2 * 10^8 tuples but 2500 strips; every value u/n^2 lies in [100, 800),
    # so every pair is within 1/y = 1000
    q = DyadicBlockQuery(2, 10**6, 50, 10**6, 50, Fraction(1, 1000))
    assert count_pairs_block(q) == (10**6 * 50)**2

    def refuse(*args):
        raise AssertionError("ran a strip")

    monkeypatch.setattr(paircount, "_near", refuse)
    # 10^4 tuples a side, but 10^8 pairs of bases, past the default cap
    with pytest.raises(ResourceError, match="strips"):
        count_pairs_block(DyadicBlockQuery(1, 1, 10**4, 1, 10**4, Fraction(15000 * 15001)))


def test_block_cap_counts_words_of_n_to_the_k(monkeypatch):
    """A strip's floor sums walk through integers the size of n^k, so the cap counts
    strips times the 64-bit words of the largest n^k."""
    monkeypatch.delenv("POWFRAC_MAX_POINTS", raising=False)
    monkeypatch.setattr(paircount, "_near", lambda *a: pytest.fail("ran a strip"))
    # 316^2, about 10^5 strips, each through the 32 words of n^200 < 632^200
    with pytest.raises(ResourceError, match="strips"):
        count_pairs_block(DyadicBlockQuery(200, 1, 316, 1, 316, Fraction(1)))
    # n^k < 100^3 fills one word at k <= 3: the cap counts strips alone there
    monkeypatch.setenv("POWFRAC_MAX_POINTS", "2500")
    monkeypatch.setattr(paircount, "_near", lambda *a: 1)
    for k in (1, 2, 3):
        assert count_pairs_block(DyadicBlockQuery(k, 1, 50, 1, 50, Fraction(1))) == 2500
        with pytest.raises(ResourceError, match="strips"):
            count_pairs_block(DyadicBlockQuery(k, 1, 51, 1, 50, Fraction(1)))


def test_int_threshold_keeps_the_measure_exact():
    # An int y used to turn the radius, the integral and the measure into floats
    prof = coverage_profile(2, 5, 50)
    assert prof == coverage_profile(2, 5, Fraction(50))
    assert prof.radius == Fraction(1, 50) and type(prof.radius) is Fraction
    assert prof.integral() == Fraction(37, 25)
    assert exceptional_measure(prof, 2) == Fraction(209, 450)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 300), st.booleans(),
       st.sampled_from(["line", "circle"]), st.integers(1, 4), st.integers(1, 4),
       st.fractions(0, 1, max_denominator=30))
def test_every_threshold_entry_point_takes_an_int_as_its_fraction(k, n_max, y, coprime, metric,
                                                                  u, n, x):
    """The four entry points that take a threshold scale y give the same answers for
    an int y as for Fraction(y), keep the profile in Fractions, and refuse a float y."""
    exact = Fraction(y)
    assert (count_pairs_interval(PairQuery(k, n_max, y, coprime, metric))
            == count_pairs_interval(PairQuery(k, n_max, exact, coprime, metric)))
    assert (count_pairs_block(DyadicBlockQuery(k, u, n, n, u, y))
            == count_pairs_block(DyadicBlockQuery(k, u, n, n, u, exact)))
    assert window_count(k, n_max, x, y, coprime) == window_count(k, n_max, x, exact, coprime)
    prof = coverage_profile(k, n_max, y, coprime)
    assert prof == coverage_profile(k, n_max, exact, coprime)
    assert all(type(v) is Fraction for v in (prof.radius, *prof.breakpoints,
                                             exceptional_measure(prof, 1)))
    for call in (lambda: PairQuery(k, n_max, float(y), coprime, metric),
                 lambda: DyadicBlockQuery(k, u, n, n, u, float(y)),
                 lambda: window_count(k, n_max, x, float(y), coprime),
                 lambda: coverage_profile(k, n_max, float(y), coprime)):
        with pytest.raises(RangeError, match="threshold scale y must be an int or a Fraction"):
            call()
