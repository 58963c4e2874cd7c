"""Exact near-pair, block, window, coverage and measure statistics.

Every count in this module is decided in exact integer or rational
arithmetic; floats appear only in report diagnostics, never in a
comparison that decides a count (expsum counts the float phase pairs).
Boundary ties (distance exactly equal to the threshold) always count.

Near-pair and window counts run over fraccore.reduced_denominators, the
table of reduced denominators c with integer weights w(c): w(n^k) = 1
without the gcd filter, and with it the Moebius sum, where u = e*v over
squarefree e | n turns u/n^k into v/c with c = n^k/e.  Each entry stands
for the complete residue system v = 1..c, so a near-pair count costs one
gcd per pair of entries and a window count one floor difference per
entry; neither lists the fractions.  On the line, a pair of entries some
of whose values are near only across 0 = 1 is one lattice strip instead.
Block counts range over dyadic boxes, which are not complete residue
systems: one strip per pair of bases.  Every strip is one _near call,
floor sums in O(log) steps.  Every entry point takes its threshold scale
y through _threshold, which refuses all but a positive int or Fraction.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import RangeError
from .fraccore import (DEFAULT_MAX_POINTS, EnumerationSpec, check_tuples, check_work,
                       fraction_table, reduced_denominators)


def _threshold(y) -> Fraction:
    """The threshold scale y as an exact Fraction.  RangeError unless y is a positive
    numbers.Rational: a float would turn the exact counts and measures into floats."""
    if not isinstance(y, numbers.Rational):
        raise RangeError(f"threshold scale y must be an int or a Fraction, got {y!r}")
    if y <= 0:
        raise RangeError(f"threshold scale y must be positive, got {y}")
    return Fraction(y)


@dataclass(frozen=True)
class PairQuery:
    """Near-pair query: ordered tuple pairs within 1/y, on line or circle."""

    k: int
    n_max: int
    y: Fraction
    coprime: bool = False
    metric: str = "line"

    def __post_init__(self) -> None:
        if self.k < 1 or self.n_max < 1:
            raise RangeError(f"k and n_max must be >= 1, got ({self.k}, {self.n_max})")
        object.__setattr__(self, "y", _threshold(self.y))
        if self.metric not in ("line", "circle"):
            raise RangeError(f"metric must be 'line' or 'circle', got {self.metric!r}")


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*i + b) / m) for i in range(n)), m >= 1, in O(log m) steps.

    The Euclid-like reduction of the AtCoder Library's floor_sum: after
    splitting off the integer parts of a/m and b/m, the lattice points under
    the line are recounted with the axes swapped.  Python's floor division
    makes negative a and b exact.
    """
    total = 0
    while True:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def _clamped_floor_sum(a: int, b: int, m: int, x0: int, x1: int, lo: int, hi: int) -> int:
    """sum(clamp(floor((a*x + b) / m), lo, hi) for x in [x0, x1]), a, m >= 1.

    The floor rises with x, so the clamp splits [x0, x1] into a run at lo,
    a run of plain floor sums and a run at hi.
    """
    xa = min(max(x0, -((b - lo * m) // a)), x1 + 1)  # first x with floor >= lo
    xb = min(max(xa, -((b - (hi + 1) * m) // a)), x1 + 1)  # first x with floor > hi
    return lo * (xa - x0) + _floor_sum(xb - xa, m, a, a * xa + b) + hi * (x1 + 1 - xb)


def _near(c1: int, c2: int, x0: int, x1: int, y0: int, y1: int, yp: int, yq: int) -> int:
    """#{x0 <= x <= x1, y0 <= y <= y1 : |x/c1 - y/c2| <= yq/yp}, one lattice strip.

    With l = lcm(c1, c2), alpha = l/c1, beta = l/c2 and R = floor(l*yq/yp)
    the condition is |alpha*x - beta*y| <= R.  For each x the admissible y
    run from floor((alpha*x - R - 1)/beta) + 1 to floor((alpha*x + R)/beta);
    clamping both ends to [y0 - 1, y1] turns the count into a difference of
    two clamped floor sums.
    """
    l = math.lcm(c1, c2)
    reach = yq * l // yp
    alpha, beta = l // c1, l // c2
    return (_clamped_floor_sum(alpha, reach, beta, x0, x1, y0 - 1, y1)
            - _clamped_floor_sum(alpha, -reach - 1, beta, x0, x1, y0 - 1, y1))


def _pair_count(c1: int, c2: int, yp: int, yq: int, circle: bool) -> int:
    """#{1 <= v1 <= c1, 1 <= v2 <= c2 : |v1/c1 - v2/c2| <= yq/yp}, on the line or circle.

    With g = gcd(c1, c2), l = lcm(c1, c2), alpha = l/c1 and beta = l/c2, the
    difference D = alpha*v1 - beta*v2, |D| < l, hits each residue mod l g
    times, as v1 and v2 run over complete residue systems and
    gcd(alpha, beta) = 1.  The circle counts D within R = floor(l*yq/yp) of
    0 mod l (R past l - 1 changes nothing).  The line loses the pairs near
    only across 0 = 1, those with |D| >= l - m, m = min(R, l - R - 1); as
    alpha - l <= D <= l - beta there are none when m < min(alpha, beta), and
    otherwise the line count is one _near strip over the box.
    """
    g = math.gcd(c1, c2)
    l = c1 // g * c2
    reach = min(yq * l // yp, l - 1)
    if circle or min(reach, l - reach - 1) < min(c1, c2) // g:
        return g * min(2 * reach + 1, l)
    return _near(c1, c2, 1, c1, 1, c2, yp, yq)


def count_pairs_interval(q: PairQuery) -> int:
    """Exact ordered near-pair count, one closed form per pair of table entries.

    Each entry (c, w) of reduced_denominators stands for the values v/c,
    1 <= v <= c, with weight w, so the count is the sum of
    w1*w2*_pair_count(c1, c2) over ordered pairs of entries; the count is
    symmetric in (c1, c2), so each unordered pair is counted once.
    """
    tuples = check_tuples(q, "count_pairs_interval")
    circle = q.metric == "circle"
    if circle and q.y <= 2:
        # every circle distance is at most 1/2 <= 1/y
        return tuples**2
    yp, yq = q.y.numerator, q.y.denominator
    entries = list(reduced_denominators(q.k, q.n_max, q.coprime).items())
    total = 0
    for i, (c1, w1) in enumerate(entries):
        off = sum(w2 * _pair_count(c1, c2, yp, yq, circle) for c2, w2 in entries[i + 1:])
        total += w1 * (w1 * _pair_count(c1, c1, yp, yq, circle) + 2 * off)
    return total


def count_pairs_bruteforce(q: PairQuery) -> int:
    """O(P^2) oracle for count_pairs_interval; all-integer comparisons."""
    check_tuples(q, "count_pairs_bruteforce")
    u, n = fraction_table(q.k, q.n_max, q.coprime)
    tuples = list(zip(u.tolist(), (n**q.k).tolist()))
    yp, yq = q.y.numerator, q.y.denominator
    circle = q.metric == "circle"
    count = 0
    for u1, d1 in tuples:
        for u2, d2 in tuples:
            dd = d1 * d2
            diff = abs(u1 * d2 - u2 * d1)
            # |v1 - v2| <= 1/y  <=>  diff * yp <= yq * dd
            if diff * yp <= yq * dd:
                count += 1
            elif circle and (dd - diff) * yp <= yq * dd:
                count += 1
    return count


@dataclass(frozen=True)
class DyadicBlockQuery:
    """Near-pair count restricted to dyadic boxes u_i ~ U_i, n_i ~ N_i."""

    k: int
    u1: int
    n1: int
    u2: int
    n2: int
    y: Fraction

    def __post_init__(self) -> None:
        if min(self.k, self.u1, self.n1, self.u2, self.n2) < 1:
            raise RangeError("all block parameters must be >= 1")
        object.__setattr__(self, "y", _threshold(self.y))


def count_pairs_block(q: DyadicBlockQuery, closed: bool = False) -> int:
    """Exact block count over u_i in [U_i, 2U_i), n_i in [N_i, 2N_i), one strip per pair of bases.

    closed=True switches both ranges to the closed convention
    [U_i, 2U_i] x [N_i, 2N_i]; the half-open form is the default.  Each
    strip counts the pairs of u ranges for one pair of bases, whatever the
    number of u, and its floor sums walk through integers the size of n^k.
    So the count is capped in strips, (#bases1)*(#bases2), times the 64-bit
    words of the largest n^k, at most ceil(k*bit_length(2*max(N1, N2))/64).
    """
    extra = 1 if closed else 0
    bases1, bases2 = range(q.n1, 2 * q.n1 + extra), range(q.n2, 2 * q.n2 + extra)
    words = -(-q.k * (2 * max(q.n1, q.n2)).bit_length() // 64)
    check_work(lambda cap: len(bases1) * len(bases2) * words, DEFAULT_MAX_POINTS,
               "count_pairs_block strips x 64-bit words")
    yp, yq = q.y.numerator, q.y.denominator
    return sum(_near(n1**q.k, n2**q.k, q.u1, 2 * q.u1 - 1 + extra, q.u2, 2 * q.u2 - 1 + extra, yp, yq)
               for n1 in bases1 for n2 in bases2)


@dataclass(frozen=True)
class CoverageProfile:
    """Exact step function x -> number of closed arcs of width 2*radius covering x.

    depths[i] is the constant depth on the OPEN interval between
    breakpoints[i] and the next breakpoint (wrapping past 1);
    point_depths[i] is the exact depth at breakpoints[i] itself, which
    can exceed both neighbours because arcs are closed.
    """

    breakpoints: tuple
    depths: tuple
    point_depths: tuple
    radius: Fraction
    point_count: int

    def interval_lengths(self) -> list[Fraction]:
        bps = self.breakpoints
        return [b - a for a, b in zip(bps, bps[1:])] + [bps[0] + 1 - bps[-1]]

    def depth_at(self, x: Fraction) -> int:
        x = x % 1
        i = bisect_right(self.breakpoints, x) - 1
        if i >= 0 and self.breakpoints[i] == x:
            return self.point_depths[i]
        # x before the first breakpoint lies on the wrapping interval
        return self.depths[i] if i >= 0 else self.depths[-1]

    def integral(self) -> Fraction:
        return sum((d * length for d, length in zip(self.depths, self.interval_lengths())),
                   Fraction(0))


def coverage_profile(k: int, n_max: int, y: Fraction, coprime: bool = True) -> CoverageProfile:
    """Sweep the 2*P closed-arc endpoints into an exact coverage step function."""
    y = _threshold(y)
    check_tuples(EnumerationSpec(k, n_max, coprime), "coverage_profile")
    u, n = fraction_table(k, n_max, coprime)
    centers = [Fraction(a, b) % 1 for a, b in zip(u.tolist(), (n**k).tolist())]
    p = len(centers)
    r = 1 / y
    if y <= 2:
        # every arc individually covers the whole circle
        return CoverageProfile((Fraction(0),), (p,), (p,), r, p)
    starts: Counter = Counter()
    ends: Counter = Counter()
    wrapping = 0
    for c in centers:
        left = (c - r) % 1
        right = (c + r) % 1
        starts[left] += 1
        ends[right] += 1
        wrapping += left > right
    bps = sorted(starts.keys() | ends.keys())
    m = len(bps)
    # base depth on the open interval (bps[0], bps[1]): an arc [left, right] covers it
    # when it wraps past 0 and does not end at bps[0], or when it starts at bps[0]
    depths = [0] * m
    depths[0] = wrapping + starts[bps[0]] - ends[bps[0]]
    for i in range(1, m):
        depths[i] = depths[i - 1] + starts[bps[i]] - ends[bps[i]]
    # arcs covering the interval before a breakpoint are closed on the right,
    # so they still cover the breakpoint; arcs opening there join in
    point_depths = [depths[i - 1] + starts[bps[i]] for i in range(m)]
    return CoverageProfile(tuple(bps), tuple(depths), tuple(point_depths), r, p)


def window_count(k: int, n_max: int, x: Fraction, y: Fraction, coprime: bool = True) -> int:
    """Exact number of tuples whose value lies within circle distance 1/y of x.

    For each entry (c, w) of reduced_denominators the v = 1..c with v/c
    within 1/y of x on the circle stand one to one for the integers j in
    [c*(x - 1/y), c*(x + 1/y)], v = j mod c, and count w times.
    """
    y = _threshold(y)
    tuples = check_tuples(EnumerationSpec(k, n_max, coprime), "window_count")
    if y <= 2:
        # every circle distance is at most 1/2 <= 1/y
        return tuples
    a, b, yp, yq = x.numerator, x.denominator, y.numerator, y.denominator
    # x -+ 1/y = (a*yp -+ b*yq) / (b*yp); as 1/y < 1/2, no two integers agree mod c
    low, high, den = a * yp - b * yq, a * yp + b * yq, b * yp
    return sum(w * (high * c // den + (-low * c // den) + 1)
               for c, w in reduced_denominators(k, n_max, coprime).items())


def exceptional_measure(profile: CoverageProfile, t_threshold: int) -> Fraction:
    """Exact Lebesgue measure of {x : depth(x) >= t_threshold}.

    Breakpoints are a finite set of measure zero, so only the open
    interval depths matter.
    """
    if t_threshold < 1:
        raise RangeError(f"threshold must be >= 1, got {t_threshold}")
    return sum((length for d, length in zip(profile.depths, profile.interval_lengths())
                if d >= t_threshold), Fraction(0))


def sharpness_study(k: int, n_values: Iterable[int], coprime: bool = False) -> list[dict]:
    """Near-pair counts at the critical scale y = n^(k+1), with trend columns.

    Emits one row per n: the exact count, the ratio count / n^(k+1), and
    the finite-difference slope of log ratio against log n (None for the
    first row).  An empty list is refused, and so is a repeated n, which
    would leave the slope undefined.  Every n is checked, and the tuple cap
    of the largest, before any y = n^(k+1) is formed or counted.
    """
    n_values = list(n_values)
    if not n_values:
        raise RangeError("n values must not be empty")
    if len(set(n_values)) != len(n_values):
        raise RangeError(f"n values must be distinct, got {n_values}")
    specs = [EnumerationSpec(k, n, coprime) for n in n_values]  # refuses k < 1 and n < 1
    check_tuples(max(specs, key=lambda spec: spec.n_max), "sharpness_study")
    queries = [PairQuery(k, n, n ** (k + 1), coprime) for n in n_values]
    rows: list[dict] = []
    prev: tuple[int, float] | None = None
    for n, q in zip(n_values, queries):
        count = count_pairs_interval(q)
        ratio = count / n ** (k + 1)
        slope = None
        if prev is not None:
            n0, r0 = prev
            slope = (math.log(ratio) - math.log(r0)) / (math.log(n) - math.log(n0))
        rows.append({"n": n, "count": count, "ratio": ratio, "log_slope": slope})
        prev = (n, ratio)
    return rows
