"""Exact near-pair, block, window, coverage and measure statistics.

Every count in this module is decided in exact rational arithmetic
(integer cross-multiplication underneath `fractions.Fraction`); floats
appear only in report diagnostics, never in a comparison that decides
a count.  Boundary ties (distance exactly equal to the threshold) are
always included.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import RangeError, ResourceError
from .fraccore import EnumerationSpec, circle_distance, enumerate_tuples, tuple_count_upto

# Soft cap on enumerated tuples; callers may override per call.
DEFAULT_MAX_POINTS = 2_000_000

HALF = Fraction(1, 2)
ONE = Fraction(1)


def _resolve_cap(max_points: int | None) -> int:
    return DEFAULT_MAX_POINTS if max_points is None else max_points


def _check_cap(predicted: int, max_points: int | None, what: str) -> None:
    cap = _resolve_cap(max_points)
    if predicted > cap:
        raise ResourceError(f"{what}: predicted at least {predicted} tuples exceeds cap {cap}")


def _check_tuples(k: int, n_max: int, coprime: bool, max_points: int | None, what: str) -> None:
    """Refuse an enumeration past the cap, summing per-base counts only until it passes."""
    _check_cap(tuple_count_upto(k, n_max, coprime, _resolve_cap(max_points)), max_points, what)


@dataclass(frozen=True)
class PairQuery:
    """Near-pair query: ordered tuple pairs within 1/y, on line or circle."""

    k: int
    n_max: int
    y: Fraction
    coprime: bool = False
    metric: str = "line"

    def validate(self) -> None:
        if self.k < 1 or self.n_max < 1:
            raise RangeError(f"k and n_max must be >= 1, got ({self.k}, {self.n_max})")
        if self.y <= 0:
            raise RangeError(f"threshold scale y must be positive, got {self.y}")
        if self.metric not in ("line", "circle"):
            raise RangeError(f"metric must be 'line' or 'circle', got {self.metric!r}")


def _sorted_values(k: int, n_max: int, coprime: bool) -> list[Fraction]:
    vals = [f.value for f in enumerate_tuples(EnumerationSpec(k, n_max, coprime))]
    vals.sort()
    return vals


def _pairs_within(a: Sequence, b: Sequence, lo, hi) -> int:
    """Ordered pairs (v in a, w in b) with lo <= w - v <= hi; a and b sorted.

    Both window edges v + lo and v + hi rise with v, so the two pointers
    into b only move forward: O(len(a) + len(b)) comparisons.  Ties at
    either edge count.
    """
    count = start = stop = 0
    n = len(b)
    for v in a:
        low, high = v + lo, v + hi
        while start < n and b[start] < low:
            start += 1
        while stop < n and b[stop] <= high:
            stop += 1
        count += stop - start
    return count


def count_pairs_interval(q: PairQuery, max_points: int | None = None) -> int:
    """Exact ordered near-pair count by sorted sweep with a two-pointer window."""
    q.validate()
    _check_tuples(q.k, q.n_max, q.coprime, max_points, "count_pairs_interval")
    vals = _sorted_values(q.k, q.n_max, q.coprime)
    t = 1 / q.y
    if q.metric == "line":
        return _pairs_within(vals, vals, -t, t)
    if t >= HALF:
        return len(vals) ** 2
    # Circle wrap-around: distance min(d, 1-d) <= t additionally admits
    # pairs with d >= 1-t, disjoint from d <= t since t < 1/2.  Values lie
    # in (0, 1], so w - v > -1 and only the upper edge binds.
    return _pairs_within(vals, vals, -t, t) + 2 * _pairs_within(vals, vals, -1, t - 1)


def count_pairs_bruteforce(q: PairQuery, max_points: int | None = None) -> int:
    """O(P^2) oracle for count_pairs_interval; all-integer comparisons."""
    q.validate()
    _check_tuples(q.k, q.n_max, q.coprime, max_points, "count_pairs_bruteforce")
    tuples = [(f.u, f.n**q.k) for f in enumerate_tuples(EnumerationSpec(q.k, q.n_max, q.coprime))]
    yp, yq = q.y.numerator, q.y.denominator
    circle = q.metric == "circle"
    count = 0
    for u1, d1 in tuples:
        for u2, d2 in tuples:
            dd = d1 * d2
            diff = u1 * d2 - u2 * d1
            if diff < 0:
                diff = -diff
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

    def validate(self) -> None:
        if min(self.k, self.u1, self.n1, self.u2, self.n2) < 1:
            raise RangeError("all block parameters must be >= 1")
        if self.y <= 0:
            raise RangeError(f"threshold scale y must be positive, got {self.y}")


def _block_values(u_start: int, n_start: int, k: int, closed: bool) -> list[Fraction]:
    extra = 1 if closed else 0
    vals = [
        Fraction(u, n**k)
        for n in range(n_start, 2 * n_start + extra)
        for u in range(u_start, 2 * u_start + extra)
    ]
    vals.sort()
    return vals


def count_pairs_block(q: DyadicBlockQuery, closed: bool = False, max_points: int | None = None) -> int:
    """Exact block count over u_i in [U_i, 2U_i), n_i in [N_i, 2N_i).

    closed=True switches both ranges to the closed convention
    [U_i, 2U_i] x [N_i, 2N_i]; the half-open form is the default.
    """
    q.validate()
    extra = 1 if closed else 0
    side1 = (q.u1 + extra) * (q.n1 + extra)
    side2 = (q.u2 + extra) * (q.n2 + extra)
    _check_cap(side1 + side2, max_points, "count_pairs_block")
    t = 1 / q.y
    return _pairs_within(_block_values(q.u1, q.n1, q.k, closed),
                         _block_values(q.u2, q.n2, q.k, closed), -t, t)


def count_pairs_block_single(u_start: int, n_start: int, k: int, y: Fraction,
                             closed: bool = False, max_points: int | None = None) -> int:
    """Diagonal special case J_k(U, N, Y) with both boxes equal."""
    q = DyadicBlockQuery(k, u_start, n_start, u_start, n_start, y)
    return count_pairs_block(q, closed=closed, max_points=max_points)


@dataclass(frozen=True)
class ReciprocalPairQuery:
    """Pairs of (n/M)^k (U/u) values within 1/z over closed dyadic boxes."""

    k: int
    m: int
    u: int
    z: Fraction

    def validate(self) -> None:
        if min(self.k, self.m, self.u) < 1:
            raise RangeError("all reciprocal-pair parameters must be >= 1")
        if self.z <= 0:
            raise RangeError(f"threshold scale z must be positive, got {self.z}")


def count_pairs_reciprocal(q: ReciprocalPairQuery, max_points: int | None = None) -> int:
    """Exact count of ordered pairs with |(n1/M)^k U/u1 - (n2/M)^k U/u2| <= 1/z.

    Ranges are closed: M <= n_i <= 2M, U <= u_i <= 2U.
    """
    q.validate()
    _check_cap((q.m + 1) * (q.u + 1) * 2, max_points, "count_pairs_reciprocal")
    mk = q.m**q.k
    vals = [
        Fraction(n**q.k * q.u, mk * u)
        for n in range(q.m, 2 * q.m + 1)
        for u in range(q.u, 2 * q.u + 1)
    ]
    vals.sort()
    t = 1 / q.z
    return _pairs_within(vals, vals, -t, t)


@dataclass(frozen=True)
class MultiplicativeNearQuery:
    """Pairs with |n1^k v1 - n2^k v2| <= h over n ~ m, v ~ v_start (closed)."""

    k: int
    m: int
    v_start: int
    h: int

    def validate(self) -> None:
        if min(self.k, self.m, self.v_start) < 1:
            raise RangeError("all multiplicative-near parameters must be >= 1")
        if self.h < 0:
            raise RangeError(f"window h must be >= 0, got {self.h}")


@dataclass(frozen=True)
class MultiplicativeNearReport:
    count: int
    divisor_cap: int
    max_multiplicity: int


def count_multiplicative_near(q: MultiplicativeNearQuery) -> MultiplicativeNearReport:
    """Exact count plus a multiplicity-based a priori cap.

    The cap (#n * #v) * (2h+1) * max_multiplicity dominates the count:
    each left tuple sees at most 2h+1 integer targets, each realized at
    most max_multiplicity times.
    """
    q.validate()
    prods = sorted(
        n**q.k * w
        for n in range(q.m, 2 * q.m + 1)
        for w in range(q.v_start, 2 * q.v_start + 1)
    )
    count = _pairs_within(prods, prods, -q.h, q.h)
    max_mult = max(Counter(prods).values())
    tuples_per_side = (q.m + 1) * (q.v_start + 1)
    cap = tuples_per_side * (2 * q.h + 1) * max_mult
    return MultiplicativeNearReport(count=count, divisor_cap=cap, max_multiplicity=max_mult)


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
        m = len(bps)
        if m == 1:
            return [ONE]
        lengths = [bps[i + 1] - bps[i] for i in range(m - 1)]
        lengths.append(bps[0] + 1 - bps[m - 1])
        return lengths

    def depth_at(self, x: Fraction) -> int:
        x = x % 1
        i = bisect_right(self.breakpoints, x) - 1
        if i >= 0 and self.breakpoints[i] == x:
            return self.point_depths[i]
        # x before the first breakpoint lies on the wrapping interval
        return self.depths[i] if i >= 0 else self.depths[-1]

    def integral(self) -> Fraction:
        total = Fraction(0)
        for d, length in zip(self.depths, self.interval_lengths()):
            total += d * length
        return total

    def csv_rows(self) -> list[tuple[int, int, int]]:
        return [
            (b.numerator, b.denominator, d)
            for b, d in zip(self.breakpoints, self.depths)
        ]


def coverage_profile(k: int, n_max: int, y: Fraction, coprime: bool = True,
                     max_points: int | None = None) -> CoverageProfile:
    """Sweep the 2*P closed-arc endpoints into an exact coverage step function."""
    if y <= 0:
        raise RangeError(f"threshold scale y must be positive, got {y}")
    _check_tuples(k, n_max, coprime, max_points, "coverage_profile")
    centers = [f.value % 1 for f in enumerate_tuples(EnumerationSpec(k, n_max, coprime))]
    p = len(centers)
    r = 1 / y
    if r >= HALF:
        # every arc individually covers the whole circle
        return CoverageProfile((Fraction(0),), (p,), (p,), r, p)
    starts: Counter = Counter()
    ends: Counter = Counter()
    bset = set()
    for c in centers:
        left = (c - r) % 1
        right = (c + r) % 1
        starts[left] += 1
        ends[right] += 1
        bset.add(left)
        bset.add(right)
    bps = sorted(bset)
    m = len(bps)
    # base depth on the open interval (bps[0], bps[1]) by midpoint containment
    mid = (bps[0] + bps[1]) / 2
    depth0 = sum(1 for c in centers if circle_distance(mid, c) <= r)
    depths = [0] * m
    depths[0] = depth0
    for i in range(1, m):
        depths[i] = depths[i - 1] + starts[bps[i]] - ends[bps[i]]
    # arcs covering the interval before a breakpoint are closed on the right,
    # so they still cover the breakpoint; arcs opening there join in
    point_depths = [depths[i - 1] + starts[bps[i]] for i in range(m)]
    return CoverageProfile(tuple(bps), tuple(depths), tuple(point_depths), r, p)


def window_count(k: int, n_max: int, x: Fraction, y: Fraction, coprime: bool = True,
                 max_points: int | None = None) -> int:
    """Exact number of tuples whose value lies within circle distance 1/y of x."""
    if y <= 0:
        raise RangeError(f"threshold scale y must be positive, got {y}")
    _check_tuples(k, n_max, coprime, max_points, "window_count")
    t = 1 / y
    return sum(
        1
        for f in enumerate_tuples(EnumerationSpec(k, n_max, coprime))
        if circle_distance(f.value, x) <= t
    )


def exceptional_measure(profile: CoverageProfile, t_threshold: int) -> Fraction:
    """Exact Lebesgue measure of {x : depth(x) >= t_threshold}.

    Breakpoints are a finite set of measure zero, so only the open
    interval depths matter.
    """
    if t_threshold < 1:
        raise RangeError(f"threshold must be >= 1, got {t_threshold}")
    total = Fraction(0)
    for d, length in zip(profile.depths, profile.interval_lengths()):
        if d >= t_threshold:
            total += length
    return total


def sharpness_study(k: int, n_values: Iterable[int], coprime: bool = False,
                    max_points: int | None = None) -> list[dict]:
    """Near-pair counts at the critical scale y = n^(k+1), with trend columns.

    Emits one row per n: the exact count, the ratio count / n^(k+1), and
    the finite-difference slope of log ratio against log n (None for the
    first row).  A repeated n would leave the slope undefined and is refused.
    """
    n_values = list(n_values)
    if len(set(n_values)) != len(n_values):
        raise RangeError(f"n values must be distinct, got {n_values}")
    rows: list[dict] = []
    prev: tuple[int, float] | None = None
    for n in n_values:
        y = Fraction(n ** (k + 1))
        count = count_pairs_interval(PairQuery(k, n, y, coprime), max_points)
        ratio = count / n ** (k + 1)
        slope = None
        if prev is not None:
            n0, r0 = prev
            slope = (math.log(ratio) - math.log(r0)) / (math.log(n) - math.log(n0))
        rows.append({"n": n, "count": count, "ratio": ratio, "log_slope": slope})
        prev = (n, ratio)
    return rows
