"""Exact representation, enumeration and counting of fractions u / n^k.

Everything here is exact: values are stdlib `fractions.Fraction`
(arbitrary-precision rationals, always in lowest terms), comparisons are
integer cross-multiplications, and no floating point ever decides an
order or a count.  reduced_denominators regroups the tuples into complete
residue systems v/c with Moebius weights for the pair counts and the sieve.
"""

from __future__ import annotations

import heapq
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

from .errors import RangeError, ResourceError

_RATIONAL_RE = re.compile(r"^([+-]?\d+)/(\d+)$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational given strictly as "p/q" (no floats, no bare ints)."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"rational must be given as 'p/q', got {text!r}")
    num, den = int(m.group(1)), int(m.group(2))
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Serialize a rational as "p/q", always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def euler_phi(n: int) -> int:
    """Euler totient by trial-division factorization (desk-scale n)."""
    if n < 1:
        raise RangeError(f"totient needs n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def mobius_upto(n: int) -> list[int]:
    """[mu(0), mu(1), ..., mu(n)] with the placeholder mu(0) = 0.

    Sieved from sum(mu(d) for d | m) == 0 for every m > 1: mu[s] is final
    once the loop reaches s, and it is then subtracted from each multiple.
    """
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    for s in range(1, n // 2 + 1):
        if mu[s]:
            for m in range(2 * s, n + 1, s):
                mu[m] -= mu[s]
    return mu


def reduced_denominators(k: int, n_max: int, coprime: bool) -> dict[int, int]:
    """Weights w(c) with #{tuples u/n^k in a set} = sum(w(c) * #{v/c in it, 1 <= v <= c}).

    Without the gcd filter the table is w(n^k) = 1.  With it, Moebius
    inversion writes [gcd(u, n) = 1] as the sum of mu(e) over squarefree
    e | gcd(u, n), and u = e*v turns u/n^k into v/c with c = n^k/e, so w(c)
    adds mu(e) over the (n, e) with n^k/e = c.  At k = 1, c = n/e and
    w(c) = M(n_max // c), the Mertens function.  Zero weights are dropped.
    """
    if not coprime:
        return {n**k: 1 for n in range(1, n_max + 1)}
    mu = mobius_upto(n_max)
    weights: dict[int, int] = {}
    for e in range(1, n_max + 1):
        if mu[e]:
            for n in range(e, n_max + 1, e):
                c = n**k // e
                weights[c] = weights.get(c, 0) + mu[e]
    return {c: w for c, w in weights.items() if w}


@dataclass(frozen=True)
class PowerFraction:
    """One tuple (u, n, k) standing for the fraction u / n^k in (0, 1]."""

    u: int
    n: int
    k: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.u, self.n**self.k)


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: exponent k, bases up to n_max, gcd filter, order."""

    k: int
    n_max: int
    coprime: bool = False
    sorted: bool = False

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise RangeError(f"n_max must be >= 1, got {self.n_max}")
        if self.k < 1:
            raise RangeError(f"k must be >= 1, got {self.k}")


def _base_counts(k: int, n_max: int, coprime: bool) -> Iterator[int]:
    """Tuples with base n, for n = 1 .. n_max: n^k, or n^(k-1) * phi(n) with the
    gcd filter, because the coprimality condition on u is n-periodic over [1, n^k]."""
    for n in range(1, n_max + 1):
        yield n ** (k - 1) * euler_phi(n) if coprime else n**k


def tuple_count(k: int, n_max: int, coprime: bool = False, cap: float = math.inf) -> int:
    """Number of tuples the enumeration yields, in closed form: sum(n^k), or
    sum(n^(k-1) * phi(n)) with the gcd filter.

    The sum stops at the first partial sum past cap, which it returns: a
    refusal only needs to know that the count passes the cap, so it need not
    visit every base.  A count of at most cap is exact.
    """
    total = 0
    for count in _base_counts(k, n_max, coprime):
        total += count
        if total > cap:
            break
    return total


def check_work(count_upto: Callable[[float], int], default: int | None, what: str) -> int:
    """The predicted work, refused with ResourceError past the cap: the integer in
    POWFRAC_MAX_POINTS, else the caller's default (None: no cap).  count_upto(cap)
    returns the exact work when it is at most cap, else any amount past cap, so a
    refusal may stop counting as soon as the count passes it.
    """
    env = os.environ.get("POWFRAC_MAX_POINTS")
    cap = int(env) if env else default
    work = count_upto(math.inf if cap is None else cap)
    if cap is not None and work > cap:
        raise ResourceError(f"{what}: predicted at least {work} exceeds cap {cap}")
    return work


def _per_base_stream(n: int, k: int, coprime: bool) -> Iterator[PowerFraction]:
    nk = n**k
    for u in range(1, nk + 1):
        if coprime and gcd(u, n) > 1:
            continue
        yield PowerFraction(u, n, k)


def enumerate_tuples(spec: EnumerationSpec) -> Iterator[PowerFraction]:
    """Yield all tuples (u, n) with 1 <= n <= n_max, 1 <= u <= n^k.

    With sorted=True the stream is non-decreasing by exact value, ties
    ordered by (n, u); implemented as a heap merge of the per-base
    streams (each already sorted), so memory stays O(n_max).
    """
    streams = (_per_base_stream(n, spec.k, spec.coprime) for n in range(1, spec.n_max + 1))
    if spec.sorted:
        yield from heapq.merge(*streams, key=lambda f: (f.value, f.n, f.u))
    else:
        for stream in streams:
            yield from stream


def circle_distance(z: Fraction, x: Fraction) -> Fraction:
    """Distance from z - x to the nearest integer; exact, in [0, 1/2]."""
    d = (z - x) % 1
    return min(d, 1 - d)
