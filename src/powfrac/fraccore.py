"""Exact representation, enumeration and counting of fractions u / n^k.

Counts are exact integers and values exact Fractions.  fraction_table, the one
listing of the fractions, orders them by the float key u / n^k: one correctly
rounded division of integers below 2^53, and rounding is monotone.  Distinct
values differ by at least 1/n_max^(2k), more than the rounding error while
n_max^(2k) < 2^53; past that, runs of equal keys are re-sorted exactly.
reduced_denominators regroups the tuples into complete residue systems v/c
with Moebius weights for the pair counts and the sieve.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .errors import RangeError, ResourceError

# Cap on the work a count predicts, unless POWFRAC_MAX_POINTS sets another: the
# tuples a command lists or tabulates, or for a block count its strips.
DEFAULT_MAX_POINTS = 2_000_000
# Float key of u/n^k, monotone; distinct values get distinct keys while n_max^(2k) < _EXACT_KEYS.
_order_key = np.true_divide
_EXACT_KEYS = 2**53

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


def _base_counts(k: int, n_max: int, coprime: bool, cap: float) -> Iterator[int]:
    """Tuples with base n, for n = 1 .. n_max: n^k, or n^(k-1) * phi(n) with the
    gcd filter, because the coprimality condition on u is n-periodic over [1, n^k].
    Either is at least n^(k-1) >= 2^((k-1)*(bit_length(n)-1)); once that passes
    cap by bit length alone, cap + 1 stands for the count and ends the sequence,
    so no power past the cap's size is formed."""
    for n in range(1, n_max + 1):
        if cap < math.inf and (k - 1) * (n.bit_length() - 1) >= cap.bit_length():
            yield cap + 1
            return
        yield n ** (k - 1) * euler_phi(n) if coprime else n**k


def tuple_count(k: int, n_max: int, coprime: bool = False, cap: float = math.inf) -> int:
    """Number of tuples in fraction_table, in closed form: sum(n^k), or sum(n^(k-1) * phi(n))
    with the gcd filter.  The sum stops at the first partial sum past cap, which it
    returns, since a refusal needs no more; a count of at most cap is exact."""
    total = 0
    for count in _base_counts(k, n_max, coprime, cap):
        total += count
        if total > cap:
            break
    return total


def check_work(count_upto: Callable[[int], int], default: int, what: str) -> int:
    """The predicted work, refused with ResourceError past the cap: the non-negative
    integer in POWFRAC_MAX_POINTS (RangeError when it holds anything else), else the
    caller's default.  count_upto(cap) returns the exact work when it is at most cap,
    else any amount past cap: counting may stop there."""
    env = os.environ.get("POWFRAC_MAX_POINTS", "").strip()
    if env and not env.isdecimal():
        raise RangeError(f"POWFRAC_MAX_POINTS must be a non-negative integer, got {env!r}")
    cap = int(env) if env else default
    work = count_upto(cap)
    if work > cap:
        raise ResourceError(f"{what}: predicted at least {work} exceeds cap {cap}")
    return work


def check_tuples(spec: EnumerationSpec, what: str) -> int:
    """The tuple count of spec (or of any query with its k, n_max and coprime), exact
    unless refused with ResourceError past the cap; counting stops at the cap."""
    return check_work(lambda cap: tuple_count(spec.k, spec.n_max, spec.coprime, cap),
                      DEFAULT_MAX_POINTS, f"{what} tuples")


def fraction_table(k: int, n_max: int, coprime: bool,
                   ordered: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The tuples (u, n), 1 <= n <= n_max, 1 <= u <= n^k, as int64 arrays in (n, u) order,
    or with ordered=True stably by value.  One np.gcd mask per base applies the gcd
    filter.  Nothing is capped here: callers check the size first."""
    us = []
    for n in range(1, n_max + 1):
        u = np.arange(1, n**k + 1, dtype=np.int64)
        us.append(u[np.gcd(u, n) == 1] if coprime else u)
    n = np.repeat(np.arange(1, n_max + 1), [len(b) for b in us])
    u = np.concatenate(us)
    del us  # the per-base arrays would double the memory of the sort
    if not ordered:
        return u, n
    order = np.argsort(_order_key(u, n**k), kind="stable")
    u, n = u[order], n[order]
    if n_max ** (2 * k) >= _EXACT_KEYS:
        # Runs of equal keys start where the run flag rises and end where it falls.
        key = _order_key(u, n**k)
        edges = np.flatnonzero(np.diff(np.concatenate(([0], key[1:] == key[:-1], [0]))))
        for lo, hi in zip(edges[::2].tolist(), (edges[1::2] + 1).tolist()):
            u[lo:hi], n[lo:hi] = zip(*sorted(zip(u[lo:hi].tolist(), n[lo:hi].tolist()),
                                             key=lambda t: (Fraction(t[0], t[1]**k), t[1], t[0])))
    return u, n


def enumerate_tuples(spec: EnumerationSpec) -> Iterator[PowerFraction]:
    """Yield fraction_table's tuples, with sorted=True by exact value and ties by (n, u).
    The table is built whole on the first item, 16 bytes a tuple, so callers check the
    cap first (check_tuples); the PowerFractions come a block at a time."""
    u, n = fraction_table(spec.k, spec.n_max, spec.coprime, spec.sorted)
    for lo in range(0, len(u), 4096):
        for ui, ni in zip(u[lo:lo + 4096].tolist(), n[lo:lo + 4096].tolist()):
            yield PowerFraction(ui, ni, spec.k)
