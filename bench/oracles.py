"""Independent answers and exact identities used to check every query.

Nothing here is timed.  Where the repository ships an oracle it is used
(``count_pairs_bruteforce`` for pair counts, ``dense_gram_eigenvalue`` for
Delta); the rest are small independent computations: lattice-point window
counts, integer-key block counts, closed-form mean values and direct numpy
sums.  Floats are compared within the tolerance their method states.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd

import numpy as np

EPS = np.finfo(float).eps


class CheckFailed(Exception):
    pass


def need(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(value: float, expected: float, rel: float, what: str) -> None:
    need(abs(value - expected) <= rel * max(abs(expected), 1e-300),
         f"{what}: {value!r} vs {expected!r} (rel tol {rel:g})")


# -- fractions u/n^k ---------------------------------------------------------

def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def _coprime_upto(h: int, n: int) -> int:
    """#{1 <= u <= h : gcd(u, n) = 1}, by Moebius inversion over d | n."""
    if h <= 0:
        return 0
    return sum(_mobius(d) * (h // d) for d in _divisors(n))


def point_total(k: int, n_max: int, coprime: bool) -> int:
    """Number of fractions u/n^k with 1 <= u <= n^k, n <= n_max."""
    return sum(_coprime_upto(n**k, n) if coprime else n**k for n in range(1, n_max + 1))


def window_count(k: int, n_max: int, x: Fraction, y: Fraction, coprime: bool) -> int:
    """Fractions within circle distance 1/y of x, counted per base as lattice points."""
    t = 1 / y
    total = point_total(k, n_max, coprime)
    if t >= Fraction(1, 2):
        return total
    x = x % 1
    count = 0
    for n in range(1, n_max + 1):
        nk = n**k
        for shift in (-1, 0, 1):
            lo = max(1, math.ceil((x + shift - t) * nk))
            hi = min(nk, math.floor((x + shift + t) * nk))
            if hi >= lo and coprime:
                count += _coprime_upto(hi, n) - _coprime_upto(lo - 1, n)
            elif hi >= lo:
                count += hi - lo + 1
    return count


def block_count(k: int, u1: int, n1: int, u2: int, n2: int, y: Fraction, closed: bool) -> int:
    """Block near-pair count on integer keys scaled by a common denominator."""
    extra = 1 if closed else 0
    side1 = [(u, n) for n in range(n1, 2 * n1 + extra) for u in range(u1, 2 * u1 + extra)]
    side2 = [(u, n) for n in range(n2, 2 * n2 + extra) for u in range(u2, 2 * u2 + extra)]
    big = math.lcm(*(n**k for _, n in side1 + side2))
    keys2 = sorted(u * (big // n**k) for u, n in side2)
    reach = big * y.denominator // y.numerator  # |a - b| <= big/y for integers a, b
    count = 0
    for u, n in side1:
        a = u * (big // n**k)
        count += bisect_right(keys2, a + reach) - bisect_left(keys2, a - reach)
    return count


def fractions_listing(k: int, n_max: int, coprime: bool) -> list[tuple[int, int]]:
    return [(u, n) for n in range(1, n_max + 1) for u in range(1, n**k + 1)
            if not coprime or gcd(u, n) == 1]


def small_measure(k: int, n_max: int, y: Fraction, threshold: int, coprime: bool) -> Fraction:
    """Exceptional measure by evaluating the depth on every elementary interval."""
    centres = [Fraction(u, n**k) % 1 for u, n in fractions_listing(k, n_max, coprime)]
    r = 1 / y
    if r >= Fraction(1, 2):
        return Fraction(1) if len(centres) >= threshold else Fraction(0)
    cuts = sorted({(c + s) % 1 for c in centres for s in (-r, r)})
    total = Fraction(0)
    for i, left in enumerate(cuts):
        right = cuts[i + 1] if i + 1 < len(cuts) else cuts[0] + 1
        mid = (left + right) / 2
        depth = sum(1 for c in centres if min((mid - c) % 1, (c - mid) % 1) <= r)
        if depth >= threshold:
            total += right - left
    return total


# -- exponential sums --------------------------------------------------------

def phase_sum(f, ns: range) -> tuple[complex, float]:
    """Sum of e(f(n)) with its rounding allowance (phases of size |f| carry ulp error)."""
    if len(ns) == 0:
        return 0j, 0.0
    phases = np.array([f(n) for n in ns], dtype=float)
    total = complex(np.exp(2j * np.pi * np.fmod(phases, 1.0)).sum())
    allowance = len(ns) * 2 * math.pi * 16 * EPS * max(1.0, float(np.abs(phases).max()))
    return total, allowance


def monomial(alpha: float, y: float, n_scale: float):
    return lambda x: (y / alpha) * (x / n_scale) ** alpha


def interior(lo: float, hi: float) -> range:
    return range(math.floor(lo) + 1, math.ceil(hi))


def power_phases(k: int, size: int) -> np.ndarray:
    return np.array([u / n**k for n in range(1, size + 1) for u in range(1, size + 1)])


def closed_mean_value(phis: np.ndarray, y_max: float) -> float:
    """(1/Y) int_{-Y}^{Y} |sum e(y phi_j)|^2 dy = sum_{i,j} 2 sinc(2 Y (phi_i - phi_j))."""
    d = phis[:, None] - phis[None, :]
    return float(2 * np.sinc(2 * y_max * d).sum())


def phase_pairs(phis: np.ndarray, y_max: float) -> int:
    """Ordered pairs with |phi_i - phi_j| <= 1/y_max, in the same float arithmetic."""
    return int((np.abs(phis[:, None] - phis[None, :]) <= 1.0 / y_max).sum())


# -- sieve -------------------------------------------------------------------

def sieve_matrix(k: int, n_max: int, m_len: int, m_offset: int) -> np.ndarray:
    rows = [(a, n) for n in range(1, n_max + 1) for a in range(1, n**k + 1) if gcd(a, n) == 1]
    ms = range(m_offset + 1, m_offset + m_len + 1)
    out = np.empty((len(rows), m_len), dtype=complex)
    for i, (a, n) in enumerate(rows):
        nk = n**k
        out[i] = np.exp(2j * np.pi * np.array([(a * m) % nk for m in ms], dtype=float) / nk)
    return out


def unit_alpha(mode: str, m_len: int, seed: int, basis_index: int) -> np.ndarray:
    """The coefficient vector a sieve-l1 report documents for its --alpha-mode."""
    if mode == "ones":
        return np.ones(m_len, dtype=complex)
    if mode == "basis":
        v = np.zeros(m_len, dtype=complex)
        v[basis_index] = 1.0
        return v
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m_len) + 1j * rng.standard_normal(m_len)
    return v / np.linalg.norm(v)


def row_coeffs(mode: str, p_rows: int, seed: int) -> np.ndarray:
    """The row coefficients a sieve-dual report documents for its --coeff-mode."""
    if mode == "ones":
        return np.ones(p_rows, dtype=complex)
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.random(p_rows))


def classical(k: int, n: int, m: int) -> dict:
    square = m * n ** (k + 1)
    root = math.isqrt(square)
    cor2 = n ** (k + 1) + root if root * root == square else n ** (k + 1) + math.sqrt(square)
    return {"classical_1": m + n ** (2 * k), "classical_2": n * m + n ** (k + 1),
            "conjecture": n ** (k + 1) + m, "cor2_rhs": cor2}
