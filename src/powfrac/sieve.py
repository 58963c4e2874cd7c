"""Large-sieve constants for power moduli.

The row set of the sieve matrix is {(a, n) : 1 <= n <= n_max,
1 <= a <= n^k, gcd(a, n) = 1}; columns are m = m_offset+1 .. m_offset+m_len
with entries e(a*m / n^k).  The optimal sieve constant Delta is the top
eigenvalue of the m_len x m_len Gram matrix B*B, solved on the smaller side
by each route, since B*B and BB* share their nonzero spectrum.  The dense
oracle solves whichever has side min(P, m_len).  The fast path takes the
same side through one split, _half_blocks: a real symmetric kernel that a
reflection of its points fixes has the spectrum of two blocks of about half
the side.  It serves two kernels: for P < m_len the Dirichlet kernel
sin(pi*M*theta)/sin(pi*theta) at the row differences theta, under x -> 1 - x;
otherwise the Toeplitz Gram matrix, whose column is a sum over
fraccore.reduced_denominators, under i -> m_len-1 - i.  Each call counts the
rows once, in row_count, which also applies the cap.  Phases are reduced in
exact integers before any float enters, (a*m) mod n^k for B and M*theta mod 2
for the kernel, so large window offsets lose no accuracy.  B takes its
entries from one table of the n^k-th roots of unity per modulus, at most
n_max^k entries and one table at a time, indexed by those residues; moduli
n^k >= 2^31, past the exact int64 products, are refused before any table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import isqrt
from typing import Sequence

import numpy as np

from .errors import RangeError, ResourceError
from .fraccore import check_work, fraction_table, reduced_denominators, tuple_count

# Cap on the P x m_len matrix entries, unless POWFRAC_MAX_POINTS sets another.
DEFAULT_MAX_ENTRIES = 5_000_000
# sieve_matrix forms a*m with a <= n^k and m < n^k in int64, exact below this modulus.
_MAX_INT64_MODULUS = 2**31
# The row-side kernel multiplies residues mod 2*den in int64, exact below this product.
_MAX_INT64_PRODUCT = 2**63


@dataclass(frozen=True)
class SieveProblem:
    k: int
    n_max: int
    m_len: int
    m_offset: int = 0

    def __post_init__(self) -> None:
        if min(self.k, self.n_max, self.m_len) < 1:
            raise RangeError("k, n_max and m_len must all be >= 1")
        if self.m_offset < 0:
            raise RangeError(f"m_offset must be >= 0, got {self.m_offset}")


def sieve_rows(p: SieveProblem) -> tuple[np.ndarray, np.ndarray]:
    """The rows (a, n) as two int64 arrays, in (n, a)-lexicographic order."""
    return fraction_table(p.k, p.n_max, True)


def row_count(p: SieveProblem) -> int:
    """Refuse (ResourceError) a P x m_len matrix past the cap, counting rows per
    modulus only until they pass it: rows * m_len > cap exactly when rows > cap // m_len.
    Returns the row count P, exact whenever it does not raise."""
    return check_work(lambda cap: tuple_count(p.k, p.n_max, True, cap // p.m_len) * p.m_len,
                      DEFAULT_MAX_ENTRIES, "sieve matrix entries") // p.m_len


def sieve_matrix(p: SieveProblem) -> np.ndarray:
    """Complex P x m_len matrix with entries e(a*m / n^k), exactly reduced.

    Each modulus reduces its window mod n^k first (the offset as a Python
    int), so a*m stays below n^(2k) and the int64 product is exact while
    n^k < 2^31; larger moduli are refused before any row or table is built.
    The entries of modulus q = n^k take only the q values e(r/q), so each
    modulus builds one table of them, the same float expression as one
    entry applied to r = 0..q-1, and its rows index it by the exact residues
    (a*m) mod q: B equals the entrywise exp bit for bit.  One table, of at
    most n_max^k entries, is alive at a time.
    """
    row_count(p)
    return _matrix_within_cap(p)


def _matrix_within_cap(p: SieveProblem) -> np.ndarray:
    """sieve_matrix once row_count has passed p: the modulus check, then B."""
    if p.n_max**p.k >= _MAX_INT64_MODULUS:
        raise ResourceError(f"modulus {p.n_max}^{p.k} is past the exact int64 range")
    a, bases = sieve_rows(p)
    starts = np.searchsorted(bases, np.arange(1, p.n_max + 2)).tolist()
    window = np.arange(1, p.m_len + 1, dtype=np.int64)
    out = np.empty((len(a), p.m_len), dtype=complex)
    for n in range(1, p.n_max + 1):
        nk, rows = n**p.k, slice(starts[n - 1], starts[n])
        m = (p.m_offset % nk + window) % nk
        roots = np.exp(2j * np.pi * np.arange(nk, dtype=np.int64) / nk)
        out[rows] = roots[(a[rows, None] * m) % nk]
    return out


def gram_matrix(p: SieveProblem) -> np.ndarray:
    b = sieve_matrix(p)
    g = b.conj().T @ b
    g += g.conj().T
    g *= 0.5
    return g


def gram_column(p: SieveProblem) -> np.ndarray:
    """First column t of the Gram matrix, G[i, j] = t[|i - j|], in exact int64.

    Summing e(a*d / n^k) over a coprime to n gives the Ramanujan sum
    c_{n^k}(d), the sum of mu(s) * n^k/s over s | n with (n^k/s) | d
    (Hardy & Wright 16.6), so G is real Toeplitz and ignores m_offset.
    Summed over n, the terms with n^k/s = c share one weight w(c) of
    reduced_denominators: t[d] is the sum of w(c) * c over the entries c | d.
    """
    t = np.zeros(p.m_len, dtype=np.int64)
    for c, w in reduced_denominators(p.k, p.n_max, True).items():
        t[::c] += w * c  # a step of m_len or more touches only t[0]
    return t


def _sin_pi(r: np.ndarray, den: np.ndarray) -> np.ndarray:
    """sin(pi * r / den) for integers 0 <= r < 2*den, taken at the residual
    s = r - j*den to the nearest multiple j of den, so that |s| <= den / 2 and
    the float argument keeps its relative accuracy where the sine is small."""
    j = (2 * r + den) // (2 * den)
    return np.sin(np.pi * ((r - j * den) / den)) * (1 - 2 * (j % 2))


def _dirichlet_kernel(a1, q1, a2, q2, m: int) -> np.ndarray:
    """sin(pi*m*theta) / sin(pi*theta) at theta = a1/q1 - a2/q2 (broadcast int64
    arrays), and m where theta = 0.  With theta = num/den and den = q1*q2, both
    sines take their argument reduced mod 2*den in integers: num for the
    denominator, (m mod 2*den) * num for the numerator, exact while 4*den^2 < 2^63."""
    den = q1 * q2
    two = 2 * den
    num = (a1 * q2 - a2 * q1) % two
    top = _sin_pi((m % two) * num % two, den)
    return np.divide(top, _sin_pi(num, den), out=np.full(num.shape, float(m)), where=num != 0)


def _half_blocks(kernel, lower, mirror, plus_fixed, minus_fixed) -> list[np.ndarray]:
    """The spectrum of a real symmetric S, fixed by a signed involution J, as two blocks.

    kernel(x, y) gives S on two point arrays.  J swaps each point of lower with
    the point of mirror in the same place and maps each fixed point to itself,
    times +1 (plus_fixed) or -1 (minus_fixed).  On the vectors e_x +- J e_x
    (Cantoni & Butler, Linear Algebra Appl. 13, 1976) S is S_LL +- S_LL',
    bordered by sqrt(2)*S[L, fixed] for the fixed points of that sign, with
    S[fixed, fixed] in the corner.  Returns [plus, minus].
    """
    direct, reflected = kernel(lower, lower), kernel(lower, mirror)
    blocks = []
    for base, fixed in ((direct + reflected, plus_fixed), (direct - reflected, minus_fixed)):
        border = math.sqrt(2) * kernel(lower, fixed)
        blocks.append(np.block([[base, border], [border.T, kernel(fixed, fixed)]]))
    return blocks


def sieve_gram_eigenvalue(p: SieveProblem) -> float:
    """The optimal sieve constant: the top eigenvalue of the Gram matrix, solved
    on its smaller side by _half_blocks, as two real symmetric blocks.

    When P < m_len the rows give it.  BB*[i, j] = sum over the window of
    e(m*(x_i - x_j)), a geometric sum; the diagonal unitary
    e(-(m_offset + (m_len+1)/2) * x_i) turns it into the real Dirichlet kernel
    F[i, j] = sin(pi*M*theta)/sin(pi*theta), theta = x_i - x_j, which does not
    depend on the offset (Montgomery, Bull. AMS 84, 1978).  F is even, and
    x -> 1 - x maps the rows (a, q = n^k) onto themselves: a row with x < 1/2
    pairs with its mirror (q - a, q).  Two rows are their own images: 1/2
    (k = 1 only), with sign +1, and 1/1, whose image 0 is 1 shifted by an
    integer, where F(theta + 1) = (-1)^(M-1) F(theta) gives the sign.  The
    blocks have side at most P/2 + 1 and come from the row fractions alone: no
    P x m_len array.  The kernel's phase products are exact in int64 while
    4 * den^2 < 2^63 for den = n_max^(2k); past that bound, ResourceError.

    Otherwise the window gives it: G[i, j] = t[|i - j|] for the Toeplitz
    column t, which the exchange i -> m_len-1 - i fixes.  The indices
    i < m_len // 2 pair with their mirrors, and the middle index of an odd
    m_len is its own image, with sign +1: blocks of side at most ceil(m_len / 2).
    """
    m = p.m_len
    if row_count(p) < m:
        if 4 * p.n_max ** (4 * p.k) >= _MAX_INT64_PRODUCT:
            raise ResourceError(f"phase denominators up to {p.n_max}^{2 * p.k} are past "
                                f"the exact int64 range")
        a, n = sieve_rows(p)
        q = n**p.k
        rows = np.stack([a, q], axis=1)
        lower = 2 * a < q
        fixed = (2 * a == q) | (a == q)
        plus = (2 * a == q) | (m % 2 == 1)
        blocks = _half_blocks(
            lambda x, y: _dirichlet_kernel(x[:, :1], x[:, 1:], y[:, 0], y[:, 1], m),
            rows[lower], np.stack([q - a, q], axis=1)[lower], rows[fixed & plus], rows[fixed & ~plus])
    else:
        t = gram_column(p).astype(np.float64)
        lower = np.arange(m // 2)
        blocks = _half_blocks(lambda x, y: t[abs(x[:, None] - y)], lower, m - 1 - lower,
                              np.arange(m // 2, m - m // 2), lower[:0])
    return float(max(np.linalg.eigvalsh(b)[-1] for b in blocks if len(b)))


def dense_gram_eigenvalue(p: SieveProblem) -> float:
    """Oracle: the Hermitian eigensolver on BB* (P x P) when P < m_len, else on
    B*B; both have the nonzero spectrum of the Gram matrix, built from the
    sieve matrix B itself rather than from the Ramanujan sums of gram_column."""
    b = sieve_matrix(p)
    g = b @ b.conj().T if b.shape[0] < b.shape[1] else b.conj().T @ b
    return float(np.linalg.eigvalsh(g)[-1])


def l1_sieve_sum(p: SieveProblem, alpha: Sequence[complex]) -> float:
    """Sum over rows of |sum_m alpha_m e(a*m/n^k)| (the l1-of-rows functional)."""
    alpha_arr = np.asarray(alpha, dtype=complex)
    if alpha_arr.shape != (p.m_len,):
        raise RangeError(f"alpha must have length {p.m_len}, got shape {alpha_arr.shape}")
    b = sieve_matrix(p)
    return float(np.abs(b @ alpha_arr).sum())


def dual_quadratic_form(p: SieveProblem, coeffs: Sequence[complex]) -> float:
    """Sum over the window of |sum_(a,n) c(a,n) e(a*m/n^k)|^2, with the
    coefficients c given densely in row order.  The length of c is checked
    against the row count of the cap check, before B is built."""
    rows = row_count(p)
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (rows,):
        raise RangeError(f"coeffs must have length {rows}, got shape {c.shape}")
    return float((np.abs(c @ _matrix_within_cap(p)) ** 2).sum())


@dataclass(frozen=True)
class BoundReport:
    """Baseline bounds; exact integers except cor2_rhs, which is exact
    only when m_len * n_max^(k+1) is a perfect square, and else a float."""

    classical_1: int
    classical_2: int
    conjecture: int
    cor2_rhs: int | float


def classical_bounds(k: int, n_max: int, m_len: int) -> BoundReport:
    """Exact evaluation of the four baseline sieve bounds; RangeError when cor2_rhs
    is not an integer and is past the float range.  ResourceError, before any power
    is formed, when a bound may have more decimal digits than int-to-str conversion
    allows (its default limit when the limit is off): each bound has at most one bit
    more than N^(2k) or N*M, at most 2k*bit_length(N) and bit_length(N) + bit_length(M)."""
    SieveProblem(k, n_max, m_len)  # checks the arguments
    bits = max(2 * k * n_max.bit_length(), n_max.bit_length() + m_len.bit_length()) + 1
    digits = bits * 30103 // 100000 + 1  # log10(2) < 0.30103
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if digits > limit:
        raise ResourceError(f"bounds at k = {k} may have up to {digits} digits, past the "
                            f"{limit}-digit limit of int-to-str conversion")
    square = m_len * n_max ** (k + 1)
    root = isqrt(square)
    cor2: int | float
    if root * root == square:
        cor2 = n_max ** (k + 1) + root
    else:
        try:
            cor2 = n_max ** (k + 1) + math.sqrt(square)
        except OverflowError:
            raise RangeError("cor2_rhs = N^(k+1) + sqrt(M*N^(k+1)) is past the float range "
                             f"at k = {k}, N = {n_max}") from None
    return BoundReport(
        classical_1=m_len + n_max ** (2 * k),
        classical_2=n_max * m_len + n_max ** (k + 1),
        conjecture=n_max ** (k + 1) + m_len,
        cor2_rhs=cor2,
    )
