"""Tests for the large-sieve operator: Gram eigenvalues, l1 sums, duality."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powfrac import sieve
from powfrac.errors import RangeError, ResourceError
from powfrac.fraccore import tuple_count
from powfrac.sieve import (
    BoundReport,
    SieveProblem,
    classical_bounds,
    dense_gram_eigenvalue,
    dual_quadratic_form,
    gram_column,
    gram_matrix,
    l1_sieve_sum,
    row_count,
    sieve_gram_eigenvalue,
    sieve_matrix,
    sieve_rows,
)

# Largest n_max drawn for each k; P * M stays <= 20 000 so the dense oracle is cheap.
_MAX_N = {1: 30, 2: 10, 3: 6, 4: 4}


@st.composite
def sieve_problems(draw, side=None):
    """side="M" keeps M <= P (the Toeplitz route), side="P" keeps P < M <= P + 200
    (the row-side kernel); None draws M up to min(200, 20 000 // P)."""
    k = draw(st.integers(1, 4))
    n_max = draw(st.integers(1, _MAX_N[k]))
    rows = tuple_count(k, n_max, coprime=True)
    lo, hi = 1, min(200, 20_000 // rows)
    if side == "M":
        hi = min(hi, rows)
    elif side == "P":
        lo, hi = rows + 1, rows + 200
    m_len = draw(st.integers(lo, hi))
    return SieveProblem(k, n_max, m_len, draw(st.integers(0, 10**9)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sieve_problems())
def test_toeplitz_eigenvalue_matches_dense_oracle(p):
    slow = dense_gram_eigenvalue(p)
    assert abs(sieve_gram_eigenvalue(p) - slow) <= 1e-10 * slow


@contextmanager
def _eigvalsh_calls():
    """Record (input shape, spectrum) for every np.linalg.eigvalsh call inside."""
    calls = []
    solve = np.linalg.eigvalsh

    def recording(a):
        calls.append((a.shape, solve(a)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvalsh", recording)
        yield calls


# The examples hold M in {1, 2, 3}: an empty skew block, and the bordered middle index.
# Only M <= P takes the Toeplitz route; for P < M the blocks split the row-side spectrum.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(sieve_problems(side="M"))
@example(SieveProblem(2, 3, 1))
@example(SieveProblem(1, 5, 2, 11))
@example(SieveProblem(3, 2, 3, 10**9))
def test_centrosymmetric_blocks_split_the_toeplitz_spectrum(p):
    with _eigvalsh_calls() as calls:
        sieve_gram_eigenvalue(p)
    split = np.sort(np.concatenate([spectrum for _, spectrum in calls]))
    full = np.linalg.eigvalsh(gram_matrix(p))
    assert split.shape == full.shape
    assert np.abs(split - full).max() <= 1e-9 * full[-1]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sieve_problems())
@example(SieveProblem(2, 3, 1))
@example(SieveProblem(1, 5, 2, 11))
@example(SieveProblem(3, 2, 3, 10**9))
@example(SieveProblem(1, 30, 4))  # P > M
@example(SieveProblem(2, 2, 40))  # P < M
def test_routes_solve_the_smaller_eigenproblem(p):
    side = min(row_count(p), p.m_len)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "gram_matrix", lambda p: pytest.fail("dense route built the M x M Gram"))
        with _eigvalsh_calls() as calls:
            dense_gram_eigenvalue(p)
    assert [shape for shape, _ in calls] == [(side, side)]
    with _eigvalsh_calls() as calls:
        sieve_gram_eigenvalue(p)
    assert all(max(shape) <= (p.m_len + 1) // 2 for shape, _ in calls)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sieve_problems(side="P"))
def test_row_side_kernel_matches_dense_oracle(p):
    slow = dense_gram_eigenvalue(p)
    assert abs(sieve_gram_eigenvalue(p) - slow) <= 1e-10 * slow


# 1/1 is in every row set: it joins the plus block for odd M and the minus block for
# even M.  1/2 is a row only at k = 1, N >= 2, and always joins the plus block.
@pytest.mark.parametrize("k, n_max, m_len", [
    (1, 1, 2), (1, 1, 3), (2, 3, 40), (2, 3, 41), (3, 4, 400), (3, 4, 401),
    (1, 2, 4), (1, 2, 5), (1, 12, 50), (1, 12, 51),
])
def test_row_side_fixed_points_of_the_reflection(k, n_max, m_len):
    p = SieveProblem(k, n_max, m_len, 12345)
    assert row_count(p) < m_len
    with _eigvalsh_calls() as calls:
        fast = sieve_gram_eigenvalue(p)
    slow = dense_gram_eigenvalue(p)
    assert abs(fast - slow) <= 1e-10 * slow
    # the blocks split the whole row-side spectrum, border rows included
    split = np.sort(np.concatenate([spectrum for _, spectrum in calls]))
    b = sieve_matrix(p)
    full = np.linalg.eigvalsh(b @ b.conj().T)
    assert split.shape == full.shape
    assert np.abs(split - full).max() <= 1e-9 * full[-1]


# Each sine is taken within a quarter turn of a zero, so the small ones near theta = +-1
# keep their relative accuracy: sin(pi * r / den) on the unreduced r in [0, 2*den) agrees
# with the oracle only to about 1e-13 on these problems.
@pytest.mark.parametrize("k, n_max, m_len", [(1, 30, 300), (2, 10, 1000), (3, 6, 1001),
                                             (4, 4, 401)])
def test_row_side_sines_keep_their_relative_accuracy(k, n_max, m_len):
    p = SieveProblem(k, n_max, m_len)
    slow = dense_gram_eigenvalue(p)
    assert abs(sieve_gram_eigenvalue(p) - slow) <= 3e-14 * slow


def test_row_side_never_forms_the_window(monkeypatch):
    p = SieveProblem(2, 6, 1020, 77)
    expected = sieve_gram_eigenvalue(p)
    monkeypatch.setattr(sieve, "sieve_matrix", lambda p: pytest.fail("built the P x M matrix"))
    monkeypatch.setattr(sieve, "gram_column", lambda p: pytest.fail("built the Gram column"))
    with _eigvalsh_calls() as calls:
        assert sieve_gram_eigenvalue(p) == expected
    assert all(max(shape) <= row_count(p) // 2 + 1 for shape, _ in calls)


@pytest.mark.parametrize("k, n_max, m_len", [(1, 1, 10), (1, 9, 200), (2, 4, 61), (3, 3, 500)])
def test_row_side_ignores_the_offset_bit_for_bit(k, n_max, m_len):
    base = sieve_gram_eigenvalue(SieveProblem(k, n_max, m_len))
    for offset in (1, 10**6, 10**30 + 7):
        assert sieve_gram_eigenvalue(SieveProblem(k, n_max, m_len, offset)) == base


def test_row_side_refuses_past_exact_int64_phases(monkeypatch):
    # k = 2, N = 3: the largest kernel denominator is 3^4, and 4 * (3^4)^2 = 4 * 3^8
    p = SieveProblem(2, 3, 40)
    monkeypatch.setattr(sieve, "_MAX_INT64_PRODUCT", 4 * 3**8 + 1)
    assert sieve_gram_eigenvalue(p) > 0
    monkeypatch.setattr(sieve, "_MAX_INT64_PRODUCT", 4 * 3**8)
    # the Toeplitz route forms no such products
    assert sieve_gram_eigenvalue(SieveProblem(2, 3, 9)) > 0
    monkeypatch.setattr(sieve, "sieve_rows", lambda p: pytest.fail("listed rows past the bound"))
    with pytest.raises(ResourceError):
        sieve_gram_eigenvalue(p)


@pytest.mark.parametrize("seed", range(20))
def test_half_blocks_split_any_signed_involution(seed):
    """A random real symmetric S with JSJ = S, for a J that swaps pairs of points
    and keeps fixed points of both signs: the two blocks carry its whole spectrum."""
    rng = np.random.default_rng(seed)
    pairs, plus, minus = rng.integers(1, 7, size=3)
    perm = rng.permutation(2 * pairs + plus + minus)
    lower, mirror = perm[:pairs], perm[pairs:2 * pairs]
    plus_fixed, minus_fixed = perm[2 * pairs:2 * pairs + plus], perm[2 * pairs + plus:]
    j = np.zeros((len(perm), len(perm)))
    j[lower, mirror] = j[mirror, lower] = 1
    j[plus_fixed, plus_fixed] = 1
    j[minus_fixed, minus_fixed] = -1
    a = rng.standard_normal(j.shape)
    s = a + a.T
    s += j @ s @ j
    blocks = sieve._half_blocks(lambda x, y: s[np.ix_(x, y)], lower, mirror,
                                plus_fixed, minus_fixed)
    assert [len(b) for b in blocks] == [pairs + plus, pairs + minus]
    split = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    full = np.linalg.eigvalsh(s)
    assert np.abs(split - full).max() <= 1e-10 * np.abs(full).max()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sieve_problems())
def test_gram_column_diagonal_is_row_count(p):
    assert gram_column(p)[0] == row_count(p)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(sieve_problems())
def test_toeplitz_matrix_matches_gram_matrix(p):
    i = np.arange(p.m_len)
    toeplitz = gram_column(p)[abs(i[:, None] - i[None, :])]
    assert np.abs(gram_matrix(p) - toeplitz).max() <= 1e-9


def test_single_modulus_delta_is_window_length():
    # One row (n=1, a=0): the Gram matrix is all ones, top eigenvalue M.
    p = SieveProblem(k=1, n_max=1, m_len=10)
    assert sieve_gram_eigenvalue(p) == pytest.approx(10.0, abs=1e-9)


def test_two_rows_unit_window():
    # M=1: Gram is the all-ones P x P matrix, eigenvalue P.
    p = SieveProblem(k=2, n_max=2, m_len=1)
    a, _ = sieve_rows(p)
    assert len(a) == 3
    assert sieve_gram_eigenvalue(p) == pytest.approx(3.0, abs=1e-9)


def test_rows_are_coprime_and_lex_sorted():
    p = SieveProblem(k=2, n_max=5, m_len=4)
    a, n = sieve_rows(p)
    assert a.dtype == n.dtype == np.int64
    assert (np.gcd(a, n) == 1).all()
    keyed = list(zip(n.tolist(), a.tolist()))
    assert keyed == sorted(keyed)
    expected = tuple_count(2, 5, coprime=True)
    assert len(a) == expected


def test_power_iteration_matches_dense():
    p = SieveProblem(k=2, n_max=2, m_len=3)
    fast = sieve_gram_eigenvalue(p)
    slow = dense_gram_eigenvalue(p)
    assert abs(fast - slow) <= 1e-6 * slow
    assert fast >= 3.0 - 1e-9  # Delta >= max(M, P) lower bound


def test_power_vs_dense_small_grid():
    for k, n_max, m_len in [(1, 3, 5), (1, 5, 2), (2, 3, 4), (3, 2, 7)]:
        p = SieveProblem(k=k, n_max=n_max, m_len=m_len)
        fast = sieve_gram_eigenvalue(p)
        slow = dense_gram_eigenvalue(p)
        assert abs(fast - slow) <= 1e-6 * max(slow, 1.0), (k, n_max, m_len)


def test_delta_lower_bound_max_m_p():
    for k, n_max, m_len in [(1, 4, 3), (2, 3, 8), (1, 6, 20)]:
        p = SieveProblem(k=k, n_max=n_max, m_len=m_len)
        a, _ = sieve_rows(p)
        val = dense_gram_eigenvalue(p)
        assert val >= max(m_len, len(a)) - 1e-9


def test_delta_invariant_under_window_offset():
    # Shifting the m-window multiplies each column by a unimodular phase,
    # which conjugates the Gram matrix by a diagonal unitary.
    p0 = SieveProblem(k=2, n_max=4, m_len=6, m_offset=0)
    base = dense_gram_eigenvalue(p0)
    for offset in (17, 10**6):
        p = SieveProblem(k=2, n_max=4, m_len=6, m_offset=offset)
        assert dense_gram_eigenvalue(p) == pytest.approx(base, rel=1e-9)


def test_gram_matrix_is_hermitian_psd():
    p = SieveProblem(k=2, n_max=3, m_len=5)
    g = gram_matrix(p)
    assert np.allclose(g, g.conj().T)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-9
    assert g.shape == (5, 5)


def test_l1_sum_basis_vector():
    # alpha = e_j concentrates all mass on one row; each matrix entry has
    # modulus one, so the l1 norm of B alpha is exactly P.
    p = SieveProblem(k=2, n_max=2, m_len=1)
    a, _ = sieve_rows(p)
    alpha = np.zeros(1)
    alpha[0] = 1.0
    assert l1_sieve_sum(p, alpha) == pytest.approx(len(a), abs=1e-9)


def test_l1_sum_zero_vector():
    p = SieveProblem(k=1, n_max=3, m_len=4)
    assert l1_sieve_sum(p, np.zeros(4)) == 0.0


def test_l1_sum_cauchy_schwarz_bound():
    # l1(alpha) <= sqrt(P * Delta) * ||alpha||_2 for every alpha.
    rng = np.random.default_rng(42)
    p = SieveProblem(k=2, n_max=4, m_len=10)
    a, _ = sieve_rows(p)
    delta = dense_gram_eigenvalue(p)
    cap = math.sqrt(len(a) * delta)
    for _ in range(50):
        alpha = rng.normal(size=10) + 1j * rng.normal(size=10)
        alpha /= np.linalg.norm(alpha)
        assert l1_sieve_sum(p, alpha) <= cap * (1.0 + 1e-9)


def test_l1_sum_rejects_wrong_length():
    p = SieveProblem(k=1, n_max=2, m_len=4)
    with pytest.raises(RangeError, match=r"alpha must have length 4, got shape \(5,\)"):
        l1_sieve_sum(p, np.ones(5))


def test_dual_form_ones_single_row():
    # One row (a=1, n=1), c = (1,): ||c B||^2 sums |row entry|^2 = M.
    p = SieveProblem(k=1, n_max=1, m_len=7)
    assert dual_quadratic_form(p, [1.0]) == pytest.approx(7.0, abs=1e-9)


def test_dual_form_zero():
    p = SieveProblem(k=2, n_max=3, m_len=4)
    assert dual_quadratic_form(p, np.zeros(row_count(p))) == 0.0


def test_dual_form_bounded_by_delta():
    # Dual form <= Delta * sum |c|^2 with the same extremal constant.
    rng = np.random.default_rng(42)
    p = SieveProblem(k=2, n_max=3, m_len=6)
    rows = row_count(p)
    delta = dense_gram_eigenvalue(p)
    for _ in range(50):
        phases = rng.uniform(0.0, 1.0, size=rows)
        val = dual_quadratic_form(p, np.exp(2j * np.pi * phases))
        assert val <= delta * rows * (1.0 + 1e-9)


def test_dual_form_refuses_before_listing_rows(monkeypatch):
    # P ~ 2.4e12 rows: listing them would never finish
    monkeypatch.setattr(sieve, "fraction_table",
                        lambda *args: pytest.fail("listed rows past the cap"))
    with pytest.raises(ResourceError):
        dual_quadratic_form(SieveProblem(3, 2000, 1), np.ones(1))


def test_dual_form_rejects_wrong_length_sequence():
    p = SieveProblem(k=1, n_max=2, m_len=3)
    a, _ = sieve_rows(p)
    with pytest.raises(RangeError, match=rf"coeffs must have length {len(a)}, got shape"):
        dual_quadratic_form(p, [1.0] * (len(a) + 1))


def test_dual_form_checks_length_before_building_the_matrix(monkeypatch):
    # The P x M matrix takes its entries from np.exp, so a length refusal must come first
    p = SieveProblem(k=2, n_max=3, m_len=4)
    coeffs = np.ones(row_count(p) - 1)
    monkeypatch.setattr(np, "exp", lambda *args: pytest.fail("built B before the length check"))
    with pytest.raises(RangeError, match="coeffs must have length"):
        dual_quadratic_form(p, coeffs)


def test_duality_l1_versus_sup_estimate():
    # For the matched-filter witness c* (conjugate phases of B alpha),
    # l1(alpha) = c* . (B alpha) <= ||c* B|| * ||alpha||, so dual(c*)
    # dominates l1(alpha)^2 when ||alpha|| = 1. Random draws alone
    # underestimate the sup badly when P >> M; the witness must join
    # the candidate set.
    rng = np.random.default_rng(42)
    p = SieveProblem(k=2, n_max=4, m_len=8)
    a, _ = sieve_rows(p)
    b = sieve_matrix(p)

    alpha = rng.normal(size=8) + 1j * rng.normal(size=8)
    alpha /= np.linalg.norm(alpha)
    l1 = l1_sieve_sum(p, alpha)

    best = 0.0
    for _ in range(200):
        phases = rng.uniform(0.0, 1.0, size=len(a))
        c = np.exp(2j * np.pi * phases)
        best = max(best, float(np.sum(np.abs(c @ b) ** 2)))
    image = b @ alpha
    witness = np.where(np.abs(image) > 0, image.conj() / np.abs(image), 1.0)
    witness_val = dual_quadratic_form(p, witness)
    best = max(best, witness_val)

    assert witness_val >= l1**2 * (1.0 - 1e-9)
    assert l1 <= math.sqrt(best) * (1.0 + 1e-6)


def test_classical_bounds_example():
    rep = classical_bounds(k=2, n_max=10, m_len=1000)
    assert rep.classical_1 == 11000
    assert rep.classical_2 == 11000
    assert rep.conjecture == 2000
    assert rep.cor2_rhs == 2000


def test_classical_bounds_linear_case():
    rep = classical_bounds(k=1, n_max=5, m_len=100)
    assert rep.classical_1 == 100 + 5**2  # M + N^{2k}
    assert rep.classical_2 == 5 * 100 + 5**2  # NM + N^{k+1} = 625
    assert rep.classical_1 == 125


def test_classical_bounds_perfect_square_exact():
    # M * N^{k+1} = 16 * 16 = 256, sqrt exact: cor2 = 16 + 16 = 32.
    rep = classical_bounds(k=1, n_max=4, m_len=16)
    assert rep.cor2_rhs == 32
    assert isinstance(rep.cor2_rhs, int)


def test_classical_bounds_refuses_cor2_past_the_float_range():
    # 3 * 40^201 is past 2^1024 and not a square: its sqrt has no float
    with pytest.raises(RangeError, match="cor2_rhs .* past the float range"):
        classical_bounds(k=200, n_max=40, m_len=3)
    # an exact square keeps its int however large: 40^201 * 40^201
    rep = classical_bounds(k=200, n_max=40, m_len=40**201)
    assert rep.cor2_rhs == 2 * 40**201


@pytest.mark.parametrize("k, n_max, m_len", [(10000, 10, 10), (10**8, 3, 5)])
def test_classical_bounds_refuses_more_digits_than_int_to_str_allows(k, n_max, m_len):
    # N^(2k) has 20 001 digits at the first, about 9.5*10^7 at the second:
    # refused from bit lengths, before either power is formed
    with pytest.raises(ResourceError, match="digit limit of int-to-str conversion"):
        classical_bounds(k, n_max, m_len)


def test_delta_dominated_by_classical_bounds():
    # The computed eigenvalue never exceeds the coarse classical bounds
    # (with slack 2 for the non-asymptotic small ranges used here).
    for k, n_max, m_len in [(1, 4, 10), (2, 3, 12), (1, 6, 5)]:
        p = SieveProblem(k=k, n_max=n_max, m_len=m_len)
        val = dense_gram_eigenvalue(p)
        rep = classical_bounds(k=k, n_max=n_max, m_len=m_len)
        assert val <= 2.0 * min(rep.classical_1, rep.classical_2)


def test_sieve_matrix_entries_unimodular():
    p = SieveProblem(k=2, n_max=3, m_len=4, m_offset=5)
    b = sieve_matrix(p)
    assert np.allclose(np.abs(b), 1.0)
    a, _ = sieve_rows(p)
    assert b.shape == (len(a), 4)


def test_sieve_matrix_first_row_constant():
    # Row (a=1, n=1) reduces a*m mod 1 to 0 for every m: all entries equal 1.
    p = SieveProblem(k=1, n_max=3, m_len=6)
    a, n = sieve_rows(p)
    b = sieve_matrix(p)
    assert (a[0], n[0]) == (1, 1)
    assert np.allclose(b[0], 1.0)


@pytest.mark.parametrize("k, n_max, m_len, m_offset", [
    (1, 5, 7, 0), (1, 30, 40, 10**12 + 3), (2, 4, 6, 10**30), (2, 10, 20, 10**30 + 7),
    (3, 3, 5, 17), (4, 3, 3, 999),
    # a table of n^k roots larger than its block of rows, at m_len = 1
    (2, 10, 1, 5), (3, 6, 1, 2**64 + 1),
    # k = 2 up to the modulus 60^2 = 3600, and offsets past 2^64
    (2, 60, 2, 10**6 + 3), (1, 12, 9, 2**64), (2, 7, 11, 2**64 + 12345),
])
def test_sieve_matrix_matches_exact_integer_reference(k, n_max, m_len, m_offset):
    # Reference: each phase reduced as a Python int, one row at a time.
    p = SieveProblem(k, n_max, m_len, m_offset)
    rows_a, rows_n = sieve_rows(p)
    ref = np.array([
        np.exp(2j * np.pi * np.array([(a * m) % n**k for m in range(m_offset + 1,
                                                                   m_offset + m_len + 1)],
                                     dtype=float) / n**k)
        for a, n in zip(rows_a.tolist(), rows_n.tolist())
    ])
    assert np.array_equal(sieve_matrix(p), ref)


def test_sieve_matrix_refuses_modulus_past_int64_products(monkeypatch):
    # 2^30 rows of modulus 2^31: a * m could overflow int64, so refuse before building
    monkeypatch.setenv("POWFRAC_MAX_POINTS", str(10**10))

    def no_table(*args, **kwargs):
        raise AssertionError("a table of roots of unity was built before the refusal")

    monkeypatch.setattr(sieve.np, "exp", no_table)
    with pytest.raises(ResourceError):
        sieve_matrix(SieveProblem(k=31, n_max=2, m_len=1))
