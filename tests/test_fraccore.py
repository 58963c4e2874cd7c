"""Exact fractions, their enumeration and counting, the input checks and the shared
resource cap."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powfrac import (DyadicBlockQuery, EnumerationSpec, MeanValueSpec, PairQuery, PhaseSpec,
                     RangeError, ResourceError, count_pairs_block, count_pairs_bruteforce,
                     count_pairs_interval, coverage_profile, dense_gram_eigenvalue,
                     dual_quadratic_form, enumerate_tuples, euler_phi, format_rational,
                     l1_sieve_sum, parse_rational, power_phase, sharpness_study,
                     sieve_gram_eigenvalue, tuple_count, vdc_transform_sum, window_count)
from powfrac import fraccore
from powfrac.fraccore import check_work, fraction_table, mobius_upto
from powfrac.sieve import SieveProblem, row_count, sieve_matrix


def test_enumeration_counts_match_closed_form():
    # one pass at n_max=50 per k; per-base group sizes give every prefix count
    for k in (1, 2, 3):
        per_base = Counter(f.n for f in enumerate_tuples(EnumerationSpec(k, 50)))
        running = 0
        for n in range(1, 51):
            running += per_base[n]
            assert running == tuple_count(k, n)
        assert per_base[50] == 50**k


def test_enumeration_coprime_counts():
    for k in (1, 2, 3):
        for n_max in (1, 3, 7, 12):
            got = sum(1 for _ in enumerate_tuples(EnumerationSpec(k, n_max, coprime=True)))
            assert got == tuple_count(k, n_max, coprime=True)
            assert got == sum(n ** (k - 1) * euler_phi(n) for n in range(1, n_max + 1))


def test_enumeration_examples():
    assert sum(1 for _ in enumerate_tuples(EnumerationSpec(2, 2))) == 5
    vals = {f.value for f in enumerate_tuples(EnumerationSpec(1, 2, coprime=True))}
    assert vals == {Fraction(1, 2), Fraction(1)}
    first = next(iter(enumerate_tuples(EnumerationSpec(2, 3, coprime=True, sorted=True))))
    assert (first.u, first.n) == (1, 3)


def test_sorted_stream_is_sorted_permutation():
    for k, n_max in ((1, 6), (2, 4), (3, 3)):
        spec = EnumerationSpec(k, n_max)
        plain = list(enumerate_tuples(spec))
        ordered = list(enumerate_tuples(EnumerationSpec(k, n_max, sorted=True)))
        assert Counter(plain) == Counter(ordered)
        keys = [(f.value, f.n, f.u) for f in ordered]
        assert keys == sorted(keys)


def test_coprime_values_are_distinct():
    # with gcd(u,n)=1 the tuple -> value map is injective
    vals = [f.value for f in enumerate_tuples(EnumerationSpec(2, 6, coprime=True))]
    assert len(vals) == len(set(vals))


# Largest n_max drawn for each k: a few hundred tuples, so equal values recur without
# the gcd filter and the Fraction oracle stays cheap.
_TABLE_N = {1: 30, 2: 10, 3: 6, 4: 4}


def _listing(k, n_max, coprime, ordered):
    """The oracle: a double loop with math.gcd, sorted on exact Fractions if asked."""
    pairs = [(u, n) for n in range(1, n_max + 1) for u in range(1, n**k + 1)
             if not coprime or math.gcd(u, n) == 1]
    if ordered:
        pairs.sort(key=lambda t: (Fraction(t[0], t[1] ** k), t[1], t[0]))
    return pairs


def _pairs(table):
    u, n = table
    assert u.dtype == n.dtype == np.int64
    return list(zip(u.tolist(), n.tolist()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kn=st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, _TABLE_N[k]))),
       coprime=st.booleans(), ordered=st.booleans())
def test_fraction_table_matches_the_double_loop(kn, coprime, ordered):
    k, n_max = kn
    expected = _listing(k, n_max, coprime, ordered)
    assert _pairs(fraction_table(k, n_max, coprime, ordered)) == expected
    spec = EnumerationSpec(k, n_max, coprime, ordered)
    assert [(f.u, f.n) for f in enumerate_tuples(spec)] == expected


def test_colliding_keys_are_ordered_exactly(monkeypatch):
    # A key of 8 buckets puts distinct values in one run; the exact run sort must
    # restore the oracle's order once the bound says keys may collide.
    monkeypatch.setattr(fraccore, "_order_key", lambda u, den: np.floor(8 * u / den))
    cases = [(k, n_max, coprime) for k, n_max in ((1, 12), (2, 6), (3, 4), (4, 3))
             for coprime in (False, True)]
    assert any(_pairs(fraction_table(k, n, c, True)) != _listing(k, n, c, True)
               for k, n, c in cases)
    monkeypatch.setattr(fraccore, "_EXACT_KEYS", 1)
    for k, n_max, coprime in cases:
        assert _pairs(fraction_table(k, n_max, coprime, True)) == _listing(k, n_max, coprime, True)


def test_rational_parse_format_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert format_rational(Fraction(6, 8)) == "3/4"
    assert parse_rational(format_rational(Fraction(10, 3))) == Fraction(10, 3)
    for bad in ("0.5", "3", "1/0", "a/b", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_euler_phi_small_values():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 9: 6, 10: 4, 12: 4, 36: 12, 97: 96}
    for n, phi in known.items():
        assert euler_phi(n) == phi
    with pytest.raises(RangeError):
        euler_phi(0)


def test_mobius_upto_matches_factorization():
    def mu(n):
        sign, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if n > 1 else sign

    assert mobius_upto(0) == [0]
    assert mobius_upto(1) == [0, 1]
    assert mobius_upto(500) == [0] + [mu(n) for n in range(1, 501)]


@pytest.mark.parametrize("build, message", [
    (lambda: EnumerationSpec(0, 5), "k must be >= 1"),
    (lambda: PairQuery(2, 3, Fraction(4), metric="torus"), "metric must be"),
    (lambda: DyadicBlockQuery(2, 1, 0, 1, 1, Fraction(4)), "all block parameters"),
    (lambda: PhaseSpec(0.5, 1.0, 10.0, 1.0), "eta must exceed 1"),
    (lambda: MeanValueSpec(power_phase(1), (1, 2), (3, 2), 8.0), "must be non-empty"),
    (lambda: SieveProblem(2, 3, 2, m_offset=-1), "m_offset must be >= 0"),
    (lambda: DyadicBlockQuery(2, 1, 1, 1, 1, Fraction(0)), "scale y must be positive"),
    (lambda: coverage_profile(1, 2, Fraction(0)), "scale y must be positive"),
    (lambda: window_count(1, 2, Fraction(1, 3), Fraction(-1)), "scale y must be positive"),
    (lambda: PhaseSpec(0.5, 1.0, 0.0, 2.0), "scale must be positive"),
    (lambda: vdc_transform_sum(PhaseSpec(0.5, 0.0, 10.0, 2.0)), "transform needs y > 0"),
    (lambda: MeanValueSpec(power_phase(1), (1, 2), (1, 2), 0.0), "y_max must be positive"),
    (lambda: SieveProblem(0, 3, 2), "k, n_max and m_len must all be >= 1"),
    (lambda: SieveProblem(2, 0, 2), "k, n_max and m_len must all be >= 1"),
    (lambda: SieveProblem(2, 3, 0), "k, n_max and m_len must all be >= 1"),
], ids=["EnumerationSpec", "PairQuery", "DyadicBlockQuery", "PhaseSpec", "MeanValueSpec",
        "SieveProblem", "DyadicBlockQuery-y", "coverage_profile-y", "window_count-y",
        "PhaseSpec-n_scale", "vdc_transform_sum-y", "MeanValueSpec-y_max", "SieveProblem-k",
        "SieveProblem-n_max", "SieveProblem-m_len"])
def test_inputs_are_checked_when_built(build, message):
    """Each input type refuses a bad field in its constructor, and each entry point a bad
    argument of its own, before any consumer sees it."""
    with pytest.raises(RangeError, match=message):
        build()


def test_check_work_reads_the_cap_from_the_environment(monkeypatch):
    monkeypatch.delenv("POWFRAC_MAX_POINTS", raising=False)
    assert check_work(lambda cap: 7, 7, "work") == 7
    with pytest.raises(ResourceError, match="work: predicted at least 8 exceeds cap 7"):
        check_work(lambda cap: 8, 7, "work")
    monkeypatch.setenv("POWFRAC_MAX_POINTS", "")  # empty: the default holds
    with pytest.raises(ResourceError):
        check_work(lambda cap: 8, 7, "work")
    monkeypatch.setenv("POWFRAC_MAX_POINTS", "8")  # the variable overrides any default
    assert check_work(lambda cap: 8, 7, "work") == 8
    # the count may stop as soon as it passes the cap it is given: 1 + 2 + 3 + 4 > 8
    with pytest.raises(ResourceError, match="at least 10 exceeds cap 8"):
        check_work(lambda cap: tuple_count(1, 10**9, False, cap), 7, "work")


@pytest.mark.parametrize("env", ["abc", "1e9", "-5", "2.5", "0x10"])
def test_check_work_refuses_a_variable_that_is_not_a_non_negative_integer(monkeypatch, env):
    monkeypatch.setenv("POWFRAC_MAX_POINTS", env)
    with pytest.raises(RangeError, match="POWFRAC_MAX_POINTS must be a non-negative integer"):
        check_work(lambda cap: pytest.fail("counted work"), 7, "work")
    monkeypatch.setenv("POWFRAC_MAX_POINTS", " 0 ")  # zero is a cap, and spaces are trimmed
    with pytest.raises(ResourceError, match="exceeds cap 0"):
        check_work(lambda cap: 1, 7, "work")


_SIEVE = SieveProblem(2, 3, 2)  # 9 rows, 18 entries
# Every library entry point that checks the resource cap, at a size far below
# the defaults but past a cap of 3 tuples or matrix entries.
CAPPED = {
    "interval": lambda: count_pairs_interval(PairQuery(2, 3, Fraction(4))),
    "oracle": lambda: count_pairs_bruteforce(PairQuery(2, 3, Fraction(4))),
    "block": lambda: count_pairs_block(DyadicBlockQuery(2, 2, 2, 2, 2, Fraction(4))),
    "window": lambda: window_count(2, 3, Fraction(1, 3), Fraction(4)),
    "coverage": lambda: coverage_profile(2, 3, Fraction(4)),
    "sharpness": lambda: sharpness_study(2, [3]),
    "rows": lambda: row_count(_SIEVE),
    "sieve_matrix": lambda: sieve_matrix(_SIEVE),
    "delta_toeplitz": lambda: sieve_gram_eigenvalue(_SIEVE),
    "delta_dense": lambda: dense_gram_eigenvalue(_SIEVE),
    "l1": lambda: l1_sieve_sum(_SIEVE, np.ones(2)),
    "dual": lambda: dual_quadratic_form(_SIEVE, np.ones(9)),
}


@pytest.mark.parametrize("call", CAPPED.values(), ids=CAPPED.keys())
def test_capped_entry_points_honour_the_variable(monkeypatch, call):
    monkeypatch.delenv("POWFRAC_MAX_POINTS", raising=False)
    call()
    monkeypatch.setenv("POWFRAC_MAX_POINTS", "3")
    with pytest.raises(ResourceError):
        call()
