"""Exponential sums, stationary-phase transforms and mean-value integrals."""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powfrac import RangeError, ResourceError, RootBracketError, expsum
from powfrac.expsum import (MAX_SUM_TERMS, SUM_CHUNK, GenericPhase, MeanValueSpec, PhaseSpec,
                            calibrate_mean_value_shortening,
                            calibrate_pair_count_vs_mean_value, direct_monomial_sum,
                            direct_phase_sum, dual_term_count, kusmin_landau_check,
                            mean_value_integral, monomial_phase, monomial_term_count,
                            phase_pair_count, power_phase, read_calibration,
                            stationary_phase_generic, vdc_transform_sum,
                            write_calibration)


def test_direct_sum_zero_phase():
    p = PhaseSpec(0.5, 0.0, 10.0, 2.0)
    value = direct_monomial_sum(p)
    assert value == pytest.approx(9.0)  # integers 11..19, each term 1
    assert monomial_term_count(p) == 9


def test_direct_sum_linear_phase():
    # e(n/2) = (-1)^n over n = 5, 6, 7
    value = direct_monomial_sum(PhaseSpec(1.0, 2.0, 4.0, 2.0))
    assert value == pytest.approx(-1.0, abs=1e-12)


def test_direct_sum_triangle_inequality():
    rng = np.random.default_rng(42)
    for _ in range(50):
        alpha = float(rng.uniform(-3, 3)) or 0.5
        p = PhaseSpec(alpha, float(rng.uniform(0, 500)), float(rng.uniform(1, 40)),
                      float(rng.uniform(1.1, 3)))
        assert abs(direct_monomial_sum(p)) <= monomial_term_count(p) + 1e-9


def test_direct_sum_validation():
    with pytest.raises(RangeError):
        direct_monomial_sum(PhaseSpec(0.0, 1.0, 10.0, 2.0))
    with pytest.raises(RangeError):
        direct_monomial_sum(PhaseSpec(0.5, 1.0, 10.0, 1.0))
    with pytest.raises(RangeError):
        direct_monomial_sum(PhaseSpec(0.5, -1.0, 10.0, 2.0))
    # the spec refuses each non-finite field when it is built, before any sum
    for bad in (math.inf, -math.inf, math.nan):
        for fields in ((bad, 1.0, 10.0, 2.0), (0.5, bad, 10.0, 2.0),
                       (0.5, 1.0, bad, 2.0), (0.5, 1.0, 10.0, bad)):
            with pytest.raises(RangeError, match="finite"):
                PhaseSpec(*fields)


@pytest.mark.parametrize("spec", [
    PhaseSpec(0.5, 1.0, 1e30, 2.0),              # 10^30 direct terms
    PhaseSpec(0.5, 1.0, 1e300, 1e300),           # eta * n_scale overflows to inf
])
def test_direct_sum_refused_past_term_cap(spec, monkeypatch):
    monkeypatch.setattr(expsum, "_phase_sum", lambda *a: pytest.fail("summed"))
    with pytest.raises(ResourceError):
        monomial_term_count(spec)
    with pytest.raises(ResourceError):
        direct_monomial_sum(spec)


@pytest.mark.parametrize("spec", [
    PhaseSpec(0.5, 1e30, 10.0, 2.0),             # m_scale = 10^29: about 3*10^28 dual terms
    PhaseSpec(400.5, 1.0, 10.0, 10.0),           # eta**(alpha - 1) overflows
])
def test_dual_sum_refused_past_term_cap(spec, monkeypatch):
    monkeypatch.setattr(expsum, "_phase_sum", lambda *a: pytest.fail("summed"))
    with pytest.raises(ResourceError):
        dual_term_count(spec)
    with pytest.raises(ResourceError):
        vdc_transform_sum(spec)


def test_term_cap_is_inclusive():
    # MAX_SUM_TERMS integers lie strictly inside (1, MAX_SUM_TERMS + 2)
    assert monomial_term_count(PhaseSpec(0.5, 1.0, 1.0, MAX_SUM_TERMS + 2.0)) == MAX_SUM_TERMS
    with pytest.raises(ResourceError):
        monomial_term_count(PhaseSpec(0.5, 1.0, 1.0, MAX_SUM_TERMS + 2.5))


# The per-term loops that the chunked kernel replaced, kept as its oracle: the
# kernel must reproduce them bit for bit, so the tests compare with ==.
def _e(x):
    return cmath.exp(2j * math.pi * math.fmod(x, 1.0))


def _loop_phase_sum(f, ns):
    total = 0j
    for n in ns:
        total += _e(f(n))
    return total


def _loop_dual_sum(p):
    """The dual sum of vdc_transform_sum, one term at a time."""
    m_scale = p.m_scale
    beta = p.beta
    ratio = p.eta ** (p.alpha - 1)
    c1, c2 = min(1.0, ratio), max(1.0, ratio)
    dual = range(math.floor(c1 * m_scale) + 1, math.ceil(c2 * m_scale))
    if len(dual) == 0:
        return 0j
    amp = math.sqrt(abs(beta - 1) * p.y)
    offset = 0.125 if p.alpha > 1 else -0.125
    total = 0j
    for m in dual:
        u = m / m_scale
        phase = offset - (p.y / beta) * u**beta
        total += (u ** (beta / 2) / m) * _e(phase)
    return amp * total


_nonzero = st.floats(-3, 3).filter(lambda a: abs(a) > 1e-3)


@st.composite
def phase_specs(draw):
    """Monomial phases with up to 3 * SUM_CHUNK direct and dual terms, drawn directly.

    alpha is integral (negative included) or not.  The dual range has about
    |eta**(alpha-1) - 1| * m_scale terms, with m_scale = y / n_scale.
    """
    alpha = draw(st.one_of(st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]), _nonzero))
    n_scale = draw(st.floats(0.5, 1e4))
    eta = 1 + draw(st.floats(1e-3, 3 * SUM_CHUNK)) / n_scale
    spread = abs(eta ** (alpha - 1) - 1) or 1.0
    y = n_scale * draw(st.floats(0, 3 * SUM_CHUNK)) / spread
    return PhaseSpec(alpha, y, n_scale, eta)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(phase_specs())
def test_monomial_sums_equal_the_per_term_loop(p):
    ns = range(math.floor(p.n_scale) + 1, math.ceil(p.eta * p.n_scale))
    assert direct_monomial_sum(p) == _loop_phase_sum(p.f, ns)
    if p.y > 0 and not (p.alpha >= 1 and p.alpha == int(p.alpha)):
        value, _ = vdc_transform_sum(p)
        assert value == _loop_dual_sum(p)


@st.composite
def kusmin_phases(draw):
    """f' rises linearly from c0 to c1 inside (0, 1) on [a, b]: the Kusmin-Landau
    hypothesis holds with lam = min(c0, 1 - c1)."""
    a = draw(st.floats(-50, 50))
    b = a + draw(st.floats(0, 3 * SUM_CHUNK))
    c0, c1 = draw(st.floats(0.05, 0.45)), draw(st.floats(0.55, 0.95))
    d = (c1 - c0) / (b - a) if b > a else 0.0
    phase = GenericPhase(f=lambda x: c0 * x + d * (x - a) ** 2 / 2, df=lambda x: c0 + d * (x - a),
                         d2f=lambda x: d, a=a, b=b)
    return phase, min(c0, 1 - c1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(kusmin_phases())
def test_generic_sums_equal_the_per_term_loop(case):
    g, lam = case
    inside = range(math.floor(g.a) + 1, math.ceil(g.b))
    assert direct_phase_sum(g) == _loop_phase_sum(g.f, inside)
    closed = range(math.ceil(g.a), math.floor(g.b) + 1)
    assert kusmin_landau_check(g, lam).magnitude == abs(_loop_phase_sum(g.f, closed))


def test_direct_sum_memory_is_bounded_by_the_chunk():
    p = PhaseSpec(1.5, 5e5, 3e5, 2.0)  # about 3*10^5 terms
    assert monomial_term_count(p) > 299_000
    tracemalloc.start()
    try:
        direct_monomial_sum(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_transform_rejects_positive_integer_alpha():
    with pytest.raises(RangeError):
        vdc_transform_sum(PhaseSpec(2.0, 100.0, 10.0, 2.0))
    with pytest.raises(RangeError):
        vdc_transform_sum(PhaseSpec(1.0, 100.0, 10.0, 2.0))


def test_transform_containment_probes():
    for alpha, y, n_scale in ((-1.0, 400.0, 10.0), (1.5, 1e4, 100.0), (0.5, 1e3, 20.0)):
        p = PhaseSpec(alpha, y, n_scale, 2.0)
        direct = direct_monomial_sum(p)
        value, budget = vdc_transform_sum(p)
        assert budget == pytest.approx(n_scale / math.sqrt(y) + math.log(y))
        assert abs(direct - value) <= 10 * budget


def test_transform_empty_source_range():
    # no integers in (1.2, 1.56): direct sum is 0, transform stays within budget
    p = PhaseSpec(0.5, 100.0, 1.2, 1.3)
    assert direct_monomial_sum(p) == 0
    value, budget = vdc_transform_sum(p)
    assert abs(value) <= 10 * budget


def test_transform_degenerate_dual_range():
    # derivative range (y/n)*(eta^(alpha-1), 1) hugs 0.5..1: no interior integer
    p = PhaseSpec(-1.0, 10.0, 10.0, 1.9)
    value, budget = vdc_transform_sum(p)
    assert value == 0
    assert budget == pytest.approx(10.0 / math.sqrt(10.0) + math.log(10.0))


def test_generic_stationary_phase_matches_closed_form():
    for alpha, y, n_scale in ((-1.0, 400.0, 10.0), (1.5, 1e4, 100.0), (2.5, 1e3, 50.0)):
        p = PhaseSpec(alpha, y, n_scale, 2.0)
        closed, closed_budget = vdc_transform_sum(p)
        generic, _ = stationary_phase_generic(monomial_phase(p))
        assert abs(closed - generic) <= 1e-9 * max(1.0, abs(closed))
        assert closed_budget > 0


def test_generic_stationary_phase_quadratic():
    q = 50
    phase = GenericPhase(f=lambda x: x * x / (2 * q), df=lambda x: x / q,
                         d2f=lambda x: 1.0 / q, a=float(q), b=float(2 * q))
    value, budget = stationary_phase_generic(phase)
    assert value == 0  # f' spans [1, 2]: no strictly interior integer
    assert abs(direct_phase_sum(phase) - value) <= 10 * budget


def test_root_bracket_error_on_nonmonotone_derivative():
    # f' = 2.5 - (x-2)^2 rises then falls on [1,3]; f'(1) = f'(3) infers
    # "increasing", which the fall contradicts, so root bracketing is refused.
    phase = GenericPhase(
        f=lambda x: 2.5 * x - (x - 2) ** 3 / 3,
        df=lambda x: 2.5 - (x - 2) ** 2,
        d2f=lambda x: -2 * (x - 2),
        a=1.0,
        b=3.0,
    )
    with pytest.raises(RootBracketError):
        stationary_phase_generic(phase)


def test_stationary_phase_refuses_derivative_past_2_53():
    # f' = 2^53 + 8x on [0, 1]: past 2^53 the float f' - m rounds to 0 at
    # the wrong x, so roots of f'(x) = m cannot be told apart
    phase = GenericPhase(f=lambda x: 2.0**53 * x + 4 * x * x, df=lambda x: 2.0**53 + 8 * x,
                         d2f=lambda x: 8.0, a=0.0, b=1.0)
    with pytest.raises(RangeError, match=r"2\^53"):
        stationary_phase_generic(phase)


def test_nonmonotone_derivative_detected_without_metadata():
    # The direction is inferred from the endpoint values: on [1, 3.5]
    # f'(1) > f'(3.5) infers "decreasing", which the rise on [1, 2] contradicts.
    phase = GenericPhase(
        f=lambda x: 2.5 * x - (x - 2) ** 3 / 3,
        df=lambda x: 2.5 - (x - 2) ** 2,
        d2f=lambda x: -2 * (x - 2),
        a=1.0,
        b=3.5,
    )
    with pytest.raises(RootBracketError):
        stationary_phase_generic(phase)


def _linear_phase(coef: float, a: float, b: float) -> GenericPhase:
    return GenericPhase(f=lambda x: coef * x, df=lambda x: coef + 0 * x,
                        d2f=lambda x: 0.0, a=a, b=b)


def test_kusmin_landau_examples():
    r = kusmin_landau_check(_linear_phase(1 / 3, 1, 100), 1 / 3)
    assert r.magnitude == pytest.approx(1.0, abs=1e-9)
    assert r.bound == pytest.approx(1 / math.tan(math.pi / 6))
    assert r.passed

    r = kusmin_landau_check(_linear_phase(0.5, 1, 10), 0.5)
    assert r.magnitude == pytest.approx(0.0, abs=1e-12)
    assert r.bound == pytest.approx(1.0)
    assert r.passed

    r = kusmin_landau_check(_linear_phase(0.3, 1, 7), 0.3)
    assert r.magnitude == pytest.approx(0.3819660112501051, abs=1e-9)
    assert r.bound == pytest.approx(1 / math.tan(0.15 * math.pi))
    assert r.passed


def test_kusmin_landau_rejects_violated_hypothesis():
    with pytest.raises(RangeError):
        kusmin_landau_check(_linear_phase(0.1, 1, 20), 0.3)
    with pytest.raises(RangeError):
        kusmin_landau_check(_linear_phase(0.3, 1, 7), 0.0)
    for a, b in ((1, math.inf), (-math.inf, 5), (math.nan, 5), (1, math.nan)):
        with pytest.raises(RangeError, match="finite"):
            kusmin_landau_check(_linear_phase(0.3, a, b), 0.3)


def test_kusmin_landau_refused_past_term_cap_before_any_call():
    def fail(x):
        pytest.fail("evaluated the phase")

    phase = GenericPhase(f=fail, df=fail, d2f=fail, a=0.0, b=float(MAX_SUM_TERMS))
    with pytest.raises(ResourceError):
        kusmin_landau_check(phase, 0.3)


def test_kusmin_landau_random_monotone_monomials():
    rng = np.random.default_rng(7)
    for _ in range(30):
        s = float(rng.uniform(1.2, 3.0))
        a = float(rng.uniform(2, 30))
        m0 = int(rng.integers(0, 4))
        p_lo = float(rng.uniform(0.05, 0.4))
        p_hi = float(rng.uniform(p_lo + 0.1, 0.95))
        coef = (m0 + p_lo) / (s * a ** (s - 1))
        b = a * ((m0 + p_hi) / (m0 + p_lo)) ** (1 / (s - 1))
        b = min(b, a + 400)
        if math.floor(b) <= math.ceil(a):
            continue
        phase = GenericPhase(
            f=lambda x, c=coef, e=s: c * x**e,
            df=lambda x, c=coef, e=s: c * e * x ** (e - 1),
            d2f=lambda x, c=coef, e=s: c * e * (e - 1) * x ** (e - 2),
            a=a, b=b,
        )
        lam = min(p_lo, 1 - p_hi)
        r = kusmin_landau_check(phase, lam)
        assert r.passed


def test_mean_value_spec_rejects_non_finite_y_max():
    for y_max in (math.nan, math.inf):
        with pytest.raises(RangeError, match="finite"):
            mean_value_integral(MeanValueSpec(power_phase(1), (1, 2), (1, 2), y_max))


def test_mean_value_single_phase_at_largest_y_max():
    # the kernel argument y_max * (2 * 0) is 0, where 2 * y_max * 0 was inf * 0
    assert mean_value_integral(MeanValueSpec(power_phase(1), (1, 1), (1, 1), 1e308)) == 2.0


def test_mean_value_zero_phase():
    # |sum theta|^2 is constant P0^4; the normalized integral is 2 P0^4
    spec = MeanValueSpec(lambda n, u: 0.0, (1, 2), (1, 2), 10.0)
    assert mean_value_integral(spec) == pytest.approx(32.0, rel=1e-6)


def test_mean_value_vs_pair_count_example():
    spec = MeanValueSpec(power_phase(1), (1, 2), (1, 2), 10.0)
    value = mean_value_integral(spec)
    j = phase_pair_count(spec)
    assert j == 6
    assert j <= 16 * value


def test_mean_value_theta_bound_enforced():
    spec = MeanValueSpec(power_phase(1), (1, 2), (1, 2), 4.0, theta=lambda n, u: 2.0)
    with pytest.raises(RangeError):
        mean_value_integral(spec)
    with pytest.raises(RangeError):
        phase_pair_count(spec)


def test_mean_value_bounded_theta_vs_unit_theta():
    base = MeanValueSpec(power_phase(1), (1, 3), (1, 3), 8.0)
    damped = MeanValueSpec(power_phase(1), (1, 3), (1, 3), 8.0,
                           theta=lambda n, u: 0.5 * (-1) ** (n + u))
    v_base = mean_value_integral(base)
    v_damped = mean_value_integral(damped)
    assert v_damped <= 16 * v_base


def _quadrature_mean(phis, thetas, y_max):
    """(1/y_max) * integral of |sum theta e(y phi)|^2 over [-y_max, y_max], by quadrature.

    16-point Gauss-Legendre on equal panels no wider than 1 / (spread of
    phi + 1), so no panel holds more than one period of the integrand.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    panels = math.ceil(2 * y_max * (np.ptp(phis) + 1))
    half = y_max / panels
    mids = -y_max + half * (2 * np.arange(panels) + 1)
    ys = (mids[:, None] + half * nodes).ravel()
    sums = np.exp(2j * np.pi * np.outer(ys, phis)) @ thetas
    return half * float(np.tile(weights, panels) @ np.abs(sums) ** 2) / y_max


@st.composite
def mean_value_specs(draw):
    k = draw(st.integers(1, 3))
    n_lo, u_lo = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    n_len = draw(st.integers(1, 6))
    u_len = draw(st.integers(1, 36 // n_len))
    keys = [(n, u) for n in range(n_lo, n_lo + n_len) for u in range(u_lo, u_lo + u_len)]
    if draw(st.booleans()):
        coeff = st.complex_numbers(max_magnitude=1)
    else:
        coeff = st.floats(-1, 1)
    table = dict(zip(keys, draw(st.lists(coeff, min_size=len(keys), max_size=len(keys)))))
    y_max = draw(st.floats(0.5, 50))
    return MeanValueSpec(power_phase(k), (n_lo, n_lo + n_len - 1), (u_lo, u_lo + u_len - 1),
                         y_max, theta=lambda n, u: table[(n, u)])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(mean_value_specs())
def test_mean_value_closed_form_matches_quadrature(spec):
    phis, thetas = spec.tables
    slow = _quadrature_mean(phis, thetas, spec.y_max)
    # Absolute floor: theta can cancel the sum down to rounding of its scale.
    floor = 1e-12 * float(np.abs(thetas).sum()) ** 2
    assert abs(mean_value_integral(spec) - slow) <= 1e-6 * slow + floor


@st.composite
def pair_count_specs(draw):
    k = draw(st.integers(1, 3))
    n_lo, u_lo = draw(st.integers(1, 12)), draw(st.integers(0, 12))
    n_hi, u_hi = n_lo + draw(st.integers(0, 6)), u_lo + draw(st.integers(0, 10))
    # Y = n^k / j puts many gaps exactly on the threshold 1/Y.
    y_max = draw(st.one_of(st.floats(0.01, 1e4),
                           st.builds(lambda n, j: n**k / j, st.integers(1, 12), st.integers(1, 4))))
    return MeanValueSpec(power_phase(k), (n_lo, n_hi), (u_lo, u_hi), y_max)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair_count_specs())
def test_phase_pair_count_matches_double_loop(spec):
    phis = [spec.phi(n, u) for n in range(spec.i1[0], spec.i1[1] + 1)
            for u in range(spec.i2[0], spec.i2[1] + 1)]
    t = 1.0 / spec.y_max
    assert phase_pair_count(spec) == sum(abs(p1 - p2) <= t for p1 in phis for p2 in phis)


def test_mean_value_window_shortening_direction():
    # the normalized mean over a longer window is dominated by the shorter one
    for size in (2, 4):
        long_spec = MeanValueSpec(power_phase(1), (1, size), (1, size), 16.0)
        short_spec = MeanValueSpec(power_phase(1), (1, size), (1, size), 4.0)
        assert mean_value_integral(long_spec) <= 16 * mean_value_integral(short_spec)


def test_calibration_round_trip(tmp_path):
    entries = [calibrate_pair_count_vs_mean_value(k_values=(1,), sizes=(2, 4), y_values=(4.0,)),
               calibrate_mean_value_shortening(k_values=(1,), sizes=(2,), y_pairs=((8.0, 4.0),))]
    path = tmp_path / "calibration.json"
    write_calibration(path, entries)
    again = [calibrate_pair_count_vs_mean_value(k_values=(1,), sizes=(2, 4), y_values=(4.0,)),
             calibrate_mean_value_shortening(k_values=(1,), sizes=(2,), y_pairs=((8.0, 4.0),))]
    assert json.dumps(entries, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert read_calibration(path) == entries
    for entry in entries:
        assert set(entry) == {"lemma_id", "grid", "measured_constant"}
