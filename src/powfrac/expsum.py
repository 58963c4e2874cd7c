"""Exponential sums: direct evaluation, stationary-phase transforms,
Kusmin-Landau checks, mean-value integrals and the phase pair count,
all in floats; power_law_phase builds the kusmin phase and checks its domain.

Conventions: e(x) = exp(2*pi*i*x); every phase is reduced mod 1 before
the trigonometric call so that large arguments (f can exceed 1e6
cycles) keep full precision.  Sums written over an interval (a, b) are
over integers strictly inside; Kusmin-Landau sums include endpoints.

One builder, _power_law, writes the power law c*(x/s)**p and its two
derivatives, for the monomial phase and the kusmin phase alike.  Every
exponential sum, the stationary-phase dual sum included, goes through one
kernel, `_phase_sum`.  It takes the terms of at most SUM_CHUNK consecutive
integers at a time as numpy arrays and adds them in order with np.cumsum,
so each sum is bit-identical to adding w(n) * e(f(n)) term by term in a
Python loop, with memory bounded by the chunk.  The mod-1 reduction takes
np.modf's fractional part, which equals fmod(x, 1) bit for bit (see
_frac), and n and n / scale come from np.arange while |n| < 2^53.  What
stays in Python is one call per term: libm's pow (numpy's float64 power
differs from it in the last bit on a few percent of inputs, which would
move reported sums), f for a GenericPhase without an array form, and the
root of f'(x) = m for the stationary-phase dual sum.  The number of terms
is known from the endpoints before any phase is evaluated, and a sum of
more than MAX_SUM_TERMS terms is refused with ResourceError.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .errors import RangeError, ResourceError

# Largest P^2 (entries of the phase-difference kernel) mean_value_integral builds.
MAX_KERNEL_ENTRIES = 5_000_000

# Most terms one direct or dual sum evaluates: about 1.5 s of work at the
# 0.12-0.2 us per term of a monomial or array-form direct sum (0.2-0.35 us
# for the dual sum, with two pows per term), best of 5 over 10^6 terms on a
# 2-core x86 machine.  The benchmark's largest sums have about 3*10^5 terms.
MAX_SUM_TERMS = 10_000_000

# Terms per numpy step of _phase_sum: its arrays stay under a megabyte.
SUM_CHUNK = 1 << 13


def _phase_sum(ns: range,
               terms: Callable[[range], tuple[np.ndarray, Optional[np.ndarray]]]) -> complex:
    """Sum of w(n) * e(f(n)) over ns in order.

    terms maps a chunk of at most SUM_CHUNK consecutive integers of ns to the
    float64 arrays of f(n) and of w(n), or None in place of the weights when
    w = 1.  The phases are reduced mod 1 by _frac, np.fmod(x, 1.0) bit for
    bit at the cost of np.modf.  The running total goes into slot 0 of the
    chunk's terms and np.cumsum adds left to right, so the result is
    bit-identical to `total += w(n) * cmath.exp(2j * math.pi * math.fmod(f(n), 1.0))`
    term by term; np.sum would add pairwise and change the last bits.
    """
    total = 0j
    for start in range(0, len(ns), SUM_CHUNK):
        phases, weights = terms(ns[start:start + SUM_CHUNK])
        out = np.empty(len(phases) + 1, dtype=complex)
        out[0] = total
        out[1:] = np.exp(2j * math.pi * _frac(phases))
        if weights is not None:
            out[1:] *= weights
        total = complex(np.cumsum(out)[-1])
    return total


def _frac(x: np.ndarray) -> np.ndarray:
    """np.fmod(x, 1.0), bit for bit on every float64, at the cost of np.modf.

    For finite x both are x - trunc(x), exact, with the sign of x (so -3.0 gives
    -0.0).  They differ only at +-inf, where fmod gives NaN and modf gives 0;
    x - x is +0 for finite x and NaN at +-inf (or NaN), and subtracting +0
    changes no float, -0 included.
    """
    frac, whole = np.modf(x)
    np.subtract(x, x, out=whole)
    return np.subtract(frac, whole, out=frac)


def _values(f: Callable[[float], float], ns: Sequence) -> np.ndarray:
    """f(n) for each n in ns, called once per term, as a float64 array."""
    return np.fromiter(map(f, ns), dtype=float, count=len(ns))


def _floats(ns: range) -> np.ndarray:
    """float(n) for each n of the consecutive integers ns, as a float64 array.

    np.arange is exact while |n| < 2^53; past that each n is rounded by float().
    """
    if ns and max(abs(ns[0]), abs(ns[-1])) < 2**53:
        return np.arange(ns.start, ns.stop, dtype=float)
    return _values(float, ns)


def _ratios(ns: range, scale: float) -> np.ndarray:
    """n / scale as Python's int-by-float division computes it: float(n) / scale."""
    return _floats(ns) / scale


def _pow(x: np.ndarray, a: float) -> np.ndarray:
    """x**a by libm's pow, one call per entry, as Python's float ** float computes it."""
    return np.fromiter(map(math.pow, x.tolist(), repeat(a)), dtype=float, count=len(x))


def _interior_integers(lo: float, hi: float, what: str) -> range:
    """Integers strictly between lo and hi (ties at either end excluded).

    The count comes from the endpoints alone: a range of more than
    MAX_SUM_TERMS integers, or one with an infinite end, is refused with
    ResourceError before the sum named by `what` evaluates anything.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ResourceError(f"{what} runs over the unbounded range ({lo}, {hi})")
    ns = range(math.floor(lo) + 1, math.ceil(hi))
    if ns.stop - ns.start > MAX_SUM_TERMS:
        raise ResourceError(f"{what} of {ns.stop - ns.start} terms exceeds cap {MAX_SUM_TERMS}")
    return ns


def _finite(what: str, fn: Callable[..., float], *args: float) -> float:
    """fn(*args), refused with RangeError when it overflows the float range or divides by 0."""
    try:
        value = fn(*args)
    except OverflowError:
        value = math.inf
    except ZeroDivisionError:
        value = None
    if value is None or not math.isfinite(value):
        at = ", ".join(f"{x:.17g}" for x in args)
        if value is None:
            raise RangeError(f"{what} divides by zero at ({at})")
        raise RangeError(f"{what}({at}) = {value} is past the float range")
    return value


@dataclass(frozen=True)
class PhaseSpec:
    """Monomial phase f(x) = (y/alpha) * (x/n_scale)**alpha on (n_scale, eta*n_scale).

    Derived quantities: m_scale = y/n_scale is f' at the left endpoint;
    beta is the dual exponent with 1/alpha + 1/beta = 1.
    """

    alpha: float
    y: float
    n_scale: float
    eta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "y", "n_scale", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha == 0:
            raise RangeError("alpha must be nonzero")
        if self.y < 0:
            raise RangeError(f"amplitude y must be >= 0, got {self.y}")
        if self.n_scale <= 0:
            raise RangeError(f"scale must be positive, got {self.n_scale}")
        if self.eta <= 1:
            raise RangeError(f"interval ratio eta must exceed 1, got {self.eta}")

    @property
    def m_scale(self) -> float:
        return self.y / self.n_scale

    @property
    def beta(self) -> float:
        if self.alpha == 1:
            raise RangeError("beta undefined at alpha = 1")
        return self.alpha / (self.alpha - 1)


def _monomial_range(p: PhaseSpec) -> range:
    """The summed integers.  RangeError when f at the far endpoint eta*n_scale is
    past the float range: for alpha > 0 that is the largest |f|, and for alpha < 0
    it is infinite whenever the largest, f(n_scale) = y/alpha, is."""
    far = p.eta * p.n_scale
    ns = _interior_integers(p.n_scale, far, "direct sum")
    _finite("f", monomial_phase(p).f, far)
    return ns


def direct_monomial_sum(p: PhaseSpec) -> complex:
    """Sum of e(f(n)) over integers strictly inside (n_scale, eta*n_scale), through
    direct_phase_sum and the array form of monomial_phase."""
    _monomial_range(p)
    return direct_phase_sum(monomial_phase(p))


def monomial_term_count(p: PhaseSpec) -> int:
    """Terms of direct_monomial_sum, refused (ResourceError) past MAX_SUM_TERMS."""
    return len(_monomial_range(p))


def _dual_range(p: PhaseSpec) -> range:
    if p.alpha >= 1 and p.alpha == int(p.alpha):
        raise RangeError(f"alpha must not be a positive integer, got {p.alpha}")
    if p.y <= 0:
        raise RangeError("transform needs y > 0")
    try:
        ratio = p.eta ** (p.alpha - 1)
    except OverflowError:
        ratio = math.inf
    c1, c2 = min(1.0, ratio), max(1.0, ratio)
    return _interior_integers(c1 * p.m_scale, c2 * p.m_scale, "dual sum")


def dual_term_count(p: PhaseSpec) -> int:
    """Terms of the dual sum of vdc_transform_sum, refused (ResourceError) past MAX_SUM_TERMS."""
    return len(_dual_range(p))


def vdc_transform_sum(p: PhaseSpec) -> tuple[complex, float]:
    """Stationary-phase (B-process) transform of the monomial sum.

    Returns (value, budget) where the dual sum runs over integers m
    strictly between the endpoint derivatives c1*m_scale and c2*m_scale
    (c1 = min(1, eta**(alpha-1)), c2 = max), each contributing
    sqrt(|beta-1|*y) * (1/m) * (m/m_scale)**(beta/2)
    * e(sign(alpha-1)/8 - (y/beta)*(m/m_scale)**beta).  The budget, the
    error allowance of the transform, is n_scale/sqrt(y) + log y.
    An empty dual range returns value 0 with the full budget.
    """
    dual = _dual_range(p)
    m_scale = p.m_scale
    beta = p.beta
    budget = p.n_scale / math.sqrt(p.y) + math.log(p.y)
    if len(dual) == 0:
        return 0j, budget
    amp = math.sqrt(abs(beta - 1) * p.y)
    offset = 0.125 if p.alpha > 1 else -0.125
    scale = p.y / beta

    def terms(ms: range) -> tuple[np.ndarray, np.ndarray]:
        u = _ratios(ms, m_scale)
        return offset - scale * _pow(u, beta), _pow(u, beta / 2) / _floats(ms)

    return amp * _phase_sum(dual, terms), budget


@dataclass
class GenericPhase:
    """Phase on [a, b] given by callables for f, f' and f''.

    f_array, when given, is f in array form: it maps a range of consecutive
    integers to the float64 array of f(n), bit-identical to calling f on each.
    """

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]
    a: float
    b: float
    f_array: Optional[Callable[[range], np.ndarray]] = None

    def terms(self, ns: range) -> tuple[np.ndarray, None]:
        """The terms of _phase_sum: f(n) for each n in ns, by f_array when given, else
        one call of f per term, and unit weights."""
        return (self.f_array(ns) if self.f_array is not None else _values(self.f, ns)), None


def _power_law(coef: float, power: float, scale: float, a: float, b: float) -> GenericPhase:
    """f(x) = coef * (x/scale)**power on [a, b], with f' and f''.

    f_array is f with libm's pow on each n/scale, as Python's float ** float
    computes it, so it equals f on each integer bit for bit.
    """
    return GenericPhase(
        f=lambda x: coef * (x / scale) ** power,
        df=lambda x: coef * power / scale * (x / scale) ** (power - 1),
        d2f=lambda x: coef * power * (power - 1) / scale**2 * (x / scale) ** (power - 2),
        a=a,
        b=b,
        f_array=lambda ns: coef * _pow(_ratios(ns, scale), power),
    )


def monomial_phase(p: PhaseSpec) -> GenericPhase:
    """The monomial phase (y/alpha) * (x/n_scale)**alpha as a GenericPhase on
    [n_scale, eta*n_scale]."""
    return _power_law(p.y / p.alpha, p.alpha, p.n_scale, p.n_scale, p.eta * p.n_scale)


def power_law_phase(coef: float, power: float, a: float, b: float) -> GenericPhase:
    """f(n) = coef * n**power on [a, b], the phase of the kusmin command.

    RangeError when an argument is not finite, or when [a, b] holds an integer
    where n**power is not real or f' is undefined.  x / 1.0 is float(x) exactly,
    so f is coef * x**power; int ** float and math.pow both end in libm's pow
    here, and CPython negates pow(|x|, power) as libm does for a negative base.
    """
    for name, value in (("coef", coef), ("power", power), ("a", a), ("b", b)):
        if not math.isfinite(value):
            raise RangeError(f"{name} must be finite, got {value}")
    if math.ceil(a) <= math.floor(b):
        # n**power is complex at n < 0 unless power is an integer; f' has a pole at 0 if power < 1.
        if a <= -1 and power != int(power):
            raise RangeError(f"n^{power} is not real at the negative integers of [{a}, {b}]")
        if a <= 0 <= b and power < 1:
            raise RangeError(f"f'(n) = coef*{power}*n^{power - 1} is undefined at n = 0")
    return _power_law(coef, power, 1.0, a, b)


def direct_phase_sum(g: GenericPhase) -> complex:
    """Sum of e(f(n)) over integers strictly inside (a, b)."""
    return _phase_sum(_interior_integers(g.a, g.b, "direct sum"), g.terms)


def _solve_df_equals(g: GenericPhase, m: int) -> float:
    """Root of f'(x) = m on [a, b] by bisection plus Newton polish, to
    |f'(x) - m| <= 1e-12 * max(1, |m| / 2^12).

    The tolerance grows with m because the float spacing of f' near m does:
    it is 1.8e-12 from |m| = 2^13, where a fixed 1e-12 is out of reach.
    m lies strictly between f'(a) and f'(b) (stationary_phase_generic passes no other), so
    f' - m never has one sign at both ends.
    """
    lo, hi = g.a, g.b
    s_lo = g.df(lo) - m
    tol = 1e-12 * max(1.0, abs(m) / 2**12)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        v = g.df(x) - m
        if abs(v) <= tol:
            break
        if (v > 0) == (s_lo > 0):
            lo = x
        else:
            hi = x
        # Newton step when it stays inside the bracket, else bisect
        d2 = g.d2f(x)
        if d2 != 0.0:
            x_new = x - v / d2
            if lo < x_new < hi:
                x = x_new
                continue
        x = 0.5 * (lo + hi)
        if hi - lo <= 1e-17 * max(1.0, abs(x)):
            break
    return x


def stationary_phase_generic(g: GenericPhase) -> tuple[complex, float]:
    """Dual sum over integers m strictly between f'(a) and f'(b).

    Each stationary point x_m (root of f'(x) = m) contributes
    |f''(x_m)|**(-1/2) * e(f(x_m) - m*x_m + sigma/8) with sigma the sign
    of f''.  Returns (value, budget) with budget
    1/sqrt(min |f''|) + log(|f'(b) - f'(a)| + 2), f' and f'' sampled at 33
    equally spaced points of [a, b].  RangeError refuses a > b before any
    sample of f', and a sampled f' that is not monotone, which would defeat
    the bisection.  So is |f'| >= 2^53 at an end: there a float f' - m can
    round to 0 away from the root.  So is a root where f'' is exactly 0, whose
    weight would be infinite.
    """
    if g.a > g.b:
        raise RangeError(f"endpoints must satisfy a <= b, got [{g.a}, {g.b}]")
    fa = g.df(g.a)
    fb = g.df(g.b)
    if max(abs(fa), abs(fb)) >= 2.0**53:
        raise RangeError(f"f'({g.a}) = {fa:.17g} or f'({g.b}) = {fb:.17g} reaches 2^53")
    lo_val, hi_val = min(fa, fb), max(fa, fb)
    xs = [g.a + (g.b - g.a) * i / 32 for i in range(33)]
    increasing = fb >= fa
    dvals = [g.df(x) for x in xs]
    slack = 1e-9 * max(1.0, abs(fb - fa))
    for left, right in zip(dvals, dvals[1:]):
        drift = left - right if increasing else right - left
        if drift > slack:
            raise RangeError(
                "sampled f' is not monotone from f'(a) to f'(b); "
                "bisection preconditions are defeated"
            )
    min_d2 = min(abs(g.d2f(x)) for x in xs)
    spread = abs(fb - fa)
    budget = (1.0 / math.sqrt(min_d2) if min_d2 > 0 else math.inf) + math.log(spread + 2.0)

    def terms(ms: range) -> tuple[np.ndarray, np.ndarray]:
        roots = [_solve_df_equals(g, m) for m in ms]
        d2 = _values(g.d2f, roots)
        if not d2.all():
            i = int(np.flatnonzero(d2 == 0)[0])
            raise RangeError(f"f''(x_m) = 0 at the stationary point x_m = {roots[i]!r} "
                             f"of m = {ms[i]}: its weight |f''|^(-1/2) is infinite")
        # |m| < 2^53, so float(m) * x_m is the float product m * x_m
        phases = (_frac(_values(g.f, roots)) - _frac(_floats(ms) * np.array(roots))
                  + np.where(d2 > 0, 0.125, -0.125))
        return phases, 1 / np.sqrt(np.abs(d2))

    return _phase_sum(_interior_integers(lo_val, hi_val, "dual sum"), terms), budget


@dataclass(frozen=True)
class KusminReport:
    magnitude: float
    bound: float
    passed: bool


def kusmin_landau_check(g: GenericPhase, lam: float) -> KusminReport:
    """|sum of e(f(n)) over a <= n <= b| against the bound cot(pi*lam/2).

    The hypothesis (f' monotone, circle distance of f' to the integers
    at least lam) is the caller's to assert; f' is spot-checked at every
    n, or every (len // 2000)-th n on ranges of 4000 integers or more, and
    a RangeError is raised on violation, or when the bound, f' at a sample,
    or f at either end, is past the float range.  A range of more than
    MAX_SUM_TERMS integers is refused with ResourceError before f' or f
    is called.
    """
    if not 0 < lam < 1:
        raise RangeError(f"lam must lie in (0, 1), got {lam}")
    bound = 1.0 / math.tan(math.pi * lam / 2)
    if math.isinf(bound):
        raise RangeError(f"the bound cot(pi*lam/2) is past the float range at lam = {lam}")
    if not (math.isfinite(g.a) and math.isfinite(g.b)):
        raise RangeError(f"endpoints must be finite, got [{g.a}, {g.b}]")
    ns = _interior_integers(math.ceil(g.a) - 1, math.floor(g.b) + 1, "Kusmin-Landau sum")
    step = max(1, len(ns) // 2000)
    for n in ns[::step]:
        d = _finite("f'", g.df, n)
        dist = abs(d - round(d))
        if dist < lam - 1e-12:
            raise RangeError(f"sampled ||f'({n})|| = {dist} < lam = {lam}")
    if ns:
        # f' is monotone and below 2^53 where sampled, so f is finite inside if at both ends
        _finite("f", g.f, ns[0])
        _finite("f", g.f, ns[-1])
    magnitude = abs(_phase_sum(ns, g.terms))
    return KusminReport(magnitude=magnitude, bound=bound, passed=magnitude <= bound + 1e-9)


@dataclass(frozen=True)
class MeanValueSpec:
    """Square mean of a bilinear exponential sum over y in [-y_max, y_max].

    phi maps (n, u) to a real phase; i1 and i2 are inclusive integer
    intervals; theta (optional) supplies coefficients with |theta| <= 1.
    """

    phi: Callable[[int, int], float]
    i1: tuple[int, int]
    i2: tuple[int, int]
    y_max: float
    theta: Optional[Callable[[int, int], complex]] = None
    # Relative accuracy that mean_value_integral guarantees (a constant, not an option).
    rel_tol: ClassVar[float] = 1e-4

    def __post_init__(self) -> None:
        if not math.isfinite(self.y_max):
            raise RangeError(f"y_max must be finite, got {self.y_max}")
        if self.y_max <= 0:
            raise RangeError(f"y_max must be positive, got {self.y_max}")
        if self.i1[0] > self.i1[1] or self.i2[0] > self.i2[1]:
            raise RangeError("integer intervals must be non-empty")

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(phi, theta) at each (n, u), n-major; evaluated once per spec.

        A phase past the float range, or one that divides by 0, is refused with RangeError.
        """
        phis = []
        thetas = []
        for n in range(self.i1[0], self.i1[1] + 1):
            for u in range(self.i2[0], self.i2[1] + 1):
                phis.append(_finite("phi", self.phi, n, u))
                t = 1.0 if self.theta is None else complex(self.theta(n, u))
                if not abs(t) <= 1 + 1e-12:  # refuses NaN too
                    raise RangeError(f"|theta({n},{u})| = {abs(t)} is not at most 1")
                thetas.append(t)
        return np.asarray(phis, dtype=float), np.asarray(thetas, dtype=complex)


def mean_value_integral(s: MeanValueSpec) -> float:
    """(1/y_max) * integral of |sum theta_j e(y phi_j)|^2 over [-y_max, y_max], in closed form.

    Each cross term integrates to 2 * sinc(2 * y_max * (phi_i - phi_j)), the
    kernel of Gallagher's lemma, so the mean is a Hermitian form in theta.
    The P x P kernel is refused with ResourceError when P^2 exceeds
    MAX_KERNEL_ENTRIES, before any phase is evaluated, and with RangeError
    when pi * 2 * y_max * (phi_i - phi_j), where sinc takes its sine, is past
    the float range.  Doubling is exact, so y_max * (2 * d) equals 2 * y_max * d
    wherever that is finite.
    """
    p = (s.i1[1] - s.i1[0] + 1) * (s.i2[1] - s.i2[0] + 1)
    if p * p > MAX_KERNEL_ENTRIES:
        raise ResourceError(f"mean value kernel of {p}^2 entries exceeds cap {MAX_KERNEL_ENTRIES}")
    phis, thetas = s.tables
    spread = float(phis.max()) - float(phis.min())
    if not math.isfinite(math.pi * (s.y_max * (2 * spread))):
        raise RangeError(f"sinc argument 2 * {s.y_max:.17g} * {spread:.17g} is past the float range")
    kernel = 2 * np.sinc(s.y_max * (2 * (phis[:, None] - phis[None, :])))
    return float((thetas @ kernel @ thetas.conj()).real)


def _pairs_within(a: Sequence, b: Sequence, lo, hi) -> int:
    """Ordered pairs (v in a, w in b) with lo <= w - v <= hi; a and b sorted.

    w - v falls as v rises, so the two pointers into b only move forward:
    O(len(a) + len(b)) comparisons.  Ties at either edge count.  The test is
    on differences, so it is exact on Fractions and, on floats, the rounded
    predicate of the double loop: rounded subtraction is monotone.
    """
    count = start = stop = 0
    n = len(b)
    for v in a:
        while start < n and b[start] - v < lo:
            start += 1
        while stop < n and b[stop] - v <= hi:
            stop += 1
        count += stop - start
    return count


def phase_pair_count(s: MeanValueSpec) -> int:
    """Ordered quadruples with |phi(n1,u1) - phi(n2,u2)| <= 1/y_max (float compare).

    One sorted float sweep, _pairs_within, tests -t <= phi_j - phi_i <= t:
    the predicate of the double loop, since fl(b - p) = -fl(p - b).
    """
    phis = sorted(s.tables[0].tolist())
    t = 1.0 / s.y_max
    return _pairs_within(phis, phis, -t, t)


def write_calibration(path: str | Path, entries: list[dict]) -> None:
    Path(path).write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def read_calibration(path: str | Path) -> list[dict]:
    return json.loads(Path(path).read_text())


def power_phase(k: int) -> Callable[[int, int], float]:
    """The bilinear phase (n, u) -> u / n**k used by the mean-value checks."""

    def phi(n: int, u: int) -> float:
        return u / n**k

    return phi


def calibrate_pair_count_vs_mean_value(k_values=(1, 2), sizes=(2, 4, 8),
                                       y_values=(4.0, 16.0)) -> dict:
    """Measure max ratio (pair count) / (mean-value integral) on a fixed grid."""
    grid = []
    best = 0.0
    for k in k_values:
        for size in sizes:
            for y in y_values:
                spec = MeanValueSpec(power_phase(k), (1, size), (1, size), y)
                value = mean_value_integral(spec)
                j = phase_pair_count(spec)
                ratio = j / value
                best = max(best, ratio)
                grid.append({"k": k, "size": size, "y_max": y, "pair_count": j,
                             "mean_value": value, "ratio": ratio})
    return {"lemma_id": "pair_count_vs_mean_value", "grid": grid, "measured_constant": best}


def calibrate_mean_value_shortening(k_values=(1, 2), sizes=(2, 4, 8),
                                    y_pairs=((16.0, 4.0), (16.0, 8.0), (8.0, 4.0))) -> dict:
    """Measure max ratio mean(y_long) / mean(y_short) for y_short <= y_long."""
    grid = []
    best = 0.0
    for k in k_values:
        for size in sizes:
            for y_long, y_short in y_pairs:
                long_spec = MeanValueSpec(power_phase(k), (1, size), (1, size), y_long)
                short_spec = MeanValueSpec(power_phase(k), (1, size), (1, size), y_short)
                v_long = mean_value_integral(long_spec)
                v_short = mean_value_integral(short_spec)
                ratio = v_long / v_short
                best = max(best, ratio)
                grid.append({"k": k, "size": size, "y_long": y_long, "y_short": y_short,
                             "ratio": ratio})
    return {"lemma_id": "mean_value_window_shortening", "grid": grid, "measured_constant": best}
