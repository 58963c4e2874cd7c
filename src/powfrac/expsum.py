"""Exponential sums: direct evaluation, stationary-phase transforms,
Kusmin-Landau checks, and mean-value integrals.

Conventions: e(x) = exp(2*pi*i*x); every phase is reduced mod 1 before
the trigonometric call so that large arguments (f can exceed 1e6
cycles) keep full precision.  Sums written over an interval (a, b) are
over integers strictly inside; Kusmin-Landau sums include endpoints.

Every direct sum, and the dual sum of the monomial transform, goes
through one kernel, `_phase_sum` (stationary_phase_generic, which solves
for a root per term, keeps its own loop).  The kernel takes the phases
of at most SUM_CHUNK consecutive integers at a time as a numpy array and
adds the chunk's terms in order with np.cumsum, so each sum is
bit-identical to adding e(f(n)) term by term in a Python loop, with
memory bounded by the chunk.  Powers stay on libm's pow, one call per
term: numpy's float64 power differs from it in the last bit on a few
percent of inputs, which would move reported sums.  The number of terms
is known from the endpoints before any phase is evaluated, and a sum of
more than MAX_SUM_TERMS terms is refused with ResourceError.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import truediv
from pathlib import Path
from typing import Callable, ClassVar, Optional

import numpy as np

from .errors import RangeError, ResourceError, RootBracketError
from .paircount import _pairs_within

# Largest P^2 (entries of the phase-difference kernel) mean_value_integral builds.
MAX_KERNEL_ENTRIES = 5_000_000

# Most terms one direct or dual sum evaluates: about 5 s of work at the
# 0.5 us per term measured on a 2-core x86 machine.  The benchmark's
# largest sums have about 3*10^5 terms.
MAX_SUM_TERMS = 10_000_000

# Terms per numpy step of _phase_sum: its arrays stay under a megabyte.
SUM_CHUNK = 1 << 13


def e_of(x: float) -> complex:
    """e(x) with argument reduction mod 1."""
    return cmath.exp(2j * math.pi * math.fmod(x, 1.0))


def _phase_sum(ns: range, phases: Callable[[range], np.ndarray],
               weights: Optional[Callable[[range], np.ndarray]] = None) -> complex:
    """Sum of w(n) * e(f(n)) over ns in order, w = 1 when weights is None.

    phases (and weights) map a chunk of at most SUM_CHUNK consecutive
    integers of ns to the float64 array of f(n) (and of w(n)).  The running
    total goes into slot 0 of the chunk's terms and np.cumsum adds left to
    right, so the result is bit-identical to `total += w(n) * e_of(f(n))`
    term by term; np.sum would add pairwise and change the last bits.
    """
    total = 0j
    for start in range(0, len(ns), SUM_CHUNK):
        chunk = ns[start:start + SUM_CHUNK]
        terms = np.empty(len(chunk) + 1, dtype=complex)
        terms[0] = total
        terms[1:] = np.exp(2j * math.pi * np.fmod(phases(chunk), 1.0))
        if weights is not None:
            terms[1:] *= weights(chunk)
        total = complex(np.cumsum(terms)[-1])
    return total


def _values(f: Callable[[float], float], ns: range) -> np.ndarray:
    """f(n) for each n in ns, called once per term, as a float64 array."""
    return np.fromiter(map(f, ns), dtype=float, count=len(ns))


def _ratios(ns: range, scale: float) -> np.ndarray:
    """n / scale with Python's int-by-float division (exact for every int)."""
    return np.fromiter(map(truediv, ns, repeat(scale)), dtype=float, count=len(ns))


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
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        at = ", ".join(f"{x:.17g}" for x in args)
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

    def f(self, x: float) -> float:
        return (self.y / self.alpha) * (x / self.n_scale) ** self.alpha

    def df(self, x: float) -> float:
        return (self.y / self.n_scale) * (x / self.n_scale) ** (self.alpha - 1)

    def d2f(self, x: float) -> float:
        return (self.y * (self.alpha - 1) / self.n_scale**2) * (x / self.n_scale) ** (self.alpha - 2)


def _monomial_range(p: PhaseSpec) -> range:
    """The summed integers.  RangeError when f at the far endpoint eta*n_scale is
    past the float range: for alpha > 0 that is the largest |f|, and for alpha < 0
    it is infinite whenever the largest, f(n_scale) = y/alpha, is."""
    far = p.eta * p.n_scale
    ns = _interior_integers(p.n_scale, far, "direct sum")
    _finite("f", p.f, far)
    return ns


def direct_monomial_sum(p: PhaseSpec) -> complex:
    """Sum of e(f(n)) over integers strictly inside (n_scale, eta*n_scale).

    Each chunk's phases are p.f in array form, (y/alpha) * pow(n/n_scale, alpha).
    """
    ns = _monomial_range(p)
    scale = p.y / p.alpha
    return _phase_sum(ns, lambda chunk: scale * _pow(_ratios(chunk, p.n_scale), p.alpha))


def monomial_term_count(p: PhaseSpec) -> int:
    """Terms of direct_monomial_sum, refused (ResourceError) past MAX_SUM_TERMS."""
    return len(_monomial_range(p))


def vdc_transform_budget(p: PhaseSpec) -> float:
    """Error allowance for the monomial transform: n_scale/sqrt(y) + log y."""
    return p.n_scale / math.sqrt(p.y) + math.log(p.y)


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
    * e(sign(alpha-1)/8 - (y/beta)*(m/m_scale)**beta).
    An empty dual range returns value 0 with the full budget.
    """
    dual = _dual_range(p)
    m_scale = p.m_scale
    beta = p.beta
    budget = vdc_transform_budget(p)
    if len(dual) == 0:
        return 0j, budget
    amp = math.sqrt(abs(beta - 1) * p.y)
    offset = 0.125 if p.alpha > 1 else -0.125
    scale = p.y / beta
    total = _phase_sum(dual,
                       lambda ms: offset - scale * _pow(_ratios(ms, m_scale), beta),
                       lambda ms: _pow(_ratios(ms, m_scale), beta / 2) / _values(float, ms))
    return amp * total, budget


@dataclass
class GenericPhase:
    """Phase on [a, b] given by callables for f, f' and f''."""

    f: Callable[[float], float]
    df: Callable[[float], float]
    d2f: Callable[[float], float]
    a: float
    b: float


def monomial_phase(p: PhaseSpec) -> GenericPhase:
    """The monomial phase as a GenericPhase on [n_scale, eta*n_scale]."""
    return GenericPhase(
        f=p.f,
        df=p.df,
        d2f=p.d2f,
        a=p.n_scale,
        b=p.eta * p.n_scale,
    )


def direct_phase_sum(g: GenericPhase) -> complex:
    """Sum of e(f(n)) over integers strictly inside (a, b), calling g.f once per term."""
    return _phase_sum(_interior_integers(g.a, g.b, "direct sum"), lambda ns: _values(g.f, ns))


def _solve_df_equals(g: GenericPhase, m: int) -> float:
    """Root of f'(x) = m on [a, b] by bisection plus Newton polish, to |f'(x) - m| <= 1e-12.

    m lies strictly between f'(a) and f'(b) (stationary_phase_generic passes no other), so
    f' - m never has one sign at both ends.
    """
    lo, hi = g.a, g.b
    s_lo = g.df(lo) - m
    x = 0.5 * (lo + hi)
    for _ in range(200):
        v = g.df(x) - m
        if abs(v) <= 1e-12:
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
    equally spaced points of [a, b].  |f'| >= 2^53 at an end is refused with
    RangeError: there a float f' - m can round to 0 away from the root.
    """
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
            raise RootBracketError(
                "sampled f' is not monotone from f'(a) to f'(b); "
                "bisection preconditions are defeated"
            )
    min_d2 = min(abs(g.d2f(x)) for x in xs)
    spread = abs(fb - fa)
    budget = (1.0 / math.sqrt(min_d2) if min_d2 > 0 else math.inf) + math.log(spread + 2.0)
    total = 0j
    for m in _interior_integers(lo_val, hi_val, "dual sum"):
        x_m = _solve_df_equals(g, m)
        d2 = g.d2f(x_m)
        offset = 0.125 if d2 > 0 else -0.125
        phase = math.fmod(g.f(x_m), 1.0) - math.fmod(m * x_m, 1.0) + offset
        total += e_of(phase) / math.sqrt(abs(d2))
    return total, budget


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
    a RangeError is raised on violation, or when f' at a sample, or f at
    either end, is past the float range.  A range of more than
    MAX_SUM_TERMS integers is refused with ResourceError before f' or f
    is called.
    """
    if not 0 < lam < 1:
        raise RangeError(f"lam must lie in (0, 1), got {lam}")
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
    magnitude = abs(_phase_sum(ns, lambda chunk: _values(g.f, chunk)))
    bound = 1.0 / math.tan(math.pi * lam / 2)
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
                if abs(t) > 1 + 1e-12:
                    raise RangeError(f"|theta({n},{u})| = {abs(t)} exceeds 1")
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


def phase_pair_count(s: MeanValueSpec) -> int:
    """Ordered quadruples with |phi(n1,u1) - phi(n2,u2)| <= 1/y_max (float compare).

    One sorted sweep, paircount._pairs_within, tests -t <= phi_j - phi_i <= t:
    the predicate of the double loop, since fl(b - p) = -fl(p - b).
    """
    phis = sorted(s.tables[0].tolist())
    t = 1.0 / s.y_max
    return _pairs_within(phis, phis, -t, t)


def calibration_entry(lemma_id: str, grid: list[dict], measured_constant: float) -> dict:
    return {"lemma_id": lemma_id, "grid": grid, "measured_constant": measured_constant}


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
    return calibration_entry("pair_count_vs_mean_value", grid, best)


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
    return calibration_entry("mean_value_window_shortening", grid, best)
