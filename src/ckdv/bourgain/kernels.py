"""Quadrature verification of the reduced integral kernel bounds.

Each kernel is the one-dimensional reduced form of one convolution
estimate: the claim is always that the kernel value is bounded by a
constant uniformly over its outer variables.  Values are normalized so
the asserted bound reads "<= constant": kernels whose bound carries an
explicit decay factor are multiplied by that factor's reciprocal
denominator before being reported.

The integrands fall into five families, with <u> = 1 + |u|:
- even brackets (1 + k|c - x^2|)^(-2b): level_set, flip_weighted_aux and
  flip_core, all through _even_bracket;
- |x^2 - 1/4|^(-2s) <xi^3 (c - 3x^2)>^(-2b) on a quadratic level set: flip_region_a;
- two peaks <x - a'>^(-alpha) <x - a>^(-beta): peak_pair;
- cubic brackets <xi^3 mu(x)>^(-2b), mu = 2x^3 - 3x^2 + 3x + z: mixed_core, and
  mixed_region_a1 and _a2 with a weight |x - x^2|^(-2s) on a cubic level set;
- |x|^(2+2s) |x xi1 (x - xi1)|^(-2s) <x>^(2s) <level(x)>^(2b') on a cubic
  (flip_region_b, mixed_region_b1) or quadratic (mixed_region_b2) level set
  less |x - xi1| < 1, all through _region_b.

Region indicators are implemented exactly as the reduced sets are
defined; since the level-set polynomials are monotone (cubic with
positive-definite derivative) or quadratic, membership decomposes into
finitely many intervals computed from polynomial roots, and each
interval is integrated adaptively.

Half-line rule: an integrand that depends on x only through x^2, with
limits and breakpoints symmetric about 0, is integrated over x >= 0 and
doubled.  level_set, flip_weighted_aux, flip_core and flip_region_a are
of this kind.  Every kernel evaluation also returns the number of
integrand calls QUADPACK made for it.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np


class HypothesisViolation(ValueError):
    """A kernel was requested outside its validity range."""


@dataclass(frozen=True)
class QuadSpec:
    x_max: float = 60.0
    limit: int = 200
    epsabs: float = 1e-11
    epsrel: float = 1e-9

    def __post_init__(self):
        # a zero or negative radius would integrate nothing and read as a stable 0
        if not (math.isfinite(self.x_max) and self.x_max > 0.0):
            raise ValueError(f"QuadSpec.x_max must be positive and finite, got {self.x_max!r}")
        if isinstance(self.limit, bool) or not isinstance(self.limit, numbers.Integral) or self.limit < 1:
            raise ValueError(f"QuadSpec.limit must be an integer >= 1, got {self.limit!r}")
        tols = (self.epsabs, self.epsrel)
        if not all(math.isfinite(e) and e >= 0.0 for e in tols) or tols == (0.0, 0.0):
            raise ValueError(f"QuadSpec.epsabs and QuadSpec.epsrel must be finite, >= 0, not both 0: {tols!r}")

    def refined(self) -> "QuadSpec":
        return QuadSpec(2.0 * self.x_max, 2 * self.limit, 0.1 * self.epsabs, 0.1 * self.epsrel)


def _br(u: float) -> float:
    return 1.0 + abs(u)


def _counted_quad(fn, lo: float, hi: float, **kw) -> tuple[float, int]:
    """scipy's quad, returning (value, integrand evaluations).

    full_output=1 hands QUADPACK's warning back as a message instead of
    warning, so the message is warned here.
    """
    from scipy.integrate import IntegrationWarning, quad  # on first use: see import_quadrature
    out = quad(fn, lo, hi, full_output=1, **kw)
    if len(out) > 3:
        warnings.warn(out[3], IntegrationWarning, stacklevel=2)
    return out[0], out[2]["neval"]


def _quad(fn, lo: float, hi: float, q: QuadSpec, pts=()) -> tuple[float, int]:
    if hi <= lo:
        return 0.0, 0
    inner = sorted({float(p) for p in pts if lo < p < hi})
    return _counted_quad(fn, lo, hi, limit=q.limit, epsabs=q.epsabs, epsrel=q.epsrel,
                         points=inner or None)


def import_quadrature() -> None:
    """Import scipy's quadrature and root finder, which _counted_quad and _monotone_root
    import on first use so that `import ckdv` and the numpy-only kinds never load them.

    ordered_map's forked workers inherit the parent's modules, so a caller that fans
    quadratures out calls this first; otherwise every worker imports them again."""
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401


def _monotone_root(f: Callable[[float], float], guess: float) -> float:
    """Root of a strictly monotone function, bracket expanded from a guess."""
    from scipy.optimize import brentq  # on first use: see import_quadrature
    span = 1.0 + abs(guess)
    lo, hi = guess - span, guess + span
    for _ in range(80):
        if f(lo) * f(hi) <= 0.0:
            return float(brentq(f, lo, hi, xtol=1e-13, rtol=1e-14))
        span *= 2.0
        lo, hi = guess - span, guess + span
    raise RuntimeError("failed to bracket a monotone root")


# --- individual kernels -------------------------------------------------
#
# Each kernel returns (value, integrand evaluations).  Integrands are single
# expressions over constants computed once per sample.

def _even_bracket(k: float, c: float, nb: float, peak: float, q: QuadSpec) -> tuple[float, int]:
    """2 int_0^x_max (1 + k|c - x^2|)^nb dx for k >= 0, with a break at peak.

    The integrand is even, so this is its integral over [-x_max, x_max]
    with breaks at +-peak; a peak outside (0, x_max) is dropped.
    """
    val, n = _quad(lambda x: (1.0 + k * abs(c - x * x)) ** nb, 0.0, q.x_max, q, pts=(peak,))
    return 2.0 * val, n


def _k_level_set(sample, p, q: QuadSpec) -> tuple[float, int]:
    a, eta = sample
    if a == 0.0 or eta == 0.0:
        raise HypothesisViolation("hypothesis failed: a != 0 and eta != 0")
    aa, ae = abs(a), abs(eta)
    val, n = _even_bracket(aa, eta * eta, -2.0 * p["b"], ae, q)
    return val * aa * ae, n


def _k_peak_pair(sample, p, q: QuadSpec) -> tuple[float, int]:
    a, a_prime = sample
    na, nbeta = -p["alpha"], -p["beta"]
    lo, hi = min(a, a_prime) - q.x_max, max(a, a_prime) + q.x_max
    fn = lambda x: (1.0 + abs(x - a_prime)) ** na * (1.0 + abs(x - a)) ** nbeta
    val, n = _quad(fn, lo, hi, q, pts=(a, a_prime))
    return val * (1.0 + abs(a - a_prime)) ** p["alpha"], n


def _flip_pref(xi: float, y: float, s: float, bp: float) -> float:
    """|xi|^(3-4s) <xi^3 (y + 2)>^(2b') <xi>^(2s), shared by two flip kernels."""
    return abs(xi) ** (3.0 - 4.0 * s) * _br(xi**3 * (y + 2.0)) ** (2.0 * bp) * _br(xi) ** (2.0 * s)


def _k_flip_weighted_aux(sample, p, q: QuadSpec) -> tuple[float, int]:
    xi, y = sample
    if xi == 0.0:
        return 0.0, 0
    s = p["s"]
    pref = _flip_pref(xi, y, s, p["b_prime"]) * abs(y + 2.0) ** (-2.0 * s)
    c = y + 0.75
    val, n = _even_bracket(abs(xi) ** 3, c, -2.0 * p["b"], math.sqrt(max(c, 0.0)), q)
    return pref * val, n


def _k_flip_core(sample, p, q: QuadSpec) -> tuple[float, int]:
    xi, y = sample
    if xi == 0.0:
        return 0.0, 0
    xi3 = abs(xi) ** 3
    pref = xi3 * (1.0 + xi3 * abs(3.0 * y + 2.0)) ** (2.0 * p["b_prime"])
    c = y + 0.25
    val, n = _even_bracket(xi3, c, -2.0 * p["b"], math.sqrt(max(c, 0.0)), q)
    return pref * val, n


def _k_flip_region_a(sample, p, q: QuadSpec) -> tuple[float, int]:
    xi, y = sample
    if xi == 0.0:
        return 0.0, 0
    s, b = p["s"], p["b"]
    pref = _flip_pref(xi, y, s, p["b_prime"])
    # membership set: |y + 3/4 - 3 x^2| <= 2|y + 2|  <=>  x^2 in [lo2, hi2]
    m = 2.0 * abs(y + 2.0)
    hi2 = (y + 0.75 + m) / 3.0
    lo2 = (y + 0.75 - m) / 3.0
    if hi2 <= 0.0:
        return 0.0, 0
    xi3, c, ns, nb = xi**3, y + 0.75, -2.0 * s, -2.0 * b
    # even: x enters only as x^2, and the set, the breaks +-1/2 and
    # +-sqrt(c/3) are symmetric; so is the pair of intervals when lo2 > 0
    fn = lambda x: abs(x * x - 0.25) ** ns * (1.0 + abs(xi3 * (c - 3.0 * x * x))) ** nb
    pts = (0.5, math.sqrt(c / 3.0)) if c > 0.0 else (0.5,)
    val, n = _quad(fn, math.sqrt(lo2) if lo2 > 0.0 else 0.0, math.sqrt(hi2), q, pts=pts)
    return pref * 2.0 * val, n


@lru_cache(maxsize=256)
def _mixed_core_root(z: float) -> float:
    """Root of 2x^3 - 3x^2 + 3x + z; independent of xi, so cached per z."""
    mu = lambda x: 2.0 * x**3 - 3.0 * x * x + 3.0 * x + z
    return _monotone_root(mu, -np.cbrt(z / 2.0) if z != 0.0 else 0.0)


def _k_mixed_core(sample, p, q: QuadSpec) -> tuple[float, int]:
    xi, z = sample
    if xi == 0.0:
        return 0.0, 0
    xi3, nb = abs(xi) ** 3, -2.0 * p["b"]
    pref = xi3 * (1.0 + xi3 * abs(z + 2.0)) ** (2.0 * p["b_prime"])
    fn = lambda x: (1.0 + xi3 * abs(2.0 * x**3 - 3.0 * x * x + 3.0 * x + z)) ** nb
    val, n = _quad(fn, -q.x_max, q.x_max, q, pts=(_mixed_core_root(z),))
    return pref * val, n


@lru_cache(maxsize=256)
def _a1_roots(y: float) -> tuple[float, float, float]:
    """Roots of mu + m, mu - m and mu for mu = 2x^3 - 3x^2 + 3x + y, m = 2|y + 2|; cached per y."""
    m = 2.0 * abs(y + 2.0)
    mu = lambda x: 2.0 * x**3 - 3.0 * x * x + 3.0 * x + y
    x_lo = _monotone_root(lambda x: mu(x) + m, 0.0)
    x_hi = _monotone_root(lambda x: mu(x) - m, 0.0)
    return x_lo, x_hi, _monotone_root(mu, 0.0)


@lru_cache(maxsize=256)
def _a2_roots(y: float) -> tuple[float, float, float]:
    """Roots of nu - m, nu + m and nu for nu = y - 3(x - x^2) - 2x^3, m = 2|y|; cached per y."""
    m = 2.0 * abs(y)
    nu = lambda x: y - 3.0 * (x - x * x) - 2.0 * x**3  # strictly decreasing
    x_lo = _monotone_root(lambda x: nu(x) - m, 0.0)
    x_hi = _monotone_root(lambda x: nu(x) + m, 0.0)
    return x_lo, x_hi, _monotone_root(nu, 0.0)


def _k_mixed_region_a1(sample, p, q: QuadSpec) -> tuple[float, int]:
    xi, y = sample
    if xi == 0.0:
        return 0.0, 0
    s, b, bp = p["s"], p["b"], p["b_prime"]
    m = 2.0 * abs(y + 2.0)
    if m == 0.0:
        return 0.0, 0
    pref = abs(xi) ** (3.0 - 2.0 * s) * _br(xi**3 * (y + 2.0)) ** (2.0 * bp)
    x_lo, x_hi, root0 = _a1_roots(y)
    xi3, ns, nb = xi**3, -2.0 * s, -2.0 * b
    fn = lambda x: abs(x - x * x) ** ns * (
        1.0 + abs(xi3 * (2.0 * x**3 - 3.0 * x * x + 3.0 * x + y))
    ) ** nb
    val, n = _quad(fn, x_lo, x_hi, q, pts=(root0, 0.0, 1.0))
    return pref * val, n


def _k_mixed_region_a2(sample, p, q: QuadSpec) -> tuple[float, int]:
    xi, y = sample
    if xi == 0.0:
        return 0.0, 0
    s, b, bp = p["s"], p["b"], p["b_prime"]
    m = 2.0 * abs(y)
    if m == 0.0:
        return 0.0, 0
    pref = abs(xi) ** (3.0 - 2.0 * s) * _br(xi**3 * y) ** (2.0 * bp)
    x_lo, x_hi, root0 = _a2_roots(y)
    xi3, ns, nb = xi**3, -2.0 * s, -2.0 * b
    fn = lambda x: abs(x - x * x) ** ns * (
        1.0 + abs(xi3 * (y - 3.0 * (x - x * x) - 2.0 * x**3))
    ) ** nb
    val, n = _quad(fn, x_lo, x_hi, q, pts=(root0, 0.0, 1.0))
    return pref * val, n


def _region_b(fn, member, breaks, pts, xi1: float, m_center: float, b: float, q: QuadSpec):
    """<m_center>^(-b) sqrt(int fn) over the member set less |x - xi1| < 1, and the evaluations.

    The excluded neighborhood's endpoints join the breaks, and each interval
    between consecutive breaks is in or out as its midpoint is.
    """
    cuts = sorted({float(c) for c in breaks} | {xi1 - 1.0, xi1 + 1.0})
    total, evals = 0.0, 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if member(0.5 * (lo + hi)):
            val, n = _quad(fn, lo, hi, q, pts=pts)
            total += val
            evals += n
    return _br(m_center) ** (-b) * math.sqrt(max(total, 0.0)), evals


def _k_cubic_region_b(sample, p, q: QuadSpec, sign: float) -> tuple[float, int]:
    """flip_region_b (sign -1) and mixed_region_b1 (sign +1).

    m_center = tau1 + sign xi1^3 sets both the region width and the
    prefactor decay; the level tau1 + 2x^3 - xi1^3 - 3x xi1 (x - xi1) is
    monotone in x.
    """
    xi1, tau1 = sample
    s, b, bp = p["s"], p["b"], p["b_prime"]
    if abs(xi1) < 1.0:
        return 0.0, 0
    x13 = xi1**3
    m_center = tau1 + sign * x13
    M = abs(m_center)
    if M == 0.0:
        return 0.0, 0
    mu = lambda x: tau1 + 2.0 * x**3 - x13 - 3.0 * x * xi1 * (x - xi1)
    guess = np.cbrt(max(M, 1.0))
    lo = _monotone_root(lambda x: mu(x) + 2.0 * M, -guess)
    hi = _monotone_root(lambda x: mu(x) - 2.0 * M, guess)
    root0 = _monotone_root(mu, 0.5 * (lo + hi))
    e0, e1, e2, e3 = 2.0 * (1.0 + s), -2.0 * s, 2.0 * s, 2.0 * bp
    fn = lambda x: (
        abs(x) ** e0 * abs(x * xi1 * (x - xi1)) ** e1 * (1.0 + abs(x)) ** e2
        * (1.0 + abs(tau1 + 2.0 * x**3 - x13 - 3.0 * x * xi1 * (x - xi1))) ** e3
    )
    member = lambda x: abs(mu(x)) <= 2.0 * M * (1.0 + 1e-12) and abs(x - xi1) >= 1.0
    breaks = [lo, hi] + [p for p in (root0, 0.0) if lo < p < hi]
    return _region_b(fn, member, breaks, (root0, 0.0), xi1, m_center, b, q)


def _k_mixed_region_b2(sample, p, q: QuadSpec) -> tuple[float, int]:
    xi1, tau1 = sample
    s, b, bp = p["s"], p["b"], p["b_prime"]
    if abs(xi1) < 1.0:
        return 0.0, 0
    x13 = xi1**3
    m_center = tau1 - x13
    M = abs(m_center)
    if M == 0.0:
        return 0.0, 0
    # quadratic levels kappa = tau1 + 3 x xi1 (x - xi1) + xi1^3 = +-2M
    c2, c1 = 3.0 * xi1, -3.0 * xi1 * xi1
    discs = [c1 * c1 - 4.0 * c2 * (tau1 + x13 - level) for level in (2.0 * M, -2.0 * M)]
    roots = [(-c1 + sg * math.sqrt(d)) / (2.0 * c2) for d in discs if d >= 0.0 for sg in (-1.0, 1.0)]
    if not roots:
        return 0.0, 0
    e0, e1, e2, e3 = 2.0 * (1.0 + s), -2.0 * s, 2.0 * s, 2.0 * bp
    fn = lambda x: (
        abs(x) ** e0 * abs(x * xi1 * (x - xi1)) ** e1 * (1.0 + abs(x)) ** e2
        * (1.0 + abs(tau1 + 3.0 * x * xi1 * (x - xi1) + x13)) ** e3
    )
    member = lambda x: abs(tau1 + 3.0 * x * xi1 * (x - xi1) + x13) <= 2.0 * M and abs(x - xi1) >= 1.0
    return _region_b(fn, member, roots + [xi1 / 2.0, 0.0], (0.0,), xi1, m_center, b, q)


# --- hypotheses: (statement, test) pairs over the params, checked in order --

_B_HALF = ("b > 1/2", lambda p: p["b"] > 0.5)
_BP_REGION_A = ("b' in [-1/2, s/3 - 1/4]", lambda p: -0.5 <= p["b_prime"] <= p["s"] / 3.0 - 0.25)
_REGION_B = (
    ("s in (-3/4, -1/2]", lambda p: -0.75 < p["s"] <= -0.5),
    ("b' in (-1/2, 0]", lambda p: -0.5 < p["b_prime"] <= 0.0),
    _B_HALF,
)
_MIXED_REGION_A = (("s in [-3/4, -1/2]", lambda p: -0.75 <= p["s"] <= -0.5), _BP_REGION_A, _B_HALF)
_REGION_B_SHARP = (*_REGION_B, ("b' - b <= min(-s - 3/2, s - 1/6)",
                                lambda p: p["b_prime"] - p["b"] <= min(-p["s"] - 1.5, p["s"] - 1.0 / 6.0)))
_REGION_B2 = (*_REGION_B, ("b' - b <= min(-s - 3/2, s/3 - 3/4)",
                           lambda p: p["b_prime"] - p["b"] <= min(-p["s"] - 1.5, p["s"] / 3.0 - 0.75)))


# --- default sample grids -----------------------------------------------

_XI_SAMPLES = (-8.0, -3.0, -1.0, -0.2, 0.2, 1.0, 3.0, 8.0)
_Y_SAMPLES = (
    -6.0, -3.0, -2.2, -2.0, -1.8, -1.1, -0.85, -0.75, -0.7,
    -0.3, -0.26, -0.24, 0.0, 1.0, 4.0,
)
_LEVEL_SET_SAMPLES = [(a, eta) for a in (0.5, 1.0, 4.0, 16.0, 64.0) for eta in (0.25, 1.0, 4.0, 16.0)]
_PEAK_PAIR_SAMPLES = [(0.0, 0.0), (2.0, 0.0), (-5.0, 3.0), (20.0, 0.0), (100.0, -50.0), (0.7, -0.7)]
_XI_Y = [(xi, y) for xi in _XI_SAMPLES for y in _Y_SAMPLES]
_XI_Y_ORIGIN = [(xi, y) for xi in _XI_SAMPLES for y in (-4.0, -1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 4.0)]
# per xi1: tau1 at distances 0.3, 3 and 30 above xi1^3, -xi1^3 and 0, then tau1 = 5
_XI1_TAU1 = [
    (xi1, tau1)
    for xi1 in (1.0, 2.0, 4.0, -1.5, -3.0)
    for tau1 in [c + d for c in (xi1**3, -(xi1**3), 0.0) for d in (0.3, 3.0, 30.0)] + [5.0]
]


@dataclass(frozen=True)
class KernelDef:
    requires: tuple  # (statement, test) pairs, each test a predicate of the params
    evaluate: Callable
    default_params: dict
    default_samples: list


KERNELS = {
    "level_set": KernelDef((_B_HALF,), _k_level_set, {"b": 0.6}, _LEVEL_SET_SAMPLES),
    "peak_pair": KernelDef(
        (("0 <= alpha <= beta", lambda p: 0.0 <= p["alpha"] <= p["beta"]), ("beta > 1", lambda p: p["beta"] > 1.0)),
        _k_peak_pair, {"alpha": 2.0, "beta": 2.0}, _PEAK_PAIR_SAMPLES,
    ),
    "flip_weighted_aux": KernelDef(
        (("s in [-3/4, 0]", lambda p: -0.75 <= p["s"] <= 0.0),
         ("b' <= s/3 - 1/4", lambda p: p["b_prime"] <= p["s"] / 3.0 - 0.25), _B_HALF),
        _k_flip_weighted_aux, {"s": -0.5, "b": 0.6, "b_prime": -0.5}, _XI_Y,
    ),
    "flip_core": KernelDef(
        (("b' <= -1/4", lambda p: p["b_prime"] <= -0.25), _B_HALF),
        _k_flip_core, {"b": 0.6, "b_prime": -0.3}, _XI_Y,
    ),
    "flip_region_a": KernelDef(
        (("s in [-3/4, -1/4]", lambda p: -0.75 <= p["s"] <= -0.25), _BP_REGION_A, _B_HALF),
        _k_flip_region_a, {"s": -0.5, "b": 0.6, "b_prime": -0.45}, _XI_Y,
    ),
    "flip_region_b": KernelDef(
        _REGION_B_SHARP, partial(_k_cubic_region_b, sign=-1.0),
        {"s": -0.6, "b": 0.7, "b_prime": -0.25}, _XI1_TAU1,
    ),
    "mixed_core": KernelDef(
        (("b' <= 0", lambda p: p["b_prime"] <= 0.0), _B_HALF),
        _k_mixed_core, {"b": 0.6, "b_prime": -0.3}, _XI_Y,
    ),
    "mixed_region_a1": KernelDef(
        _MIXED_REGION_A, _k_mixed_region_a1, {"s": -0.6, "b": 0.6, "b_prime": -0.45}, _XI_Y,
    ),
    "mixed_region_b1": KernelDef(
        _REGION_B_SHARP, partial(_k_cubic_region_b, sign=1.0),
        {"s": -0.6, "b": 0.7, "b_prime": -0.25}, _XI1_TAU1,
    ),
    "mixed_region_a2": KernelDef(
        _MIXED_REGION_A, _k_mixed_region_a2, {"s": -0.6, "b": 0.6, "b_prime": -0.45}, _XI_Y_ORIGIN,
    ),
    "mixed_region_b2": KernelDef(
        _REGION_B2, _k_mixed_region_b2, {"s": -0.6, "b": 0.75, "b_prime": -0.22}, _XI1_TAU1,
    ),
}


# a kernel is refinement-stable when its max moves by less than this (c11)
REL_CHANGE_BOUND = 0.05


@dataclass
class KernelReport:
    kernel_id: str
    params: dict
    samples: list
    values: list
    max_base: float
    max_refined: float
    rel_change: float
    stable: bool
    argmax: tuple
    neval: int  # integrand evaluations over both passes


def kernel_bound_check(
    kernel_id: str,
    params: Optional[dict] = None,
    sample_grid=None,
    quad_spec: Optional[QuadSpec] = None,
) -> tuple[float, KernelReport]:
    """Max of one kernel over its outer samples, plus a refinement report.

    The second evaluation doubles the truncation radius and tightens the
    adaptive tolerance; stability means the max moved by less than REL_CHANGE_BOUND.
    """
    if kernel_id not in KERNELS:
        raise KeyError(f"unknown kernel {kernel_id!r}; choose from {sorted(KERNELS)}")
    kd = KERNELS[kernel_id]
    unknown = sorted(set(params or {}) - set(kd.default_params))
    if unknown:
        raise ValueError(f"unknown params {unknown} for kernel {kernel_id!r}; it takes {sorted(kd.default_params)}")
    p = {**kd.default_params, **(params or {})}
    for statement, holds in kd.requires:
        if not holds(p):
            raise HypothesisViolation(f"hypothesis failed: {statement}")
    samples = list(sample_grid if sample_grid is not None else kd.default_samples)
    if not samples:
        raise ValueError("kernel_bound_check needs at least one sample")
    q = quad_spec or QuadSpec()
    qf = q.refined()
    base, n_base = zip(*(kd.evaluate(smp, p, q) for smp in samples))
    fine, n_fine = zip(*(kd.evaluate(smp, p, qf) for smp in samples))
    max_base = max(base)
    max_fine = max(fine)
    rel = abs(max_fine - max_base) / max(max_base, 1e-300)
    i = int(np.argmax(fine))
    report = KernelReport(
        kernel_id, p, samples, list(fine), max_base, max_fine, rel, rel < REL_CHANGE_BOUND, samples[i],
        sum(n_base) + sum(n_fine),
    )
    return max_fine, report
