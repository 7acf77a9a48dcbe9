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
finitely many intervals computed from polynomial roots, the cubic ones in
closed form by _cubic_root.  mixed_region_a1 and _a2 are also cut at points
graded toward the kinks of their weight |x - x^2|^(-2s) at 0 and 1.

An integrand peaks where the level inside a bracket <k level(x)> has a root,
and the peak is about 1/(k |level'|) wide there: 3e-13 for mixed_core at
xi = -1e4.  Each kernel hands such a root to _batched_quad as a peak, which
is cut at -+ 4^j widths, j = 0, 1, ..., until the cuts leave the window, so
the rule starts from panels on the peak's scale instead of halving toward it
from the window's ends; a peak narrower than the float spacing at its root
is refused.  peak_pair's two peaks are 1 wide; an even bracket with no root
(c <= 0) is graded from x = 0 on its decay scale sqrt((1 + k|c|)/k), and one
whose peak sqrt(c) lies at or past x_max is refused.

Every kernel evaluates all the samples of one pass at once: it builds each
sample's window, cuts and peaks as numpy arrays, and one call of
_batched_quad cuts, integrates and counts the integrand evaluations.

Half-line rule: an integrand that depends on x only through x^2, with
limits and breakpoints symmetric about 0, is integrated over x >= 0 and
doubled.  level_set, flip_weighted_aux, flip_core and flip_region_a are
of this kind.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np


class HypothesisViolation(ValueError):
    """A kernel was requested outside its validity range."""


@dataclass(frozen=True)
class QuadSpec:
    x_max: float = 60.0
    limit: int = 200  # panels per integral; _batched_quad raises past it
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


def _br(u):
    return 1.0 + np.abs(u)


# --- the batched adaptive rule ------------------------------------------
#
# Gauss-Kronrod 10-21 on [-1, 1] (QUADPACK's qk21): the 21 Kronrod nodes in
# increasing order, their weights, and the 10-point Gauss weights on the
# same nodes, 0 at the nodes Gauss does not use.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745027450, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1::2] = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651338)
_GK_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WG = np.concatenate([_WG, _WG[-2::-1]])
_EPS = np.finfo(np.float64).eps


def _gk21(fn, lo, hi, args) -> np.ndarray:
    """Rows lo, hi, Kronrod value, QUADPACK's error estimate and its roundoff floor of each panel."""
    half = 0.5 * (hi - lo)
    f = fn((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X, *(a[:, None] for a in args))
    kron = f @ _GK_WK
    err = np.abs(f @ _GK_WG - kron) * half
    asc = (np.abs(f - 0.5 * kron[:, None]) @ _GK_WK) * half  # spread of f about its mean
    floor = 50.0 * _EPS * (np.abs(f) @ _GK_WK) * half
    ratio = np.divide(200.0 * err, asc, out=np.ones_like(err), where=asc > 0.0)
    err = np.where(asc > 0.0, asc * np.minimum(1.0, ratio**1.5), err)
    return np.vstack([lo, hi, kron * half, np.maximum(err, floor), floor])


def _batched_quad(fn, lo, hi, args, q: QuadSpec, cuts=(), peaks=(), keep=None) -> tuple[np.ndarray, int]:
    """Integral i of fn over the window lo[i] < x < hi[i], for each i, and the integrand evaluations.

    The cutting policy: lo, hi, args, each of `cuts` and each (centre, slope) of `peaks` broadcast
    to one entry per integral; each window is cut at its cuts, at each peak's centre and at the
    cuts _graded grades toward it, and keep(mid, owner), if given, drops each piece whose midpoint
    it rejects.  A kink between a panel's end and its outermost node is invisible to the error
    estimate, and so is a peak narrower than the node spacing: every kink must be a cut and every
    narrow peak a peak.  fn(x, *(a[owner] for a in args)) is called with x of shape (panels, 21)
    and each argument on a column, once for every live panel of every integral.  Each integral is
    refined on its own, under one budget max(q.epsabs, q.epsrel |I|): while its summed error
    estimate exceeds the budget, each of its panels whose estimate exceeds the budget's equal
    share is bisected, unless the estimate is at the panel's roundoff floor 50 eps int|f| or the
    panel is too narrow to halve.  An integral that would pass q.limit panels raises RuntimeError.
    """
    lo, hi, *args = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (lo, hi, *args)))
    count = lo.size
    graded = [g for centre, slope in peaks for g in _graded(centre, slope, lo, hi)]
    lo, hi, owner = _pieces(lo, hi, *cuts, *(centre for centre, _ in peaks), *graded)
    if keep is not None:
        inside = keep(0.5 * (lo + hi), owner)
        lo, hi, owner = lo[inside], hi[inside], owner[inside]
    panels = _gk21(fn, lo, hi, [a[owner] for a in args])
    neval = owner.size * _GK_X.size
    out = np.zeros(count)
    while owner.size:
        lo, hi, val, err, floor = panels
        total = np.bincount(owner, val, count)
        budget = np.maximum(q.epsabs, q.epsrel * np.abs(total))
        n = np.bincount(owner, minlength=count)
        mid = 0.5 * (lo + hi)
        split = (
            (np.bincount(owner, err, count) > budget)[owner]
            & (err * n[owner] > budget[owner]) & (err > floor) & (lo < mid) & (mid < hi)
        )
        n_split = np.bincount(owner[split], minlength=count)
        if np.any(n + n_split > q.limit):
            raise RuntimeError(f"adaptive quadrature needs more than its cap of {q.limit} panels "
                               f"per integral to reach epsabs={q.epsabs:g}, epsrel={q.epsrel:g}")
        settled = (n > 0) & (n_split == 0)
        out[settled] = total[settled]
        stay = (n_split > 0)[owner] & ~split
        halves = np.tile(owner[split], 2)
        new = _gk21(fn, np.concatenate([lo[split], mid[split]]), np.concatenate([mid[split], hi[split]]),
                    [a[halves] for a in args])
        neval += halves.size * _GK_X.size
        panels = np.concatenate([panels[:, stay], new], axis=1)
        owner = np.concatenate([owner[stay], halves])
    return out, neval


def _pieces(lo, hi, *pts):
    """(lo, hi, owner) of the pieces of each [lo[i], hi[i]] cut at the pts[j][i] inside it.

    An empty or reversed interval has no pieces, and a nan point cuts nothing."""
    lo, hi, *pts = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (lo, hi, *pts)))
    inner = [np.where((lo < p) & (p < hi), p, np.nan) for p in pts]
    cuts = np.sort(np.column_stack([lo, *inner, hi]), axis=1)  # nan sorts last
    left, right = cuts[:, :-1], cuts[:, 1:]
    keep = (right > left) & (hi > lo)[:, None]
    return left[keep], right[keep], np.nonzero(keep)[0]


def _graded(center, slope, lo, hi) -> list:
    """Cuts graded toward peaks 1/slope wide: center -+ 4^k / slope for k = 0, 1, ..., K - 1, as
    2K columns (slope <= 0: no peak, no cuts), where K is the count at which the narrowest peak's
    outermost cuts leave the widest window [lo, hi].  A cut outside its window cuts nothing; a peak
    in its window whose nearest cuts round onto its center raises ValueError."""
    center, slope, lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (center, slope, lo, hi)))
    width = np.divide(1.0, slope, out=np.full(slope.shape, np.nan), where=slope > 0.0)
    blind = (lo <= center) & (center <= hi) & ((center - width == center) | (center + width == center))
    if blind.any():
        i = np.argmax(blind)
        raise ValueError(f"the peak at x = {center[i]:.17g} is {width[i]:.3g} wide, narrower than the float spacing there")
    steep, span = np.max(slope[np.isfinite(slope)], initial=0.0), np.max(hi - lo)
    if steep <= 0.0 or span <= 0.0:
        return []
    grades = 1 + max(0, math.ceil(math.log(span * steep, 4.0)))
    return [center + g * width for k in range(grades) for g in (-(4.0**k), 4.0**k)]


def _cubic_root(xi, d):
    """The real root of 2x^3 - 3 xi x^2 + 3 xi^2 x + d, elementwise; the cubic's derivative
    6 (x - xi/2)^2 + 1.5 xi^2 is >= 0, so the root is unique.

    Cardano on t^3 + p t + q (x = t + xi/2, p = 0.75 xi^2, q = (xi^3 + d)/2), in sums of like signs:
    u^3 = -(q/2 + sign(q) hypot(q/2, (p/3)^1.5)), v = -p/(3u) and t = u + v = -q / (u^2 + p/3 + v^2).
    Two Newton steps on the cubic, skipped where its derivative is 0, remove the rounding of + xi/2.
    """
    p, q = 0.75 * xi * xi, 0.5 * (xi**3 + d)
    u = -np.cbrt(0.5 * q + np.copysign(np.hypot(0.5 * q, (p / 3.0) ** 1.5), q))
    v = np.divide(-p, 3.0 * u, out=np.zeros_like(u), where=u != 0.0)
    den = u * u + p / 3.0 + v * v
    x = np.divide(-q, den, out=np.zeros_like(den), where=den > 0.0) + 0.5 * xi
    for _ in range(2):
        f = ((2.0 * x - 3.0 * xi) * x + 3.0 * xi * xi) * x + d
        slope = (6.0 * x - 6.0 * xi) * x + 3.0 * xi * xi
        x = x - np.divide(f, slope, out=np.zeros_like(x), where=slope > 0.0)
    return x


# --- individual kernels -------------------------------------------------
#
# Each kernel takes the samples of one pass as an (n, 2) array and returns
# (values, integrand evaluations).  Integrands are single expressions over
# per-sample columns.

def _even_bracket(k, c, nb: float, ok, q: QuadSpec) -> tuple[np.ndarray, int]:
    """2 int_0^x_max (1 + k|c - x^2|)^nb dx for k >= 0 where ok (else 0).

    The integrand is even, so this is its integral over [-x_max, x_max].  Where c > 0 it peaks
    at x = sqrt(c), 1/(2k sqrt(c)) wide, and is cut there and graded toward it; elsewhere it
    falls off from x = 0 on the scale sqrt((1 + k|c|)/k), and is graded from 0 on that scale.
    """
    peak = np.sqrt(np.maximum(c, 0.0))
    slope = np.where(c > 0.0, 2.0 * k * peak, np.sqrt(k / (1.0 + k * np.abs(c))))
    past = ok & (c > 0.0) & (peak >= q.x_max)
    if past.any():
        i = np.argmax(past)
        raise ValueError(f"sample {i} has its even-bracket peak sqrt(c) = {peak[i]:g} at or past x_max = {q.x_max:g}")
    fn = lambda x, k, c: (1.0 + k * np.abs(c - x * x)) ** nb
    val, n = _batched_quad(fn, 0.0, np.where(ok, q.x_max, 0.0), (k, c), q, peaks=[(peak, slope)])
    return 2.0 * val, n


def _k_level_set(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    a, eta = smp.T
    if np.any((a == 0.0) | (eta == 0.0)):
        raise HypothesisViolation("hypothesis failed: a != 0 and eta != 0")
    aa, ae = np.abs(a), np.abs(eta)
    val, n = _even_bracket(aa, eta * eta, -2.0 * p["b"], True, q)
    return val * aa * ae, n


def _k_peak_pair(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    a, a_prime = smp.T
    na, nbeta = -p["alpha"], -p["beta"]
    lo, hi = np.minimum(a, a_prime) - q.x_max, np.maximum(a, a_prime) + q.x_max
    fn = lambda x, a, ap: (1.0 + np.abs(x - ap)) ** na * (1.0 + np.abs(x - a)) ** nbeta
    val, n = _batched_quad(fn, lo, hi, (a, a_prime), q, peaks=[(a, 1.0), (a_prime, 1.0)])
    return val * (1.0 + np.abs(a - a_prime)) ** p["alpha"], n


def _flip_pref(xi, y, s: float, bp: float):
    """|xi|^(3-4s) <xi^3 (y + 2)>^(2b') <xi>^(2s), shared by two flip kernels."""
    return np.abs(xi) ** (3.0 - 4.0 * s) * _br(xi**3 * (y + 2.0)) ** (2.0 * bp) * _br(xi) ** (2.0 * s)


def _k_flip_weighted_aux(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    xi, y = smp.T
    s = p["s"]
    pref = _flip_pref(xi, y, s, p["b_prime"]) * np.abs(y + 2.0) ** (-2.0 * s)
    c = y + 0.75
    val, n = _even_bracket(np.abs(xi) ** 3, c, -2.0 * p["b"], xi != 0.0, q)
    return pref * val, n


def _k_flip_core(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    xi, y = smp.T
    xi3 = np.abs(xi) ** 3
    pref = xi3 * (1.0 + xi3 * np.abs(3.0 * y + 2.0)) ** (2.0 * p["b_prime"])
    c = y + 0.25
    val, n = _even_bracket(xi3, c, -2.0 * p["b"], xi != 0.0, q)
    return pref * val, n


def _k_flip_region_a(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    xi, y = smp.T
    s, b = p["s"], p["b"]
    pref = _flip_pref(xi, y, s, p["b_prime"])
    # membership set: |y + 3/4 - 3 x^2| <= 2|y + 2|  <=>  x^2 in [lo2, hi2]
    m = 2.0 * np.abs(y + 2.0)
    hi2 = (y + 0.75 + m) / 3.0
    lo2 = (y + 0.75 - m) / 3.0
    c, ns, nb = y + 0.75, -2.0 * s, -2.0 * b
    # even: x enters only as x^2, and the set, the breaks +-1/2 and
    # +-sqrt(c/3) are symmetric; so is the pair of intervals when lo2 > 0
    fn = lambda x, xi3, c: np.abs(x * x - 0.25) ** ns * (1.0 + np.abs(xi3 * (c - 3.0 * x * x))) ** nb
    lo = np.sqrt(np.maximum(lo2, 0.0))
    hi = np.where((xi != 0.0) & (hi2 > 0.0), np.sqrt(np.maximum(hi2, 0.0)), lo)
    x0 = np.where(c > 0.0, np.sqrt(np.maximum(c, 0.0) / 3.0), np.nan)
    val, n = _batched_quad(fn, lo, hi, (xi**3, c), q, cuts=[0.5], peaks=[(x0, 6.0 * np.abs(xi**3) * x0)])
    return pref * 2.0 * val, n


def _mu(x, z):
    """2x^3 - 3x^2 + 3x + z, strictly increasing in x: the mixed kernels' cubic level."""
    return 2.0 * x**3 - 3.0 * x * x + 3.0 * x + z


def _dmu(x):
    """mu's slope 6x^2 - 6x + 3 >= 3/2."""
    return (6.0 * x - 6.0) * x + 3.0


def _k_mixed_core(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    xi, z = smp.T
    xi3, nb = np.abs(xi) ** 3, -2.0 * p["b"]
    pref = xi3 * (1.0 + xi3 * np.abs(z + 2.0)) ** (2.0 * p["b_prime"])
    root = _cubic_root(1.0, z)
    hi = np.where(xi != 0.0, q.x_max, -q.x_max)
    fn = lambda x, xi3, z: (1.0 + xi3 * np.abs(_mu(x, z))) ** nb
    val, n = _batched_quad(fn, -q.x_max, hi, (xi3, z), q, peaks=[(root, xi3 * _dmu(root))])
    return pref * val, n


# the weight's kinks at 0 and 1, with cuts graded toward each from both sides
_KINK_CUTS = tuple(k + g for k in (0.0, 1.0) for g in (-0.1, -0.01, -0.001, 0.0, 0.001, 0.01, 0.1))


def _mixed_region_a(xi, z, center, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    """|xi|^(3-2s) <xi^3 center>^(2b') int |x - x^2|^(-2s) <xi^3 mu(x, z)>^(-2b) over |mu(x, z)| <= 2|center|."""
    s, b, bp = p["s"], p["b"], p["b_prime"]
    m = 2.0 * np.abs(center)
    pref = np.abs(xi) ** (3.0 - 2.0 * s) * _br(xi**3 * center) ** (2.0 * bp)
    x_lo, root0, x_hi = _cubic_root(1.0, z + np.array([[1.0], [0.0], [-1.0]]) * m)
    x_hi = np.where((xi != 0.0) & (m != 0.0), x_hi, x_lo)
    ns, nb = -2.0 * s, -2.0 * b
    fn = lambda x, xi3, z: np.abs(x - x * x) ** ns * (1.0 + np.abs(xi3 * _mu(x, z))) ** nb
    val, n = _batched_quad(fn, x_lo, x_hi, (xi**3, z), q, cuts=_KINK_CUTS, peaks=[(root0, np.abs(xi**3) * _dmu(root0))])
    return pref * val, n


def _k_mixed_region_a1(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    xi, y = smp.T
    return _mixed_region_a(xi, y, y + 2.0, p, q)


def _k_mixed_region_a2(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    # the level y - 3(x - x^2) - 2x^3 is -mu(x, -y)
    xi, y = smp.T
    return _mixed_region_a(xi, -y, y, p, q)


def _region_b(level, width, lo, hi, xi1, tau1, m_center, p, q: QuadSpec, cuts, peaks=()) -> tuple[np.ndarray, int]:
    """<m_center>^(-b) sqrt(int w) over the set |level(x)| <= width in [lo, hi], less |x - xi1| < 1,
    and the evaluations; w = |x|^(2+2s) |x xi1 (x - xi1)|^(-2s) <x>^(2s) <level(x)>^(2b').

    [lo, hi] is cut at cuts, at peaks and at xi1 +- 1, and each piece is in or out as its midpoint is.
    """
    s, bp = p["s"], p["b_prime"]
    keep = lambda mid, i: (np.abs(level(mid, xi1[i], tau1[i])) <= width[i]) & (np.abs(mid - xi1[i]) >= 1.0)
    fn = lambda x, xi1, tau1: (
        np.abs(x) ** (2.0 * (1.0 + s)) * np.abs(x * xi1 * (x - xi1)) ** (-2.0 * s)
        * (1.0 + np.abs(x)) ** (2.0 * s) * (1.0 + np.abs(level(x, xi1, tau1))) ** (2.0 * bp)
    )
    val, n = _batched_quad(fn, lo, hi, (xi1, tau1), q, cuts=(*cuts, xi1 - 1.0, xi1 + 1.0), peaks=peaks, keep=keep)
    return _br(m_center) ** (-p["b"]) * np.sqrt(np.maximum(val, 0.0)), n


def _k_cubic_region_b(smp, p, q: QuadSpec, sign: float) -> tuple[np.ndarray, int]:
    """flip_region_b (sign -1) and mixed_region_b1 (sign +1).

    m_center = tau1 + sign xi1^3 sets both the region width and the
    prefactor decay; the level tau1 + 2x^3 - xi1^3 - 3x xi1 (x - xi1) is
    monotone in x.
    """
    xi1, tau1 = smp.T
    m_center = tau1 + sign * xi1**3
    M = np.abs(m_center)
    mu = lambda x, xi1, tau1: tau1 + 2.0 * x**3 - xi1**3 - 3.0 * x * xi1 * (x - xi1)
    lo, root0, hi = _cubic_root(xi1, tau1 - xi1**3 + np.array([[2.0], [0.0], [-2.0]]) * M)
    hi = np.where((np.abs(xi1) >= 1.0) & (M != 0.0), hi, lo)
    peak = (root0, (6.0 * root0 - 6.0 * xi1) * root0 + 3.0 * xi1 * xi1)
    return _region_b(mu, 2.0 * M * (1.0 + 1e-12), lo, hi, xi1, tau1, m_center, p, q, (0.0,), [peak])


def _k_mixed_region_b2(smp, p, q: QuadSpec) -> tuple[np.ndarray, int]:
    xi1, tau1 = smp.T
    m_center = tau1 - xi1**3
    M = np.abs(m_center)
    ok = (np.abs(xi1) >= 1.0) & (M != 0.0)
    # the quadratic level kappa = tau1 + 3 x xi1 (x - xi1) + xi1^3 has |kappa| <= 2M
    # between its roots at +-2M, and the weight <kappa>^(2b') kinks at its zeros (nan: none)
    c2, c1 = 3.0 * np.where(ok, xi1, 1.0), -3.0 * xi1 * xi1
    roots = []
    for level in (2.0 * M, -2.0 * M, 0.0):
        d = c1 * c1 - 4.0 * c2 * (tau1 + xi1**3 - level)
        roots += [np.where(d >= 0.0, (-c1 + sg * np.sqrt(np.maximum(d, 0.0))) / (2.0 * c2), np.nan)
                  for sg in (-1.0, 1.0)]
    lo, hi = np.fmin.reduce(roots[:4]), np.fmax.reduce(roots[:4])
    kappa = lambda x, xi1, tau1: tau1 + 3.0 * x * xi1 * (x - xi1) + xi1**3
    return _region_b(kappa, 2.0 * M, lo, np.where(ok, hi, lo), xi1, tau1, m_center, p, q, (*roots, xi1 / 2.0, 0.0))


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
    evaluate: Callable  # (samples as an (n, 2) array, params, QuadSpec) -> (values, evaluations)
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


def check_kernel_id(kernel_id) -> None:
    """Refuse an id that is not a key of KERNELS."""
    if not (isinstance(kernel_id, str) and kernel_id in KERNELS):
        raise ValueError(f"unknown kernel id {kernel_id!r} (choices: {', '.join(KERNELS)})")


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
    check_kernel_id(kernel_id)
    kd = KERNELS[kernel_id]
    unknown = sorted(set(params or {}) - set(kd.default_params))
    if unknown:
        raise ValueError(f"unknown params {unknown} for kernel {kernel_id!r}; it takes {sorted(kd.default_params)}")
    p = {**kd.default_params, **(params or {})}
    bad = {name: val for name, val in p.items() if not math.isfinite(val)}
    if bad:
        raise ValueError(f"params of kernel {kernel_id!r} must be finite, got {bad}")
    for statement, holds in kd.requires:
        if not holds(p):
            raise HypothesisViolation(f"hypothesis failed: {statement}")
    samples = list(sample_grid if sample_grid is not None else kd.default_samples)
    if not samples:
        raise ValueError("kernel_bound_check needs at least one sample")
    q = quad_spec or QuadSpec()
    try:
        smp = np.asarray(samples, dtype=np.float64)
    except (TypeError, ValueError) as e:  # ragged, or not numbers
        raise ValueError(f"sample_grid must hold (x, y) pairs of numbers: {e}") from None
    if smp.ndim != 2 or smp.shape[1] != 2:
        raise ValueError(f"sample_grid must hold (x, y) pairs, got shape {smp.shape}")
    if not np.isfinite(smp).all():
        raise ValueError("kernel_bound_check needs finite samples")
    base, n_base = kd.evaluate(smp, p, q)
    fine, n_fine = kd.evaluate(smp, p, q.refined())
    max_base = float(base.max())
    max_fine = float(fine.max())
    rel = abs(max_fine - max_base) / max(max_base, 1e-300)
    i = int(np.argmax(fine))
    report = KernelReport(
        kernel_id, p, samples, fine.tolist(), max_base, max_fine, rel, rel < REL_CHANGE_BOUND, samples[i],
        n_base + n_fine,
    )
    return max_fine, report
