"""Verification harnesses for the weighted-norm inequalities.

Each public function turns one inequality into a finite computation:
an exact pointwise scan, a constant-included norm comparison, a
truncation ladder, or a randomized ratio study.  Nothing here fits the
unquantified constants; checks are either exact (theorem-backed) or
stability statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diagnostics import loglog_slope
from ..grid import SpectralField, forward
from .kernels import QuadSpec, _batched_quad
from .spacetime import (
    SpaceTimeField,
    bracket_norm,
    duhamel_field,
    free_field,
    SpaceTimeGrid,
    from_time_slices,
    weight_table,
    xsb_norm,
)

TWO_PI = 2.0 * math.pi
SIGMA_WINDOW = 8.0  # half-width in tau of the modulation window each bilinear_ratio field fills


def _require(ok=math.isfinite, what: str = "finite", **values) -> None:
    """Raise ValueError naming the first of values for which ok(value) is false."""
    for name, val in values.items():
        if not ok(val):
            raise ValueError(f"{name} must be {what}, got {val}")


def f_w(w):
    """The comparison profile 1/(|w - 1| + |w + 1|), in piecewise form."""
    w = np.asarray(w, dtype=np.float64)
    out = np.where(np.abs(w) <= 1.0, 0.5, 0.5 / np.maximum(np.abs(w), 1.0))
    return float(out) if out.ndim == 0 else out


def pointwise_weight_ratio(x, tau, a: float, a0: float, a1: float):
    """(1 + |tau + a x|) / ((1 + |tau + a0 x|) + (1 + |tau + a1 x|)), in three buffers."""
    def bracket(c):  # 1 + |tau + c x|, in a new buffer
        out = np.asarray(tau + c * x)
        np.abs(out, out=out)
        out += 1.0
        return out

    num, den = bracket(a), bracket(a0)
    den += bracket(a1)
    return np.divide(num, den, out=num)


def weight_comparison_bound(a: float, a0: float, a1: float) -> float:
    """1 + |(a - a0)/(a1 - a0)|; the exact pointwise ceiling of the ratio."""
    if a1 == a0:
        raise ValueError("the reference speeds must differ")
    return 1.0 + abs((a - a0) / (a1 - a0))


@dataclass
class PointwiseScan:
    max_ratio: float
    bound: float
    passed: bool
    argmax: tuple[float, float]


def pointwise_bound_scan(
    a: float,
    a0: float,
    a1: float,
    n_side: int = 1000,
    extent: float = 1e3,
) -> PointwiseScan:
    """Dense-lattice scan of the weight comparison; the bound is exact.

    The scan covers an n_side x n_side lattice in (x, tau) including
    points far off both characteristics and the degenerate axes.
    """
    _require(a=a, a0=a0, a1=a1)
    if n_side < 1:
        raise ValueError(f"n_side must be at least 1, got {n_side}")
    _require(lambda v: 0.0 < v < math.inf, "positive and finite", extent=extent)
    xs = np.linspace(-extent, extent, n_side)
    taus = np.linspace(-extent, extent, n_side)
    r = pointwise_weight_ratio(xs[None, :], taus[:, None], a, a0, a1)
    bound = weight_comparison_bound(a, a0, a1)
    i = int(np.argmax(r))
    argmax = (float(xs[i % n_side]), float(taus[i // n_side]))
    mx = float(r.flat[i])
    return PointwiseScan(mx, bound, mx <= bound, argmax)


def embedding_constant(a: float, a0: float, a1: float, b: float) -> float:
    """Constant for comparing one dispersive norm against a sum of two.

    The pointwise weight comparison gives the factor (1 + |(a-a0)/(a1-a0)|)^b;
    splitting (X + Y)^(2b) across the sum costs another 2^b once 2b >= 1.
    """
    K = weight_comparison_bound(a, a0, a1)
    split = 2.0**b if b > 0.5 else 1.0
    return K**b * split


@dataclass
class EmbeddingResult:
    lhs: float
    rhs: float
    constant: float
    passed: bool


def check_speeds(b: float, **speeds) -> None:
    """Refuse what embedding_check and intersection_equivalence cannot use: b < 0, or a zero speed or
    equal reference speeds in a group of speeds, named by its keyword, whose last two are the reference pair."""
    if b < 0.0:
        raise ValueError(f"b must be >= 0, got {b}")
    for name, group in speeds.items():
        if 0.0 in group:
            raise ValueError(f"the speeds in {name} must be nonzero, got {tuple(group)}")
        if group[-2] == group[-1]:  # the comparison constant divides by a1 - a0
            raise ValueError(f"the reference speeds in {name} must differ, got {tuple(group)}")


def embedding_check(
    F: SpaceTimeField, a: float, a0: float, a1: float, s: float, b: float
) -> EmbeddingResult:
    """Check ||F||_{a} <= constant * (||F||_{a0} + ||F||_{a1}) for one field."""
    check_speeds(b, embedding_speeds=(a, a0, a1))
    lhs = xsb_norm(F, a, s, b)
    rhs = xsb_norm(F, a0, s, b) + xsb_norm(F, a1, s, b)
    c = embedding_constant(a, a0, a1, b)
    return EmbeddingResult(lhs, rhs, c, lhs <= c * rhs * (1.0 + 1e-12))


@dataclass
class EquivalenceResult:
    norm_first: float
    norm_second: float
    c_lo: float
    c_hi: float
    passed: bool


def intersection_equivalence(
    F: SpaceTimeField,
    pair_first: tuple[float, float],
    pair_second: tuple[float, float],
    s: float,
    b: float,
) -> EquivalenceResult:
    """Two-sided comparison of intersection norms over two speed pairs.

    The intersection norm for a pair (a, a') is the sum of the two
    single-speed norms; each direction of the equivalence follows from
    the embedding constants of one pair's speeds relative to the other.
    """
    check_speeds(b, pair_first=pair_first, pair_second=pair_second)
    a0, a1 = pair_first
    a2, a3 = pair_second
    n1 = xsb_norm(F, a0, s, b) + xsb_norm(F, a1, s, b)
    n2 = xsb_norm(F, a2, s, b) + xsb_norm(F, a3, s, b)
    c_hi = embedding_constant(a2, a0, a1, b) + embedding_constant(a3, a0, a1, b)
    c_lo = 1.0 / (
        embedding_constant(a0, a2, a3, b) + embedding_constant(a1, a2, a3, b)
    )
    slack = 1.0 + 1e-12
    passed = (n2 <= c_hi * n1 * slack) and (n2 * slack >= c_lo * n1)
    return EquivalenceResult(n1, n2, c_lo, c_hi, passed)


def epsilon_s(s: float, variant: str) -> float:
    """Admissible contraction margin for the bilinear estimates.

    same_sign_pair covers products of two factors with a common
    dispersion sign; mixed_pair covers one factor of each sign.  For
    s in [-1/2, 0) the margin is inherited from the fixed reference
    regularity s' = -5/8.
    """
    if variant not in ("same_sign_pair", "mixed_pair"):
        raise ValueError(f"unknown variant {variant!r}")
    if s <= -0.75:
        raise ValueError("s must exceed -3/4")
    if s >= 0.0:
        return 0.25 if variant == "same_sign_pair" else 0.5
    if s >= -0.5:
        s = -5.0 / 8.0
    if variant == "same_sign_pair":
        return min(-s - 0.5, s + 5.0 / 6.0)
    return min(-s - 0.5, s / 3.0 + 0.25)


def admissible(s: float, b: float, b_prime: float, variant: str) -> bool:
    """Whether (s, b, b') sits inside the margin the estimates allow.

    b must lie in (1/2, b' + 1], no farther than epsilon_s below the
    top of that interval.
    """
    try:
        eps = epsilon_s(s, variant)
    except ValueError:
        return False
    return (
        -0.5 < b_prime <= 0.0
        and b > 0.5
        and b <= b_prime + 1.0 + 1e-12
        and b_prime + 1.0 - b <= eps + 1e-12
    )


def _tail_antiderivative(u, b: float):
    """Odd antiderivative of (1 + |u|)^(-2b), vanishing at 0 (needs b > 1/2); elementwise."""
    return np.copysign((1.0 - (1.0 + np.abs(u)) ** (1.0 - 2.0 * b)) / (2.0 * b - 1.0), u)


# the convergent norm has settled when its last relative change is below this (c09)
NONEQ_REL_CHANGE_BOUND = 1e-3
# both levels of the nested norm quadrature: no absolute floor, 1e-12 relative
_NONEQ_INNER = QuadSpec(limit=200, epsabs=0.0, epsrel=1e-12)
_NONEQ_OUTER = QuadSpec(limit=400, epsabs=0.0, epsrel=1e-12)


@dataclass
class NonequivalenceTable:
    radii: list[float]
    divergent_norms: list[float]
    convergent_norms: list[float]
    growth_exponent: float
    final_rel_change: float
    stabilized: bool
    neval: int  # integrand evaluations, inner and outer, over the distinct norms


def check_nonequivalence(a0: float, a1: float, s: float, b: float, radii: list) -> None:
    """Refuse what nonequivalence_demo cannot use; b > 1/2 and s > 1/2 - b are the construction's hypotheses."""
    _require(a0=a0, a1=a1, s=s, b=b)
    if b <= 0.5:
        raise ValueError(f"the construction needs b > 1/2, got {b}")
    if s <= 0.5 - b:
        raise ValueError(f"the construction needs s > 1/2 - b, got s = {s}, b = {b}")
    _require(lambda v: v != 0.0, "nonzero", a0=a0, a1=a1)
    if a0 == a1:  # the divergent norm would be the convergent one
        raise ValueError(f"a0 and a1 must differ, got {a0} for both")
    if len(set(radii)) < 2 or not all(0.0 < r < math.inf for r in radii):  # NaN fails both
        raise ValueError("the growth fit needs two or more distinct positive radii")


def nonequivalence_demo(
    a0: float, a1: float, s: float, b: float, radii
) -> NonequivalenceTable:
    """Truncation ladder exhibiting a field with finite a1-norm and divergent a0-norm.

    The field has |Fhat|^2 = (1+|xi|)^(-2s-2b) (1+|tau + a1 xi^3|)^(-4b),
    concentrated along the a1-characteristic.  For each R in the list
    radii (two or more distinct positive values, over which the growth
    exponent is fitted), norms are computed over the box |xi| <= R,
    |tau| <= R semi-analytically: the tau integral of the a1-norm is in
    closed form, the a0-norm uses nested quadrature.  The xi integrand is
    even (see outer), so both norms integrate over 0 <= xi <= R and double.

    Every distinct norm is one integral of one _batched_quad call, broken at
    the kinks xi = (R/|a0|)^(1/3) and (R/|a1|)^(1/3), where a centre a xi^3
    leaves the tau box; the inner tau integrals of all its xi nodes go through
    one call per evaluation, each cut at both centres and graded toward the
    width-1 peak at tau = -a1 xi^3.  Both levels run at epsabs = 0, epsrel = 1e-12.

    s changes no norm: the field's (1+|xi|)^(-2s) cancels the norms' weight
    (1+|xi|)^(2s), as a test pins for s = 0 and 2.  It stays an argument: it
    gates the hypothesis s > 1/2 - b, and the nonequivalence configs and the
    benchmark's quadrature workload pass it.
    """
    radii = list(radii)
    check_nonequivalence(a0, a1, s, b, radii)
    tb, nb, mfb = 2.0 * b, -2.0 * b, -4.0 * b
    inner_evals = [0]

    def tau_quad(xi, a_top, rad):
        # int_{-R}^{R} (1+|tau + a_top xi^3|)^(2b) (1+|tau + a1 xi^3|)^(-4b) dtau, per node
        c_top, c_bot = a_top * xi**3, a1 * xi**3
        fn = lambda t, c_top, c_bot: (1.0 + np.abs(t + c_top)) ** tb * (1.0 + np.abs(t + c_bot)) ** mfb
        val, n = _batched_quad(fn, -rad, rad, (c_top, c_bot), _NONEQ_INNER, cuts=[-c_top], peaks=[(-c_bot, 1.0)])
        inner_evals[0] += n
        return val

    def outer(xi, a_top, rad):
        # Even in xi: both centres a*xi^3 are odd in xi and the tau box is
        # symmetric, so t -> -t maps the tau integral at -xi onto the one
        # at xi (the closed form is even because _tail_antiderivative is odd).
        # A norm with a_top == a1 cancels its weights and takes the closed form.
        xi, a_top, rad = np.broadcast_arrays(xi, a_top, rad)
        c = a1 * xi**3
        tau = _tail_antiderivative(rad + c, b) - _tail_antiderivative(-rad + c, b)
        nested = a_top != a1
        if nested.any():
            tau[nested] = tau_quad(xi[nested], a_top[nested], rad[nested])
        return (1.0 + np.abs(xi)) ** nb * tau

    jobs = sorted({(a, r) for a in (a0, a1) for r in radii})  # each distinct norm once
    a_top, rad = (np.array(v) for v in zip(*jobs))
    kinks = [np.cbrt(rad / abs(a0)), np.cbrt(rad / abs(a1))]
    val, n_outer = _batched_quad(outer, 0.0, rad, (a_top, rad), _NONEQ_OUTER, cuts=kinks)
    done = dict(zip(jobs, np.sqrt(2.0 * val).tolist()))
    div = [done[a0, r] for r in radii]
    conv = [done[a1, r] for r in radii]
    slope = loglog_slope(radii, div)
    # the settling change is over the two largest distinct radii, whatever the list order
    at = dict(zip(radii, conv))
    lo, hi = sorted(at)[-2:]
    rel = abs(at[hi] - at[lo]) / at[hi]
    return NonequivalenceTable(radii, div, conv, slope, rel, rel < NONEQ_REL_CHANGE_BOUND, n_outer + inner_evals[0])


@dataclass
class LinearEstimateReport:
    free_ratios: list[float]
    free_cv: float
    duhamel_T: list[float]
    duhamel_ratios: list[float]
    fitted_exponent: float
    target_exponent: float


def check_linear_estimate(a: float, b: float, b_prime: float, n_fields: int, t_values, period_t: float, n_t: int):
    """Refuse what linear_estimate_check cannot use on a time axis of n_t samples over a box of period_t."""
    _require(lambda v: v != 0.0, "nonzero", a=a)
    if not (-0.5 < b_prime <= 0.0 <= b <= b_prime + 1.0):
        raise ValueError("need -1/2 < b_prime <= 0 <= b <= b_prime + 1")
    if n_fields < 2:  # free_cv is the spread of one ratio per field
        raise ValueError("n_fields must be at least 2")
    ladder = [float(x) for x in t_values]
    if len(set(ladder)) < 2 or not all(0.0 < x <= 1.0 for x in ladder):  # the exponent is fitted over the ladder
        raise ValueError(f"t_values needs two or more distinct horizons in (0, 1], got {ladder}")
    if period_t < 4.0:
        raise ValueError(f"period_t must be >= 4 for the time box to hold supp psi = [-2, 2], got {period_t}")
    if period_t / n_t >= 2.0 * min(ladder):  # psi_T is supported on |t| < 2T: only t = 0 would remain
        raise ValueError(f"the time step period_t / n_t = {period_t / n_t:g} must be below "
                         f"2 * min(t_values) = {2.0 * min(ladder):g}")


def linear_estimate_check(
    stg: SpaceTimeGrid,
    a: float,
    s: float,
    b: float,
    b_prime: float,
    *,
    n_fields: int = 50,
    seed: int = 7,
    t_values=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
) -> LinearEstimateReport:
    """Statistical check of the two linear estimates on the grid stg;
    check_linear_estimate says which inputs it refuses, and why.

    Free part: the ratio ||psi * (free evolution of u0)|| / ||u0||_s is a
    constant depending only on (b, psi); the battery of random data
    (u0 = e^(-x^2) on stg.x plus n_fields - 1 random fields on that grid,
    band-limited so no modulation aliases off the tau grid) must show a
    tiny coefficient of variation.  The
    spatial norm uses the (1+|xi|)^s weight matched to the space-time
    weight, which is what makes the ratio exactly field-independent in the
    continuum.  free_field(w0) is w0's coefficients times a (xi, tau) table
    T that does not depend on w0, so the squared norm is
    cell * sum_xi |w0(xi)|^2 sum_tau W |T|^2.

    Inhomogeneous part: for each horizon T of `t_values`, a forcing family
    with modulation concentrated at |tau + a xi^3| ~ 1.5/T is pushed
    through the windowed source-to-solution map; the log-log slope of
    lhs/rhs against T is compared with b' + 1 - b.
    """
    check_linear_estimate(a, b, b_prime, n_fields, t_values, stg.t.period, stg.t.n)
    ladder = [float(x) for x in t_values]
    tau_max = float(np.max(np.abs(stg.t.xi)))
    # keep |a| xi_band^3 well inside the tau band so e^{-i a xi^3 t} is resolved
    xi_band = 0.5 * (tau_max / abs(a)) ** (1.0 / 3.0)

    g = stg.x
    mask = np.abs(g.xi) <= xi_band
    # field k takes standard_normal(n) twice, real then imaginary parts
    draws = np.random.default_rng(seed).standard_normal((n_fields - 1, 2, g.n))
    data = [forward(np.exp(-(g.x**2)), g)]
    for re, im in draws:
        vals = SpectralField(np.where(mask, re + 1j * im, 0.0), g).values()  # realize, then re-transform
        data.append(forward(vals, g))
    unit = free_field(SpectralField(np.ones(g.n, dtype=complex), g), a, stg)
    row = np.sum(weight_table(stg, a, s, b) * np.abs(unit.coeffs) ** 2, axis=1) * stg.cell
    ratios = []
    for w0 in data:
        denom = bracket_norm(w0, s)
        if denom == 0.0:
            continue
        ratios.append(math.sqrt(float(np.dot(np.abs(w0.coeffs) ** 2, row))) / denom)
    mean = float(np.mean(ratios))
    cv = float(np.std(ratios) / mean) if mean > 0 else float("inf")

    # forcing profile: fixed smooth spatial envelope, modulation-matched in time
    xi = g.xi
    g_hat = np.where(mask, np.exp(-(xi**2)), 0.0)
    t = stg.t.x
    phase = stg.phase(a)
    d_ratios = []
    for Tj in ladder:
        # sigma0 T >> 1 keeps the modulation in the power-law regime of
        # the bracket weight; at sigma0 ~ 1/T the +1 in 1+|tau+a xi^3|
        # bends the fitted exponent upward
        sigma0, width = 8.0 / Tj, 0.5 / Tj
        envelope = np.exp(-0.5 * (width * t) ** 2) * np.cos(sigma0 * t)
        slices = g_hat[:, None] * phase * envelope[None, :]
        F = from_time_slices(slices, stg)
        w = duhamel_field(slices, a, stg, Tj)
        d_ratios.append(xsb_norm(w, a, s, b) / xsb_norm(F, a, s, b_prime))
    slope = loglog_slope(ladder, d_ratios)
    return LinearEstimateReport(
        ratios, cv, ladder, d_ratios, slope, b_prime + 1.0 - b
    )


@dataclass
class BilinearReport:
    max_ratio: float
    ratios: list[float]
    quantiles: dict
    admissible: bool
    variant: str
    band: float
    params: tuple


def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c 7^d 11^e >= n >= 1: scipy.fft.next_fast_len's size for complex input."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def bilinear_ratio(
    s: float,
    b: float,
    b_prime: float,
    a_left: float,
    a_right: float,
    a_out: float,
    trials: int = 64,
    band: float = 8.0,
    seed: int = 0,
    dxi: float = 0.5,
    dtau: float = 0.5,
) -> BilinearReport:
    """Randomized ratio study for the derivative-product estimate.

    Draws Hermitian random fields supported on |xi| <= band,
    |tau| <= band^3, with complex Gaussian coefficients living in a
    fixed modulation window around each factor's characteristic
    tau = -a xi^3.  The extremizing interactions of the estimate sit at
    modulation offsets of order one, so the tau lattice must resolve
    that scale at every band; storing each spatial mode only on its
    window keeps the cost linear in the mode count instead of cubic in
    the band.  Mode amplitudes fall off integrably in xi and in the
    modulation offset, so both sides of the ratio saturate as the band
    grows.  Field `which` (0 left, 1 right) of trial t fills its rows
    in order from one stream, np.random.default_rng((seed, t, which)):
    row i is mode |xi| = i dxi, and the window width does not depend on
    the band, so a larger band extends a draw instead of reshuffling
    it.  Stability of the max across a band ladder is the numerical
    shadow of boundedness.

    Each drawn field is its own conjugate mirror under
    (xi, tau) -> (-xi, -tau), and so is the output weight, so pair
    (i, j) and pair (m-1-i, m-1-j) put conjugate values on mirrored
    output cells and carry equal shares of the output norm: only the
    pairs with xi_i + xi_j < 0 are formed, and the row xi_out = 0 they
    leave out has zero weight.  With equal speeds pair (j, i) lands on
    pair (i, j)'s cells, so row i <= j carries fu[i] fv[j] + fu[j] fv[i]
    (the diagonal once) into one inverse FFT.  The output weight is
    tabulated per (row, slot), zero on FFT padding; a row that shares no
    cell is weighted in place, the rest are summed per cell first.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _require(s=s, b=b, b_prime=b_prime)
    if b_prime in (-0.5, -1.0):  # the output weight's f2 divides by p (p + 1), p = 1 + 2 b_prime
        raise ValueError(f"b_prime must not be -1/2 or -1, got {b_prime}")
    _require(lambda v: 0.0 < v < math.inf, "positive and finite", band=band, dxi=dxi, dtau=dtau)
    _require(lambda v: v != 0.0 and math.isfinite(v), "nonzero and finite", a_left=a_left, a_right=a_right, a_out=a_out)
    variant = "same_sign_pair" if a_left == a_right else "mixed_pair"
    ok = admissible(s, b, b_prime, variant)

    h = int(round(band / dxi))
    if h < 1:
        raise ValueError(f"band {band} holds no mode off xi = 0 at dxi {dxi}")
    m = 2 * h + 1
    kap = int(round(SIGMA_WINDOW / dtau))
    kk = 2 * kap + 1
    xi = dxi * (np.arange(m) - h)
    xi2 = dxi * (np.arange(2 * m - 1) - 2 * h)
    offs = np.arange(-kap, kap + 1)
    cell = dxi * dtau

    # integer tau-lattice index of each mode's characteristic; the
    # sub-lattice residual stays in the weights via the exact a*xi^3
    t_left = np.round(-a_left * xi**3 / dtau).astype(np.int64)
    t_right = np.round(-a_right * xi**3 / dtau).astype(np.int64)

    sig_prof = (1.0 + np.abs(offs * dtau)) ** (-(b + 0.75))
    amp = (1.0 + np.abs(xi)) ** (-(s + 1.0))

    def weights_and_support(t, a):
        tau = (t[:, None] + offs[None, :]) * dtau
        sig = np.abs(tau + a * xi[:, None] ** 3)
        w = (1.0 + sig) ** (2.0 * b) * (1.0 + np.abs(xi[:, None])) ** (2.0 * s)
        return w, np.abs(tau) <= band**3

    w_left, sup_left = weights_and_support(t_left, a_left)
    w_right, sup_right = weights_and_support(t_right, a_right)

    def draw(trial, which, sup):
        # each row: kk real parts, then kk imaginary parts
        z = np.random.default_rng((seed, trial, which)).standard_normal((h + 1, 2 * kk))
        rows = (z[:, :kk] + 1j * z[:, kk:]) * sig_prof * amp[h:, None]
        rows[0] = 0.5 * (rows[0] + np.conj(rows[0, ::-1]))
        # row h - i is the conjugate mirror of row h + i: a real field
        return np.concatenate((np.conj(rows[:0:-1, ::-1]), rows)) * sup

    same = variant == "same_sign_pair"
    ll = 2 * kk - 1
    nfft = _fast_len(ll)
    pairs = np.add.outer(np.arange(m), np.arange(m)) < 2 * h
    left, right = np.nonzero(np.triu(pairs) if same else pairs)
    width = np.bincount(left, minlength=m)  # row by row: left i meets right j0 = i or 0 onwards
    runs = np.concatenate(([0], np.cumsum(width)))
    shift = t_left[left] + t_right[right] - 2 * kap  # pair (i, j) fills slots shift + [0, ll) of row i + j
    xi_out = xi2[left + right][:, None]

    # the modulation weight must be averaged over each output cell, not
    # sampled at its center: near the resonant lines sigma sweeps
    # 3 a xi^2 dxi within one cell, and the pointwise value would give
    # the resonant set lattice measure dxi where the continuum gives it
    # measure ~ xi^-2, inflating the ratio without bound as the band
    # grows; the average over tau and that sweep has a closed form
    # through antiderivatives of (1 + |y|)^(2 b')
    p = 1.0 + 2.0 * b_prime

    def f2(y):
        return ((1.0 + np.abs(y)) ** (p + 1.0) - 1.0) / (p * (p + 1.0)) - np.abs(y) / p

    # that average over slot k's tau cell and xi sweep telescopes along the
    # row to (D(e_k+1) - D(e_k)) / (dtau spread) over the slot edges e, with
    # D(e) = f2(e + spread/2) - f2(e - spread/2): two f2 calls per edge
    spread = 3.0 * abs(a_out) * xi_out**2 * dxi
    edge = (shift[:, None] + np.arange(ll + 1) - 0.5) * dtau + a_out * xi_out**3
    d_edge = f2(edge + spread / 2.0)
    edge -= spread / 2.0
    d_edge -= f2(edge)
    w_slot = np.pad(np.diff(d_edge, axis=1), ((0, 0), (0, nfft - ll)))  # zero weight on the FFT padding
    del edge, d_edge  # 8 MiB at band 32 that the trials need not hold
    # the factor 2 restores the mirror half; the convolution's cell / 2 pi
    # and the output Riemann sum's cell are folded in here, once
    w_slot *= (1.0 + np.abs(xi_out)) ** (2.0 * s) * xi_out**2 * (2.0 * cell * (cell / TWO_PI) ** 2 / dtau) / spread

    stride = 2 * int(np.max(np.abs(shift))) + 2 * ll  # keeps xi_out rows 2 ll apart
    key = (left + right) * stride + shift  # orders rows by (xi_out, first slot)
    order = np.argsort(key, kind="stable")
    near = np.diff(key[order]) < ll  # overlapping neighbours
    ov = np.union1d(order[1:][near], order[:-1][near])
    ov_keys = (key[ov, None] + np.arange(ll)).ravel()
    cells, at, ov_inv = np.unique(ov_keys, return_index=True, return_inverse=True)
    w_cell = w_slot[ov, :ll].ravel()[at]
    w_slot[ov] = 0.0
    w_slot = np.repeat(w_slot, 2, axis=1)  # on the (real, imag) float view of each slot

    prod = np.empty((left.size, nfft), dtype=complex)
    flat = prod.view(np.float64)
    ratios = []
    for trial in range(trials):
        u, v = draw(trial, 0, sup_left), draw(trial, 1, sup_right)
        nu = math.sqrt(float(np.sum(w_left * np.abs(u) ** 2)) * cell)
        nv = math.sqrt(float(np.sum(w_right * np.abs(v) ** 2)) * cell)
        if nu == 0.0 or nv == 0.0:
            continue
        fu = np.fft.fft(u, n=nfft, axis=1)
        fv = np.fft.fft(v, n=nfft, axis=1)
        for i in range(m):
            j0 = i if same else 0
            np.multiply(fu[i], fv[j0 : j0 + width[i]], out=prod[runs[i] : runs[i + 1]])
            if same:  # the swapped pair (j, i) of every j > i
                prod[runs[i] + 1 : runs[i + 1]] += fu[i + 1 : i + width[i]] * fv[i]
        np.fft.ifft(prod, axis=1, out=prod)
        acc = np.zeros(cells.size, dtype=complex)
        np.add.at(acc, ov_inv, prod[ov, :ll].ravel())
        num_sq = np.einsum("ij,ij,ij->", w_slot, flat, flat) + np.vdot(w_cell, np.abs(acc) ** 2)
        ratios.append(math.sqrt(float(num_sq)) / (nu * nv))
    qs = {q: float(np.quantile(ratios, q)) for q in (0.5, 0.9, 1.0)}
    return BilinearReport(
        max(ratios), ratios, qs, ok, variant, band,
        (s, b, b_prime, a_left, a_right, a_out),
    )

