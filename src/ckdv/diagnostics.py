"""Conserved functionals, Sobolev norms, and mixed space-time norms.

Quadratic integrands are summed exactly in Fourier space (Parseval);
cubic integrands are evaluated on a 2x-oversampled physical grid where
the rectangle rule is exact for the band-limited products that a
dealiased pseudo-spectral run produces.  Drift of the conserved
quantities along a trajectory is therefore a solver property, not a
quadrature artifact.

Every functional acts on the last axis of the coefficients, so a field
whose coefficients carry leading axes (one row per sample) gives one
value per row; `collect` and `mixed_norms` evaluate a whole trajectory
that way, straight from its half-spectrum array.  `collect` returns the
diagnostics table, one row per sample under COLUMNS, and `record_for`
one state's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as sg
from .grid import SpectralField
from .systems import Feng, GearGrimshaw, HirotaSatsuma, State, SystemSpec

SQRT_2PI = math.sqrt(2.0 * math.pi)


def sobolev_norm(field: SpectralField, s: float):
    """H^s norm: (sum (1 + xi^2)^s |c_k|^2 dxi)^(1/2), one per row of coefficients."""
    g = field.grid
    w = (1.0 + g.xi * g.xi) ** s
    return np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2, axis=-1) * g.dxi)


def loglog_slope(x, y) -> float:
    """The least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _l2_inner(f: SpectralField, g: SpectralField):
    """int f*g dx for real fields, summed spectrally."""
    return np.sum(f.coeffs * np.conj(g.coeffs), axis=-1).real * f.grid.dxi


def _mean_integral(field: SpectralField):
    """int f dx = sqrt(2*pi) * c_0."""
    return field.coeffs[..., 0].real * SQRT_2PI


def _oversampled(state: State) -> tuple[np.ndarray, np.ndarray, float]:
    """u and v on a 2x-oversampled grid, where cubic integrands are exact
    for 2/3-band data, and the fine spacing."""
    u, dxf = sg.oversampled_values(state.u)
    v, _ = sg.oversampled_values(state.v)
    return u, v, dxf


def _cubic_integral(f: np.ndarray, g: np.ndarray, h: np.ndarray, dx: float):
    """int f*g*h dx by the rectangle rule on oversampled values."""
    return np.sum(f * g * h, axis=-1) * dx


def hs_invariants(state: State, a: float, b: float) -> tuple[float, float]:
    """The two conserved functionals of the two-wave interaction system.

    V = int((1+a)/2 u_x^2 + b v_x^2 - (1+a) u^3 - b u v^2) dx
    F = int(u^2 + (2/3) b v^2) dx
    """
    u, v = state.u, state.v
    ux = sg.spectral_derivative(u, 1)
    vx = sg.spectral_derivative(v, 1)
    uf, vf, dxf = _oversampled(state)
    V = (
        0.5 * (1.0 + a) * _l2_inner(ux, ux)
        + b * _l2_inner(vx, vx)
        - (1.0 + a) * _cubic_integral(uf, uf, uf, dxf)
        - b * _cubic_integral(uf, vf, vf, dxf)
    )
    F = _l2_inner(u, u) + (2.0 / 3.0) * b * _l2_inner(v, v)
    return V, F


def gg_invariants(state: State, params: GearGrimshaw) -> tuple[float, float, float, float]:
    """The four conservation laws of the internal-wave system.

    phi1 = int u dx, phi2 = int v dx, phi3 = int(b2 u^2 + b1 v^2) dx,
    phi4 = int(b2 u_x^2 + v_x^2 + 2 b2 a3 u_x v_x - b2 u^3/3
               - b2 a2 u^2 v - b2 a1 u v^2 - v^3/3 - r v^2) dx.
    """
    u, v = state.u, state.v
    b1, b2 = params.b1, params.b2
    phi1 = _mean_integral(u)
    phi2 = _mean_integral(v)
    phi3 = b2 * _l2_inner(u, u) + b1 * _l2_inner(v, v)
    ux = sg.spectral_derivative(u, 1)
    vx = sg.spectral_derivative(v, 1)
    uf, vf, dxf = _oversampled(state)
    phi4 = (
        b2 * _l2_inner(ux, ux)
        + _l2_inner(vx, vx)
        + 2.0 * b2 * params.a3 * _l2_inner(ux, vx)
        - (b2 / 3.0) * _cubic_integral(uf, uf, uf, dxf)
        - b2 * params.a2 * _cubic_integral(uf, uf, vf, dxf)
        - b2 * params.a1 * _cubic_integral(uf, vf, vf, dxf)
        - _cubic_integral(vf, vf, vf, dxf) / 3.0
        - params.r * _l2_inner(v, v)
    )
    return phi1, phi2, phi3, phi4


# the columns of the diagnostics table, one row per sample
COLUMNS = ("t", "V", "F", "phi1", "phi2", "phi3", "phi4", "Hs_u", "Hs_v")


def _table(state: State, spec: SystemSpec, s: float) -> np.ndarray:
    """The (samples, 9) table; the state's coefficients and t may carry a leading time axis."""
    V = F = np.nan
    phi = (np.nan,) * 4
    if isinstance(spec, (HirotaSatsuma, Feng)):
        V, F = hs_invariants(state, spec.a, spec.b)
    elif isinstance(spec, GearGrimshaw):
        phi = gg_invariants(state, spec)
    return np.stack(np.broadcast_arrays(
        state.t, V, F, *phi, sobolev_norm(state.u, s), sobolev_norm(state.v, s)
    ), axis=-1).reshape(-1, len(COLUMNS))


def record_for(state: State, spec: SystemSpec, s: float = 1.0) -> np.ndarray:
    """The table row (COLUMNS) of one state; NaN marks a functional that does
    not apply, and an infinite entry an invalid row."""
    return _table(state, spec, s)[0]


def collect(traj, spec: SystemSpec, s: float = 1.0) -> np.ndarray:
    """The (samples, 9) table (COLUMNS) of a Trajectory, evaluated on its stacked samples."""
    u, v = (SpectralField(sg.to_full(traj.half[:, i]), traj.grid) for i in range(2))
    return _table(State(u, v, traj.times), spec, s)


@dataclass
class MixedNormBreakdown:
    """The five components of the working space-time norm, plus their sum.

    max_norm_s       max over t of the H^r norm
    deriv_lt4_lxinf  first derivative in L^4 over t of the sup in x
    frac_lxinf_lt2   D^r of the first derivative, sup in x of L^2 in t
    lx2_ltinf        (1+T)^(-1/2) times the L^2 in x of the sup in t
    deriv_lxinf_lt2  first derivative, sup in x of L^2 in t
    """

    max_norm_s: float
    deriv_lt4_lxinf: float
    frac_lxinf_lt2: float
    lx2_ltinf: float
    deriv_lxinf_lt2: float

    @property
    def total(self) -> float:
        return (
            self.max_norm_s
            + self.deriv_lt4_lxinf
            + self.frac_lxinf_lt2
            + self.lx2_ltinf
            + self.deriv_lxinf_lt2
        )


def _window(traj, T: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, half) of the samples with |t| <= T."""
    tol = 1e-9 * max(1.0, T)
    picked = np.abs(traj.times) <= T + tol
    if np.count_nonzero(picked) < 2:
        raise ValueError("trajectory must store at least two samples with |t| <= T")
    return traj.times[picked], traj.half[picked]


def mixed_norms(traj, r: float, T: float) -> dict[str, MixedNormBreakdown]:
    """Component breakdown of the working norm over the window |t| <= T.

    Time integrals use the composite trapezoid rule on the stored
    cadence; spatial sups are grid maxima.  Returns one breakdown per
    field component.
    """
    times, half = _window(traj, T)
    g = traj.grid
    out = {}
    for i, name in enumerate(("u", "v")):
        f = SpectralField(sg.to_full(half[:, i]), g)  # one row per sample
        df = sg.spectral_derivative(f, 1)
        vals = f.values()  # (nt, nx)
        dvals = df.values()
        frac = sg.spectral_derivative(df, float(r)).values()
        c1 = float(np.max(sobolev_norm(f, r)))
        c2 = float(np.trapezoid(np.max(np.abs(dvals), axis=1) ** 4, times) ** 0.25)
        c3 = float(np.sqrt(np.max(np.trapezoid(frac**2, times, axis=0))))
        c4 = float(
            (1.0 + T) ** -0.5
            * np.sqrt(np.sum(np.max(np.abs(vals), axis=0) ** 2) * g.dx)
        )
        c5 = float(np.sqrt(np.max(np.trapezoid(dvals**2, times, axis=0))))
        out[name] = MixedNormBreakdown(c1, c2, c3, c4, c5)
    return out
