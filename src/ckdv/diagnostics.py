"""Conserved functionals, Sobolev norms, and mixed space-time norms.

Quadratic integrands are summed exactly in Fourier space (Parseval);
cubic integrands are evaluated on a 2x-oversampled physical grid where
the rectangle rule is exact for the band-limited products that a
dealiased pseudo-spectral run produces.  Drift of the conserved
quantities along a trajectory is therefore a solver property, not a
quadrature artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid as sg
from .grid import SpectralField
from .systems import Feng, GearGrimshaw, HirotaSatsuma, State, SystemSpec

SQRT_2PI = math.sqrt(2.0 * math.pi)


def sobolev_norm(field: SpectralField, s: float) -> float:
    """H^s norm: (sum (1 + xi^2)^s |c_k|^2 dxi)^(1/2)."""
    g = field.grid
    w = (1.0 + g.xi * g.xi) ** s
    return float(math.sqrt(np.sum(w * np.abs(field.coeffs) ** 2) * g.dxi))


def _l2_inner(f: SpectralField, g: SpectralField) -> float:
    """int f*g dx for real fields, summed spectrally."""
    gr = f.grid
    return float(np.sum(f.coeffs * np.conj(g.coeffs)).real * gr.dxi)


def _mean_integral(field: SpectralField) -> float:
    """int f dx = sqrt(2*pi) * c_0."""
    return float(field.coeffs[0].real) * SQRT_2PI


def _oversampled(state: State) -> tuple[np.ndarray, np.ndarray, float]:
    """u and v on a 2x-oversampled grid, where cubic integrands are exact
    for 2/3-band data, and the fine spacing."""
    u, dxf = sg.oversampled_values(state.u, 2)
    v, _ = sg.oversampled_values(state.v, 2)
    return u, v, dxf


def _cubic_integral(f: np.ndarray, g: np.ndarray, h: np.ndarray, dx: float) -> float:
    """int f*g*h dx by the rectangle rule on oversampled values."""
    return float(np.sum(f * g * h) * dx)


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


NAN = float("nan")


@dataclass
class DiagnosticRecord:
    t: float
    V: float
    F: float
    phi1: float
    phi2: float
    phi3: float
    phi4: float
    sobolev_u: float
    sobolev_v: float
    mixed: Optional[dict] = None
    valid: bool = True

    def row(self) -> list[float]:
        """Column order used by the diagnostics CSV schema."""
        return [
            self.t, self.V, self.F,
            self.phi1, self.phi2, self.phi3, self.phi4,
            self.sobolev_u, self.sobolev_v,
        ]


def record_for(state: State, spec: SystemSpec, s: float = 1.0) -> DiagnosticRecord:
    """Evaluate every applicable functional; inapplicable ones are NaN."""
    V = F = NAN
    phi = (NAN, NAN, NAN, NAN)
    if isinstance(spec, (HirotaSatsuma, Feng)):
        V, F = hs_invariants(state, spec.a, spec.b)
    elif isinstance(spec, GearGrimshaw):
        phi = gg_invariants(state, spec)
    su = sobolev_norm(state.u, s)
    sv = sobolev_norm(state.v, s)
    finite = [x for x in (V, F, *phi, su, sv) if not math.isnan(x)]
    valid = all(math.isfinite(x) for x in finite)
    return DiagnosticRecord(state.t, V, F, *phi, su, sv, valid=valid)


def collect(traj, spec: SystemSpec, s: float = 1.0) -> list[DiagnosticRecord]:
    return [record_for(st, spec, s) for st in traj.states]


class Recorder:
    """Solver observer that accumulates DiagnosticRecords."""

    def __init__(self, spec: SystemSpec, s: float = 1.0):
        self.spec = spec
        self.s = s
        self.records: list[DiagnosticRecord] = []

    def __call__(self, state: State) -> None:
        self.records.append(record_for(state, self.spec, self.s))


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


def _window(traj, T: float):
    tol = 1e-9 * max(1.0, T)
    picked = [st for st in traj.states if abs(st.t) <= T + tol]
    if len(picked) < 2:
        raise ValueError("trajectory must store at least two samples with |t| <= T")
    return picked


def mixed_norms(traj, r: float, T: float) -> dict[str, MixedNormBreakdown]:
    """Component breakdown of the working norm over the window |t| <= T.

    Time integrals use the composite trapezoid rule on the stored
    cadence; spatial sups are grid maxima.  Returns one breakdown per
    field component.
    """
    states = _window(traj, T)
    times = np.array([st.t for st in states])
    out = {}
    for name in ("u", "v"):
        fields = [getattr(st, name) for st in states]
        vals = np.stack([f.values() for f in fields])  # (nt, nx)
        dstack = np.stack([sg.spectral_derivative(f, 1).values() for f in fields])
        frac = np.stack(
            [
                sg.spectral_derivative(sg.spectral_derivative(f, 1), float(r)).values()
                for f in fields
            ]
        )
        c1 = max(sobolev_norm(f, r) for f in fields)
        c2 = float(np.trapezoid(np.max(np.abs(dstack), axis=1) ** 4, times) ** 0.25)
        c3 = float(np.sqrt(np.max(np.trapezoid(frac**2, times, axis=0))))
        dx = fields[0].grid.dx
        c4 = float(
            (1.0 + T) ** -0.5
            * np.sqrt(np.sum(np.max(np.abs(vals), axis=0) ** 2) * dx)
        )
        c5 = float(np.sqrt(np.max(np.trapezoid(dstack**2, times, axis=0))))
        out[name] = MixedNormBreakdown(c1, c2, c3, c4, c5)
    return out
