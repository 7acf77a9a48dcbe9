"""Conserved functionals and Sobolev norms.

Quadratic integrands are summed exactly in Fourier space (Parseval);
cubic integrands are evaluated on a 2x-oversampled physical grid where
the rectangle rule is exact for the band-limited products that a
dealiased pseudo-spectral run produces.  Drift of the conserved
quantities along a trajectory is therefore a solver property, not a
quadrature artifact.

Each conservation law is declared once, as data: `_laws` maps a system
to {column: ((coefficient, integral), ...)} over a fixed basis of
integrals (int u, int v, the quadratics in u, v, u_x, v_x, and the
cubics in u, v), and the table sums each law's terms.  Hirota-Satsuma
fills V and F, Feng F (and V where it is Hirota-Satsuma), Gear-Grimshaw
phi1-phi4; a column a system does not conserve is NaN.

Every functional acts on the last axis of the coefficients, so a field
whose coefficients carry leading axes (one row per sample) gives one
value per row; `collect` evaluates a whole trajectory that way, straight
from its half-spectrum array, and returns the diagnostics table, one row
per sample under COLUMNS.  `record_for` gives one state's row.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from . import grid as sg
from .grid import SpectralField
from .systems import Feng, GearGrimshaw, HirotaSatsuma, State, SystemSpec


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


def _integrals(state: State, names) -> dict:
    """int of each named product over the box, one value per row of coefficients.

    A name joins its factors with '*': u, v, ux or vx (x marks d/dx).  One
    factor is a mean, sqrt(2*pi) * c_0; two an inner product summed
    spectrally; three a sum over the 2x-oversampled grid.  Only the fields
    that the names need are formed.
    """
    factors = {name: name.split("*") for name in names}
    fields = {"u": state.u, "v": state.v}
    for f in {f for fs in factors.values() for f in fs} - {"u", "v"}:
        fields[f] = sg.spectral_derivative(fields[f[0]], 1)
    cubic = {f for fs in factors.values() if len(fs) == 3 for f in fs}
    fine = {f: sg.oversampled_values(fields[f]) for f in cubic}
    integral = {
        1: lambda f: fields[f].coeffs[..., 0].real * sg.SQRT_2PI,
        2: lambda f, g: _l2_inner(fields[f], fields[g]),
        3: lambda f, g, h: np.sum(fine[f][0] * fine[g][0] * fine[h][0], axis=-1) * fine[f][1],
    }
    return {name: integral[len(fs)](*fs) for name, fs in factors.items()}


def _laws(spec: SystemSpec) -> dict[str, tuple[tuple[float, str], ...]]:
    """The conservation laws of a system: column -> ((coefficient, integral), ...).

    A law is the sum of its terms in the order given, over `_integrals`.
    HirotaSatsuma(a, b) is Feng(a, b, 3, 0).  Feng's
        F = int(u^2 + (2b/c) v^2) dx,  c != 0,
    holds for every d: d/dt int u^2 = 4b int u v v_x and
    d/dt int v^2 = -2c int u v v_x.  Only at (c, d) = (3, 0) does Feng
    also conserve the Hamiltonian
        V = int((1+a)/2 u_x^2 + b v_x^2 - (1+a) u^3 - b u v^2) dx.
    GearGrimshaw(a1, a2, a3, b1, b2, r) conserves
        phi1 = int u dx, phi2 = int v dx, phi3 = int(b2 u^2 + b1 v^2) dx,
        phi4 = int(b2 u_x^2 + v_x^2 + 2 b2 a3 u_x v_x - b2 u^3/3
                   - b2 a2 u^2 v - b2 a1 u v^2 - v^3/3 - r v^2) dx.
    """
    if isinstance(spec, HirotaSatsuma):
        spec = Feng(spec.a, spec.b, 3.0, 0.0)
    if isinstance(spec, Feng):
        a, b, c = spec.a, spec.b, spec.c
        laws = {}
        if (c, spec.d) == (3.0, 0.0):
            laws["V"] = ((0.5 * (1.0 + a), "ux*ux"), (b, "vx*vx"), (-(1.0 + a), "u*u*u"), (-b, "u*v*v"))
        if c != 0.0:
            laws["F"] = ((1.0, "u*u"), (2.0 / c * b, "v*v"))  # at c = 3, the float (2/3)*b
        return laws
    if isinstance(spec, GearGrimshaw):
        b1, b2 = spec.b1, spec.b2
        return {
            "phi1": ((1.0, "u"),),
            "phi2": ((1.0, "v"),),
            "phi3": ((b2, "u*u"), (b1, "v*v")),
            "phi4": (
                (b2, "ux*ux"), (1.0, "vx*vx"), (2.0 * b2 * spec.a3, "ux*vx"),
                (-(b2 / 3.0), "u*u*u"), (-(b2 * spec.a2), "u*u*v"), (-(b2 * spec.a1), "u*v*v"),
                (-1.0 / 3.0, "v*v*v"), (-spec.r, "v*v"),
            ),
        }
    return {}


# the columns of the diagnostics table, one row per sample
COLUMNS = ("t", "V", "F", "phi1", "phi2", "phi3", "phi4", "Hs_u", "Hs_v")


def _table(state: State, spec: SystemSpec, s: float) -> np.ndarray:
    """The (samples, 9) table; the state's coefficients and t may carry a leading time axis."""
    laws = _laws(spec)
    integral = _integrals(state, {name for terms in laws.values() for _, name in terms})
    row = {column: reduce(operator.add, (c * integral[name] for c, name in terms))
           for column, terms in laws.items()}
    row.update(t=state.t, Hs_u=sobolev_norm(state.u, s), Hs_v=sobolev_norm(state.v, s))
    return np.stack(
        np.broadcast_arrays(*(row.get(c, np.nan) for c in COLUMNS)), axis=-1
    ).reshape(-1, len(COLUMNS))


def record_for(state: State, spec: SystemSpec, s: float = 1.0) -> np.ndarray:
    """The table row (COLUMNS) of one state; NaN marks a law the system does
    not conserve, and an infinite entry an invalid row."""
    return _table(state, spec, s)[0]


def collect(traj, spec: SystemSpec, s: float = 1.0) -> np.ndarray:
    """The (samples, 9) table (COLUMNS) of a Trajectory, evaluated on its stacked samples."""
    return _table(State.from_half(np.moveaxis(traj.half, 1, 0), traj.grid, traj.times), spec, s)
