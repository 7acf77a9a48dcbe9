"""Discrete space-time frequency fields and dispersive-weighted norms.

A field F(x, t) on a doubly periodic box carries coefficients under the
convention

    Fhat(xi, tau) = (2*pi)**(-1) * iint exp(-i*(x*xi + t*tau)) F dx dt,

realized as the product of two unitary one-variable transforms, the
space grid's and the time grid's `Grid.to_coeffs` along axes 0 and 1.  The
weighted norm of interest is

    ||F||^2 = iint (1 + |tau + a*xi^3|)^(2b) (1 + |xi|)^(2s) |Fhat|^2,

discretized as a Riemann sum over the frequency lattice.  Fields meant
to model whole-line data are windowed in t by a compactly supported
bump before transforming, so the tau integral is well approximated on
the periodic box.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .. import grid as sg
from ..bump import psi, psi_T
from ..grid import Grid, SpectralField


@dataclass(frozen=True)
class SpaceTimeGrid:
    x: Grid
    t: Grid
    _tables: dict = dataclasses.field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def cell(self) -> float:
        return self.x.dxi * self.t.dxi

    def _cached(self, key: tuple, build) -> np.ndarray:
        """build() once per key; the read-only result is shared by every caller."""
        out = self._tables.get(key)
        if out is None:
            out = build()
            out.flags.writeable = False
            self._tables[key] = out
        return out

    def phase(self, a: float) -> np.ndarray:
        """exp(-i a xi^3 t) on the (xi, t) lattice: free evolution with speed a."""
        xi, t = self.x.xi[:, None], self.t.x[None, :]
        return self._cached(("phase", a), lambda: np.exp(-1j * a * xi**3 * t))


def make_st_grid(
    n_x: int, period_x: float, n_t: int = 256, period_t: float = 8.0
) -> SpaceTimeGrid:
    """Space-time grid; the default t box [-4, 4) covers supp psi = [-2, 2]."""
    return SpaceTimeGrid(Grid(n_x, period_x), Grid(n_t, period_t))


@dataclass
class SpaceTimeField:
    """Real space-time field stored by its (xi, tau) coefficients."""

    coeffs: np.ndarray  # shape (n_x, n_t), axis 0 = xi, axis 1 = tau
    grid: SpaceTimeGrid

    def __post_init__(self):
        expect = (self.grid.x.n, self.grid.t.n)
        if self.coeffs.shape != expect:
            raise ValueError(f"coeff shape {self.coeffs.shape}, expected {expect}")

    def values(self) -> np.ndarray:
        return inverse2(self)


def forward2(values: np.ndarray, stg: SpaceTimeGrid) -> SpaceTimeField:
    """Transform real samples F(x_j, t_m) to continuum-convention coefficients."""
    values = np.asarray(values, dtype=np.float64)
    return SpaceTimeField(stg.t.to_coeffs(stg.x.to_coeffs(values, axis=0), axis=1), stg)


def inverse2(field: SpaceTimeField) -> np.ndarray:
    stg = field.grid
    return stg.x.to_values(stg.t.to_values(field.coeffs, axis=1), axis=0).real


def from_time_slices(slice_coeffs: np.ndarray, stg: SpaceTimeGrid) -> SpaceTimeField:
    """Build a field from spatial coefficients sampled in time.

    slice_coeffs[k, m] = spatial coefficient k at time stg.t.x[m]; only
    the time transform remains to be taken.
    """
    if slice_coeffs.shape != (stg.x.n, stg.t.n):
        raise ValueError("slice_coeffs shape does not match the grid")
    return SpaceTimeField(stg.t.to_coeffs(slice_coeffs, axis=1), stg)


def hermitian_symmetrize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the conjugate-symmetric part (real-valued field)."""
    nx, nt = coeffs.shape
    ix = (-np.arange(nx)) % nx
    it = (-np.arange(nt)) % nt
    mirrored = np.conj(coeffs[np.ix_(ix, it)])
    return 0.5 * (coeffs + mirrored)


def weight_table(stg: SpaceTimeGrid, a: float, s: float, b: float) -> np.ndarray:
    """(1 + |tau + a xi^3|)^(2b) (1 + |xi|)^(2s), built once per grid and key."""
    xi = stg.x.xi[:, None]
    tau = stg.t.xi[None, :]
    return stg._cached(
        ("weight", a, s, b),
        lambda: (1.0 + np.abs(tau + a * xi**3)) ** (2.0 * b) * (1.0 + np.abs(xi)) ** (2.0 * s),
    )


def xsb_norm(field: SpaceTimeField, a: float, s: float, b: float) -> float:
    """Riemann-sum discretization of the dispersive-weighted norm."""
    if a == 0.0:
        raise ValueError("the modulation weight needs a nonzero dispersion speed a")
    w = weight_table(field.grid, a, s, b)
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2) * field.grid.cell))


def bracket_norm(u0: SpectralField, s: float) -> float:
    """Spatial norm with the (1 + |xi|)^s weight matching xsb_norm."""
    g = u0.grid
    w = (1.0 + np.abs(g.xi)) ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(u0.coeffs) ** 2) * g.dxi))


def random_field(stg: SpaceTimeGrid, rng: np.random.Generator, decay: float = 0.0) -> SpaceTimeField:
    """Hermitian random field with complex Gaussian coefficients.

    decay > 0 damps coefficients like (1+|xi|)^-decay * (1+|tau|)^-decay
    to model smoother data.
    """
    nx, nt = stg.x.n, stg.t.n
    c = rng.standard_normal((nx, nt)) + 1j * rng.standard_normal((nx, nt))
    if decay > 0.0:
        xi = stg.x.xi[:, None]
        tau = stg.t.xi[None, :]
        c = c * (1.0 + np.abs(xi)) ** -decay * (1.0 + np.abs(tau)) ** -decay
    return SpaceTimeField(hermitian_symmetrize(c), stg)


def _check_xgrid(u0: SpectralField, stg: SpaceTimeGrid) -> None:
    if u0.grid.n != stg.x.n or u0.grid.period != stg.x.period:
        raise ValueError("initial datum grid does not match the space-time grid")


def free_field(u0: SpectralField, a: float, stg: SpaceTimeGrid) -> SpaceTimeField:
    """psi(t) * (free evolution of u0 with speed a), as a space-time field.

    The window psi vanishes for |t| >= 2.
    """
    _check_xgrid(u0, stg)
    slices = u0.coeffs[:, None] * stg.phase(a) * psi(stg.t.x)[None, :]
    return from_time_slices(slices, stg)


def duhamel_field(
    forcing_slices: np.ndarray, a: float, stg: SpaceTimeGrid, T: float
) -> SpaceTimeField:
    """psi_T(t) * int_0^t (free evolution from t' to t applied to F(t')) dt'.

    forcing_slices[k, m] are the spatial coefficients of F at time
    stg.t.x[m].  The t' integral is a cumulative Simpson rule on the
    grid cadence, anchored at t = 0 (which lies on the grid), and runs
    only over psi_T's support, from and to even indices so that each
    interval keeps the whole grid's rule; beside the result it holds the
    slices and two arrays over that support.
    """
    nt = stg.t.n
    t = stg.t.x
    i0 = nt // 2
    if abs(t[i0]) > 1e-12:
        raise ValueError("time grid must contain t = 0")
    cut = psi_T(t, T)
    lo, hi = np.flatnonzero(cut)[[0, -1]]  # psi_T(0) = 1, so lo <= i0 <= hi
    lo -= lo % 2  # from an even index to an even one, or to the grid's end, over 3 or more samples
    hi = min(max(hi + hi % 2, lo + 2) + 1, nt)
    phase = stg.phase(a)[:, lo:hi]
    # the time grid is uniform, so its spacing is the equal-step rule's dx
    acc = sg.cumulative_simpson_c(np.conj(phase) * forcing_slices[:, lo:hi], stg.t.dx, axis=1)
    acc -= acc[:, [i0 - lo]]
    slices = np.zeros((stg.x.n, nt), dtype=complex)
    slices[:, lo:hi] = phase * acc * cut[lo:hi]
    del acc
    return from_time_slices(slices, stg)
