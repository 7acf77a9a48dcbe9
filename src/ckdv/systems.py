"""Coupled third-order dispersive systems and their spectral right-hand sides.

Every system is written in evolution form u_t = (dispersion) + (rest).
The dispersion part of each component, when the third-derivative
coupling matrix is diagonal, is u_t = c * u_xxx for a real constant c;
`dispersion_coeffs` reports the pair (c_u, c_v) or the NOT_DIAGONAL
sentinel.  `rhs_form` writes everything except the third-derivative
terms as one table of quadratic and first-order coefficients;
`SpectralRhs` evaluates it pseudo-spectrally on half spectra, with
dealiasing applied to the products, and `nonlinear_rhs` is its
full-layout form.

Systems:

  HirotaSatsuma(a, b):
      u_t - a*(u_xxx + 6*u*u_x) = 2*b*v*v_x
      v_t + v_xxx + 3*u*v_x = 0

  Feng(a, b, c, d):
      u_t - a*(u_xxx + 6*u*u_x) = 2*b*v*v_x
      v_t + v_xxx + c*u*v_x + d*v*v_x = 0
    (c = 3, d = 0 recovers HirotaSatsuma's second equation)

  GearGrimshaw(a1, a2, a3, b1, b2, r):
      u_t + u_xxx + a3*v_xxx + u*u_x + a1*v*v_x + a2*(u*v)_x = 0
      b1*v_t + v_xxx + b2*a3*u_xxx + v*v_x + b2*a2*u*u_x
             + b2*a1*(u*v)_x + r*v_x = 0

  GeneralCoupled(a11, a12, a21, a22, b1..b6, r):
      u_t + a11*u_xxx + a12*v_xxx + b1*(u*v)_x + b2*u*u_x + b3*v*v_x = 0
      v_t + a21*u_xxx + a22*v_xxx + r*v_x + b4*(u*v)_x + b5*u*u_x
          + b6*v*v_x = 0

  Sakovich(A0, A1, A2), det(A2) != 0:
      U_xxx + A0*(u*u_x, v*v_x)^T + A1*(u*v_x, v*u_x)^T + A2*U_t = 0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import grid as sg
from .grid import SpectralField, Grid


class BlowupDetected(RuntimeError):
    """Raised when field values stop being finite or grow past the guard."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class _NotDiagonal:
    """Sentinel: the third-derivative coupling matrix is not diagonal."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NOT_DIAGONAL"


NOT_DIAGONAL = _NotDiagonal()


@dataclass(frozen=True)
class HirotaSatsuma:
    a: float
    b: float


@dataclass(frozen=True)
class Feng:
    a: float
    b: float
    c: float
    d: float

    def regime_flags(self) -> dict:
        """Conditions used by the contraction arguments; reported, not enforced."""
        return {
            "a_plus_one_nonzero": self.a + 1.0 != 0.0,
            "bc_positive": self.b * self.c > 0.0,
        }


@dataclass(frozen=True)
class GearGrimshaw:
    a1: float
    a2: float
    a3: float
    b1: float
    b2: float
    r: float = 0.0

    def __post_init__(self):
        if not (self.b1 > 0.0):
            raise ValueError(f"GearGrimshaw requires b1 > 0, got {self.b1}")
        if not (self.b2 > 0.0):
            raise ValueError(f"GearGrimshaw requires b2 > 0, got {self.b2}")


@dataclass(frozen=True)
class GeneralCoupled:
    a11: float
    a12: float
    a21: float
    a22: float
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    b6: float
    r: float = 0.0

    @property
    def dispersion_matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Sakovich:
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray

    def __post_init__(self):
        for name in ("A0", "A1", "A2"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != (2, 2):
                raise ValueError(f"{name} must be a 2x2 matrix")
            object.__setattr__(self, name, m)
        if abs(float(np.linalg.det(self.A2))) < 1e-14:
            raise ValueError("Sakovich requires det(A2) != 0")


SystemSpec = Union[HirotaSatsuma, Feng, GearGrimshaw, GeneralCoupled, Sakovich]


@dataclass
class State:
    """A pair of real fields on a shared grid at one instant."""

    u: SpectralField
    v: SpectralField
    t: float = 0.0

    def __post_init__(self):
        if not self.u.grid.compatible(self.v.grid):
            raise ValueError("u and v must share one grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "State":
        return State(self.u.copy(), self.v.copy(), self.t)


def dispersion_coeffs(spec: SystemSpec):
    """Per-component constants (c_u, c_v) of the u_t = c*u_xxx linear flow.

    Returns NOT_DIAGONAL when the two components are coupled at third
    order and no per-component constant exists.
    """
    if isinstance(spec, (HirotaSatsuma, Feng)):
        return (spec.a, -1.0)
    if isinstance(spec, GearGrimshaw):
        if spec.a3 != 0.0:
            return NOT_DIAGONAL
        return (-1.0, -1.0 / spec.b1)
    if isinstance(spec, GeneralCoupled):
        if spec.a12 != 0.0 or spec.a21 != 0.0:
            return NOT_DIAGONAL
        return (-spec.a11, -spec.a22)
    if isinstance(spec, Sakovich):
        ainv = np.linalg.inv(spec.A2)
        if ainv[0, 1] != 0.0 or ainv[1, 0] != 0.0:
            return NOT_DIAGONAL
        return (-ainv[0, 0], -ainv[1, 1])
    raise TypeError(f"unknown system spec {type(spec)!r}")


def rhs_form(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The nonlinearity of every system as one table (Q, R).

    Component i of the right-hand side is

        sum_jk Q[i, j, k] * w_j * d_x w_k + sum_k R[i, k] * d_x w_k

    with (w_0, w_1) = (u, v): everything except the third-derivative terms.
    """
    Q = np.zeros((2, 2, 2))
    R = np.zeros((2, 2))
    if isinstance(spec, HirotaSatsuma):
        Q[0] = [[6.0 * spec.a, 0.0], [0.0, 2.0 * spec.b]]
        Q[1] = [[0.0, -3.0], [0.0, 0.0]]
    elif isinstance(spec, Feng):
        Q[0] = [[6.0 * spec.a, 0.0], [0.0, 2.0 * spec.b]]
        Q[1] = [[0.0, -spec.c], [0.0, -spec.d]]
    elif isinstance(spec, GearGrimshaw):
        # (u*v)_x = u*v_x + v*u_x
        Q[0] = [[-1.0, -spec.a2], [-spec.a2, -spec.a1]]
        Q[1] = [[-spec.b2 * spec.a2, -spec.b2 * spec.a1], [-spec.b2 * spec.a1, -1.0]]
        Q[1] /= spec.b1
        R[1, 1] = -spec.r / spec.b1
    elif isinstance(spec, GeneralCoupled):
        Q[0] = [[-spec.b2, -spec.b1], [-spec.b1, -spec.b3]]
        Q[1] = [[-spec.b5, -spec.b4], [-spec.b4, -spec.b6]]
        R[1, 1] = -spec.r
    elif isinstance(spec, Sakovich):
        ainv = np.linalg.inv(spec.A2)
        m0 = -ainv @ spec.A0  # columns: u*u_x, v*v_x
        m1 = -ainv @ spec.A1  # columns: u*v_x, v*u_x
        for i in range(2):
            Q[i] = [[m0[i, 0], m1[i, 0]], [m1[i, 1], m0[i, 1]]]
    else:
        raise TypeError(f"unknown system spec {type(spec)!r}")
    return Q, R


class SpectralRhs:
    """The nonlinear right-hand side on stacked half spectra, built once per run.

    Called on w of shape (2, m) or (2, nt, m), m = n/2 + 1: the modes
    k = 0..n/2 of (u, v), one row per time sample in the 3-D case.  One
    irfft gives u, v, u_x, v_x on the grid; the products of `rhs_form`
    are summed there and checked for finiteness once; one rfft brings
    the result back, dealiased.  Input is expected dealiased.
    """

    def __init__(self, spec: SystemSpec, grid: Grid):
        Q, R = rhs_form(spec)
        m = grid.n // 2 + 1
        sign = grid._sign[:m]
        # rows [[u, v], [u_x, v_x]]: centring sign, i*xi and the inverse scale in one table
        to_grid = np.stack([sign, 1j * grid.xi[:m] * sign]) * (sg.SQRT_2PI / grid.dx)
        self._to_grid = to_grid[:, None, None, :]
        self._to_spec = np.where(grid.keep[:m], sign * (grid.dx / sg.SQRT_2PI), 0.0)
        self._quad = Q.reshape(2, 4)
        self._drift = R if R.any() else None
        self._n = grid.n

    def __call__(self, w: np.ndarray, t) -> np.ndarray:
        """d/dt of w from the nonlinearity; t is the time, or one per sample row.

        Raises BlowupDetected, with the (first offending) time, when the
        products are not finite.
        """
        shape = w.shape
        n = self._n
        val, der = np.fft.irfft(w.reshape(1, 2, -1, shape[-1]) * self._to_grid, n, axis=-1)
        f = self._quad @ (val[:, None] * der[None]).reshape(4, -1)
        if self._drift is not None:
            f += self._drift @ der.reshape(2, -1)
        f = f.reshape(2, -1, n)
        finite = np.isfinite(f)
        if not finite.all():
            if np.ndim(t):
                t = t[np.argmin(finite.all(axis=(0, 2)))]
            raise BlowupDetected("non-finite values in right-hand side", time=float(t))
        return (np.fft.rfft(f, axis=-1) * self._to_spec).reshape(shape)


def nonlinear_rhs(spec: SystemSpec, state: State) -> tuple[SpectralField, SpectralField]:
    """Everything except the third-derivative terms, in d/dt form.

    A full-layout adapter over `SpectralRhs`: products are formed on the
    grid and the combined result dealiased.  Input fields are expected
    dealiased; the output always is.
    """
    g = state.grid
    w = np.stack([sg.to_half(state.u.coeffs), sg.to_half(state.v.coeffs)])
    du, dv = sg.to_full(SpectralRhs(spec, g)(w, state.t))
    return SpectralField(du, g), SpectralField(dv, g)


def hs_as_kdv(w0: SpectralField, a: float) -> State:
    """Initial state whose u-component evolves as a reflected, rescaled
    single KdV solution: u0(x) = w0(-x), v0 = 0.

    With this data the second component stays zero and
    u(x, t) = w(-x, a*t), where w solves w_t + w_xxx + 6*w*w_x = 0 with
    data w0.  Requires a != 0.
    """
    if a == 0.0:
        raise ValueError("the reduction requires a != 0")
    return State(sg.reflect(w0), sg.zero_field(w0.grid), 0.0)
