"""Coupled third-order dispersive systems and their spectral right-hand sides.

Every system lowers to one normal form (`lower` -> `NormalForm`):

    U_t = D U_xxx + sum_jk Q[:, j, k] w_j d_x w_k + R d_x U

with U = (w_0, w_1) = (u, v), a 2x2 dispersion matrix D, a table Q of
quadratic coefficients and a 2x2 first-order drift R.  `lower` is the one
place that dispatches on the system classes; the solvers read only the
normal form.  `diagonal_form` brings any normal form to diagonal D by
the change of variables U = P W into the eigenbasis of the dispersion
(P is None when D is already diagonal), so that each component has its
own linear flow w_t = c w_xxx with c read off diag(D); it rejects a
dispersion with complex or defective eigenstructure.  The solvers apply
it themselves.  `SpectralRhs` evaluates the Q/R part pseudo-spectrally
on stacked half spectra (`State.half`, `State.from_half`), with
dealiasing applied to the products; `nonlinear_rhs` is its full-layout form.

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
    Dividing the second equation by b1 gives the GeneralCoupled form
    (`gear_grimshaw_as_general`), so with (u*v)_x = u*v_x + v*u_x:
      D = -[[1, a3], [b2*a3/b1, 1/b1]]
      Q[0] = -[[1, a2], [a2, a1]]
      Q[1] = -[[b2*a2, b2*a1], [b2*a1, 1]] / b1
      R = [[0, 0], [0, -r/b1]]

  GeneralCoupled(a11, a12, a21, a22, b1..b6, r):
      u_t + a11*u_xxx + a12*v_xxx + b1*(u*v)_x + b2*u*u_x + b3*v*v_x = 0
      v_t + a21*u_xxx + a22*v_xxx + r*v_x + b4*(u*v)_x + b5*u*u_x
          + b6*v*v_x = 0

  Sakovich(A0, A1, A2), det(A2) != 0:
      U_xxx + A0*(u*u_x, v*v_x)^T + A1*(u*v_x, v*u_x)^T + A2*U_t = 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import grid as sg
from .grid import SpectralField, Grid


class BlowupDetected(RuntimeError):
    """Raised when field values stop being finite or grow past the guard."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class NotApplicable(ValueError):
    """The operation's structural precondition does not hold for this input."""


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

    def half(self) -> np.ndarray:
        """The stacked half spectrum, shape (2, ..., n/2+1): modes k = 0..n/2 of u and v."""
        return np.stack([sg.to_half(self.u.coeffs), sg.to_half(self.v.coeffs)])

    @classmethod
    def from_half(cls, w: np.ndarray, grid: Grid, t=0.0) -> "State":
        """The state whose u and v have the half spectra w[0] and w[1]; rows of w[i] stay rows."""
        u, v = sg.to_full(w)
        return cls(SpectralField(u, grid), SpectralField(v, grid), t)


@dataclass(frozen=True, eq=False)
class NormalForm:
    """U_t = D U_xxx + sum_jk Q[:, j, k] w_j d_x w_k + R d_x U, in d/dt form.

    D and R are 2x2; Q[i, j, k] is the coefficient of w_j * d_x w_k in
    component i, with (w_0, w_1) = (u, v).
    """

    D: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name, shape in (("D", (2, 2)), ("Q", (2, 2, 2)), ("R", (2, 2))):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, m)


def gear_grimshaw_as_general(spec: GearGrimshaw) -> GeneralCoupled:
    """Rewrite the two-parameter internal-wave system in the general matrix form.

    The second equation is divided through by b1 so both equations read
    u_t + (matrix) u_xxx + (quadratics) = 0.
    """
    b1, b2 = spec.b1, spec.b2
    return GeneralCoupled(
        a11=1.0, a12=spec.a3, a21=b2 * spec.a3 / b1, a22=1.0 / b1,
        b1=spec.a2, b2=1.0, b3=spec.a1,
        b4=b2 * spec.a1 / b1, b5=b2 * spec.a2 / b1, b6=1.0 / b1,
        r=spec.r / b1,
    )


def lower(spec: SystemSpec | NormalForm) -> NormalForm:
    """The normal form of a system; a NormalForm is returned unchanged."""
    if isinstance(spec, NormalForm):
        return spec
    if isinstance(spec, GearGrimshaw):
        return lower(gear_grimshaw_as_general(spec))
    Q = np.zeros((2, 2, 2))
    R = np.zeros((2, 2))
    if isinstance(spec, (HirotaSatsuma, Feng)):
        D = np.diag([spec.a, -1.0])
        Q[0] = [[6.0 * spec.a, 0.0], [0.0, 2.0 * spec.b]]
        if isinstance(spec, Feng):
            Q[1] = [[0.0, -spec.c], [0.0, -spec.d]]
        else:
            Q[1, 0, 1] = -3.0
    elif isinstance(spec, GeneralCoupled):
        D = -spec.dispersion_matrix
        # (u*v)_x = u*v_x + v*u_x
        Q[0] = [[-spec.b2, -spec.b1], [-spec.b1, -spec.b3]]
        Q[1] = [[-spec.b5, -spec.b4], [-spec.b4, -spec.b6]]
        R[1, 1] = -spec.r
    elif isinstance(spec, Sakovich):
        ainv = np.linalg.inv(spec.A2)
        D = -ainv
        m0 = -ainv @ spec.A0  # columns: u*u_x, v*v_x
        m1 = -ainv @ spec.A1  # columns: u*v_x, v*u_x
        for i in range(2):
            Q[i] = [[m0[i, 0], m1[i, 0]], [m1[i, 1], m0[i, 1]]]
    else:
        raise TypeError(f"unknown system spec {type(spec)!r}")
    return NormalForm(D, Q, R)


def gg_lambda_alpha(b1: float, b2: float, a3: float) -> tuple[float, float, float]:
    """Gap and eigenvalues of the cross-dispersion matrix, in closed form.

    For the matrix [[1, a3], [b2*a3/b1, 1/b1]] (b1, b2 > 0) the
    eigenvalues are alpha_pm = (1 + 1/b1 +- lam)/2 with
    lam = sqrt((1 - 1/b1)^2 + 4*b2*a3^2/b1).
    """
    if not (b1 > 0.0 and b2 > 0.0):
        raise ValueError("requires b1 > 0 and b2 > 0")
    lam = math.sqrt((1.0 - 1.0 / b1) ** 2 + 4.0 * b2 * a3 * a3 / b1)
    ap = 0.5 * (1.0 + 1.0 / b1 + lam)
    am = 0.5 * (1.0 + 1.0 / b1 - lam)
    return lam, ap, am


_TIE = 1e-12  # eigenvalues this close are one double eigenvalue


def diagonal_form(spec: SystemSpec | NormalForm) -> tuple[NormalForm, Optional[np.ndarray]]:
    """The normal form in the eigenbasis of its dispersion, and P with U = P W.

    W_t = D' W_xxx + Q'(W, W_x) + R' W_x with D' = diag(-alpha_+, -alpha_-),
    where alpha_+ >= alpha_- are the eigenvalues of the dispersion matrix
    A = -D (the u_t + A u_xxx convention), Q' = einsum(P^-1, Q, P, P) and
    R' = P^-1 R P.  One row of P is all ones.  A D that is already diagonal
    gives the normal form itself and P None; eigenvalues within 1e-12 of
    each other give P = I when A is that close to scalar.  Raises
    NotApplicable when A has complex eigenvalues or is defective.
    """
    form = lower(spec)
    A = -form.D
    if A[0, 1] == 0.0 and A[1, 0] == 0.0:
        return form, None
    # alpha = A11 + h +- root with h = (A00 - A11)/2: no tr^2 - 4 det cancellation, and exact for a triangular A
    h = 0.5 * (A[0, 0] - A[1, 1])
    disc = h * h + A[0, 1] * A[1, 0]
    if disc < 0.0:
        raise NotApplicable("dispersion matrix has complex eigenvalues")
    root = math.sqrt(disc)
    ap, am = A[1, 1] + (h + root), A[1, 1] + (h - root)
    if ap - am > _TIE:
        # each eigenvector p has one entry 1; the other solves the row of A p = alpha p whose
        # off-diagonal entry is nonzero
        if A[0, 1] != 0.0:
            P = np.array([[1.0, 1.0], [(ap - A[0, 0]) / A[0, 1], (am - A[0, 0]) / A[0, 1]]])
        else:
            P = np.array([[(ap - A[1, 1]) / A[1, 0], (am - A[1, 1]) / A[1, 0]], [1.0, 1.0]])
        P_inv = np.linalg.inv(P)
    elif float(np.abs(A - ap * np.eye(2)).max()) <= _TIE * max(1.0, float(np.abs(A).max())):
        P = P_inv = np.eye(2)
    else:
        raise NotApplicable("dispersion matrix is defective (no eigenbasis)")
    Q = np.einsum("ia,abc,bj,ck->ijk", P_inv, form.Q, P, P)
    return NormalForm(np.diag([-ap, -am]), Q, P_inv @ form.R @ P), P


class SpectralRhs:
    """The nonlinear right-hand side on stacked half spectra, built once per run.

    Called on w of shape (2, m) or (2, nt, m), m = n/2 + 1: the modes
    k = 0..n/2 of (u, v), one row per time sample in the 3-D case.  One
    `grid.irfft_into` gives u, v, u_x, v_x on the grid; the Q and R products of
    the normal form are summed there and checked for finiteness once; one
    `grid.rfft_into` brings the result back, dealiased.  Input is expected
    dealiased.  Every call works in intermediates and views kept on the instance,
    one set per shape of w; `out` only chooses where the result goes, and a call
    with it allocates nothing.
    """

    def __init__(self, spec: SystemSpec | NormalForm, grid: Grid):
        form = lower(spec)
        m = grid.n // 2 + 1
        sign = grid._sign[:m]
        # rows [[u, v], [u_x, v_x]]: centring sign, i*xi and the inverse scale in one table
        self._to_grid = np.stack([sign, 1j * grid.xi_odd[:m] * sign]) * (sg.SQRT_2PI / grid.dx)
        self._to_spec = np.where(grid.keep[:m], sign * (grid.dx / sg.SQRT_2PI), 0.0)
        self._quad = form.Q.reshape(2, 4)
        self._drift = form.R if form.R.any() else None
        self._n = grid.n
        self._work: dict[tuple, tuple] = {}

    def _buffers(self, shape: tuple) -> tuple:
        on_grid = shape[:-1] + (self._n,)  # w's shape with n samples in place of m modes
        # w times each row of to_grid, dead once transformed: its memory then holds
        # every w_j * d_x w_k, and after that the finiteness mask
        spec = np.empty((2, *shape), dtype=np.complex128)
        val, der = values = np.empty((2, *on_grid))  # [[u, v], [u_x, v_x]] on the grid
        products = spec.reshape(-1).view(np.float64)[: 2 * values[0].size].reshape(2, *on_grid)
        f = np.empty((2, val[0].size))  # the right-hand side on the grid
        return (
            self._to_grid.reshape(2, *(1,) * (len(shape) - 1), shape[-1]), spec, values,
            val[:, None], der[None], products, products.reshape(4, -1), der.reshape(2, -1),
            f, f.reshape(on_grid),
            np.empty_like(f) if self._drift is not None else None,  # the drift part of f
            spec.reshape(-1).view(np.bool_)[: f.size].reshape(on_grid),
        )

    def __call__(self, w: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
        """d/dt of w from the nonlinearity; t is the time, or one per sample row.

        Writes into `out` (C-contiguous, w's shape) when given, and returns it.
        Raises BlowupDetected, with the (first offending) time, when the
        products are not finite.
        """
        shape = w.shape
        work = self._work.get(shape) or self._work.setdefault(shape, self._buffers(shape))
        out = np.empty(shape, dtype=np.complex128) if out is None else out
        to_grid, spec, values, val, der, products, flat, der_flat, f, f_grid, drift, finite = work
        np.multiply(w, to_grid, out=spec)
        sg.irfft_into(spec, out=values)
        np.multiply(val, der, out=products)
        np.matmul(self._quad, flat, out=f)
        if drift is not None:
            f += np.matmul(self._drift, der_flat, out=drift)
        if not np.isfinite(f_grid, out=finite).all():
            if np.ndim(t):
                t = t[np.argmin(finite.all(axis=(0, 2)))]
            raise BlowupDetected("non-finite values in right-hand side", time=float(t))
        sg.rfft_into(f_grid, out=out)
        np.multiply(out, self._to_spec, out=out)
        return out


def nonlinear_rhs(spec: SystemSpec | NormalForm, state: State) -> tuple[SpectralField, SpectralField]:
    """Everything except the third-derivative terms, in d/dt form.

    A full-layout adapter over `SpectralRhs`: products are formed on the
    grid and the combined result dealiased.  Input fields are expected
    dealiased; the output always is.
    """
    d = State.from_half(SpectralRhs(spec, state.grid)(state.half(), state.t), state.grid)
    return d.u, d.v


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
