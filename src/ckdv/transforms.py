"""Dispersion-matrix diagonalization, variable changes, and scalings.

Three families of coordinate changes live here:

  * eigen-decomposition of a 2x2 third-derivative coupling matrix,
    with the explicit eigenvector convention whose first row is all
    ones when the (1,2) entry is nonzero, and `diagonal_form`, the one
    linear change U = P W that brings any system's normal form to
    diagonal dispersion.  Systems coupled at third order (Gear-Grimshaw
    with a3 != 0, GeneralCoupled with a12 or a21 != 0, Sakovich with a
    non-diagonal inv(A2)) are simulated through it explicitly: map the
    data to W0 = P^-1 U0, evolve W with the diagonal normal form, and
    map back with U = P W;
  * the two-speed mixing map W = P^-1 U, in the same eigenbasis, that
    decouples the linear Gear-Grimshaw flow into unit-speed Airy flows
    of the components read at alpha_j^(1/3) * x, and its inverse;
  * the amplitude/space/time rescaling u -> lam^2 u(lam x, lam^3 t)
    applied to whole trajectories.

Rescaled spatial evaluation is exact trigonometric interpolation, so
the input data must decay near the box boundary for the periodic
surrogate to be faithful; a DecayViolationWarning is emitted when it
does not.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid as sg
from .grid import Grid, SpectralField
from .solver import Trajectory
from .systems import GearGrimshaw, GeneralCoupled, NormalForm, SystemSpec, lower
from .systems import gear_grimshaw_as_general, gg_dispersion_matrix  # noqa: F401  (re-exported)


class SingularTransform(ValueError):
    """A requested change of variables divides by a vanishing eigenvalue."""


class NotApplicable(ValueError):
    """The operation's structural precondition does not hold for this input."""


class DecayViolationWarning(UserWarning):
    """Data does not decay at the box boundary; rescaled evaluation is suspect."""


_TIE = 1e-12


@dataclass(frozen=True)
class Diagonalization:
    """Eigen-structure of a 2x2 real matrix A with T_inv @ A @ T diagonal.

    alpha_plus >= alpha_minus (ties within 1e-12 treated as equal);
    lam is the gap alpha_plus - alpha_minus.  T, T_inv are None when
    the eigenvalues are complex or the matrix is defective.
    """

    alpha_plus: float
    alpha_minus: float
    lam: float
    T: Optional[np.ndarray]
    T_inv: Optional[np.ndarray]
    eigenvalues_real: bool
    eigenvalues_distinct: bool
    nonzero: bool
    opposite: bool


def diagonalize(A) -> Diagonalization:
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = 0.25 * tr * tr - det
    if disc < 0.0:
        nan = float("nan")
        return Diagonalization(nan, nan, nan, None, None, False, False, False, False)
    root = math.sqrt(disc)
    ap = 0.5 * tr + root
    am = 0.5 * tr - root
    gap = ap - am
    scale = max(1.0, float(np.abs(A).max()))
    distinct = gap > _TIE
    T: Optional[np.ndarray]
    if distinct:
        if A[0, 1] != 0.0:
            # first row all ones, second row solves the eigenvector relation
            T = np.array([[1.0, 1.0], [(ap - A[0, 0]) / A[0, 1], (am - A[0, 0]) / A[0, 1]]])
        elif A[1, 0] != 0.0:
            T = np.array([[(ap - A[1, 1]) / A[1, 0], (am - A[1, 1]) / A[1, 0]], [1.0, 1.0]])
        elif A[0, 0] >= A[1, 1]:
            T = np.eye(2)
        else:
            T = np.array([[0.0, 1.0], [1.0, 0.0]])
        T_inv = np.linalg.inv(T)
    elif float(np.abs(A - ap * np.eye(2)).max()) <= _TIE * scale:
        T = np.eye(2)
        T_inv = np.eye(2)
    else:
        # defective (Jordan block): no eigenbasis exists
        T = None
        T_inv = None
    nonzero = min(abs(ap), abs(am)) > _TIE * scale
    opposite = abs(ap + am) < _TIE
    return Diagonalization(ap, am, gap, T, T_inv, True, distinct, nonzero, opposite)


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


def diagonal_form(spec: SystemSpec | NormalForm) -> tuple[NormalForm, np.ndarray]:
    """The normal form in the eigenbasis of its dispersion, and P with U = P W.

    W_t = D' W_xxx + Q'(W, W_x) + R' W_x with D' = diag(-alpha_+, -alpha_-),
    where alpha_+ >= alpha_- are the eigenvalues of the dispersion matrix
    -D (the u_t + A u_xxx convention), Q' = einsum(P^-1, Q, P, P) and
    R' = P^-1 R P.  Raises NotApplicable when -D has complex eigenvalues
    or is defective.
    """
    form = lower(spec)
    d = diagonalize(-form.D)
    if not d.eigenvalues_real:
        raise NotApplicable("dispersion matrix has complex eigenvalues")
    if d.T is None:
        raise NotApplicable("dispersion matrix is defective (no eigenbasis)")
    P, P_inv = d.T, d.T_inv
    Q = np.einsum("ia,abc,bj,ck->ijk", P_inv, form.Q, P, P)
    return NormalForm(np.diag([-d.alpha_plus, -d.alpha_minus]), Q, P_inv @ form.R @ P), P


# ---------------------------------------------------------------------------
# Two-speed mixing map and its inverse.


def _mixing_basis(params: GearGrimshaw) -> tuple[Diagonalization, np.ndarray]:
    """The eigenbasis of the cross-dispersion matrix, and the stretches alpha_pm^(1/3)."""
    if params.a3 == 0.0:
        raise NotApplicable("a3 = 0: the system is already decoupled, no mixing map")
    d = diagonalize(gear_grimshaw_as_general(params).dispersion_matrix)
    if not d.nonzero:
        raise SingularTransform(
            f"zero dispersion eigenvalue (alpha_+ = {d.alpha_plus}, alpha_- = {d.alpha_minus}); "
            "the stretched coordinate x / alpha^(1/3) is undefined"
        )
    return d, np.cbrt([d.alpha_plus, d.alpha_minus])


def _checked_grid(a: SpectralField, b: SpectralField, labels: tuple[str, str]) -> Grid:
    """The grid a and b share; warns for each that does not decay at the box boundary."""
    if not a.grid.compatible(b.grid):
        raise ValueError(f"{labels[0]} and {labels[1]} must share a grid")
    for field, label in zip((a, b), labels):
        vals = field.values()
        peak = float(np.abs(vals).max())
        m = max(1, field.grid.n // 16)
        edge = max(float(np.abs(vals[:m]).max()), float(np.abs(vals[-m:]).max()))
        if edge > 1e-12 * peak > 0.0:
            warnings.warn(
                f"{label} does not decay at the box boundary "
                f"(edge/peak = {edge / peak:.2e} > 1e-12); rescaled evaluation wraps",
                DecayViolationWarning,
                stacklevel=3,
            )
    return a.grid


def gg_change_of_variables(
    u0: SpectralField, v0: SpectralField, params: GearGrimshaw
) -> tuple[SpectralField, SpectralField]:
    """Forward mixing map onto the decoupled components: W = P^-1 U.

    P and alpha_+ >= alpha_- come from `diagonalize` of the cross-dispersion
    matrix, and component j of W is read at alpha_j^(1/3) x, so that each
    rides the unit-speed Airy flow.  Negative alpha uses the real cube
    root, so the argument reflects.
    """
    d, stretch = _mixing_basis(params)
    g = _checked_grid(u0, v0, ("u0", "v0"))
    w = [d.T_inv[j] @ [sg.evaluate_at(f, c * g.x) for f in (u0, v0)] for j, c in enumerate(stretch)]
    return sg.forward(w[0], g), sg.forward(w[1], g)


def gg_change_of_variables_inverse(
    ut: SpectralField, vt: SpectralField, params: GearGrimshaw
) -> tuple[SpectralField, SpectralField]:
    """Inverse of the mixing map: U = P W, with w_j read at x / alpha_j^(1/3)."""
    d, stretch = _mixing_basis(params)
    g = _checked_grid(ut, vt, ("ut", "vt"))
    u, v = d.T @ [sg.evaluate_at(f, g.x / c) for f, c in zip((ut, vt), stretch)]
    return sg.forward(u, g), sg.forward(v, g)


# ---------------------------------------------------------------------------
# Amplitude/space/time rescaling of trajectories.


def _lagrange_coeffs(nodes: np.ndarray, t: float) -> np.ndarray:
    w = np.ones(len(nodes))
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            if j != i:
                w[i] *= (t - nodes[j]) / (nodes[i] - nodes[j])
    return w


def _interp_half(traj: Trajectory, tau: float) -> np.ndarray:
    """The half-spectrum row (2, n/2+1) of a trajectory at time tau, by polynomial interpolation."""
    src_times = traj.times
    nt = len(src_times)
    tol = 1e-12 * (1.0 + abs(tau))
    j = int(np.searchsorted(src_times, tau))
    for cand in (j - 1, j):
        if 0 <= cand < nt and abs(src_times[cand] - tau) <= tol:
            return traj.half[cand]
    if tau < src_times[0] - tol or tau > src_times[-1] + tol:
        raise ValueError(
            f"source trajectory [{src_times[0]}, {src_times[-1]}] does not cover t = {tau}"
        )
    k = min(4, nt)
    if k < 2:
        raise ValueError("cannot interpolate inside a single-state trajectory")
    i0 = int(np.clip(j - k // 2, 0, nt - k))
    return np.tensordot(_lagrange_coeffs(src_times[i0 : i0 + k], tau), traj.half[i0 : i0 + k], axes=1)


def scaling_map(traj: Trajectory, lam: float, times=None, out_grid=None) -> Trajectory:
    """Rescale a trajectory by u -> lam^2 u(lam x, lam^3 t).

    The output trajectory lives on a box of length period/lam (so that
    scaled solutions remain periodic) at times t = t_src / lam^3 by
    default.  Spatial values come from exact trigonometric interpolation;
    time values from 4-point polynomial interpolation on the stored
    cadence (exact when the query hits a stored sample).
    """
    if not (lam > 0.0):
        raise ValueError("scaling factor must be positive")
    g = traj.grid
    if out_grid is None:
        out_grid = Grid(g.n, g.period / lam, g.dealias_fraction)
    times = traj.times / lam**3 if times is None else np.asarray(times, dtype=np.float64)
    lam2 = lam * lam
    pts = lam * out_grid.x
    half = np.empty((len(times), 2, out_grid.n // 2 + 1), dtype=np.complex128)
    for i, t in enumerate(times):
        for j, c in enumerate(sg.to_full(_interp_half(traj, lam**3 * float(t)))):
            vals = lam2 * sg.evaluate_at(SpectralField(c, g), pts)
            half[i, j] = sg.to_half(sg.forward(vals, out_grid).coeffs)
    return Trajectory(times, half, out_grid)


# ---------------------------------------------------------------------------
# Nonlinearity coefficients after diagonalizing a cross-coupled system.


@dataclass(frozen=True)
class OffdiagCoeffs:
    """The six constants of the diagonalized nonlinearity.

    C1(V) V_x = prefactor * [[a v1 + b v2, b v1 + c v2],
                             [d v1 + e v2, e v1 + f v2]] V_x,
    so each transformed equation carries only (v1 v1)_x, (v2 v2)_x and
    (v1 v2)_x terms.  structure_defect records how far the computed
    matrix is from that pattern (identically zero up to rounding).
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    prefactor: float
    structure_defect: float


def gg_offdiag_coeffs(spec: GeneralCoupled) -> OffdiagCoeffs:
    if spec.a12 == 0.0:
        raise NotApplicable("a12 = 0: the dispersion matrix is already lower-triangular")
    form, _ = diagonal_form(spec)
    lam = form.D[1, 1] - form.D[0, 0]
    if not lam > _TIE:
        raise NotApplicable("dispersion matrix has a repeated eigenvalue")
    prefactor = spec.a12 / lam
    # M_j[i, k] multiplies d_x v_k in equation i (left-hand side) per unit v_j
    M1, M2 = -form.Q.transpose(1, 0, 2) / prefactor
    defect = max(abs(M1[0, 1] - M2[0, 0]), abs(M1[1, 1] - M2[1, 0]))
    return OffdiagCoeffs(
        a=float(M1[0, 0]),
        b=float(M2[0, 0]),
        c=float(M2[0, 1]),
        d=float(M1[1, 0]),
        e=float(M2[1, 0]),
        f=float(M2[1, 1]),
        prefactor=float(prefactor),
        structure_defect=float(defect),
    )
