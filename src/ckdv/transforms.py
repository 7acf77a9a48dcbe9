"""Dispersion-matrix diagonalization and trajectory rescaling.

Two families of coordinate changes live here:

  * eigen-decomposition of a 2x2 third-derivative coupling matrix,
    with the explicit eigenvector convention whose first row is all
    ones when the (1,2) entry is nonzero, and `diagonal_form`, the one
    linear change U = P W that brings any system's normal form to
    diagonal dispersion.  Systems coupled at third order (Gear-Grimshaw
    with a3 != 0, GeneralCoupled with a12 or a21 != 0, Sakovich with a
    non-diagonal inv(A2)) are simulated through it explicitly: map the
    data to W0 = P^-1 U0, evolve W with the diagonal normal form, and
    map back with U = P W;
  * the amplitude/space/time rescaling u -> lam^2 u(lam x, lam^3 t)
    applied to whole trajectories.

Rescaled spatial evaluation is exact trigonometric interpolation, so
the periodic surrogate is faithful only for data that decay near the
box boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import grid as sg
from .grid import Grid, SpectralField
from .solver import Trajectory
from .systems import NormalForm, SystemSpec, lower


class NotApplicable(ValueError):
    """The operation's structural precondition does not hold for this input."""


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


def diagonalize(A) -> Diagonalization:
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    tr = A[0, 0] + A[1, 1]
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = 0.25 * tr * tr - det
    if disc < 0.0:
        nan = float("nan")
        return Diagonalization(nan, nan, nan, None, None, False, False)
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
    return Diagonalization(ap, am, gap, T, T_inv, True, distinct)


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

