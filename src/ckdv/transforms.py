"""Trajectory rescaling: the amplitude/space/time map u -> lam^2 u(lam x, lam^3 t).

`scaling_map` applies it to whole trajectories.  Rescaled spatial
evaluation is exact trigonometric interpolation, so the periodic
surrogate is faithful only for data that decay near the box boundary.
"""

from __future__ import annotations

import numpy as np

from . import grid as sg
from .grid import Grid, SpectralField
from .solver import Trajectory


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

