"""Time evolution by integrating-factor RK4 and Duhamel fixed-point iteration.

The linear part of every diagonal-dispersion system is solved exactly
in Fourier space (each mode rotates by exp(-i*c*xi^3*t)); the
nonlinearity is advanced by classical RK4 applied to the
integrating-factor variable.  `picard_iterate` solves the same problem
a second, independent way: successive substitution into the integral
equation u(t) = U(t)u0 + int_0^t U(t - t') G(t') dt', with the time
integral done by cumulative Simpson quadrature on a stored time grid.
Agreement between the two routes is a correctness check for both.

Internally both routes hold the stacked half spectrum (modes k = 0..n/2
of u and v) and share one `systems.SpectralRhs` kernel; full-layout
States are made only when a result is stored, observed or returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.integrate import cumulative_simpson

from . import bump
from . import grid as sg
from . import systems
from .grid import Grid, SpectralField
from .systems import NOT_DIAGONAL, BlowupDetected, State, SystemSpec


class NotDiagonalError(ValueError):
    """The system's third-derivative coupling matrix is not diagonal."""


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    scheme: str = "IFRK4"
    cfl_guard: float = 10.0  # max allowed per-step growth of max |u-hat|

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if self.scheme != "IFRK4":
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (self.cfl_guard > 1.0):
            raise ValueError("cfl_guard must exceed 1")


@dataclass
class Trajectory:
    states: list[State]
    spec: SystemSpec

    def __post_init__(self):
        if not self.states:
            raise ValueError("trajectory needs at least one state")
        g = self.states[0].grid
        prev = None
        for st in self.states:
            if not st.grid.compatible(g):
                raise ValueError("all states must share one grid")
            if prev is not None and not (st.t > prev):
                raise ValueError("times must be strictly increasing")
            prev = st.t

    @property
    def times(self) -> np.ndarray:
        return np.array([st.t for st in self.states])

    @property
    def grid(self) -> Grid:
        return self.states[0].grid


def _diag_coeffs(spec: SystemSpec) -> tuple[float, float]:
    coeffs = systems.dispersion_coeffs(spec)
    if coeffs is NOT_DIAGONAL:
        raise NotDiagonalError(
            "third-derivative coupling is not diagonal; diagonalize first"
        )
    return coeffs


def _phases(xi: np.ndarray, c: float, dt: float) -> np.ndarray:
    return np.exp((-1j * c * dt) * xi**3)


def _half_phases(grid: Grid, c: tuple[float, float], dt) -> np.ndarray:
    """exp(-i*c_j*xi^3*dt) for both components on the half spectrum: shape
    (2, n/2+1), or (2, nt, n/2+1) for a column dt of nt times."""
    xi = grid.xi[: grid.n // 2 + 1]
    return np.stack([_phases(xi, cj, dt) for cj in c])


def linear_propagate(state: State, spec: SystemSpec, dt: float) -> State:
    """Advance the linear flow exactly: each mode gains exp(-i*c*xi^3*dt)."""
    c_u, c_v = _diag_coeffs(spec)
    g = state.grid
    u = SpectralField(state.u.coeffs * _phases(g.xi, c_u, dt), g)
    v = SpectralField(state.v.coeffs * _phases(g.xi, c_v, dt), g)
    return State(u, v, state.t + dt)


def _to_half(state: State) -> np.ndarray:
    return np.stack([sg.to_half(state.u.coeffs), sg.to_half(state.v.coeffs)])


def _to_state(w: np.ndarray, g: Grid, t: float) -> State:
    u, v = sg.to_full(w)
    return State(SpectralField(u, g), SpectralField(v, g), t)


def _ifrk4_step(rhs, w, t, dt, E, E2):
    """One RK4 step in the integrating-factor variable; E = half-step phase, E2 = E*E."""
    k1 = rhs(w, t)
    k2 = rhs(E * (w + 0.5 * dt * k1), t + 0.5 * dt)
    k3 = rhs(E * w + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(E2 * w + dt * E * k3, t + dt)
    return E2 * w + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)


def _guarded_step(rhs, w, t, dt, E, E2, index: int, cfl_guard: float, m0: float | None = None):
    """_ifrk4_step, then the growth guards on max |coefficient|.

    The step fails when it grows the maximum by more than cfl_guard and,
    given the initial maximum m0, when the maximum passes 1e8*m0.
    BlowupDetected names the guard, the growth ratio and the step index,
    with .time the time the step started from.
    """
    before = np.abs(w).max()
    w = _ifrk4_step(rhs, w, t, dt, E, E2)
    after = np.abs(w).max()
    if m0 is not None and after > 1e8 * m0:
        raise BlowupDetected(
            f"growth cap tripped at step {index}: max |coefficient| is {after / m0:.2e} "
            "times its initial value, past 1e8",
            time=t,
        )
    if before > 0.0 and after > cfl_guard * before:
        raise BlowupDetected(
            f"cfl_guard tripped at step {index}: per-step growth {after / before:.2e} "
            f"exceeds {cfl_guard:g}",
            time=t,
        )
    return w


def step(state: State, spec: SystemSpec, config: StepperConfig) -> State:
    """One IF-RK4 step of size config.dt, guarded by config.cfl_guard."""
    c = _diag_coeffs(spec)
    g = state.grid
    dt = config.dt
    E = _half_phases(g, c, 0.5 * dt)
    rhs = systems.SpectralRhs(spec, g)
    w = _guarded_step(rhs, _to_half(state), state.t, dt, E, E * E, 1, config.cfl_guard)
    return _to_state(w, g, state.t + dt)


def simulate(
    initial: State,
    spec: SystemSpec,
    T: float,
    config: StepperConfig,
    observers: Iterable[Callable[[State], None]] = (),
    sample_dt: float = 0.01,
) -> Trajectory:
    """Evolve to time initial.t + T, sampling roughly every sample_dt.

    The final time is hit exactly (a short last step if T is not a
    multiple of dt).  Observers are called on each stored snapshot.
    Every step is guarded by config.cfl_guard, and a mode exceeding 1e8
    times the initial coefficient maximum aborts; BlowupDetected carries
    the last completed time.
    """
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    c = _diag_coeffs(spec)
    g = initial.grid
    observers = tuple(observers)
    stored: list[State] = []

    def record(w, t):
        st = _to_state(w, g, t)
        stored.append(st)
        for obs in observers:
            obs(st)

    w = np.where(g.keep[: g.n // 2 + 1], _to_half(initial), 0.0)
    t0 = initial.t
    record(w, t0)
    if T == 0.0:
        return Trajectory(stored, spec)

    dt = config.dt
    n_full = int(np.floor(T / dt + 1e-9))
    remainder = T - n_full * dt
    if remainder < 1e-12 * max(1.0, T):
        remainder = 0.0
    stride = max(1, int(round(sample_dt / dt)))

    rhs = systems.SpectralRhs(spec, g)
    E = _half_phases(g, c, 0.5 * dt)
    E2 = E * E
    m0 = max(np.abs(w).max(), 1e-300)
    guard = config.cfl_guard

    for k in range(1, n_full + 1):
        w = _guarded_step(rhs, w, t0 + (k - 1) * dt, dt, E, E2, k, guard, m0)
        if k % stride == 0 and not (k == n_full and remainder == 0.0):
            record(w, t0 + k * dt)
    if remainder > 0.0:
        E_r = _half_phases(g, c, 0.5 * remainder)
        w = _guarded_step(rhs, w, t0 + n_full * dt, remainder, E_r, E_r * E_r, n_full + 1, guard, m0)
    record(w, t0 + T)
    return Trajectory(stored, spec)


# ---------------------------------------------------------------------------
# Successive substitution into the integral equation.


def _cumulative_simpson_c(y: np.ndarray, dx: float, axis: int) -> np.ndarray:
    # scipy's cumulative_simpson drops the imaginary part of complex input,
    # so integrate the interleaved real and imaginary parts as real columns
    re_im = np.ascontiguousarray(y).view(np.float64)
    out = cumulative_simpson(re_im, dx=dx, axis=axis, initial=0.0)
    return np.ascontiguousarray(out).view(np.complex128)


@dataclass
class PicardReport:
    diffs: list[float]  # d_k = sup_t H^s distance between iterates k and k+1
    ratios: list[float]  # d_{k+1} / d_k where defined
    contraction_ratio: float  # log-linear fit of d_k decay (0 when degenerate)
    converged: bool


def _fit_ratio(diffs: Sequence[float]) -> float:
    pos = [(k, d) for k, d in enumerate(diffs) if d > 0.0]
    if len(pos) < 2:
        return 0.0
    ks = np.array([k for k, _ in pos], dtype=np.float64)
    ys = np.log([d for _, d in pos])
    slope = np.polyfit(ks, ys, 1)[0]
    return float(np.exp(slope))


def picard_iterate(
    initial: State,
    spec: SystemSpec,
    T: float,
    n_iters: int = 8,
    time_resolution: int = 201,
    s: float = 0.0,
    apply_cutoffs: bool = False,
) -> tuple[list[Trajectory], PicardReport]:
    """Iterate the Duhamel map on a stored uniform time grid over [0, T].

    Iterate 0 is the free evolution; each subsequent iterate feeds the
    previous one through u(t) = U(t)u0 + int_0^t U(t-t') G(t') dt',
    with the pulled-back integral int_0^t e^{+i c xi^3 t'} G-hat(t') dt'
    accumulated by cumulative Simpson quadrature.  With apply_cutoffs
    the free term is multiplied by the unit bump and the integral term
    by its T-rescaling; both are identically 1 on [0, T] for T <= 1.

    Divergence is reported, never raised.
    """
    if not (T > 0.0):
        raise ValueError("T must be positive")
    if time_resolution < 9 or time_resolution % 2 == 0:
        raise ValueError("time_resolution must be odd and at least 9")
    if n_iters < 1:
        raise ValueError("n_iters must be at least 1")
    c = _diag_coeffs(spec)
    g = initial.grid
    m = g.n // 2 + 1
    nt = time_resolution
    times = np.linspace(0.0, T, nt)

    w0 = np.where(g.keep[:m], _to_half(initial), 0.0)
    # axes: component, time sample, mode (half spectrum)
    phase = _half_phases(g, c, times[:, None])
    if apply_cutoffs:
        free_w = bump.psi(times)[:, None]
        duh_w = bump.psi_T(times, T)[:, None]
    else:
        free_w = 1.0
        duh_w = 1.0

    free = free_w * (phase * w0[:, None, :])
    rhs = systems.SpectralRhs(spec, g)
    # H^s weights of the half spectrum: modes 0 < k < n/2 stand for +-k
    hs_weight = (1.0 + g.xi[:m] ** 2) ** s * g.dxi
    hs_weight[1:-1] *= 2.0

    def as_traj(w: np.ndarray) -> Trajectory:
        full = sg.to_full(w)
        sts = [
            State(SpectralField(full[0, i], g), SpectralField(full[1, i], g), float(times[i]))
            for i in range(nt)
        ]
        return Trajectory(sts, spec)

    def sup_hs_distance(a: np.ndarray, b: np.ndarray) -> float:
        norms = np.sqrt(np.sum(hs_weight * np.abs(a - b) ** 2, axis=-1))
        return float(np.max(norms[0] + norms[1]))

    cur = free
    iterates = [as_traj(cur)]
    diffs: list[float] = []
    diverged = False
    for _ in range(n_iters):
        # overflow of a diverging iterate is a result (reported), not an error
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                integrand = np.conj(phase) * rhs(cur, times)
                acc = _cumulative_simpson_c(integrand, times[1] - times[0], axis=1)
                new = free + duh_w * (phase * acc)
                d = sup_hs_distance(new, cur)
        except systems.BlowupDetected:
            diverged = True
            break
        if not np.isfinite(d):
            diverged = True
            break
        diffs.append(d)
        cur = new
        iterates.append(as_traj(cur))

    ratios = [
        diffs[k + 1] / diffs[k] for k in range(len(diffs) - 1) if diffs[k] > 0.0
    ]
    contraction = float("inf") if (diverged and not diffs) else _fit_ratio(diffs)
    if diverged:
        contraction = max(contraction, 1.0)
    converged = bool(
        not diverged and diffs and (diffs[-1] == 0.0 or contraction < 1.0)
    )
    return iterates, PicardReport(diffs, ratios, contraction, converged)
