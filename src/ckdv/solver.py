"""Time evolution by integrating-factor RK4 and Duhamel fixed-point iteration.

Both routes enter the eigenbasis of the system's dispersion through
`_eigenbasis` (`systems.diagonal_form`, then the dealiased data
W0 = P^-1 U0), evolve W, and return U = P W at every stored sample, so
a system coupled at third order runs like any other.  The linear part is
solved exactly in Fourier space (each mode of w_j rotates by
exp(-i*c_j*xi^3*t), c = diag(D)); the nonlinearity is advanced by
classical RK4 applied to the integrating-factor variable.
`picard_iterate` solves the same problem a second, independent way:
successive substitution into the integral equation
u(t) = U(t)u0 + int_0^t U(t - t') G(t') dt', with the time integral done
by cumulative Simpson quadrature on a stored time grid.  It keeps and
returns only the final iterate, with every distance d_k in its report;
iterate k is the final iterate of a run with n_iters = k.
Agreement between the two routes is a correctness check for both.

Internally both routes hold the stacked half spectrum (modes k = 0..n/2
of w_0 and w_1) and call one `systems.SpectralRhs` per run with `out=`:
IF-RK4 on a (2, n/2+1) stage, Picard's sweep on all (2, nt, n/2+1)
samples.  A `Trajectory` stores u and v in that layout too; full-layout
States are made only when `Trajectory.states` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import grid as sg
from . import systems
from .grid import Grid
from .systems import BlowupDetected, NormalForm, State, SystemSpec


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    cfl_guard: float = 10.0  # max allowed per-step growth of max |u-hat|

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.cfl_guard > 1.0):
            raise ValueError("cfl_guard must exceed 1")


@dataclass(eq=False)
class Trajectory:
    """A sampled solution on one grid.

    `times` has shape (nt,) and strictly increases; `half` has shape
    (nt, 2, n/2+1), the modes k = 0..n/2 of u and v at each time.
    `states` is the full-layout boundary: one State per sample, built
    from `half` on first access and cached.
    """

    times: np.ndarray
    half: np.ndarray
    grid: Grid
    _states: list[State] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        nt = len(self.times) if self.times.ndim == 1 else -1
        if nt < 1 or np.shape(self.half) != (nt, 2, self.grid.n // 2 + 1):
            raise ValueError(
                f"need times (nt,) with nt >= 1 and half (nt, 2, n/2+1) for n={self.grid.n}; "
                f"got {self.times.shape} and {np.shape(self.half)}"
            )
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    @property
    def states(self) -> list[State]:
        if self._states is None:
            self._states = [State.from_half(w, self.grid, float(t)) for w, t in zip(self.half, self.times)]
        return self._states


def _half_phases(grid: Grid, c: tuple[float, float], dt) -> np.ndarray:
    """exp(-i*c_j*xi^3*dt) for both components on the half spectrum: shape
    (2, n/2+1), or (2, nt, n/2+1) for a column dt of nt times.  The Nyquist
    mode does not rotate (`Grid.xi_odd`)."""
    xi = grid.xi_odd[: grid.n // 2 + 1]
    return np.stack([np.exp((-1j * cj * dt) * xi**3) for cj in c])


def _eigenbasis(initial: State, spec: SystemSpec | NormalForm):
    """(kernel, c = diag(D), P, W0 = P^-1 U0) of spec's eigenbasis (`systems.diagonal_form`),
    W0 the dealiased stacked half spectrum of `initial`."""
    form, P = systems.diagonal_form(spec)
    g = initial.grid
    w = np.where(g.keep[: g.n // 2 + 1], initial.half(), 0.0)
    return systems.SpectralRhs(form, g), np.diag(form.D), P, (w if P is None else np.linalg.solve(P, w))


class _GuardedStep:
    """One IF-RK4 step of size dt in the integrating-factor variable, then the
    growth guards on max |coefficient|; built once per (rhs, dt).

    It holds E (the half-step phase), E^2, dt*E, 2*E and the stage buffers,
    calls `rhs` with `out=` (and uses what it returns) and overwrites w in
    place, so a step allocates nothing.  Each product keeps its operand order
    in E^2 w + dt/6 (E^2 k1 + 2E (k2 + k3) + k4): complex products are not
    bitwise commutative, and the result matches the expression bit for bit.

    The step fails when it grows the maximum by more than cfl_guard, or
    past 1e8 times the initial maximum m0.
    BlowupDetected names the guard, the growth ratio and the step index,
    with .time the time the step started from.
    """

    def __init__(self, rhs, E: np.ndarray, dt: float, cfl_guard: float, m0: float):
        self.rhs, self.dt, self.cfl_guard, self.m0 = rhs, dt, cfl_guard, m0
        self.E, self.E2, self.dtE, self.twoE = E, E * E, dt * E, 2.0 * E
        self.k1, self.k2, self.k3, self.k4, self.stage, self.Ew, self.E2w = np.empty((7, *E.shape), E.dtype)
        self.absw = np.empty(E.shape)

    def __call__(self, w: np.ndarray, t: float, index: int, before: float) -> float:
        """Advance w from t by dt in place; before is max |w|, and max |w| after is returned."""
        rhs, dt, E, stage = self.rhs, self.dt, self.E, self.stage
        h = 0.5 * dt
        np.multiply(E, w, out=self.Ew)
        np.multiply(self.E2, w, out=self.E2w)
        k1 = rhs(w, t, out=self.k1)
        np.multiply(E, np.add(w, np.multiply(h, k1, out=stage), out=stage), out=stage)
        k2 = rhs(stage, t + h, out=self.k2)
        np.add(self.Ew, np.multiply(h, k2, out=stage), out=stage)
        k3 = rhs(stage, t + h, out=self.k3)
        np.add(self.E2w, np.multiply(self.dtE, k3, out=stage), out=stage)
        k4 = rhs(stage, t + dt, out=self.k4)
        acc = np.multiply(self.E2, k1, out=k1)
        np.add(acc, np.multiply(self.twoE, np.add(k2, k3, out=k2), out=k2), out=acc)
        np.add(acc, k4, out=acc)
        np.add(self.E2w, np.multiply(dt / 6.0, acc, out=acc), out=w)
        after = np.abs(w, out=self.absw).max()
        if after > 1e8 * self.m0:
            raise BlowupDetected(
                f"growth cap tripped at step {index}: max |coefficient| is {after / self.m0:.2e} "
                "times its initial value, past 1e8",
                time=t,
            )
        if before > 0.0 and after > self.cfl_guard * before:
            raise BlowupDetected(
                f"cfl_guard tripped at step {index}: per-step growth {after / before:.2e} "
                f"exceeds {self.cfl_guard:g}",
                time=t,
            )
        return after


def schedule(T: float, dt: float, sample_dt: float) -> tuple[int, int, int, float]:
    """(steps, samples, stride, remainder) of simulate over a horizon T: `steps` IF-RK4 steps of dt, the last
    `remainder` long if that is > 0.0, and `samples` stored states: the data, every stride-th step before the
    last, and the end.  A horizon or a sampling cadence that simulate cannot use or count in steps is refused first."""
    if not 0.0 <= T < np.inf:
        raise ValueError(f"the horizon T must be finite and nonnegative, got {T!r}")
    if not 0.0 < sample_dt < np.inf:
        raise ValueError(f"sample_dt must be finite and positive, got {sample_dt!r}")
    for name, span in (("the horizon T", T), ("sample_dt", sample_dt)):
        if span / dt == np.inf:
            raise ValueError(f"{name} = {span!r} is more steps of dt = {dt!r} than a float can count")
    n_full = int(np.floor(T / dt + 1e-9))
    remainder = T - n_full * dt
    if remainder < 1e-12 * max(1.0, T):
        remainder = 0.0
    steps = n_full + (remainder > 0.0)
    stride = max(1, int(round(sample_dt / dt)))
    return steps, 1 + max(0, (steps - 1) // stride) + (T > 0.0), stride, remainder


def simulate(
    initial: State,
    spec: SystemSpec | NormalForm,
    T: float,
    config: StepperConfig,
    sample_dt: float = 0.01,
) -> Trajectory:
    """Evolve to time initial.t + T, sampling roughly every sample_dt.

    The samples start with the dealiased initial state; T = 0 gives that
    one sample.  The final time is hit exactly (a short last step if T is
    not a multiple of dt).  Every step is guarded by config.cfl_guard, and
    a mode exceeding 1e8 times the initial coefficient maximum aborts;
    BlowupDetected carries the last completed time.  For a system coupled
    at third order both guards act on the eigenbasis coefficients W.
    The state is advanced in place in one stage workspace per step size;
    only the stored samples are copied out.
    """
    dt = config.dt
    n_steps, n_samples, stride, remainder = schedule(T, dt, sample_dt)
    n_full = n_steps - (remainder > 0.0)
    rhs, c, P, w = _eigenbasis(initial, spec)
    g = initial.grid
    t0 = initial.t
    times = [t0, *(t0 + k * dt for k in range(stride, n_steps, stride))] + ([t0 + T] if T > 0.0 else [])
    half = np.empty((n_samples, *w.shape), dtype=w.dtype)
    half[0] = w

    if T > 0.0:
        before = np.abs(w).max()
        m0 = max(before, 1e-300)
        full = _GuardedStep(rhs, _half_phases(g, c, 0.5 * dt), dt, config.cfl_guard, m0)
        for k in range(1, n_full + 1):
            before = full(w, t0 + (k - 1) * dt, k, before)
            if k % stride == 0 and k < n_steps:
                half[k // stride] = w
        if remainder > 0.0:
            last = _GuardedStep(rhs, _half_phases(g, c, 0.5 * remainder), remainder, config.cfl_guard, m0)
            last(w, t0 + n_full * dt, n_steps, before)
        half[-1] = w
    return Trajectory(times, half if P is None else P @ half, g)


# ---------------------------------------------------------------------------
# Successive substitution into the integral equation.


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


def check_picard(T: float, n_iters: int, time_resolution: int) -> None:
    """Refuse what picard_iterate cannot use; Simpson's rule needs an odd time_resolution."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"the horizon T must be finite and positive, got {T!r}")
    if time_resolution < 9 or time_resolution % 2 == 0:
        raise ValueError(f"time_resolution must be odd and at least 9, got {time_resolution}")
    if n_iters < 2:  # the contraction ratio is fitted to the d_k, and one alone fits to 0, read as converged
        raise ValueError(f"n_iters must be at least 2, got {n_iters}")


def picard_iterate(
    initial: State,
    spec: SystemSpec | NormalForm,
    T: float,
    n_iters: int = 8,
    time_resolution: int = 201,
    s: float = 0.0,
) -> tuple[list[Trajectory], PicardReport]:
    """Iterate the Duhamel map on a stored uniform time grid over [0, T].

    Iterate 0 is the free evolution; each subsequent iterate feeds the
    previous one through u(t) = U(t)u0 + int_0^t U(t-t') G(t') dt',
    with the pulled-back integral int_0^t e^{+i c xi^3 t'} G-hat(t') dt'
    accumulated by cumulative Simpson quadrature.  No time cutoffs are
    applied; the paper's are identically 1 on [0, T] for T <= 1.  The
    iteration runs on W and the distances d_k are measured on U = P W.

    Returns ([final iterate], report): earlier iterates are not kept, so
    a sweep frees its predecessor.  The iteration is deterministic, so
    iterate k (k >= 2) is the final iterate of a run with n_iters = k.
    Divergence is reported, never raised.
    """
    check_picard(T, n_iters, time_resolution)
    rhs, c, P, w0 = _eigenbasis(initial, spec)
    g = initial.grid
    m = g.n // 2 + 1
    times = np.linspace(0.0, T, time_resolution)
    # axes: component, time sample, mode (half spectrum)
    phase = _half_phases(g, c, times[:, None])
    free = phase * w0[:, None, :]
    phase_conj = np.conj(phase)
    rhs_out = np.empty_like(free)  # the sweep's RHS, then its integrand, then new - cur
    # H^s weights of the half spectrum: modes 0 < k < n/2 stand for +-k
    hs_weight = (1.0 + g.xi[:m] ** 2) ** s * g.dxi
    hs_weight[1:-1] *= 2.0

    def to_u(w: np.ndarray) -> np.ndarray:
        # U = P W on (component, time, mode) arrays
        return w if P is None else np.tensordot(P, w, axes=1)

    def sup_hs_distance(diff: np.ndarray) -> float:
        mag = np.abs(to_u(diff))  # squared and weighted in place; freed before the quadrature's peak
        norms = np.sqrt(np.sum(np.multiply(hs_weight, np.square(mag, out=mag), out=mag), axis=-1))
        return float(np.max(norms[0] + norms[1]))

    cur = free
    diffs: list[float] = []
    diverged = False
    for _ in range(n_iters):
        # overflow of a diverging iterate is a result (reported), not an error
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                integrand = rhs(cur, times, out=rhs_out)
                np.multiply(phase_conj, integrand, out=integrand)
                # the accumulator becomes the new iterate; the previous one is freed when cur moves on
                new = sg.cumulative_simpson_c(integrand, times[1] - times[0], axis=1)
                np.add(free, np.multiply(phase, new, out=new), out=new)
                d = sup_hs_distance(np.subtract(new, cur, out=rhs_out))
        except systems.BlowupDetected:
            d = np.inf
        if not np.isfinite(d):
            diverged = True
            break
        diffs.append(d)
        cur = new

    ratios = [
        diffs[k + 1] / diffs[k] for k in range(len(diffs) - 1) if diffs[k] > 0.0
    ]
    contraction = float("inf") if (diverged and not diffs) else _fit_ratio(diffs)
    if diverged:
        contraction = max(contraction, 1.0)
    converged = bool(
        not diverged and diffs and (diffs[-1] == 0.0 or contraction < 1.0)
    )
    # (component, time, mode) -> (time, component, mode), a view when P is None
    final = Trajectory(times, np.moveaxis(to_u(cur), 0, 1), g)
    return [final], PicardReport(diffs, ratios, contraction, converged)
