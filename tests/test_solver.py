"""Stepper and the integral-equation iteration."""

import itertools
import tracemalloc

import numpy as np
import pytest

from ckdv import (
    BlowupDetected,
    GearGrimshaw,
    HirotaSatsuma,
    State,
    StepperConfig,
    Trajectory,
    field_from_callable,
    hs_as_kdv,
    inverse,
    picard_iterate,
    simulate,
    zero_field,
)
from ckdv import grid as sg
from ckdv import solver
from ckdv.diagnostics import COLUMNS, collect, sobolev_norm
from ckdv.grid import SQRT_2PI, Grid, SpectralField, cumulative_simpson_c, dealias, hermitian_defect, to_full, to_half
from ckdv.systems import SpectralRhs, diagonal_form, lower, nonlinear_rhs


def soliton(c, x):
    return 0.5 * c / np.cosh(0.5 * np.sqrt(c) * x) ** 2


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(0.0)
    with pytest.raises(ValueError):
        StepperConfig(-1e-3)
    with pytest.raises(ValueError):
        StepperConfig(1e-3, cfl_guard=1.0)
    with pytest.raises(TypeError):
        StepperConfig(1e-3, scheme="IFRK4")  # IF-RK4 is the only scheme; there is no option


def test_trajectory_validation(grid64):
    half = np.zeros((3, 2, grid64.n // 2 + 1), dtype=complex)
    assert Trajectory([0.0, 0.5, 1.0], half, grid64).half is half
    # a trajectory carries no system spec
    with pytest.raises(TypeError):
        Trajectory([0.0, 0.5, 1.0], half, grid64, HirotaSatsuma(1.0, 1.0))
    for times, h in (
        ([0.0, 1.0, 0.5], half),  # not increasing
        ([0.0, 0.0, 1.0], half),  # equal times
        ([0.0, float("nan"), 1.0], half),
        ([0.0, 0.5], half),  # one time short
        ([], half[:0]),
        ([0.0, 0.5, 1.0], half[..., :-1]),  # not n/2+1 modes
        ([0.0, 0.5, 1.0], half[:, :1]),  # one component
    ):
        with pytest.raises(ValueError):
            Trajectory(times, h, grid64)


def mix(M, st):
    """The State with (u, v) coefficients replaced by M @ (u, v)."""
    u, v = np.tensordot(M, np.stack([st.u.coeffs, st.v.coeffs]), axes=1)
    return State(SpectralField(u, st.grid), SpectralField(v, st.grid), st.t)


def test_coupled_simulate_matches_the_diagonal_form_recipe():
    # the reference maps the data to W0 = P^-1 U0 by hand, evolves W with the
    # diagonal normal form and reads U = P W at every sample
    g = Grid(64, 8.0 * np.pi)
    gg = GearGrimshaw(0.7, 0.3, 0.5, 2.0, 0.5)
    form, P = diagonal_form(gg)
    st = State(
        field_from_callable(lambda x: np.exp(-((x / 1.5) ** 2)), g),
        field_from_callable(lambda x: 0.5 * np.exp(-(((x - 2.0) / 2.0) ** 2)), g),
    )
    cfg = StepperConfig(1e-3)
    got = simulate(st, gg, 0.1, cfg, sample_dt=0.02)
    want = simulate(mix(np.linalg.inv(P), st), form, 0.1, cfg, sample_dt=0.02)
    assert np.array_equal(got.times, want.times)
    assert np.max(np.abs(got.half - np.einsum("ij,tjk->tik", P, want.half))) < 1e-13
    assert simulate(st, gg, 0.0, cfg).half.shape == (1, 2, g.n // 2 + 1)


def test_cross_coupled_gear_grimshaw_conserves_phi3():
    # a3 != 0: simulate runs in the eigenbasis of the dispersion and returns (u, v)
    g = Grid(256, 8.0 * np.pi)
    gg = GearGrimshaw(0.7, 0.3, 0.5, 2.0, 0.5)
    u0 = field_from_callable(lambda x: np.exp(-((x / 1.5) ** 2)), g)
    v0 = field_from_callable(lambda x: 0.5 * np.exp(-(((x - 2.0) / 2.0) ** 2)), g)
    traj = simulate(State(u0, v0), gg, 1.0, StepperConfig(2e-4), sample_dt=0.1)
    invariants = collect(traj, gg)[:, [COLUMNS.index(f"phi{i}") for i in (1, 2, 3, 4)]]
    assert len(invariants) == 11
    drift = np.max(np.abs(invariants - invariants[0]), axis=0) / np.abs(invariants[0])
    assert drift[2] < 1e-8 and drift[3] < 1e-8  # phi3 and phi4, which carries the a3 term


def test_soliton_transport():
    # the one-soliton reduction: exact profile translates at speed c
    c = 4.0
    g = Grid(256, 12.0 * np.pi)
    w0 = field_from_callable(lambda x: soliton(c, x), g)
    st = hs_as_kdv(w0, a=-1.0)
    spec = HirotaSatsuma(-1.0, 1.0)
    T = 0.25
    traj = simulate(st, spec, T, StepperConfig(1e-3), sample_dt=T)
    final = traj.states[-1]
    # u(x, t) = w(-x, -t) = soliton(c, -x + c t), even in its argument
    want = soliton(c, g.x - c * T)
    err = np.max(np.abs(inverse(final.u) - want))
    assert err < 1e-6
    assert np.max(np.abs(inverse(final.v))) < 1e-14


def test_convergence_order_is_fourth():
    g = Grid(128, 8.0 * np.pi)
    spec = HirotaSatsuma(-0.5, 1.0)
    u0 = field_from_callable(lambda x: np.exp(-((x / 1.5) ** 2)), g)
    v0 = field_from_callable(lambda x: 0.4 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g)
    st = State(u0, v0)
    T = 0.2

    def final_u(dt):
        return simulate(st, spec, T, StepperConfig(dt), sample_dt=T).states[-1].u.coeffs

    ref = final_u(2.5e-4)
    errs = [np.max(np.abs(final_u(dt) - ref)) for dt in (4e-3, 2e-3)]
    order = np.log2(errs[0] / errs[1])
    assert 3.5 < order < 4.5


def test_simulate_sampling_cadence(grid64):
    st = State(zero_field(grid64), zero_field(grid64))
    spec = HirotaSatsuma(1.0, 1.0)
    traj = simulate(st, spec, 0.5, StepperConfig(0.1), sample_dt=0.2)
    assert np.allclose(traj.times, [0.0, 0.2, 0.4, 0.5])
    short = simulate(st, spec, 0.0, StepperConfig(0.1))
    assert len(short.states) == 1
    with pytest.raises(ValueError):
        simulate(st, spec, -0.1, StepperConfig(0.1))


@pytest.mark.parametrize(
    "call, word",
    [
        (lambda st, spec: simulate(st, spec, np.nan, StepperConfig(0.1)), "T must be finite"),
        (lambda st, spec: simulate(st, spec, np.inf, StepperConfig(0.1)), "T must be finite"),
        (lambda st, spec: simulate(st, spec, 0.5, StepperConfig(0.1), sample_dt=np.nan), "sample_dt must be"),
        (lambda st, spec: simulate(st, spec, 0.5, StepperConfig(0.1), sample_dt=np.inf), "sample_dt must be"),
        (lambda st, spec: simulate(st, spec, 0.5, StepperConfig(0.1), sample_dt=-1.0), "sample_dt must be"),
        (lambda st, spec: simulate(st, spec, 0.5, StepperConfig(0.1), sample_dt=0.0), "sample_dt must be"),
        (lambda st, spec: picard_iterate(st, spec, np.inf), "T must be finite"),
        (lambda st, spec: picard_iterate(st, spec, np.nan), "T must be finite"),
    ],
)
def test_nonfinite_horizon_or_cadence_is_rejected_before_any_work(grid64, monkeypatch, call, word):
    monkeypatch.setattr(solver, "_eigenbasis", None)  # the first piece of work either route does
    with pytest.raises(ValueError, match=word):
        call(State(zero_field(grid64), zero_field(grid64)), HirotaSatsuma(1.0, 1.0))


@pytest.mark.parametrize(
    "T, dt, sample_dt",
    [
        (0.25, 0.1, 0.1),  # a short last step of 0.05
        (0.5, 0.05, 0.15),  # every third step stored, then the end
        (0.45, 0.05, 0.15),  # the last step on the stride, stored once
        (0.3, 0.1, 0.01),  # sample_dt < dt: every step stored
        (0.0, 0.1, 0.01),  # T = 0: the data alone
    ],
)
def test_schedule_counts_the_steps_and_samples_simulate_takes(grid64, monkeypatch, T, dt, sample_dt):
    taken = []
    step = solver._GuardedStep.__call__
    monkeypatch.setattr(solver._GuardedStep, "__call__", lambda self, *args: taken.append(args) or step(self, *args))
    st = State(zero_field(grid64), zero_field(grid64))
    traj = simulate(st, HirotaSatsuma(1.0, 1.0), T, StepperConfig(dt), sample_dt=sample_dt)
    assert solver.schedule(T, dt, sample_dt)[:2] == (len(taken), len(traj.times))


def test_simulate_hits_fractional_final_time(grid64):
    st = State(zero_field(grid64), zero_field(grid64))
    spec = HirotaSatsuma(1.0, 1.0)
    traj = simulate(st, spec, 0.25, StepperConfig(0.1), sample_dt=0.1)
    assert traj.times[-1] == pytest.approx(0.25, abs=1e-12)


def test_step_growth_guard():
    # a large-amplitude state at a step size far beyond stability
    g = Grid(128, 8.0 * np.pi)
    big = field_from_callable(lambda x: 50.0 * np.cos(x), g)
    st = State(big, zero_field(g))
    cfg = StepperConfig(0.1, cfl_guard=1.5)
    with pytest.raises(BlowupDetected):
        simulate(st, HirotaSatsuma(-1.0, 1.0), cfg.dt, cfg)


def test_simulate_blowup_reports_time():
    g = Grid(128, 8.0 * np.pi)
    big = field_from_callable(lambda x: 60.0 * np.exp(-(x**2)), g)
    st = State(big, zero_field(g))
    with pytest.raises(BlowupDetected) as exc:
        simulate(st, HirotaSatsuma(-1.0, 1.0), 1.0, StepperConfig(5e-2))
    assert exc.value.time is not None


def test_picard_validation(grid64):
    st = State(zero_field(grid64), zero_field(grid64))
    spec = HirotaSatsuma(-1.0, 1.0)
    with pytest.raises(ValueError):
        picard_iterate(st, spec, 0.0)
    with pytest.raises(ValueError):
        picard_iterate(st, spec, 0.1, time_resolution=40)  # even
    with pytest.raises(ValueError):
        picard_iterate(st, spec, 0.1, time_resolution=7)  # too few
    for n_iters in (0, 1):  # one sweep's single distance would fit to ratio 0, "converged"
        with pytest.raises(ValueError, match="n_iters must be at least 2"):
            picard_iterate(st, spec, 0.1, n_iters=n_iters)
    with pytest.raises(TypeError):
        picard_iterate(st, spec, 0.1, apply_cutoffs=True)  # the cutoffs are not an option


def test_picard_contracts_for_small_data():
    g = Grid(64, 8.0 * np.pi)
    u0 = field_from_callable(lambda x: 0.2 * np.exp(-((x / 1.5) ** 2)), g)
    v0 = field_from_callable(lambda x: 0.1 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g)
    st = State(u0, v0)
    iters, report = picard_iterate(st, HirotaSatsuma(-0.5, 1.0), 0.2, n_iters=8, time_resolution=41)
    assert report.converged
    assert report.contraction_ratio < 0.5
    assert len(iters) == 1  # only the final iterate is kept
    assert report.diffs[0] > report.diffs[-1]
    # every iterate starts from the data: at t=0 the final one equals the dealiased data
    start = iters[-1].states[0]
    assert np.max(np.abs(start.u.coeffs - dealias(u0).coeffs)) < 1e-12
    assert np.max(np.abs(start.v.coeffs - dealias(v0).coeffs)) < 1e-12


def test_picard_diffs_are_sup_hs_distances():
    g = Grid(64, 8.0 * np.pi)
    st = State(
        field_from_callable(lambda x: 0.3 * np.exp(-((x / 1.5) ** 2)), g),
        field_from_callable(lambda x: 0.2 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g),
    )
    s, spec, times = 1.0, HirotaSatsuma(-0.5, 1.0), np.linspace(0.0, 0.2, 21)
    _, report = picard_iterate(st, spec, 0.2, n_iters=2, time_resolution=21, s=s)
    rows = [Trajectory(times, w, g).states for w in picard_reference(st, spec, 0.2, 2, 21)]
    assert len(report.diffs) == 2
    for k, d in enumerate(report.diffs):
        want = max(
            sobolev_norm(SpectralField(a.u.coeffs - b.u.coeffs, g), s)
            + sobolev_norm(SpectralField(a.v.coeffs - b.v.coeffs, g), s)
            for a, b in zip(rows[k + 1], rows[k])
        )
        assert d == pytest.approx(want, rel=1e-12)


def test_picard_divergence_reported_not_raised():
    g = Grid(64, 8.0 * np.pi)
    u0 = field_from_callable(lambda x: 30.0 * np.exp(-(x**2)), g)
    st = State(u0, zero_field(g))
    iters, report = picard_iterate(st, HirotaSatsuma(-0.5, 1.0), 1.0, n_iters=10, time_resolution=65)
    assert not report.converged
    assert report.contraction_ratio >= 1.0


def test_picard_matches_stepper_on_small_data():
    g = Grid(64, 8.0 * np.pi)
    u0 = field_from_callable(lambda x: 0.2 * np.exp(-((x / 1.5) ** 2)), g)
    st = State(u0, zero_field(g))
    spec = HirotaSatsuma(-0.5, 1.0)
    T = 0.2
    iters, report = picard_iterate(st, spec, T, n_iters=12, time_resolution=81)
    assert report.converged
    traj = simulate(st, spec, T, StepperConfig(1e-3), sample_dt=T)
    pu = iters[-1].states[-1].u.coeffs
    su = traj.states[-1].u.coeffs
    assert np.max(np.abs(pu - su)) < 1e-6


def count_states(monkeypatch) -> list:
    """A list that grows by one for each State the solver module constructs."""
    made = []

    class Counted(State):
        def __post_init__(self):
            made.append(self.t)
            super().__post_init__()

    monkeypatch.setattr(solver, "State", Counted)
    return made


def small_pair(g):
    return State(
        field_from_callable(lambda x: 0.2 * np.exp(-((x / 1.5) ** 2)), g),
        field_from_callable(lambda x: 0.1 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g),
    )


def test_picard_builds_no_states(monkeypatch):
    st = small_pair(Grid(64, 8.0 * np.pi))
    made = count_states(monkeypatch)
    iters, report = picard_iterate(st, HirotaSatsuma(-0.5, 1.0), 0.2, n_iters=24, time_resolution=321)
    assert report.converged and len(iters) == 1
    assert made == []  # not one per iterate and sample
    assert len(iters[-1].states) == 321 and len(made) == 321


def test_picard_states_are_the_per_sample_states():
    g = Grid(64, 8.0 * np.pi)
    T, nt = 0.2, 21
    iters, _ = picard_iterate(small_pair(g), HirotaSatsuma(-0.5, 1.0), T, n_iters=3, time_resolution=nt)
    times = np.linspace(0.0, T, nt)
    for it in iters:
        # each iterate wraps the (component, time, mode) array the iteration holds, without a copy
        w = np.moveaxis(it.half, 1, 0)
        assert w.flags.c_contiguous and it.half.base is not None
        full = to_full(w)
        assert len(it.states) == nt
        for i, got in enumerate(it.states):
            assert np.array_equal(got.u.coeffs, full[0, i]) and np.array_equal(got.v.coeffs, full[1, i])
            assert got.t == float(times[i]) and got.grid is g


def test_simulate_builds_states_only_on_demand(monkeypatch, grid128, gaussian128):
    st = State(gaussian128, zero_field(grid128))
    made = count_states(monkeypatch)
    traj = simulate(st, HirotaSatsuma(-1.0, 1.0), 0.05, StepperConfig(5e-3), sample_dt=0.01)
    assert made == [] and traj.half.shape == (6, 2, grid128.n // 2 + 1)
    states = traj.states
    assert len(made) == 6 and [s.t for s in states] == list(traj.times)
    assert traj.states is states and len(made) == 6  # cached


# ---------------------------------------------------------------------------
# The half-spectrum kernel against a full-layout reference.

def pair_state(g, t=0.0):
    u = field_from_callable(lambda x: 0.6 * np.exp(-((x / 1.5) ** 2)), g)
    v = field_from_callable(lambda x: 0.3 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g)
    return State(u, v, t)


def full_layout_ifrk4(st, spec, dt, n_steps):
    """IF-RK4 on full-layout coefficients, over the public nonlinear_rhs."""
    g = st.grid
    # odd-derivative convention: the Nyquist mode (k = n/2) does not rotate
    xi = np.where(g.k == g.n // 2, 0.0, g.xi)
    E = np.stack([np.exp((-1j * c * 0.5 * dt) * xi**3) for c in np.diag(lower(spec).D)])
    E2 = E * E

    def rhs(w, t):
        du, dv = nonlinear_rhs(spec, State(SpectralField(w[0], g), SpectralField(w[1], g), t))
        return np.stack([du.coeffs, dv.coeffs])

    w = np.stack([dealias(st.u).coeffs, dealias(st.v).coeffs])
    t = st.t
    for _ in range(n_steps):
        k1 = rhs(w, t)
        k2 = rhs(E * (w + 0.5 * dt * k1), t + 0.5 * dt)
        k3 = rhs(E * w + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(E2 * w + dt * E * k3, t + dt)
        w = E2 * w + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
        t += dt
    return w


def test_simulate_matches_full_layout_ifrk4(five_systems):
    g = Grid(64, 8.0 * np.pi)
    st = pair_state(g, t=0.1)
    dt, n_steps = 2e-3, 20
    for name, spec in five_systems.items():
        final = simulate(st, spec, n_steps * dt, StepperConfig(dt), sample_dt=1.0).states[-1]
        want = full_layout_ifrk4(st, spec, dt, n_steps)
        got = np.stack([final.u.coeffs, final.v.coeffs])
        assert final.t == pytest.approx(st.t + n_steps * dt)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_snapshots_are_full_layout_and_hermitian(grid128):
    spec = HirotaSatsuma(-0.5, 1.0)
    traj = simulate(pair_state(grid128), spec, 0.05, StepperConfig(5e-3), sample_dt=0.01)
    assert traj.states is traj.states  # built once, then cached
    assert [st.t for st in traj.states] == list(traj.times)
    for st in traj.states:
        for f in (st.u, st.v):
            assert f.coeffs.shape == (grid128.n,)
            assert hermitian_defect(f) <= 1e-14
    cfg = StepperConfig(5e-3)
    out = simulate(traj.states[-1], spec, cfg.dt, cfg).states[-1]
    assert out.u.coeffs.shape == (grid128.n,) and hermitian_defect(out.u) <= 1e-14


def test_batched_rhs_matches_per_sample(five_systems):
    g = Grid(64, 8.0 * np.pi)
    times = np.linspace(0.0, 0.4, 7)
    for name, spec in five_systems.items():
        u, v = pair_state(g).u, dealias(pair_state(g).v)
        states = [State(dealias(SpectralField((1.0 + t) * u.coeffs, g)), v, t) for t in times]
        w = np.stack([[to_half(s.u.coeffs) for s in states], [to_half(s.v.coeffs) for s in states]])
        got = SpectralRhs(spec, g)(w, times)
        assert got.shape == w.shape
        for i, s in enumerate(states):
            du, dv = nonlinear_rhs(spec, s)
            want = np.stack([to_half(du.coeffs), to_half(dv.coeffs)])
            assert np.max(np.abs(got[:, i] - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_batched_rhs_reports_first_nonfinite_time(grid64):
    w = np.zeros((2, 5, grid64.n // 2 + 1), dtype=np.complex128)
    w[1, 3, 2] = np.nan
    with pytest.raises(BlowupDetected) as exc:
        SpectralRhs(HirotaSatsuma(1.0, 1.0), grid64)(w, np.arange(5) * 0.5)
    assert exc.value.time == 1.5


def test_nonfinite_state_raises_with_time(grid64):
    bad = zero_field(grid64)
    bad.coeffs[3] = np.nan
    st = State(bad, zero_field(grid64), 0.3)
    spec = HirotaSatsuma(1.0, 1.0)
    cfg = StepperConfig(1e-3)
    with pytest.raises(BlowupDetected) as exc:
        simulate(st, spec, cfg.dt, cfg)
    assert exc.value.time == 0.3
    with pytest.raises(BlowupDetected) as exc:
        simulate(st, spec, 0.01, StepperConfig(1e-3))
    assert exc.value.time == 0.3


def test_guard_messages_name_guard_ratio_and_step():
    g = Grid(128, 8.0 * np.pi)
    big = field_from_callable(lambda x: 50.0 * np.cos(x), g)
    st = State(big, zero_field(g), 0.2)
    # a step short enough that the per-step growth (~470x) stays below the 1e8 growth cap
    cfg = StepperConfig(0.01, cfl_guard=1.5)
    with pytest.raises(BlowupDetected) as exc:
        simulate(st, HirotaSatsuma(-1.0, 1.0), cfg.dt, cfg)
    msg = str(exc.value)
    assert "cfl_guard" in msg and "step 1" in msg and "growth" in msg
    assert exc.value.time == 0.2
    blow = State(field_from_callable(lambda x: 60.0 * np.exp(-(x**2)), g), zero_field(g))
    with pytest.raises(BlowupDetected) as exc:
        simulate(blow, HirotaSatsuma(-1.0, 1.0), 1.0, StepperConfig(5e-2))
    msg = str(exc.value)
    assert ("cfl_guard" in msg or "growth cap" in msg) and "at step " in msg
    k = int(msg.split("at step ")[1].split(":")[0])
    assert exc.value.time == pytest.approx((k - 1) * 5e-2)


# ---------------------------------------------------------------------------
# The in-place stepper against the allocating four-stage expression.

def ifrk4_reference(rhs, w, t, dt, E, E2):
    """One IF-RK4 step written with temporaries; E = half-step phase, E2 = E*E.

    The arrays here stay far below numpy's 256 KiB threshold for reusing a
    temporary, so every product runs in the operand order written.
    """
    k1 = rhs(w, t)
    k2 = rhs(E * (w + 0.5 * dt * k1), t + 0.5 * dt)
    k3 = rhs(E * w + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(E2 * w + dt * E * k3, t + dt)
    return E2 * w + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)


def eigenbasis_reference(st, spec):
    """(normal form, P, dealiased W0 = P^-1 U0), written out without the solver's helpers."""
    form, P = diagonal_form(spec)
    g = st.grid
    w = np.where(g.keep[: g.n // 2 + 1], np.stack([to_half(st.u.coeffs), to_half(st.v.coeffs)]), 0.0)
    return form, P, (w if P is None else np.linalg.solve(P, w))


def reference_half(st, spec, T, dt, sample_dt):
    """simulate(...).half, stepped by ifrk4_reference with its own sample bookkeeping."""
    form, P, w = eigenbasis_reference(st, spec)
    g, c = st.grid, np.diag(form.D)
    rhs = SpectralRhs(form, g)
    n_full = int(np.floor(T / dt + 1e-9))
    remainder = T - n_full * dt
    if remainder < 1e-12 * max(1.0, T):
        remainder = 0.0
    stride = max(1, int(round(sample_dt / dt)))
    rows = [w]
    E = solver._half_phases(g, c, 0.5 * dt)
    for k in range(1, n_full + 1):
        w = ifrk4_reference(rhs, w, st.t + (k - 1) * dt, dt, E, E * E)
        if k % stride == 0 and not (k == n_full and remainder == 0.0):
            rows.append(w)
    if remainder > 0.0:
        E = solver._half_phases(g, c, 0.5 * remainder)
        w = ifrk4_reference(rhs, w, st.t + n_full * dt, remainder, E, E * E)
    rows.append(w)
    half = np.stack(rows)
    return half if P is None else P @ half


@pytest.mark.parametrize("T", [0.04, 0.0537])  # a multiple of dt, and one that ends in a short step
def test_simulate_is_bit_identical_to_the_allocating_step(five_systems, T):
    g = Grid(64, 8.0 * np.pi)
    st = pair_state(g, t=0.1)
    specs = {**five_systems, "gear_grimshaw_cross": GearGrimshaw(0.7, 0.3, 0.4, 2.0, 0.5)}
    for name, spec in specs.items():
        got = simulate(st, spec, T, StepperConfig(2e-3), sample_dt=0.01)
        assert np.array_equal(got.half, reference_half(st, spec, T, 2e-3, 0.01)), name


def test_rhs_into_out_equals_the_allocating_call(five_systems):
    g = Grid(64, 8.0 * np.pi)
    m = g.n // 2 + 1
    rng = np.random.default_rng(3)
    for name, spec in five_systems.items():
        rhs = SpectralRhs(spec, g)
        for shape, t in (((2, m), 0.3), ((2, 5, m), np.linspace(0.0, 0.4, 5))):
            w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * g.keep[:m]
            w[..., 0] = w[..., 0].real
            want = SpectralRhs(spec, g)(w, t)
            buf = np.empty_like(w)
            assert rhs(w, t, out=buf) is buf
            assert np.array_equal(buf, want) and np.array_equal(rhs(w, t), want), name


def rhs_reference(spec, g, w):
    """SpectralRhs(spec, g)(w, t) written with numpy.fft's public irfft/rfft and temporaries,
    product for product."""
    form = lower(spec)
    m, lead = g.n // 2 + 1, (1,) * (w.ndim - 1)
    sign = g._sign[:m]
    to_grid = np.stack([sign, 1j * g.xi_odd[:m] * sign]) * (SQRT_2PI / g.dx)
    val, der = np.fft.irfft(w[None] * to_grid.reshape(2, *lead, m), g.n, axis=-1)
    f = form.Q.reshape(2, 4) @ (val[:, None] * der[None]).reshape(4, -1)
    if form.R.any():
        f = f + form.R @ der.reshape(2, -1)
    to_spec = np.where(g.keep[:m], sign * (g.dx / SQRT_2PI), 0.0)
    return np.fft.rfft(f.reshape(val.shape), axis=-1) * to_spec


@pytest.mark.parametrize("pair", ["gufuncs", "fallback"])
def test_rhs_matches_the_public_fft_reference_bitwise(five_systems, pair, monkeypatch):
    if pair == "fallback":
        monkeypatch.setattr(sg, "irfft_into", sg._real_pair(None)[0])
        monkeypatch.setattr(sg, "rfft_into", sg._real_pair(None)[1])
    specs = {**five_systems, "gear_grimshaw_cross": GearGrimshaw(0.7, 0.3, 0.4, 2.0, 0.5)}
    rng = np.random.default_rng(5)
    for n in (64, 256, 2048):
        g = Grid(n, 8.0 * np.pi)
        m = n // 2 + 1
        for shape, t in (((2, m), 0.3), ((2, 3, m), np.linspace(0.0, 0.4, 3))):
            w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * g.keep[:m] / n
            w[..., 0] = w[..., 0].real
            for name, spec in specs.items():
                form = diagonal_form(spec)[0]  # the eigenbasis form the solver hands SpectralRhs
                got = SpectralRhs(form, g)(w, t, out=np.empty_like(w))
                assert np.array_equal(got, rhs_reference(form, g, w)), (name, n, shape)


def test_rhs_calls_of_one_shape_share_one_workspace(five_systems):
    g = Grid(64, 8.0 * np.pi)
    m = g.n // 2 + 1
    rng = np.random.default_rng(4)
    for name, spec in five_systems.items():
        rhs = SpectralRhs(spec, g)
        for shape, t in (((2, m), 0.3), ((2, 5, m), np.linspace(0.0, 0.4, 5))):
            w1, w2 = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * g.keep[:m] for _ in range(2))
            first = rhs(w1, t)  # a call without out works in the kept set too
            work = rhs._work[shape]
            kept = first.copy()
            second = rhs(w2, t, out=np.empty_like(w2))
            third = rhs(w1, t)
            assert rhs._work[shape] is work, name
            results = (first, second, third)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(results, 2)), name
            assert not any(np.shares_memory(r, x) for r in results for x in work if x is not None), name
            assert np.array_equal(first, kept) and np.array_equal(third, kept), name
        assert len(rhs._work) == 2, name  # one buffer set per shape


def picard_reference(st, spec, T, n_iters, nt):
    """picard_iterate's iterates as (time, component, mode) arrays, by the sweep written with
    temporaries.  `acc` is named, so numpy cannot reuse it for `phase * acc`, and each complex
    product runs in the operand order written."""
    form, P, w0 = eigenbasis_reference(st, spec)
    g, c = st.grid, np.diag(form.D)
    times = np.linspace(0.0, T, nt)
    phase = solver._half_phases(g, c, times[:, None])
    free = phase * w0[:, None, :]
    phase_conj = np.conj(phase)
    rhs = SpectralRhs(form, g)
    cur, rows = free, [free]
    for _ in range(n_iters):
        acc = cumulative_simpson_c(np.multiply(phase_conj, rhs(cur, times)), times[1] - times[0], axis=1)
        cur = free + phase * acc
        rows.append(cur)
    return [np.moveaxis(w if P is None else np.tensordot(P, w, axes=1), 0, 1) for w in rows]


picard_specs = pytest.mark.parametrize(
    "spec", [HirotaSatsuma(-0.5, 1.0), GearGrimshaw(0.7, 0.3, 0.4, 2.0, 0.5)], ids=["diagonal", "gear_grimshaw_cross"]
)


@picard_specs
def test_picard_sweep_is_bit_identical_to_the_allocating_sweep(spec):
    # iterate k is the final iterate of a run with n_iters = k
    st = small_pair(Grid(64, 8.0 * np.pi))
    for k in (2, 3, 4):
        iters, report = picard_iterate(st, spec, 0.2, n_iters=k, time_resolution=65)
        assert len(iters) == 1 and len(report.diffs) == k
        assert np.array_equal(iters[-1].half, picard_reference(st, spec, 0.2, k, 65)[-1]), k


@picard_specs
def test_picard_working_set_does_not_grow_with_n_iters(spec):
    # a unit is one (2, nt, n/2+1) complex array; the sweep holds about 12.6 of them
    # (phases, free evolution, RHS buffer, cur, new and the quadrature's temporaries)
    # at any n_iters, where keeping every iterate added one unit per sweep
    st, nt = small_pair(Grid(128, 8.0 * np.pi)), 321
    unit = 16 * 2 * nt * (128 // 2 + 1)
    picard_iterate(st, spec, 0.2, n_iters=2, time_resolution=nt)  # first-call caches
    peaks = []
    for n_iters in (2, 24):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, report = picard_iterate(st, spec, 0.2, n_iters=n_iters, time_resolution=nt)
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / unit)
        finally:
            tracemalloc.stop()
        assert report.converged and len(report.diffs) == n_iters
    assert abs(peaks[1] - peaks[0]) < 0.1 and max(peaks) < 13, peaks


def test_picard_shorter_run_reports_the_leading_diffs():
    st = small_pair(Grid(64, 8.0 * np.pi))
    spec = HirotaSatsuma(-0.5, 1.0)
    _, short = picard_iterate(st, spec, 0.2, n_iters=2, time_resolution=65)
    _, long = picard_iterate(st, spec, 0.2, n_iters=4, time_resolution=65)
    assert short.diffs == long.diffs[:2]


def test_recorded_samples_own_their_memory(monkeypatch):
    g = Grid(64, 8.0 * np.pi)
    st, spec, cfg = pair_state(g), HirotaSatsuma(0.5, 1.0), StepperConfig(2e-3)
    handed = []  # every state, stage and output array the stepper gives the kernel
    call = SpectralRhs.__call__

    def spy(self, w, t, out=None):
        handed.extend(a for a in (w, out) if a is not None)
        return call(self, w, t, out)

    monkeypatch.setattr(SpectralRhs, "__call__", spy)
    traj = simulate(st, spec, 0.0537, cfg, sample_dt=0.01)
    monkeypatch.undo()
    rows = list(traj.half)
    assert len(rows) == 7 and handed
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(rows, 2))
    assert not any(np.shares_memory(row, a) for row in rows for a in handed)
    data = np.stack([to_half(dealias(st.u).coeffs), to_half(dealias(st.v).coeffs)])
    assert np.array_equal(traj.half[0], data)
    kept = traj.half.copy()
    simulate(st, spec, 0.0537, cfg, sample_dt=0.01)
    assert np.array_equal(traj.half, kept)
