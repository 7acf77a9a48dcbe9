"""Stepper, exact linear flow, and the integral-equation iteration."""

import numpy as np
import pytest

from ckdv import (
    BlowupDetected,
    GearGrimshaw,
    HirotaSatsuma,
    NotDiagonalError,
    State,
    StepperConfig,
    Trajectory,
    field_from_callable,
    hs_as_kdv,
    inverse,
    linear_propagate,
    picard_iterate,
    simulate,
    step,
    zero_field,
)
from ckdv.diagnostics import sobolev_norm
from ckdv.grid import Grid, SpectralField, dealias, hermitian_defect, l2_norm, to_half
from ckdv.systems import SpectralRhs, dispersion_coeffs, nonlinear_rhs


def soliton(c, x):
    return 0.5 * c / np.cosh(0.5 * np.sqrt(c) * x) ** 2


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(0.0)
    with pytest.raises(ValueError):
        StepperConfig(-1e-3)
    with pytest.raises(ValueError):
        StepperConfig(1e-3, scheme="RK4")
    with pytest.raises(ValueError):
        StepperConfig(1e-3, cfl_guard=1.0)
    assert StepperConfig(1e-3).scheme == "IFRK4"


def test_trajectory_validation(grid64):
    st = State(zero_field(grid64), zero_field(grid64), 0.0)
    with pytest.raises(ValueError):
        Trajectory([], HirotaSatsuma(1.0, 1.0))
    with pytest.raises(ValueError):
        Trajectory([st, st.copy()], HirotaSatsuma(1.0, 1.0))  # equal times
    other = State(zero_field(Grid(128, 2.0 * np.pi)), zero_field(Grid(128, 2.0 * np.pi)), 1.0)
    with pytest.raises(ValueError):
        Trajectory([st, other], HirotaSatsuma(1.0, 1.0))


def test_linear_propagate_single_mode(grid64):
    # one cosine mode rotates: u(x, t) = cos(k x - c k^3 t) for u_t = c u_xxx
    a = 0.5
    spec = HirotaSatsuma(a, 1.0)
    k = 3
    st = State(
        field_from_callable(lambda x: np.cos(k * x), grid64), zero_field(grid64)
    )
    dt = 0.37
    out = linear_propagate(st, spec, dt)
    want = np.cos(k * grid64.x - a * k**3 * dt)
    assert np.max(np.abs(inverse(out.u) - want)) < 1e-12
    assert out.t == pytest.approx(dt)


def test_linear_propagate_composes_and_reverses(grid128, gaussian128):
    spec = HirotaSatsuma(-1.0, 1.0)
    st = State(gaussian128, gaussian128.copy())
    once = linear_propagate(st, spec, 0.7)
    twice = linear_propagate(linear_propagate(st, spec, 0.3), spec, 0.4)
    assert np.max(np.abs(once.u.coeffs - twice.u.coeffs)) < 1e-12
    back = linear_propagate(once, spec, -0.7)
    assert np.max(np.abs(back.u.coeffs - st.u.coeffs)) < 1e-12


def test_linear_propagate_preserves_l2(grid128, gaussian128):
    spec = HirotaSatsuma(-1.0, 1.0)
    st = State(gaussian128, zero_field(grid128))
    out = linear_propagate(st, spec, 1.3)
    assert l2_norm(out.u) == pytest.approx(l2_norm(st.u), rel=1e-13)


def test_not_diagonal_raises():
    g = Grid(64, 2.0 * np.pi)
    st = State(zero_field(g), zero_field(g))
    coupled = GearGrimshaw(0.1, 0.2, 0.3, 2.0, 0.5)
    with pytest.raises(NotDiagonalError):
        linear_propagate(st, coupled, 0.1)
    with pytest.raises(NotDiagonalError):
        step(st, coupled, StepperConfig(1e-3))
    with pytest.raises(NotDiagonalError):
        simulate(st, coupled, 0.1, StepperConfig(1e-3))


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


def test_simulate_hits_fractional_final_time(grid64):
    st = State(zero_field(grid64), zero_field(grid64))
    spec = HirotaSatsuma(1.0, 1.0)
    traj = simulate(st, spec, 0.25, StepperConfig(0.1), sample_dt=0.1)
    assert traj.times[-1] == pytest.approx(0.25, abs=1e-12)


def test_simulate_calls_observers(grid128, gaussian128):
    st = State(gaussian128, zero_field(grid128))
    spec = HirotaSatsuma(-1.0, 1.0)
    seen = []
    traj = simulate(
        st, spec, 0.05, StepperConfig(5e-3), observers=[lambda s: seen.append(s.t)], sample_dt=0.01
    )
    assert seen == [st.t for st in traj.states]


def test_step_growth_guard():
    # a large-amplitude state at a step size far beyond stability
    g = Grid(128, 8.0 * np.pi)
    big = field_from_callable(lambda x: 50.0 * np.cos(x), g)
    st = State(big, zero_field(g))
    with pytest.raises(BlowupDetected):
        step(st, HirotaSatsuma(-1.0, 1.0), StepperConfig(0.1, cfl_guard=1.5))


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
    with pytest.raises(ValueError):
        picard_iterate(st, spec, 0.1, n_iters=0)


def test_picard_contracts_for_small_data():
    g = Grid(64, 8.0 * np.pi)
    u0 = field_from_callable(lambda x: 0.2 * np.exp(-((x / 1.5) ** 2)), g)
    v0 = field_from_callable(lambda x: 0.1 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g)
    st = State(u0, v0)
    iters, report = picard_iterate(st, HirotaSatsuma(-0.5, 1.0), 0.2, n_iters=8, time_resolution=41)
    assert report.converged
    assert report.contraction_ratio < 0.5
    assert len(iters) == 9
    assert report.diffs[0] > report.diffs[-1]
    # iterate 0 is the free evolution: at t=0 it equals the data
    assert np.max(np.abs(iters[0].states[0].u.coeffs - (iters[-1].states[0].u.coeffs))) < 1e-12


def test_picard_diffs_are_sup_hs_distances():
    g = Grid(64, 8.0 * np.pi)
    st = State(
        field_from_callable(lambda x: 0.3 * np.exp(-((x / 1.5) ** 2)), g),
        field_from_callable(lambda x: 0.2 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g),
    )
    s = 1.0
    iters, report = picard_iterate(st, HirotaSatsuma(-0.5, 1.0), 0.2, n_iters=2, time_resolution=21, s=s)
    for k, d in enumerate(report.diffs):
        want = max(
            sobolev_norm(SpectralField(a.u.coeffs - b.u.coeffs, g), s)
            + sobolev_norm(SpectralField(a.v.coeffs - b.v.coeffs, g), s)
            for a, b in zip(iters[k + 1].states, iters[k].states)
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


# ---------------------------------------------------------------------------
# The half-spectrum kernel against a full-layout reference.

def pair_state(g, t=0.0, nyquist=0.0):
    # nyquist adds (-1)^j on the grid, the Nyquist mode alone
    u = field_from_callable(
        lambda x: 0.6 * np.exp(-((x / 1.5) ** 2)) + nyquist * np.cos(np.pi * (x - g.x[0]) / g.dx), g
    )
    v = field_from_callable(lambda x: 0.3 * np.exp(-(((x - 1.0) / 2.0) ** 2)), g)
    return State(u, v, t)


def full_layout_ifrk4(st, spec, dt, n_steps):
    """IF-RK4 on full-layout coefficients, over the public nonlinear_rhs."""
    g = st.grid
    E = np.stack([np.exp((-1j * c * 0.5 * dt) * g.xi**3) for c in dispersion_coeffs(spec)])
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


@pytest.mark.parametrize("fraction", [2.0 / 3.0, 1.0])
def test_simulate_matches_full_layout_ifrk4(fraction, five_systems):
    g = Grid(64, 8.0 * np.pi, dealias_fraction=fraction)
    st = pair_state(g, t=0.1, nyquist=0.05 if fraction == 1.0 else 0.0)
    dt, n_steps = 2e-3, 20
    for name, spec in five_systems.items():
        final = simulate(st, spec, n_steps * dt, StepperConfig(dt), sample_dt=1.0).states[-1]
        want = full_layout_ifrk4(st, spec, dt, n_steps)
        got = np.stack([final.u.coeffs, final.v.coeffs])
        assert final.t == pytest.approx(st.t + n_steps * dt)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        if fraction == 1.0:
            assert abs(want[0, g.n // 2]) > 1e-3  # the Nyquist mode was kept and evolved


def test_snapshots_are_full_layout_and_hermitian(grid128):
    spec = HirotaSatsuma(-0.5, 1.0)
    seen = []
    traj = simulate(pair_state(grid128), spec, 0.05, StepperConfig(5e-3), observers=[seen.append], sample_dt=0.01)
    assert seen == traj.states
    for st in traj.states:
        for f in (st.u, st.v):
            assert f.coeffs.shape == (grid128.n,)
            assert hermitian_defect(f) <= 1e-14
    out = step(traj.states[-1], spec, StepperConfig(5e-3))
    assert out.u.coeffs.shape == (grid128.n,) and hermitian_defect(out.u) <= 1e-14


def test_batched_rhs_matches_per_sample(five_systems):
    g = Grid(64, 8.0 * np.pi)
    times = np.linspace(0.0, 0.4, 7)
    for name, spec in five_systems.items():
        states = [
            State(dealias(linear_propagate(pair_state(g), spec, t).u), dealias(pair_state(g).v), t)
            for t in times
        ]
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
    with pytest.raises(BlowupDetected) as exc:
        step(st, spec, StepperConfig(1e-3))
    assert exc.value.time == 0.3
    with pytest.raises(BlowupDetected) as exc:
        simulate(st, spec, 0.01, StepperConfig(1e-3))
    assert exc.value.time == 0.3


def test_guard_messages_name_guard_ratio_and_step():
    g = Grid(128, 8.0 * np.pi)
    big = field_from_callable(lambda x: 50.0 * np.cos(x), g)
    st = State(big, zero_field(g), 0.2)
    with pytest.raises(BlowupDetected) as exc:
        step(st, HirotaSatsuma(-1.0, 1.0), StepperConfig(0.1, cfl_guard=1.5))
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
