"""Conserved functionals and norms against closed-form values."""

import math

import numpy as np
import pytest

from ckdv import (
    Feng,
    GearGrimshaw,
    HirotaSatsuma,
    State,
    StepperConfig,
    collect,
    field_from_callable,
    record_for,
    simulate,
    sobolev_norm,
    zero_field,
)
from ckdv.diagnostics import COLUMNS
from ckdv.grid import Grid, SpectralField, forward, l2_norm, spectral_derivative


def named(row):
    return dict(zip(COLUMNS, row))


def hs_laws(st, a, b):
    rec = named(record_for(st, HirotaSatsuma(a, b)))
    return rec["V"], rec["F"]


def gg_laws(st, spec):
    rec = named(record_for(st, spec))
    return rec["phi1"], rec["phi2"], rec["phi3"], rec["phi4"]


def test_hs_invariants_sine_oracle(grid64):
    # u = 0, v = sin x on a 2*pi box: V = b*pi, F = (2/3) b*pi
    b = 2.0
    st = State(zero_field(grid64), field_from_callable(np.sin, grid64))
    for a in (-1.0, 0.5, 2.0):
        V, F = hs_laws(st, a, b)
        assert V == pytest.approx(b * np.pi, rel=1e-13)
        assert F == pytest.approx(2.0 / 3.0 * b * np.pi, rel=1e-13)


def test_hs_invariants_cosine_oracle(grid64):
    # u = cos x, v = 0: V = (1+a) pi / 2 (the cubic term integrates to zero)
    a, b = 0.7, 3.0
    st = State(field_from_callable(np.cos, grid64), zero_field(grid64))
    V, F = hs_laws(st, a, b)
    assert V == pytest.approx(0.5 * (1.0 + a) * np.pi, rel=1e-13)
    assert F == pytest.approx(np.pi, rel=1e-13)


def test_hs_invariants_cubic_terms(grid64):
    # u = 1 + cos x has int u^3 = 2 pi + 3 pi = 5 pi
    a, b = 0.0, 1.0
    st = State(field_from_callable(lambda x: 1.0 + np.cos(x), grid64), zero_field(grid64))
    V, _ = hs_laws(st, a, b)
    want = 0.5 * (1.0 + a) * np.pi - (1.0 + a) * 5.0 * np.pi
    assert V == pytest.approx(want, rel=1e-13)


def test_hs_invariants_count_no_nyquist_slope():
    # a pure Nyquist u = 0.05*(-1)^j, raw from forward, has zero u_x, as in
    # the solver, so V = 0 (the cubic term vanishes on the oversampled grid)
    g = Grid(64, 8.0 * np.pi)
    u = forward(0.05 * (-1.0) ** np.arange(g.n), g)
    assert l2_norm(spectral_derivative(u, 1)) == 0.0
    V, F = hs_laws(State(u, zero_field(g)), 0.5, 1.0)
    assert V == 0.0
    assert F == pytest.approx(0.05**2 * g.period, rel=1e-13)


def test_gg_invariants_cosine_oracle(grid64):
    u = field_from_callable(np.cos, grid64)
    st = State(u, u.copy())
    base = GearGrimshaw(0.0, 0.0, 0.0, 1.0, 1.0)
    p1, p2, p3, p4 = gg_laws(st, base)
    assert abs(p1) < 1e-13 and abs(p2) < 1e-13
    assert p3 == pytest.approx(2.0 * np.pi, rel=1e-13)
    assert p4 == pytest.approx(2.0 * np.pi, rel=1e-13)
    # the a3 cross term adds 2 b2 a3 int sin^2 = 2 b2 a3 pi; r subtracts r pi
    crossed = GearGrimshaw(0.0, 0.0, 0.5, 1.0, 1.0, r=0.3)
    p4c = gg_laws(st, crossed)[3]
    assert p4c == pytest.approx(2.0 * np.pi + 2.0 * 0.5 * np.pi - 0.3 * np.pi, rel=1e-13)


def test_gg_invariants_mean_terms(grid64):
    st = State(
        field_from_callable(lambda x: 1.5 + 0.0 * x, grid64),
        field_from_callable(lambda x: -0.5 + 0.0 * x, grid64),
    )
    p1, p2, _, _ = gg_laws(st, GearGrimshaw(0.0, 0.0, 0.0, 1.0, 1.0))
    assert p1 == pytest.approx(1.5 * 2.0 * np.pi, rel=1e-13)
    assert p2 == pytest.approx(-0.5 * 2.0 * np.pi, rel=1e-13)


def test_sobolev_norm_identity(grid128, gaussian128):
    f = gaussian128
    h1 = sobolev_norm(f, 1.0)
    fx = spectral_derivative(f, 1)
    assert h1**2 == pytest.approx(l2_norm(f) ** 2 + l2_norm(fx) ** 2, rel=1e-13)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-14)


def test_sobolev_norm_single_mode(grid64):
    f = field_from_callable(lambda x: np.cos(3.0 * x), grid64)
    for s in (-1.5, -0.5, 0.0, 1.0, 2.5):
        want = (1.0 + 9.0) ** (s / 2.0) * np.sqrt(np.pi)
        assert sobolev_norm(f, s) == pytest.approx(want, rel=1e-12)


def test_record_for_hs(grid64):
    st = State(zero_field(grid64), field_from_callable(np.sin, grid64), t=0.5)
    row = record_for(st, HirotaSatsuma(0.5, 2.0), s=1.0)
    assert row.shape == (9,) and len(COLUMNS) == 9
    rec = named(row)
    assert rec["t"] == 0.5
    assert rec["V"] == pytest.approx(2.0 * np.pi)
    assert all(math.isnan(rec[p]) for p in ("phi1", "phi2", "phi3", "phi4"))
    assert not np.isinf(row).any()


def test_record_for_feng_declares_its_own_laws(grid64):
    # u = cos x, v = sin x: F = int u^2 + (2b/c) int v^2 = (1 + 2b/c) pi, for every d;
    # V is the Hirota-Satsuma Hamiltonian, which Feng conserves only at (c, d) = (3, 0)
    st = State(field_from_callable(np.cos, grid64), field_from_callable(np.sin, grid64))
    b, c = 2.0, 0.5
    for d in (0.0, 0.7):
        rec = named(record_for(st, Feng(0.5, b, c, d)))
        assert math.isnan(rec["V"])
        assert rec["F"] == pytest.approx((1.0 + 2.0 * b / c) * np.pi, rel=1e-13)
    assert math.isnan(named(record_for(st, Feng(0.5, b, 0.0, 0.0)))["F"])
    as_hs = named(record_for(st, Feng(0.5, b, 3.0, 0.0)))
    assert [as_hs["V"], as_hs["F"]] == list(hs_laws(st, 0.5, b))


def test_record_for_gg(grid64):
    u = field_from_callable(np.cos, grid64)
    row = record_for(State(u, u.copy()), GearGrimshaw(0.0, 0.0, 0.0, 1.0, 1.0))
    rec = named(row)
    assert math.isnan(rec["V"]) and math.isnan(rec["F"])
    assert rec["phi3"] == pytest.approx(2.0 * np.pi)
    assert not np.isinf(row).any()


def test_record_for_flags_nonfinite(grid64):
    bad = SpectralField(np.full(grid64.n, np.inf + 0j), grid64)
    with np.errstate(invalid="ignore", over="ignore"):
        row = record_for(State(bad, zero_field(grid64)), GearGrimshaw(0.0, 0.0, 0.0, 1.0, 1.0))
    assert np.isinf(row).any()


@pytest.mark.parametrize(
    "spec, s", [(HirotaSatsuma(-1.0, 1.0), 1.0), (GearGrimshaw(0.7, 0.3, 0.0, 2.0, 0.5, r=0.4), 0.5)]
)
def test_collect_matches_per_snapshot_records(grid128, gaussian128, spec, s):
    # collect evaluates the stacked samples, bit for bit what record_for gives per snapshot
    st = State(gaussian128, SpectralField(0.5 * gaussian128.coeffs, grid128))
    traj = simulate(st, spec, 0.02, StepperConfig(2e-3), sample_dt=0.01)
    seen = traj.states
    table = collect(traj, spec, s)
    assert table.shape == (len(seen), len(COLUMNS))
    assert list(table[:, COLUMNS.index("t")]) == [st.t for st in seen] == list(traj.times)
    np.testing.assert_array_equal(table, [record_for(st, spec, s) for st in seen])
