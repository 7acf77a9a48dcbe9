"""System specs: dispersion constants, nonlinear terms, guards."""

import numpy as np
import pytest

from ckdv import (
    BlowupDetected,
    Feng,
    GearGrimshaw,
    GeneralCoupled,
    HirotaSatsuma,
    NotApplicable,
    Sakovich,
    State,
    Grid,
    dealias,
    diagonal_form,
    field_from_callable,
    forward,
    hs_as_kdv,
    inverse,
    lower,
    nonlinear_rhs,
    spectral_derivative,
    zero_field,
)
from ckdv.grid import SpectralField, reflect


def make_state(grid, fu, fv, t=0.0):
    return State(
        field_from_callable(fu, grid), field_from_callable(fv, grid), t
    )


def dispersion(spec):
    """diag(D) of a diagonal normal form, which diagonal_form keeps as it is (P None)."""
    form, P = diagonal_form(spec)
    assert P is None and np.array_equal(form.D, np.diag(np.diag(lower(spec).D)))
    return tuple(np.diag(form.D))


def assert_coupled(spec):
    """diagonal_form gives a diagonal D' and a P with P D' P^-1 = D."""
    form, P = diagonal_form(spec)
    assert P is not None and form.D[0, 1] == form.D[1, 0] == 0.0
    assert np.max(np.abs(P @ form.D @ np.linalg.inv(P) - lower(spec).D)) < 1e-12


def test_dispersion_coeffs_hs_and_feng():
    assert dispersion(HirotaSatsuma(0.5, 1.0)) == (0.5, -1.0)
    assert dispersion(Feng(-2.0, 1.0, 1.0, 0.0)) == (-2.0, -1.0)


def test_dispersion_coeffs_gear_grimshaw():
    diag = GearGrimshaw(0.1, 0.2, 0.0, 2.0, 0.5)
    assert dispersion(diag) == (-1.0, -0.5)
    assert_coupled(GearGrimshaw(0.1, 0.2, 0.3, 2.0, 0.5))


@pytest.mark.parametrize(
    "spec",
    [
        GearGrimshaw(0.7, 0.3, 0.5, 2.0, 0.5, r=0.4),
        GearGrimshaw(1.3, -0.2, 0.0, 0.7, 1.9),
        GearGrimshaw(0.1, 0.2, 3.0, 1.1, 0.3, r=-2.0),
    ],
)
def test_gear_grimshaw_normal_form_exact(spec):
    # read off the GG equations in d/dt form, the second divided by b1,
    # with (u*v)_x = u*v_x + v*u_x; Q[i, j, k] multiplies w_j d_x w_k
    a1, a2, a3, b1, b2, r = spec.a1, spec.a2, spec.a3, spec.b1, spec.b2, spec.r
    D = -np.array([[1.0, a3], [b2 * a3 / b1, 1.0 / b1]])
    Q = -np.array([
        [[1.0, a2], [a2, a1]],
        [[b2 * a2 / b1, b2 * a1 / b1], [b2 * a1 / b1, 1.0 / b1]],
    ])
    R = np.array([[0.0, 0.0], [0.0, -r / b1]])
    form = lower(spec)
    assert np.array_equal(form.D, D)
    assert np.array_equal(form.Q, Q)
    assert np.array_equal(form.R, R)


def test_dispersion_coeffs_general_coupled():
    diag = GeneralCoupled(2.0, 0.0, 0.0, 3.0, *([0.0] * 6))
    assert dispersion(diag) == (-2.0, -3.0)
    assert_coupled(GeneralCoupled(2.0, 0.1, 0.0, 3.0, *([0.0] * 6)))


def test_dispersion_coeffs_sakovich():
    eye = np.eye(2)
    diag = Sakovich(np.zeros((2, 2)), np.zeros((2, 2)), np.diag([0.5, -2.0]))
    cu, cv = dispersion(diag)
    assert cu == pytest.approx(-2.0)
    assert cv == pytest.approx(0.5)
    # inv(A2) = [[1, -0.5], [0, 1]] is a Jordan block: coupled, with no eigenbasis
    jordan = Sakovich(np.zeros((2, 2)), np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert lower(jordan).D[0, 1] != 0.0
    with pytest.raises(NotApplicable, match="defective"):
        diagonal_form(jordan)
    assert_coupled(Sakovich(np.zeros((2, 2)), np.zeros((2, 2)), np.array([[2.0, 0.5], [0.0, 1.0]])))
    assert dispersion(Sakovich(np.zeros((2, 2)), np.zeros((2, 2)), eye)) == (-1.0, -1.0)


def test_gear_grimshaw_requires_positive_b():
    with pytest.raises(ValueError):
        GearGrimshaw(0.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GearGrimshaw(0.0, 0.0, 0.0, 1.0, -1.0)


def test_sakovich_validation():
    with pytest.raises(ValueError):
        Sakovich(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))  # singular
    with pytest.raises(ValueError):
        Sakovich(np.zeros(3), np.zeros((2, 2)), np.eye(2))


def test_state_requires_shared_grid(grid64, grid128):
    with pytest.raises(ValueError):
        State(zero_field(grid64), zero_field(grid128))


def test_state_copy_is_deep(grid64):
    st = make_state(grid64, np.sin, np.cos, t=1.5)
    cp = st.copy()
    cp.u.coeffs[:] = 0.0
    assert st.t == cp.t == 1.5
    assert np.max(np.abs(st.u.coeffs)) > 0.0


def test_hs_nonlinear_rhs_closed_form(grid64):
    # u = cos x, v = sin 2x: du = 6a u u_x + 2b v v_x, dv = -3 u v_x
    a, b = 0.5, 2.0
    st = make_state(grid64, lambda x: np.cos(x), lambda x: np.sin(2.0 * x))
    du, dv = nonlinear_rhs(HirotaSatsuma(a, b), st)
    x = grid64.x
    want_du = -6.0 * a * np.cos(x) * np.sin(x) + 4.0 * b * np.sin(2.0 * x) * np.cos(2.0 * x)
    want_dv = -6.0 * np.cos(x) * np.cos(2.0 * x)
    assert np.max(np.abs(inverse(du) - want_du)) < 1e-12
    assert np.max(np.abs(inverse(dv) - want_dv)) < 1e-12


def test_feng_nonlinear_rhs_closed_form(grid64):
    a, b, c, d = -1.0, 2.0, 3.0, 0.5
    st = make_state(grid64, lambda x: np.cos(x), lambda x: np.sin(x))
    du, dv = nonlinear_rhs(Feng(a, b, c, d), st)
    x = grid64.x
    want_du = -6.0 * a * np.cos(x) * np.sin(x) + 2.0 * b * np.sin(x) * np.cos(x)
    want_dv = -c * np.cos(x) * np.cos(x) - d * np.sin(x) * np.cos(x)
    assert np.max(np.abs(inverse(du) - want_du)) < 1e-12
    assert np.max(np.abs(inverse(dv) - want_dv)) < 1e-12


def test_gear_grimshaw_nonlinear_rhs_closed_form(grid64):
    a1, a2, a3, b1, b2, r = 0.7, 0.3, 0.1, 2.0, 0.5, 0.4
    st = make_state(grid64, lambda x: np.sin(x), lambda x: np.cos(2.0 * x))
    du, dv = nonlinear_rhs(GearGrimshaw(a1, a2, a3, b1, b2, r), st)
    x = grid64.x
    u, ux = np.sin(x), np.cos(x)
    v, vx = np.cos(2.0 * x), -2.0 * np.sin(2.0 * x)
    uv_x = u * vx + v * ux
    want_du = -(u * ux + a1 * v * vx + a2 * uv_x)
    want_dv = -(v * vx + b2 * a2 * u * ux + b2 * a1 * uv_x + r * vx) / b1
    assert np.max(np.abs(inverse(du) - want_du)) < 1e-12
    assert np.max(np.abs(inverse(dv) - want_dv)) < 1e-12


def test_general_coupled_nonlinear_rhs_closed_form(grid64):
    spec = GeneralCoupled(1.0, 0.0, 0.0, 1.0, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, r=0.8)
    st = make_state(grid64, lambda x: np.sin(x), lambda x: np.cos(x))
    du, dv = nonlinear_rhs(spec, st)
    x = grid64.x
    u, ux = np.sin(x), np.cos(x)
    v, vx = np.cos(x), -np.sin(x)
    uv_x = u * vx + v * ux
    want_du = -(spec.b1 * uv_x + spec.b2 * u * ux + spec.b3 * v * vx)
    want_dv = -(spec.r * vx + spec.b4 * uv_x + spec.b5 * u * ux + spec.b6 * v * vx)
    assert np.max(np.abs(inverse(du) - want_du)) < 1e-12
    assert np.max(np.abs(inverse(dv) - want_dv)) < 1e-12


def test_general_coupled_dispersion_matrix():
    spec = GeneralCoupled(1.0, 2.0, 3.0, 4.0, *([0.0] * 6))
    assert np.array_equal(spec.dispersion_matrix, [[1.0, 2.0], [3.0, 4.0]])


def test_sakovich_nonlinear_rhs_closed_form(grid64):
    A0 = np.array([[1.0, 0.5], [0.0, 2.0]])
    A1 = np.array([[0.3, 0.0], [0.1, 0.2]])
    A2 = np.diag([2.0, 4.0])
    spec = Sakovich(A0, A1, A2)
    st = make_state(grid64, lambda x: np.sin(x), lambda x: np.cos(x))
    du, dv = nonlinear_rhs(spec, st)
    x = grid64.x
    u, ux = np.sin(x), np.cos(x)
    v, vx = np.cos(x), -np.sin(x)
    m0 = -np.linalg.inv(A2) @ A0
    m1 = -np.linalg.inv(A2) @ A1
    want_du = m0[0, 0] * u * ux + m0[0, 1] * v * vx + m1[0, 0] * u * vx + m1[0, 1] * v * ux
    want_dv = m0[1, 0] * u * ux + m0[1, 1] * v * vx + m1[1, 0] * u * vx + m1[1, 1] * v * ux
    assert np.max(np.abs(inverse(du) - want_du)) < 1e-12
    assert np.max(np.abs(inverse(dv) - want_dv)) < 1e-12


def test_nonlinear_rhs_matches_grid_primitives(five_systems):
    # products of grid.inverse samples, transformed back by grid.forward
    g = Grid(64, 8.0 * np.pi)
    st = make_state(g, lambda x: np.exp(-(x / 1.5) ** 2) + 0.1 * np.cos(x), lambda x: 0.4 * np.sin(2.0 * x))
    st = State(dealias(st.u), dealias(st.v), 0.0)
    w = [inverse(st.u), inverse(st.v)]
    dw = [inverse(spectral_derivative(f, 1)) for f in (st.u, st.v)]
    for name, spec in five_systems.items():
        form = lower(spec)
        assert lower(form) is form, name
        Q, R = form.Q, form.R
        got = nonlinear_rhs(spec, st)
        for i in range(2):
            phys = sum(Q[i, j, k] * w[j] * dw[k] for j in range(2) for k in range(2))
            phys = phys + R[i, 0] * dw[0] + R[i, 1] * dw[1]
            want = dealias(forward(phys, g)).coeffs
            assert np.max(np.abs(got[i].coeffs - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_nonlinear_rhs_output_is_dealiased(grid64):
    st = make_state(grid64, lambda x: np.cos(12.0 * x), lambda x: 0.0 * x)
    du, _ = nonlinear_rhs(HirotaSatsuma(1.0, 1.0), st)
    assert np.all(du.coeffs[~grid64.keep] == 0.0)


def test_nonlinear_rhs_detects_nonfinite(grid64):
    bad = SpectralField(np.full(grid64.n, np.nan, dtype=np.complex128), grid64)
    st = State(bad, zero_field(grid64), 0.25)
    with pytest.raises(BlowupDetected) as exc:
        nonlinear_rhs(HirotaSatsuma(1.0, 1.0), st)
    assert exc.value.time == 0.25


def test_nonlinear_rhs_rejects_unknown_spec(grid64):
    st = make_state(grid64, np.sin, np.cos)
    with pytest.raises(TypeError):
        nonlinear_rhs(object(), st)
    with pytest.raises(TypeError):
        lower(object())


def test_hs_as_kdv_reflects_and_zeroes(grid128, gaussian128):
    st = hs_as_kdv(gaussian128, a=-1.0)
    assert np.max(np.abs(st.v.coeffs)) == 0.0
    assert st.t == 0.0
    want = reflect(gaussian128)
    assert np.max(np.abs(st.u.coeffs - want.coeffs)) == 0.0


def test_hs_as_kdv_rejects_zero_speed(gaussian128):
    with pytest.raises(ValueError):
        hs_as_kdv(gaussian128, 0.0)
