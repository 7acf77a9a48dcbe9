"""Diagonalization and system reductions."""

import numpy as np
import pytest

from ckdv import (
    GearGrimshaw,
    GeneralCoupled,
    NotApplicable,
    Sakovich,
    State,
    diagonal_form,
    diagonalize,
    field_from_callable,
    gear_grimshaw_as_general,
    gg_lambda_alpha,
    lower,
    nonlinear_rhs,
)
from ckdv.grid import SpectralField


def test_diagonalize_random_similarity_family():
    rng = np.random.default_rng(42)
    done = 0
    while done < 1000:
        P = rng.uniform(-1.0, 1.0, size=(2, 2))
        if abs(np.linalg.det(P)) < 0.3:
            continue
        d1 = rng.uniform(-3.0, 3.0)
        d2 = d1 - rng.uniform(0.1, 3.0)  # distinct by construction
        A = P @ np.diag([d1, d2]) @ np.linalg.inv(P)
        d = diagonalize(A)
        assert d.eigenvalues_real and d.eigenvalues_distinct
        assert d.alpha_plus == pytest.approx(d1, abs=1e-8)
        assert d.alpha_minus == pytest.approx(d2, abs=1e-8)
        assert d.lam == pytest.approx(d1 - d2, abs=1e-8)
        # the columns of T are eigenvectors: A T = T diag(alpha+, alpha-)
        resid = A @ d.T - d.T @ np.diag([d.alpha_plus, d.alpha_minus])
        assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.abs(A).max())
        assert np.max(np.abs(d.T @ d.T_inv - np.eye(2))) < 1e-10
        done += 1


def test_diagonalize_complex_pair():
    d = diagonalize([[0.0, -1.0], [1.0, 0.0]])
    assert not d.eigenvalues_real
    assert d.T is None and d.T_inv is None
    assert np.isnan(d.alpha_plus) and np.isnan(d.alpha_minus) and np.isnan(d.lam)


def test_diagonalize_defective_block():
    d = diagonalize([[1.0, 1.0], [0.0, 1.0]])
    assert d.eigenvalues_real and not d.eigenvalues_distinct
    assert d.T is None


def test_diagonalize_scalar_matrix():
    d = diagonalize(2.0 * np.eye(2))
    assert d.eigenvalues_real and not d.eigenvalues_distinct
    assert np.array_equal(d.T, np.eye(2))
    assert d.alpha_plus == d.alpha_minus == 2.0


def test_diagonalize_flags():
    with pytest.raises(ValueError):
        diagonalize(np.eye(3))


def test_gg_lambda_alpha_reference_point():
    lam, ap, am = gg_lambda_alpha(1.0, 1.0, 2.0)
    assert (lam, ap, am) == (4.0, 3.0, -1.0)


def test_gg_lambda_alpha_matches_diagonalize():
    rng = np.random.default_rng(3)
    for _ in range(200):
        b1 = rng.uniform(0.2, 3.0)
        b2 = rng.uniform(0.2, 3.0)
        a3 = rng.uniform(-2.0, 2.0)
        lam, ap, am = gg_lambda_alpha(b1, b2, a3)
        d = diagonalize(gear_grimshaw_as_general(GearGrimshaw(0.0, 0.0, a3, b1, b2)).dispersion_matrix)
        assert ap == pytest.approx(d.alpha_plus, abs=1e-10)
        assert am == pytest.approx(d.alpha_minus, abs=1e-10)
        assert lam == pytest.approx(ap - am, abs=1e-12)


def test_gg_lambda_alpha_requires_positive_b():
    with pytest.raises(ValueError):
        gg_lambda_alpha(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        GearGrimshaw(0.0, 0.0, 1.0, 1.0, -1.0)


def test_gear_grimshaw_as_general_same_dynamics(grid64):
    gg = GearGrimshaw(0.7, 0.3, 0.5, 2.0, 0.5, r=0.4)
    gen = gear_grimshaw_as_general(gg)
    # second row divided by b1: [[1, a3], [b2 a3 / b1, 1 / b1]]
    assert np.allclose(gen.dispersion_matrix, [[1.0, 0.5], [0.125, 0.5]])
    st = State(
        field_from_callable(lambda x: np.sin(x), grid64),
        field_from_callable(lambda x: np.cos(2.0 * x), grid64),
    )
    du_a, dv_a = nonlinear_rhs(gg, st)
    du_b, dv_b = nonlinear_rhs(gen, st)
    assert np.max(np.abs(du_a.coeffs - du_b.coeffs)) < 1e-12
    assert np.max(np.abs(dv_a.coeffs - dv_b.coeffs)) < 1e-12


def test_sakovich_reduce_diagonalizes():
    A0 = np.array([[1.0, 0.5], [0.2, 2.0]])
    A1 = np.array([[0.3, -0.1], [0.0, 0.4]])
    A2 = np.array([[2.0, 1.0], [1.0, 2.0]])
    form, P = diagonal_form(Sakovich(A0, A1, A2))
    D = -np.linalg.inv(A2)
    rec = P @ form.D @ np.linalg.inv(P)
    assert np.max(np.abs(rec - D)) < 1e-12
    assert np.allclose(np.diag(form.D), [-1.0, -1.0 / 3.0])


def test_sakovich_reduce_rejections():
    with pytest.raises(NotApplicable):
        # inv(A2) has a complex pair
        diagonal_form(Sakovich(np.zeros((2, 2)), np.zeros((2, 2)), np.array([[1.0, -1.0], [1.0, 1.0]])))
    with pytest.raises(NotApplicable):
        # inv(A2) = [[1, 1], [0, 1]] is defective
        diagonal_form(Sakovich(np.zeros((2, 2)), np.zeros((2, 2)), np.array([[1.0, -1.0], [0.0, 1.0]])))


CROSS_COUPLED = {
    "gear_grimshaw": GearGrimshaw(0.7, 0.3, 0.5, 2.0, 0.5, r=0.4),
    "general_coupled": GeneralCoupled(1.0, 0.4, 0.0, 0.5, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, r=0.3),
    "sakovich": Sakovich(
        np.array([[1.0, 0.5], [0.2, 2.0]]), np.array([[0.3, -0.1], [0.0, 0.4]]), np.array([[2.0, 1.0], [1.0, 2.0]])
    ),
}


@pytest.mark.parametrize("name", sorted(CROSS_COUPLED))
def test_diagonal_form_rhs_consistency(grid64, name):
    # dt-form: W_t = P_inv U_t must hold between the two right-hand sides
    spec = CROSS_COUPLED[name]
    form, P = diagonal_form(spec)
    P_inv = np.linalg.inv(P)
    u = field_from_callable(lambda x: np.sin(x) + 0.3 * np.cos(3.0 * x), grid64)
    v = field_from_callable(lambda x: np.cos(2.0 * x), grid64)
    U = np.stack([u.coeffs, v.coeffs])
    W = P_inv @ U
    got = nonlinear_rhs(form, State(SpectralField(W[0], grid64), SpectralField(W[1], grid64)))
    want = P_inv @ np.stack([f.coeffs for f in nonlinear_rhs(spec, State(u, v))])
    got = np.stack([f.coeffs for f in got])
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(P @ form.D @ P_inv - lower(spec).D)) < 1e-12

