"""The eigenbasis change of variables (`diagonal_form`) and system reductions."""

import numpy as np
import pytest

from ckdv import (
    GearGrimshaw,
    GeneralCoupled,
    NormalForm,
    NotApplicable,
    Sakovich,
    State,
    diagonal_form,
    field_from_callable,
    gear_grimshaw_as_general,
    gg_lambda_alpha,
    lower,
    nonlinear_rhs,
)
from ckdv.grid import SpectralField


def dispersion_only(A) -> NormalForm:
    """The normal form u_t + A u_xxx = 0: D = -A, no Q and no R."""
    return NormalForm(-np.asarray(A, dtype=np.float64), np.zeros((2, 2, 2)), np.zeros((2, 2)))


def test_diagonal_form_random_similarity_family():
    rng = np.random.default_rng(42)
    done = 0
    while done < 1000:
        S = rng.uniform(-1.0, 1.0, size=(2, 2))
        if abs(np.linalg.det(S)) < 0.3:
            continue
        d1 = rng.uniform(-3.0, 3.0)
        d2 = d1 - rng.uniform(0.1, 3.0)  # distinct by construction
        A = S @ np.diag([d1, d2]) @ np.linalg.inv(S)
        form, P = diagonal_form(dispersion_only(A))
        alpha_plus, alpha_minus = -np.diag(form.D)
        assert np.array_equal(form.D, np.diag(np.diag(form.D)))
        assert alpha_plus == pytest.approx(d1, abs=1e-8)
        assert alpha_minus == pytest.approx(d2, abs=1e-8)
        # the columns of P are eigenvectors, P D' P^-1 = D, and one row of P is all ones
        scale = max(1.0, np.abs(A).max())
        assert np.max(np.abs(A @ P - P @ np.diag([alpha_plus, alpha_minus]))) < 1e-10 * scale
        assert np.max(np.abs(P @ form.D @ np.linalg.inv(P) + A)) < 1e-10 * scale
        assert np.all(P[0] == 1.0) or np.all(P[1] == 1.0)
        done += 1


def test_diagonal_form_rejects_a_complex_pair():
    with pytest.raises(NotApplicable, match="complex eigenvalues"):
        diagonal_form(dispersion_only([[0.0, -1.0], [1.0, 0.0]]))


def test_diagonal_form_rejects_a_defective_block():
    with pytest.raises(NotApplicable, match="defective"):
        diagonal_form(dispersion_only([[1.0, 1.0], [0.0, 1.0]]))


def test_diagonal_form_near_scalar_dispersion_is_its_own_eigenbasis():
    # a nonzero off-diagonal entry, but eigenvalues within the tie tolerance: P = I
    form, P = diagonal_form(dispersion_only([[2.0, 1e-14], [0.0, 2.0]]))
    assert np.array_equal(P, np.eye(2))
    assert np.array_equal(form.D, -2.0 * np.eye(2))
    # an exactly scalar dispersion is already diagonal
    assert diagonal_form(dispersion_only(2.0 * np.eye(2)))[1] is None
    # a gap of 1e-6 is past the tie tolerance: an eigenbasis with a row of ones
    form, P = diagonal_form(dispersion_only([[2.0 + 1e-6, 1.0], [0.0, 2.0]]))
    assert np.array_equal(P[0], [1.0, 1.0]) and P[1, 1] != 0.0
    assert form.D[1, 1] - form.D[0, 0] == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("g", [1e-9, 1e-8, 3e-8, 1e-7])
def test_diagonal_form_resolves_a_small_gap_of_a_triangular_dispersion(g):
    # eigenvalues 2 + g and 2; the gap is the stored A00 - A11, since 2 + g itself rounds
    A = np.array([[2.0 + g, 1.0], [0.0, 2.0]])
    form, P = diagonal_form(dispersion_only(A))
    gap = form.D[1, 1] - form.D[0, 0]
    assert gap == pytest.approx(A[0, 0] - A[1, 1], rel=1e-12) and gap == pytest.approx(g, rel=1e-7)
    assert np.max(np.abs(P @ form.D @ np.linalg.inv(P) + A)) < 1e-12


def test_diagonal_form_rejects_a_3x3_dispersion():
    with pytest.raises(ValueError):
        diagonal_form(NormalForm(-np.eye(3), np.zeros((2, 2, 2)), np.zeros((2, 2))))


def test_gg_lambda_alpha_reference_point():
    lam, ap, am = gg_lambda_alpha(1.0, 1.0, 2.0)
    assert (lam, ap, am) == (4.0, 3.0, -1.0)


def test_gg_lambda_alpha_matches_diagonal_form():
    rng = np.random.default_rng(3)
    for _ in range(200):
        b1 = rng.uniform(0.2, 3.0)
        b2 = rng.uniform(0.2, 3.0)
        a3 = rng.uniform(-2.0, 2.0)
        lam, ap, am = gg_lambda_alpha(b1, b2, a3)
        A = gear_grimshaw_as_general(GearGrimshaw(0.0, 0.0, a3, b1, b2)).dispersion_matrix
        alpha_plus, alpha_minus = -np.diag(diagonal_form(dispersion_only(A))[0].D)
        assert ap == pytest.approx(alpha_plus, abs=1e-10)
        assert am == pytest.approx(alpha_minus, abs=1e-10)
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

