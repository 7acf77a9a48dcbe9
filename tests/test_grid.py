"""Transform primitives: round trips, Parseval, derivatives, dealiasing."""

import numpy as np
import pytest

from ckdv import (
    Grid,
    dealias,
    evaluate_at,
    field_from_callable,
    forward,
    inverse,
    l2_norm,
    product,
    spectral_derivative,
    zero_field,
)
from ckdv.grid import hermitian_defect, make_grid, oversampled_values, reflect, to_full, to_half


def test_grid_layout(grid64):
    g = grid64
    assert g.dx == pytest.approx(2.0 * np.pi / 64)
    assert g.x[0] == pytest.approx(-np.pi)
    # centered box is half-open: the right endpoint is absent
    assert g.x[-1] == pytest.approx(np.pi - g.dx)
    assert g.k[0] == 0
    assert g.k[g.n // 2] == g.n // 2  # Nyquist slot holds +n/2
    assert g.xi[1] == pytest.approx(g.dxi)


@pytest.mark.parametrize("bad", [10, 48, 100, 8, 0, -16, 16.0, "16"])
def test_grid_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        Grid(bad, 1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_grid_rejects_bad_period(bad):
    with pytest.raises(ValueError):
        Grid(64, bad)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_grid_rejects_bad_dealias_fraction(bad):
    with pytest.raises(ValueError):
        Grid(64, 1.0, bad)


def test_compatible(grid64):
    assert grid64.compatible(Grid(64, 2.0 * np.pi))
    assert not grid64.compatible(Grid(128, 2.0 * np.pi))
    assert not grid64.compatible(Grid(64, np.pi))
    assert not grid64.compatible(Grid(64, 2.0 * np.pi, 0.5))


def test_round_trip_random_samples(grid128):
    rng = np.random.default_rng(0)
    for _ in range(20):
        samples = rng.standard_normal(grid128.n)
        back = inverse(forward(samples, grid128))
        assert np.max(np.abs(back - samples)) < 1e-12


def test_forward_rejects_wrong_length(grid64):
    with pytest.raises(ValueError):
        forward(np.zeros(65), grid64)


def test_parseval_exact(grid128):
    rng = np.random.default_rng(1)
    for _ in range(20):
        samples = rng.standard_normal(grid128.n)
        f = forward(samples, grid128)
        spec = np.sum(np.abs(f.coeffs) ** 2) * grid128.dxi
        phys = np.sum(samples**2) * grid128.dx
        assert spec == pytest.approx(phys, rel=1e-13)
        assert l2_norm(f) == pytest.approx(np.sqrt(phys), rel=1e-13)


def test_single_mode_coefficient(grid64):
    # cos(3x) on [-pi, pi) has continuum coefficients sqrt(pi/2) at k = +-3
    f = field_from_callable(lambda x: np.cos(3.0 * x), grid64)
    expect = np.sqrt(np.pi / 2.0)
    assert f.coeffs[3] == pytest.approx(expect, abs=1e-12)
    assert f.coeffs[-3] == pytest.approx(expect, abs=1e-12)
    others = np.delete(np.abs(f.coeffs), [3, grid64.n - 3])
    assert np.max(others) < 1e-12


def test_derivative_matches_closed_form(grid64):
    f = field_from_callable(lambda x: np.sin(2.0 * x), grid64)
    d1 = inverse(spectral_derivative(f, 1))
    d3 = inverse(spectral_derivative(f, 3))
    assert np.max(np.abs(d1 - 2.0 * np.cos(2.0 * grid64.x))) < 1e-12
    assert np.max(np.abs(d3 + 8.0 * np.cos(2.0 * grid64.x))) < 1e-10


def test_fractional_derivative_multiplier(grid64):
    f = field_from_callable(lambda x: np.cos(4.0 * x), grid64)
    h = spectral_derivative(f, 1.5)
    assert h.coeffs[4] == pytest.approx(4.0**1.5 * f.coeffs[4], rel=1e-13)
    # s = 0 must be the identity, zero mode included
    g = field_from_callable(lambda x: 1.0 + np.cos(x), grid64)
    assert np.allclose(spectral_derivative(g, 0.0).coeffs, g.coeffs)


def test_derivative_rejects_negative_order(grid64):
    f = zero_field(grid64)
    with pytest.raises(ValueError):
        spectral_derivative(f, -1)
    with pytest.raises(ValueError):
        spectral_derivative(f, -0.5)


def test_dealias_mask(grid64):
    f = SpectralFieldOfOnes(grid64)
    d = dealias(f)
    kept = np.abs(grid64.k) <= (2.0 / 3.0) * (grid64.n / 2.0)
    assert np.all(d.coeffs[kept] == 1.0)
    assert np.all(d.coeffs[~kept] == 0.0)


def SpectralFieldOfOnes(grid):
    from ckdv import SpectralField

    return SpectralField(np.ones(grid.n, dtype=np.complex128), grid)


def test_product_of_low_modes_is_exact(grid64):
    # modes 3 and 5 produce modes 2 and 8, all inside the kept band
    f = field_from_callable(lambda x: np.cos(3.0 * x), grid64)
    g = field_from_callable(lambda x: np.cos(5.0 * x), grid64)
    h = inverse(product(f, g))
    expect = 0.5 * (np.cos(2.0 * grid64.x) + np.cos(8.0 * grid64.x))
    assert np.max(np.abs(h - expect)) < 1e-12


def test_product_dealiases_by_default(grid64):
    # 12 + 12 = 24 exceeds the kept band (2/3 * 32 = 21.33)
    f = field_from_callable(lambda x: np.cos(12.0 * x), grid64)
    h = product(f, f)
    assert abs(h.coeffs[24]) == 0.0
    raw = product(f, f, dealias_result=False)
    assert abs(raw.coeffs[24]) > 1e-8


def test_product_rejects_incompatible_grids(grid64):
    f = zero_field(grid64)
    g = zero_field(Grid(128, 2.0 * np.pi))
    with pytest.raises(ValueError):
        product(f, g)


def test_evaluate_at_matches_grid_and_offgrid(grid64):
    f = field_from_callable(lambda x: np.cos(2.0 * x) + 0.3 * np.sin(5.0 * x), grid64)
    on = evaluate_at(f, grid64.x[:7])
    assert np.max(np.abs(on - inverse(f)[:7])) < 1e-12
    pts = np.array([0.1234, -1.5, 2.718])
    off = evaluate_at(f, pts)
    expect = np.cos(2.0 * pts) + 0.3 * np.sin(5.0 * pts)
    assert np.max(np.abs(off - expect)) < 1e-12


def test_reflect(grid64):
    f = field_from_callable(lambda x: np.sin(x) + np.cos(2.0 * x), grid64)
    r = inverse(reflect(f))
    expect = -np.sin(grid64.x) + np.cos(2.0 * grid64.x)
    assert np.max(np.abs(r - expect)) < 1e-12


def test_reflect_involution(grid128, gaussian128):
    f = gaussian128
    back = reflect(reflect(f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14


def test_hermitian_defect(grid64):
    f = field_from_callable(lambda x: np.cos(3.0 * x), grid64)
    assert hermitian_defect(f) < 1e-14
    broken = f.copy()
    broken.coeffs[3] += 1.0j
    assert hermitian_defect(broken) > 0.1
    assert hermitian_defect(zero_field(grid64)) == 0.0


def test_oversampled_values_cubic_quadrature(grid64):
    # for a band-limited cubic integrand the 2x rectangle rule is exact
    f = field_from_callable(lambda x: np.cos(x), grid64)
    vals, dxf = oversampled_values(f, 2)
    assert vals.size == 2 * grid64.n
    assert dxf == pytest.approx(grid64.dx / 2.0)
    integral = np.sum(vals**3) * dxf  # integral of cos^3 over a full period
    assert abs(integral) < 1e-12
    g = field_from_callable(lambda x: 1.0 + np.cos(x), grid64)
    gv, gdx = oversampled_values(g, 2)
    # (1 + cos)^3 integrates to 2*pi * (1 + 3/2)
    assert np.sum(gv**3) * gdx == pytest.approx(5.0 * np.pi, rel=1e-13)


def test_oversampled_values_match_evaluate_at(grid64):
    f = field_from_callable(lambda x: np.exp(np.cos(x)), grid64)
    vals, dxf = oversampled_values(f, 2)
    fine_x = -0.5 * grid64.period + dxf * np.arange(2 * grid64.n)
    assert np.max(np.abs(vals - evaluate_at(f, fine_x))) < 1e-11


def test_make_grid_alias():
    g = make_grid(32, 1.0)
    assert isinstance(g, Grid)
    assert g.n == 32


def test_half_spectrum_round_trip(grid64):
    f = field_from_callable(lambda x: np.exp(np.sin(x)) + np.cos(3.0 * x), grid64)
    half = to_half(f.coeffs)
    assert half.shape == (grid64.n // 2 + 1,)
    assert np.array_equal(half, f.coeffs[: grid64.n // 2 + 1])
    assert np.max(np.abs(to_full(half) - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))
    stacked = np.stack([half, 2.0 * half])
    assert np.array_equal(to_full(stacked)[1], to_full(2.0 * half))
