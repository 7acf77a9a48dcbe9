"""Transform primitives: round trips, Parseval, derivatives, dealiasing."""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from ckdv import (
    Grid,
    dealias,
    field_from_callable,
    forward,
    inverse,
    l2_norm,
    spectral_derivative,
    zero_field,
)
from ckdv import grid as grid_module
from ckdv.grid import (
    SQRT_2PI,
    cumulative_simpson_c,
    hermitian_defect,
    oversampled_values,
    reflect,
    to_full,
    to_half,
)


def evaluate_at(field, points):
    """Reference: the band-limited interpolant at arbitrary points, by O(n m) direct sum."""
    grid = field.grid
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    phases = np.exp(1j * points[:, None] * grid.xi[None, :])
    return (phases @ field.coeffs * (grid.dxi / SQRT_2PI)).real


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


def test_compatible(grid64):
    assert grid64.compatible(Grid(64, 2.0 * np.pi))
    assert not grid64.compatible(Grid(128, 2.0 * np.pi))
    assert not grid64.compatible(Grid(64, np.pi))


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


def test_derivative_rejects_negative_order(grid64):
    # the order is an integer >= 0: a float, even a whole one, is refused too
    f = zero_field(grid64)
    for order in (-1, -0.5, 1.5, 0.0, 2.0):
        with pytest.raises(ValueError):
            spectral_derivative(f, order)


def test_odd_derivatives_zero_the_nyquist_mode():
    # a pure Nyquist field 0.05*(-1)^j, raw from forward: its grid samples
    # have no slope, and the solver gives the mode zero u_x; even orders keep it
    g = Grid(64, 8.0 * np.pi)
    u = forward(0.05 * (-1.0) ** np.arange(g.n), g)
    assert u.coeffs[g.n // 2] != 0.0
    for m in (1, 3):
        assert l2_norm(spectral_derivative(u, m)) == 0.0
    d2 = spectral_derivative(u, 2).coeffs[g.n // 2]
    assert d2 == -(g.xi[g.n // 2] ** 2) * u.coeffs[g.n // 2]


def test_derivatives_unchanged_on_dealiased_grids(grid64):
    # on a 2/3 grid the Nyquist slot is already zero: (i*xi)^m, bit for bit
    f = dealias(field_from_callable(lambda x: np.exp(np.sin(x)), grid64))
    for m in range(5):
        assert np.array_equal(spectral_derivative(f, m).coeffs, f.coeffs * (1j * grid64.xi) ** m)


def test_dealias_mask(grid64):
    f = SpectralFieldOfOnes(grid64)
    d = dealias(f)
    kept = np.abs(grid64.k) <= (2.0 / 3.0) * (grid64.n / 2.0)
    assert np.all(d.coeffs[kept] == 1.0)
    assert np.all(d.coeffs[~kept] == 0.0)


def SpectralFieldOfOnes(grid):
    from ckdv import SpectralField

    return SpectralField(np.ones(grid.n, dtype=np.complex128), grid)


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
    vals, dxf = oversampled_values(f)
    assert vals.size == 2 * grid64.n
    assert dxf == pytest.approx(grid64.dx / 2.0)
    integral = np.sum(vals**3) * dxf  # integral of cos^3 over a full period
    assert abs(integral) < 1e-12
    g = field_from_callable(lambda x: 1.0 + np.cos(x), grid64)
    gv, gdx = oversampled_values(g)
    # (1 + cos)^3 integrates to 2*pi * (1 + 3/2)
    assert np.sum(gv**3) * gdx == pytest.approx(5.0 * np.pi, rel=1e-13)


def test_oversampled_values_match_evaluate_at(grid64):
    f = field_from_callable(lambda x: np.exp(np.cos(x)), grid64)
    vals, dxf = oversampled_values(f)
    fine_x = -0.5 * grid64.period + dxf * np.arange(2 * grid64.n)
    assert np.max(np.abs(vals - evaluate_at(f, fine_x))) < 1e-11


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_to_coeffs_and_to_values_along_an_axis(axis):
    # the reference: the convention written out along one axis, sign then scale
    g = Grid(32, 5.0)
    rng = np.random.default_rng(axis % 2)
    arr = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    shape = [1, 1]
    shape[axis] = g.n
    sign = g._sign.reshape(shape)
    assert np.array_equal(g.to_coeffs(arr, axis=axis), np.fft.fft(arr, axis=axis) * sign * (g.dx / SQRT_2PI))
    assert np.array_equal(g.to_values(arr, axis=axis), np.fft.ifft(arr * sign, axis=axis) * (SQRT_2PI / g.dx))
    assert np.allclose(g.to_values(g.to_coeffs(arr, axis=axis), axis=axis), arr, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.float64])
def test_to_coeffs_scales_in_double_precision_for_any_input(dtype):
    # the scaling runs in place, on a complex128 copy when the FFT's output is single precision
    g = Grid(32, 5.0)
    arr = np.random.default_rng(3).standard_normal((32, 4)).astype(dtype) * (1j if dtype == np.complex64 else 1)
    table = (g._sign * (g.dx / SQRT_2PI))[:, None]
    got = g.to_coeffs(arr, axis=0)
    assert got.dtype == np.complex128
    assert np.array_equal(got, np.fft.fft(arr, axis=0).astype(np.complex128) * table)


class _StubGufunc:
    """Stands in for one of pocketfft's gufuncs: the given signature, and a log of its calls."""

    def __init__(self, signature, calls):
        self.signature, self.calls = signature, calls

    def __call__(self, a, fct, out):
        self.calls.append(self.signature)
        return out


@pytest.mark.parametrize("sigs, chosen", [
    (("(m),()->(n)", "(n),()->(m)"), True),
    (("(m),()->(n)", "(n)->(m)"), False),  # a forward gufunc without numpy 2's factor argument
    (("(m)->(n)", "(n),()->(m)"), False),
    ((None, "(n),()->(m)"), False),  # no signature: not a gufunc
])
def test_real_pair_takes_the_gufuncs_only_with_the_expected_signatures(sigs, chosen):
    calls = []
    umath = type("Umath", (), {"irfft": _StubGufunc(sigs[0], calls), "rfft_n_even": _StubGufunc(sigs[1], calls)})
    inv, fwd = grid_module._real_pair(umath)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((2, 3, 32))
    c = np.fft.rfft(f)
    got_f, got_c = inv(c, out=np.empty_like(f)), fwd(f, out=np.empty_like(c))
    assert calls == (list(sigs) if chosen else [])
    if not chosen:  # numpy.fft's own pair
        assert np.array_equal(got_f, np.fft.irfft(c, 32)) and np.array_equal(got_c, c)
    for missing in (None, type("Empty", (), {})):
        inv, fwd = grid_module._real_pair(missing)
        assert np.array_equal(inv(c, out=np.empty_like(f)), np.fft.irfft(c, 32))


def test_half_spectrum_round_trip(grid64):
    f = field_from_callable(lambda x: np.exp(np.sin(x)) + np.cos(3.0 * x), grid64)
    half = to_half(f.coeffs)
    assert half.shape == (grid64.n // 2 + 1,)
    assert np.array_equal(half, f.coeffs[: grid64.n // 2 + 1])
    assert np.max(np.abs(to_full(half) - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))
    stacked = np.stack([half, 2.0 * half])
    assert np.array_equal(to_full(stacked)[1], to_full(2.0 * half))


def scipy_cumulative_simpson_c(y, dx, axis):
    """scipy's equal-step rule on the (real, imag) float view of y, on a new last axis."""
    re_im = np.ascontiguousarray(y)[..., None].view(np.float64)
    with np.errstate(all="ignore"):
        out = cumulative_simpson(re_im, dx=dx, axis=axis % y.ndim, initial=0.0)
    return np.ascontiguousarray(out).view(np.complex128)[..., 0]


def _simpson_input(shape, rng):
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = y.reshape(-1)
    # nan of both signs: a sum keeps its first nan operand, so operand order shows in the bytes
    specials = [np.inf, -np.inf, np.nan, -np.nan, -0.0, 1e300]
    at = rng.choice(flat.size, size=min(flat.size, 2 * len(specials)), replace=False)
    for k, i in enumerate(at):
        v = specials[k % len(specials)]
        flat[i] = complex(v, flat[i].imag) if k % 2 else complex(flat[i].real, v)
    return y


@pytest.mark.parametrize("n", [3, 4, 5, 9, 10, 321, 512])
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_cumulative_simpson_c_bytes_match_scipy(n, axis):
    rng = np.random.default_rng(n)
    shape = [2, 3, 2]
    shape[axis] = n
    y = _simpson_input(tuple(shape), rng)
    with np.errstate(all="ignore"):
        got = cumulative_simpson_c(y, 0.37, axis)
        nc = np.repeat(y, 2, axis=-1)[..., ::2]  # the same values, not contiguous
        assert not nc.flags.c_contiguous
        got_nc = cumulative_simpson_c(nc, 0.37, axis)
    want = scipy_cumulative_simpson_c(y, 0.37, axis)
    assert got.shape == want.shape and got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()
    assert got_nc.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 10])
def test_cumulative_simpson_c_special_values(n):
    ys = [np.full((n, 2), complex(fill, -0.0)) for fill in (0.0, -0.0, np.inf, -np.inf)]
    # nan of alternating sign: each sum propagates its first nan operand
    alt = np.zeros((n, 2), dtype=complex)
    alt[::2] = complex(np.nan, -np.nan)
    alt[1::2] = complex(-np.nan, np.nan)
    # a nan in the last sample alone reaches only the last interval
    last = np.ones((n, 2), dtype=complex)
    last[-1] = complex(np.nan, -np.nan)
    for y in ys + [alt, last]:
        for dx in (0.5, -0.5):  # dx < 0 makes every interval of a zero field -0.0
            want = scipy_cumulative_simpson_c(y, dx, 0)
            with np.errstate(all="ignore"):
                assert cumulative_simpson_c(y, dx, 0).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 9, 10])
def test_cumulative_simpson_c_exact_for_quadratics(n):
    t = np.linspace(0.0, 1.3, n)
    a, b, c = 0.7 - 0.2j, -1.1 + 0.4j, 2.3 + 1.5j
    y = np.stack([a + b * t + c * t**2, (a + b * t + c * t**2) * 1j])
    primitive = a * t + b * t**2 / 2 + c * t**3 / 3
    got = cumulative_simpson_c(y, t[1] - t[0], axis=1)
    assert got[0, 0] == 0.0
    assert np.max(np.abs(got - np.stack([primitive, primitive * 1j]))) < 1e-13


def test_cumulative_simpson_c_needs_three_samples():
    with pytest.raises(ValueError):
        cumulative_simpson_c(np.ones((2, 4), dtype=complex), 0.1, axis=0)
