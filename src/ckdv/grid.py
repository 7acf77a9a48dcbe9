"""Periodic spectral grid and transform primitives.

Fields live on a uniform grid of n points covering the centered box
[-L/2, L/2).  Spectral coefficients follow the continuum convention

    fhat(xi) = (2*pi)**(-1/2) * integral exp(-i*xi*x) f(x) dx,

discretized so that Parseval holds exactly on the grid:

    sum_k |fhat_k|**2 * dxi == sum_j |f_j|**2 * dx.

Wavenumbers are xi_k = 2*pi*k/L for integer k in {-n/2+1, ..., n/2},
stored in FFT layout; the Nyquist slot carries +n/2.  Dealiasing follows
the 2/3 rule: it keeps |k| <= n/3, so a dealiased field has no Nyquist
mode, while a raw field from `forward` may.  Coefficients are
true continuum-convention coefficients (the centering phase is folded
in), so a field may be evaluated off-grid by direct summation.  Fields
go through `Grid.to_coeffs`/`Grid.to_values` (numpy.fft's complex pair);
`systems.SpectralRhs` through `irfft_into`/`rfft_into`, pocketfft's real
gufuncs called directly, or numpy.fft's real pair where numpy lacks them.
A field's coefficients may carry leading axes, one field per row; the
transforms, derivatives and oversampling below act on the last axis.
`cumulative_simpson_c` is the time quadrature both Duhamel integrals
(`solver.picard_iterate`, `bourgain.spacetime.duhamel_field`) use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _real_pair(umath) -> tuple:
    """Last-axis (irfft, rfft) into `out`, n even: `umath`'s pocketfft gufuncs when both have the
    signatures numpy.fft calls them with, else numpy.fft's pair; bit for bit the same either way."""
    inv, fwd = getattr(umath, "irfft", None), getattr(umath, "rfft_n_even", None)
    if getattr(inv, "signature", None) == "(m),()->(n)" and getattr(fwd, "signature", None) == "(n),()->(m)":
        # numpy's factors, 1/n inverse (np.reciprocal(n, dtype=np.float64) bit for bit) and 1 forward
        return lambda c, out: inv(c, 1.0 / out.shape[-1], out=out), lambda f, out: fwd(f, 1, out=out)
    return lambda c, out: np.fft.irfft(c, out.shape[-1], out=out), lambda f, out: np.fft.rfft(f, out=out)


irfft_into, rfft_into = _real_pair(getattr(np.fft, "_pocketfft_umath", None))


def _along(table: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """A per-mode table shaped to broadcast along `axis` of an ndim-dimensional array."""
    return table.reshape((-1,) + (1,) * (ndim - 1 - axis % ndim))


class Grid:
    """Uniform periodic grid with cached spectral tables."""

    def __init__(self, n: int, period: float):
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {n!r}")
        if not _is_power_of_two(int(n)) or n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        if not (period > 0.0) or not np.isfinite(period):
            raise ValueError(f"period must be positive and finite, got {period}")
        self.n = int(n)
        self.period = float(period)

        self.dx = self.period / self.n
        self.dxi = 2.0 * np.pi / self.period
        self.x = -0.5 * self.period + self.dx * np.arange(self.n)

        # integer wavenumber table in FFT layout, Nyquist slot = +n/2
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        k[self.n // 2] = self.n // 2
        self.k = k
        self.xi = self.dxi * k
        # odd-order multipliers (i*xi, exp(-i*c*xi^3*t)) take xi = 0 at the
        # Nyquist mode, whose sign is ambiguous, so a raw field (from forward
        # or a snapshot), which still carries that mode, keeps it real
        self.xi_odd = np.where(k == self.n // 2, 0.0, self.xi)
        # centering phase (-1)**k maps raw FFT output to continuum coefficients
        self._sign = np.where(k % 2 == 0, 1.0, -1.0)
        # the 2/3 rule: keep |k| <= n/3, which drops the Nyquist mode too
        self.keep = 3 * np.abs(k) <= self.n

    def __repr__(self):
        return f"Grid(n={self.n}, period={self.period:.6g})"

    def to_coeffs(self, samples: np.ndarray, axis: int = -1) -> np.ndarray:
        """FFT-layout coefficients of samples on self.x along `axis`: FFT, centering sign, dx/sqrt(2*pi)."""
        coeffs = np.fft.fft(samples, axis=axis).astype(np.complex128, copy=False)  # complex128 for any input
        coeffs *= _along(self._sign * (self.dx / SQRT_2PI), samples.ndim, axis)  # in place: no scaled copy
        return coeffs

    def to_values(self, coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
        """Complex samples on self.x of FFT-layout coefficients along `axis`; to_coeffs' inverse."""
        vals = np.fft.ifft(coeffs * _along(self._sign, coeffs.ndim, axis), axis=axis)
        re_im = vals.view(np.float64)
        re_im *= SQRT_2PI / self.dx  # a real scale, so .real is bit for bit ifft(...).real * scale
        return vals

    def compatible(self, other: "Grid") -> bool:
        return self.n == other.n and self.period == other.period


@dataclass
class SpectralField:
    """A real periodic field stored by its spectral coefficients."""

    coeffs: np.ndarray
    grid: Grid

    def values(self) -> np.ndarray:
        return inverse(self)

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.grid)


def forward(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Transform real samples on grid.x to spectral coefficients."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n,):
        raise ValueError(f"samples shape {samples.shape} does not match grid n={grid.n}")
    return SpectralField(grid.to_coeffs(samples), grid)


def inverse(field: SpectralField) -> np.ndarray:
    """Real samples of the field on grid.x."""
    return field.grid.to_values(field.coeffs).real


def to_half(coeffs: np.ndarray) -> np.ndarray:
    """The non-negative modes k = 0..n/2 of full-layout coefficients (a view).

    A real field's coefficients are conjugate symmetric, so these n/2+1
    modes determine all n.
    """
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def to_full(half: np.ndarray) -> np.ndarray:
    """Full FFT layout from a half spectrum, filling k < 0 by conjugate symmetry.

    The zero and Nyquist slots are copied as they are.
    """
    return np.concatenate([half, np.conj(half[..., -2:0:-1])], axis=-1)


def field_from_callable(fn, grid: Grid) -> SpectralField:
    return forward(np.asarray(fn(grid.x), dtype=np.float64), grid)


def zero_field(grid: Grid) -> SpectralField:
    return SpectralField(np.zeros(grid.n, dtype=np.complex128), grid)


def spectral_derivative(field: SpectralField, order: int) -> SpectralField:
    """The order-th derivative by the Fourier multiplier (i*xi)**order.

    The order is an integer >= 0; odd orders use xi_odd, so the Nyquist
    mode has zero derivative, as in the solver.
    """
    if not (isinstance(order, (int, np.integer)) and order >= 0):
        raise ValueError(f"derivative order must be an integer >= 0, got {order!r}")
    grid = field.grid
    m = int(order)
    return SpectralField(field.coeffs * (1j * (grid.xi_odd if m % 2 else grid.xi)) ** m, grid)


def dealias(field: SpectralField) -> SpectralField:
    """Zero every mode with |k| > n/3 (the 2/3 rule)."""
    return SpectralField(np.where(field.grid.keep, field.coeffs, 0.0), field.grid)


def reflect(field: SpectralField) -> SpectralField:
    """The field x -> f(-x) on the same grid."""
    c = field.coeffs
    return SpectralField(np.roll(c[::-1], 1).copy(), field.grid)


def hermitian_defect(field: SpectralField) -> float:
    """Relative departure from conjugate symmetry coeffs(-k) == conj(coeffs(k))."""
    c = field.coeffs
    mirrored = np.roll(c[::-1], 1)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(mirrored - np.conj(c))) / scale)


def l2_norm(field: SpectralField) -> float:
    """Spatial L2 norm via the spectral Parseval sum."""
    return float(np.sqrt(np.sum(np.abs(field.coeffs) ** 2) * field.grid.dxi))


def oversampled_values(field: SpectralField) -> tuple[np.ndarray, float]:
    """Samples of the field on a twice finer grid (zero padding).

    Returns (values, fine dx).  Used for quadrature of cubic integrands,
    which a 2x refinement renders exact for grid-band-limited fields.
    """
    grid = field.grid
    fine = Grid(2 * grid.n, grid.period)
    padded = np.zeros(field.coeffs.shape[:-1] + (fine.n,), dtype=np.complex128)
    padded[..., grid.k % fine.n] = field.coeffs
    return fine.to_values(padded).real.copy(), fine.dx  # a copy frees the complex samples


def cumulative_simpson_c(y: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """Cumulative Simpson integral of complex y along `axis`, from 0 at the first sample.

    Reproduces scipy 1.17's equal-step `cumulative_simpson(..., initial=0.0)`
    operation for operation on the (real, imag) float view, so the output is
    bit-identical.  Hand-written because scipy forms the forward and backward
    rule on every interval of a transposed copy and keeps half; this forms
    only the intervals used and sums them in place.  Needs 3 or more samples.
    """
    n = y.shape[axis]
    if n < 3:
        raise ValueError(f"need at least 3 samples along axis {axis}, got {n}")
    out = np.zeros(y.shape, dtype=np.complex128)  # row 0 stays 0: the integral's start
    f, acc = (np.moveaxis(z[..., None].view(np.float64), axis % y.ndim, 0)  # float (re, im) views
              for z in (np.ascontiguousarray(y), out))
    d3 = dx / 3
    a, b, c = f[:-2:2], 2 * f[1:-1:2], f[2::2]
    acc[1:-1:2] = d3 * (5 * a / 4 + b - c / 4)  # forward, even intervals
    acc[2::2] = d3 * (5 * c / 4 + b - a / 4)  # backward, odd intervals
    if n % 2 == 0:  # the last interval is even, and scipy takes it backward too
        acc[-1] = d3 * (5 * f[-1] / 4 + 2 * f[-2] - f[-3] / 4)
    np.cumsum(acc[1:], axis=0, out=acc[1:])
    acc += 0.0  # scipy adds `initial`, which turns a -0.0 sum into +0.0
    return out
