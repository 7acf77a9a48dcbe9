"""Periodic spectral grid and transform primitives.

Fields live on a uniform grid of n points covering the centered box
[-L/2, L/2).  Spectral coefficients follow the continuum convention

    fhat(xi) = (2*pi)**(-1/2) * integral exp(-i*xi*x) f(x) dx,

discretized so that Parseval holds exactly on the grid:

    sum_k |fhat_k|**2 * dxi == sum_j |f_j|**2 * dx.

Wavenumbers are xi_k = 2*pi*k/L for integer k in {-n/2+1, ..., n/2},
stored in FFT layout; the Nyquist slot carries +n/2.  Coefficients are
true continuum-convention coefficients (the centering phase is folded
in), so a field may be evaluated off-grid by direct summation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Uniform periodic grid with cached spectral tables."""

    def __init__(self, n: int, period: float, dealias_fraction: float = 2.0 / 3.0):
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"n must be an integer, got {n!r}")
        if not _is_power_of_two(int(n)) or n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        if not (period > 0.0) or not np.isfinite(period):
            raise ValueError(f"period must be positive and finite, got {period}")
        if not (0.0 < dealias_fraction <= 1.0):
            raise ValueError(f"dealias_fraction must lie in (0, 1], got {dealias_fraction}")
        self.n = int(n)
        self.period = float(period)
        self.dealias_fraction = float(dealias_fraction)

        self.dx = self.period / self.n
        self.dxi = 2.0 * np.pi / self.period
        self.x = -0.5 * self.period + self.dx * np.arange(self.n)

        # integer wavenumber table in FFT layout, Nyquist slot = +n/2
        k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        k[self.n // 2] = self.n // 2
        self.k = k
        self.xi = self.dxi * k
        # centering phase (-1)**k maps raw FFT output to continuum coefficients
        self._sign = np.where(k % 2 == 0, 1.0, -1.0)
        # keep |k| <= fraction*(n/2); strict inequality zeroes the rest
        self.keep = ~(np.abs(k) > self.dealias_fraction * (self.n / 2.0))

    def __repr__(self):
        return f"Grid(n={self.n}, period={self.period:.6g}, dealias_fraction={self.dealias_fraction:.4g})"

    def compatible(self, other: "Grid") -> bool:
        return (
            self.n == other.n
            and self.period == other.period
            and self.dealias_fraction == other.dealias_fraction
        )


@dataclass
class SpectralField:
    """A real periodic field stored by its spectral coefficients."""

    coeffs: np.ndarray
    grid: Grid

    def values(self) -> np.ndarray:
        return inverse(self)

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.grid)


def make_grid(n: int, period: float, dealias_fraction: float = 2.0 / 3.0) -> Grid:
    return Grid(n, period, dealias_fraction)


def forward(samples: np.ndarray, grid: Grid) -> SpectralField:
    """Transform real samples on grid.x to spectral coefficients."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (grid.n,):
        raise ValueError(f"samples shape {samples.shape} does not match grid n={grid.n}")
    coeffs = np.fft.fft(samples) * (grid._sign * (grid.dx / SQRT_2PI))
    return SpectralField(coeffs, grid)


def inverse(field: SpectralField) -> np.ndarray:
    """Real samples of the field on grid.x."""
    grid = field.grid
    return np.fft.ifft(field.coeffs * grid._sign).real * (SQRT_2PI / grid.dx)


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


def spectral_derivative(field: SpectralField, order) -> SpectralField:
    """Derivative by Fourier multiplier.

    An integer order m applies (i*xi)**m.  A non-integer (float) order
    s >= 0 applies the modulus multiplier |xi|**s, with |0|**s = 0 for
    s > 0 and the zero mode left alone for s = 0.
    """
    grid = field.grid
    if isinstance(order, (int, np.integer)):
        m = int(order)
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        mult = (1j * grid.xi) ** m
    else:
        s = float(order)
        if s < 0:
            raise ValueError("fractional derivative exponent must be >= 0")
        mult = np.abs(grid.xi) ** s
    return SpectralField(field.coeffs * mult, grid)


def dealias(field: SpectralField) -> SpectralField:
    """Zero every mode with |k| beyond the retained fraction of n/2."""
    return SpectralField(np.where(field.grid.keep, field.coeffs, 0.0), field.grid)


def product(f: SpectralField, g: SpectralField, dealias_result: bool = True) -> SpectralField:
    """Pseudo-spectral product: multiply on the grid, transform back."""
    if not f.grid.compatible(g.grid):
        raise ValueError("fields live on incompatible grids")
    h = forward(inverse(f) * inverse(g), f.grid)
    return dealias(h) if dealias_result else h


def evaluate_at(field: SpectralField, points: np.ndarray) -> np.ndarray:
    """Evaluate the band-limited interpolant at arbitrary points.

    Exact for the trigonometric polynomial the coefficients represent;
    cost is O(n * len(points)).
    """
    grid = field.grid
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    phases = np.exp(1j * points[:, None] * grid.xi[None, :])
    vals = phases @ field.coeffs * (grid.dxi / SQRT_2PI)
    return vals.real


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


def oversampled_values(field: SpectralField, factor: int = 2) -> tuple[np.ndarray, float]:
    """Samples of the field on a factor-times finer grid (zero padding).

    Returns (values, fine dx).  Used for quadrature of cubic integrands,
    which a 2x refinement renders exact for grid-band-limited fields.
    """
    grid = field.grid
    nf = factor * grid.n
    fine = np.zeros(nf, dtype=np.complex128)
    fine[grid.k % nf] = field.coeffs
    kf = np.fft.fftfreq(nf, d=1.0 / nf).astype(np.int64)
    sign = np.where(kf % 2 == 0, 1.0, -1.0)
    dxf = grid.period / nf
    vals = np.fft.ifft(fine * sign).real * (SQRT_2PI / dxf)
    return vals, dxf
