"""Truncated Fourier series on rectangular periodicity cells.

Every coefficient field in this package is a finite table of Fourier
coefficients c[n], n in Z^d, representing

    f(xi) = sum_n c[n] * exp(2*pi*i * n . (xi / lambda))

on the cell [0, lambda_1] x ... x [0, lambda_d].  Products are formed on
a uniform grid wide enough to hold their whole linear convolution
(:func:`to_grid`, :func:`from_grid`), so they are exact up to roundoff, and
cell averages are exact coefficient sums: no quadrature or aliasing error
enters any cell integral built from these fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * np.pi
RESONANCE_TOL = 1e-9


@dataclass(frozen=True)
class Cell:
    """Rectangular periodicity cell with side lengths lambda_i > 0, d in {1,2,3}."""

    lengths: tuple
    max_dims = 3  # a class attribute, not a field

    def __post_init__(self):
        lengths = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lengths, dtype=float)))
        object.__setattr__(self, "lengths", lengths)
        if not 1 <= len(lengths) <= self.max_dims:
            raise ValidationError(f"cell dimension must be 1 to {self.max_dims}")
        if any(not np.isfinite(v) or v <= 0.0 for v in lengths):
            raise ValidationError("cell side lengths must be positive and finite")

    @property
    def dims(self) -> int:
        return len(self.lengths)

    @property
    def diag(self) -> np.ndarray:
        """Side lengths as a vector (the diagonal of the cell)."""
        return np.asarray(self.lengths)


class SpacetimeCell(Cell):
    """A time period followed by a cell's sides, so a 3D cell's spacetime has 4 axes."""

    max_dims = 4


def resonant_point(lam, cell: Cell):
    """The integer point n within RESONANCE_TOL of lam (.) lambda / (2 pi) on every axis, or None.

    A product e^{i lam . xi} times a cell-periodic series averages, over
    growing boxes, to the harmonic that cancels the carrier: its index is
    -n, and with no such n the average tends to 0.
    """
    frac = np.asarray(lam, dtype=float) * cell.diag / TWO_PI
    n = np.round(frac)
    if np.all(np.abs(frac - n) <= RESONANCE_TOL):
        return tuple(int(v) for v in n)
    return None


def _as_cutoffs(cell: Cell, cutoff) -> tuple:
    if np.isscalar(cutoff):
        cut = (int(cutoff),) * cell.dims
    else:
        cut = tuple(int(c) for c in cutoff)
    if len(cut) != cell.dims or any(c < 0 for c in cut):
        raise ValidationError("cutoff must be a nonnegative integer per axis")
    return cut


class FourierField:
    """Scalar cell-periodic field stored as a dense block of Fourier coefficients.

    ``coeffs`` has shape (2*c_1 + 1, ..., 2*c_d + 1); the entry at position
    n + c is the coefficient of exp(2*pi*i * n . (xi / lambda)).
    """

    __slots__ = ("cell", "coeffs", "cutoffs")

    def __init__(self, cell: Cell, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.ndim != cell.dims or any(s % 2 == 0 for s in coeffs.shape):
            raise ValidationError("coefficient block must be odd-sized along every axis")
        self.cell = cell
        self.coeffs = coeffs
        self.cutoffs = tuple((s - 1) // 2 for s in coeffs.shape)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zeros(cls, cell: Cell, cutoff) -> "FourierField":
        cut = _as_cutoffs(cell, cutoff)
        return cls(cell, np.zeros(tuple(2 * c + 1 for c in cut), dtype=np.complex128))

    @classmethod
    def constant(cls, cell: Cell, value) -> "FourierField":
        field = cls.zeros(cell, 0)
        field.coeffs[field.cutoffs] = value
        return field

    @classmethod
    def from_terms(cls, cell: Cell, cutoff, terms: dict) -> "FourierField":
        """Build from a {multi-index: coefficient} table; indices beyond cutoff are rejected."""
        field = cls.zeros(cell, cutoff)
        for n, c in terms.items():
            idx = np.atleast_1d(np.asarray(n, dtype=int))
            if idx.shape != (cell.dims,):
                raise ValidationError(f"mode index {n!r} does not match cell dimension {cell.dims}")
            if any(abs(int(idx[ax])) > field.cutoffs[ax] for ax in range(cell.dims)):
                raise ValidationError(f"mode index {n!r} exceeds the declared cutoff")
            field.coeffs[tuple(int(idx[ax]) + field.cutoffs[ax] for ax in range(cell.dims))] += c
        return field

    # ------------------------------------------------------------------
    # indexing helpers

    def index_grid(self, axis: int) -> np.ndarray:
        return np.arange(-self.cutoffs[axis], self.cutoffs[axis] + 1)

    def coeff(self, n) -> complex:
        """Coefficient at multi-index n (0 outside the stored block)."""
        idx = np.atleast_1d(np.asarray(n, dtype=int))
        if any(abs(int(idx[ax])) > self.cutoffs[ax] for ax in range(self.cell.dims)):
            return 0.0 + 0.0j
        return complex(self.coeffs[tuple(int(idx[ax]) + self.cutoffs[ax] for ax in range(self.cell.dims))])

    # ------------------------------------------------------------------
    # algebra

    def _padded(self, cutoffs: tuple) -> np.ndarray:
        pad = [(c - s, c - s) for c, s in zip(cutoffs, self.cutoffs)]
        if any(p < 0 for p, _ in pad):
            raise ValidationError("cannot pad to a smaller cutoff")
        return np.pad(self.coeffs, pad)

    def __add__(self, other):
        if not isinstance(other, FourierField):
            return NotImplemented
        cut = tuple(max(a, b) for a, b in zip(self.cutoffs, other.cutoffs))
        return FourierField(self.cell, self._padded(cut) + other._padded(cut))

    def __sub__(self, other):
        if not isinstance(other, FourierField):
            return NotImplemented
        cut = tuple(max(a, b) for a, b in zip(self.cutoffs, other.cutoffs))
        return FourierField(self.cell, self._padded(cut) - other._padded(cut))

    def __neg__(self):
        return FourierField(self.cell, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, FourierField):
            values = to_grid([self.coeffs, other.coeffs], [self.coeffs.shape, other.coeffs.shape])
            cut = tuple(a + b for a, b in zip(self.cutoffs, other.cutoffs))
            return FourierField(self.cell, from_grid(values[:1] * values[1:], [cut])[0])
        return FourierField(self.cell, self.coeffs * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def conjugate(self) -> "FourierField":
        """Pointwise complex conjugate (coefficients reversed and conjugated)."""
        rev = self.coeffs[tuple(slice(None, None, -1) for _ in range(self.cell.dims))]
        return FourierField(self.cell, np.conj(rev))

    def derivative(self, axis: int) -> "FourierField":
        """Partial derivative along a cell axis."""
        return self.gauge_derivative(axis, 0.0)

    def gauge_derivative(self, axis: int, shift: float) -> "FourierField":
        """Apply (d/dxi_axis + i*shift): coefficientwise multiply by i*(2*pi*n/lambda + shift)."""
        mult = 1j * (TWO_PI * self.index_grid(axis) / self.cell.lengths[axis] + shift)
        shape = [1] * self.cell.dims
        shape[axis] = -1
        return FourierField(self.cell, self.coeffs * mult.reshape(shape))

    def mean(self) -> complex:
        """Cell average (1/|cell|) * integral of the field."""
        return complex(self.coeffs[self.cutoffs])

    def conj_symmetry_error(self) -> float:
        """Max |c[-n] - conj(c[n])|; 0 for a real-valued field."""
        rev = self.coeffs[tuple(slice(None, None, -1) for _ in range(self.cell.dims))]
        return float(np.max(np.abs(rev - np.conj(self.coeffs))))

    # ------------------------------------------------------------------
    # evaluation

    def sample_grid(self, resolution) -> np.ndarray:
        """Synthesize on a uniform grid of the cell by inverse DFT.

        The resolution must be at least 2*cutoff + 1 per axis so every stored
        mode lands in a distinct bin (no aliasing of retained modes).
        """
        if np.isscalar(resolution):
            res = (int(resolution),) * self.cell.dims
        else:
            res = tuple(int(r) for r in resolution)
        if len(res) != self.cell.dims:
            raise ValidationError("resolution must give one sample count per axis")
        for ax, r in enumerate(res):
            if r < 2 * self.cutoffs[ax] + 1:
                raise ValidationError(
                    f"resolution {r} on axis {ax} is below the Nyquist bound "
                    f"{2 * self.cutoffs[ax] + 1} for cutoff {self.cutoffs[ax]}"
                )
        spec = np.zeros(res, dtype=np.complex128)
        wrapped = [self.index_grid(ax) % res[ax] for ax in range(self.cell.dims)]
        spec[np.ix_(*wrapped)] = self.coeffs
        return np.fft.ifftn(spec) * np.prod(res)

    def sample_points_1d(self, x) -> np.ndarray:
        """Evaluate a 1D field at arbitrary points (exact synthesis of the series)."""
        if self.cell.dims != 1:
            raise ValidationError("sample_points_1d only applies to 1D fields")
        x = np.asarray(x, dtype=float)
        phases = np.exp(2j * np.pi * np.outer(x, self.index_grid(0)) / self.cell.lengths[0])
        return phases @ self.coeffs


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT handles without a prime-size detour."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _centered(cutoffs, grid) -> tuple:
    """Slices of a centred grid (harmonic 0 at index N // 2) holding harmonics -c..c per axis."""
    return tuple(slice(n // 2 - c, n // 2 + c + 1) for c, n in zip(cutoffs, grid))


def to_grid(tables, widths) -> np.ndarray:
    """Values of a stack of coefficient tables on one uniform grid of the cell.

    ``widths`` are the shapes of the factors of the product to be formed on
    the grid.  Each axis gets at least sum(w[ax]) - (len(widths) - 1) points,
    the width of the factors' linear convolution, rounded up to an FFT-friendly
    length; a pointwise product of the returned values therefore wraps no
    harmonic, and :func:`from_grid` gives its coefficients exactly up to
    roundoff.  Tables are odd-sized and may differ in shape; the result has
    shape (len(tables),) + grid, with one batched inverse FFT.
    """
    grid = tuple(_fft_length(sum(axis) - len(widths) + 1) for axis in zip(*widths))
    spec = np.zeros((len(tables),) + grid, dtype=np.complex128)
    for dest, table in zip(spec, tables):
        dest[_centered([(s - 1) // 2 for s in table.shape], grid)] = table
    axes = tuple(range(1, spec.ndim))
    return np.fft.ifftn(np.fft.ifftshift(spec, axes=axes), axes=axes, norm="forward")


def from_grid(values, cutoffs) -> list:
    """Coefficient tables of a stack of grid values; table t is cropped to ``cutoffs[t]``.

    One batched forward FFT; ``values`` has shape (stack,) + grid as from
    :func:`to_grid`, and no cutoff may exceed what the grid resolves.
    """
    grid = values.shape[1:]
    if any(2 * c + 1 > n for cut in cutoffs for c, n in zip(cut, grid)):
        raise ValidationError(f"a grid of shape {grid} cannot hold cutoffs {list(cutoffs)}")
    axes = tuple(range(1, values.ndim))
    spec = np.fft.fftshift(np.fft.fftn(values, axes=axes, norm="forward"), axes=axes)
    return [table[_centered(cut, grid)] for table, cut in zip(spec, cutoffs)]


def product_mean(f: FourierField, g: FourierField) -> complex:
    """Exact cell average of the product f*g: sum_n f[n] * g[-n]."""
    cut = tuple(min(a, b) for a, b in zip(f.cutoffs, g.cutoffs))
    fs = f.coeffs[tuple(slice(c - m, c + m + 1) for c, m in zip(f.cutoffs, cut))]
    gs = g.coeffs[tuple(slice(c - m, c + m + 1) for c, m in zip(g.cutoffs, cut))]
    grev = gs[tuple(slice(None, None, -1) for _ in range(f.cell.dims))]
    return complex(np.sum(fs * grev))


def window_factor(q, length):
    """Mean of exp(i*q*x) over [0, length]: (e^{i q L} - 1) / (i q L), with q=0 -> 1.

    Broadcasts over arrays; a scalar q and length give a scalar.  |q L| < 0.1,
    where the quotient would cancel, is e^{i h} sin(h) / h with h = q L / 2.
    Each entry evaluates one of the two forms only.
    """
    ql = np.multiply(q, length, dtype=float)
    near = np.abs(ql) < 0.1
    if not near.any():
        arg = 1j * ql
        out = (np.exp(arg) - 1.0) / arg
        return out if out.ndim else complex(out)
    out = np.ones(np.shape(ql), dtype=complex)  # q L == 0 keeps 1
    arg = 1j * ql[~near]
    out[~near] = (np.exp(arg) - 1.0) / arg
    near &= ql != 0.0
    h = ql[near] / 2.0
    out[near] = np.exp(1j * h) * (np.sin(h) / h)
    return out if out.ndim else complex(out)


def box_average(coeffs: np.ndarray, factors) -> np.ndarray:
    """Sum over m of coeffs[m] * prod_ax factors[ax][w, m_ax], for every window w at once.

    ``factors[ax]`` has shape (n_windows, coeffs.shape[ax]): the average of
    each harmonic along that axis over window w.  The products are taken in
    axis order and each window's sum is one reduction over the whole table.
    """
    total = coeffs[np.newaxis]
    for ax, fac in enumerate(factors):
        shape = [1] * total.ndim
        shape[0], shape[ax + 1] = fac.shape
        total = total * np.reshape(fac, shape)
    return total.reshape(total.shape[0], -1).sum(axis=1)
