"""Finite-window averages of periodic and quasi-periodic signals.

Signals are :class:`hfh.fourier.FourierField` tables (a 1D signal of period
T is a field on ``Cell((T,))``), so every window integral has a closed form
and the only approximation in sight is the window length itself.  Each
operation reports the analytic infinite-window limit, the numeric averages
per window, and the certified constant C in |average(a) - limit| <= C / a.

The modulated average of f e^{i lambda . xi} tends to the harmonic of f
that cancels the carrier, picked by :func:`hfh.fourier.resonant_point`,
and to 0 when lambda (.) cell / (2 pi) is off the integer lattice.  The
supercell coupling limits read the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .fourier import RESONANCE_TOL, TWO_PI, FourierField, box_average, resonant_point, window_factor

RATIONAL_DENOMINATOR_BOUND = 10 ** 6


@dataclass(frozen=True)
class WindowAverageResult:
    """Numeric finite-window averages next to the analytic limit.

    ``decay_constant`` is the constant C in |value - limit| <= C / window,
    certified from the harmonic table (each non-resonant harmonic's window
    factor obeys |phi(q, a)| <= 2/(|q| a)), so the bound holds for every
    window, not only the supplied ones; ``resonant`` records the analytic
    classification that produced the limit.
    """

    windows: tuple
    values: tuple
    analytic_limit: complex
    decay_constant: float
    resonant: bool

    def errors(self) -> np.ndarray:
        return np.abs(np.asarray(self.values) - self.analytic_limit)


def _box_sizes(boxes, dims: int) -> np.ndarray:
    """Window sizes, shape (n_boxes, dims): a scalar entry is a cube, and sizes grow on every axis."""
    try:
        sizes = np.array([np.full(dims, float(box)) if np.isscalar(box) else np.asarray(box, dtype=float)
                          for box in boxes])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"windows must be a list of numbers or size tuples: {exc}") from exc
    if sizes.shape != (len(sizes), dims) or not np.all(np.isfinite(sizes) & (sizes > 0)):
        raise ValidationError(f"windows must be a nonempty list of positive, finite sizes "
                              f"({dims} per window when given per axis)")
    if not np.all(sizes[1:] > sizes[:-1]):
        raise ValidationError("windows must grow in every axis")
    return sizes


def _check_finite(f: FourierField, name: str):
    if not np.all(np.isfinite(f.coeffs)):
        raise ValidationError(f"{name} must have finite coefficients")


def _certified_constant(q, c) -> float:
    """Sum of 2|c|/|q| over the nonzero terms whose angular frequency q is non-resonant."""
    q = np.abs(q)
    keep = (q > RESONANCE_TOL) & (c != 0)
    return float(np.sum(2.0 * np.abs(c[keep]) / q[keep]))


def avg_modulated_dd(f: FourierField, lam, boxes) -> WindowAverageResult:
    """Averages (1/|Q|) int_Q f(xi) e^{i lambda . xi} dxi over growing boxes.

    ``boxes`` entries are either scalars (cubes [0, a]^d) or length-d size
    tuples; sizes must grow in every axis.  The limit vanishes unless every
    axis is resonant (T_j * lambda_j in 2 pi Z within 1e-9), in which case it
    is the cell average of f e^{i lambda . xi}.
    """
    cell = f.cell
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (cell.dims,):
        raise ValidationError(f"lambda must have {cell.dims} component(s)")
    if not np.all(np.isfinite(lam)):
        raise ValidationError(f"lambda must be finite, got {lam}")
    _check_finite(f, "f")
    sizes = _box_sizes(boxes, cell.dims)

    # angular frequency of each harmonic along each axis, and its window factors
    qs = [TWO_PI * f.index_grid(ax) / cell.lengths[ax] + lam[ax] for ax in range(cell.dims)]
    values = box_average(f.coeffs, [window_factor(q, sizes[:, ax, np.newaxis])
                                    for ax, q in enumerate(qs)])
    n = resonant_point(lam, cell)
    limit = f.coeff([-v for v in n]) if n is not None else 0.0 + 0.0j
    # each term decays like 1/a along its fastest non-resonant axis
    nonres = np.broadcast_arrays(*np.ix_(*[np.where(np.abs(q) > RESONANCE_TOL, np.abs(q), 0.0)
                                           for q in qs]))
    cert = _certified_constant(np.max(nonres, axis=0), f.coeffs)
    widths = sizes.min(axis=1)  # decay is against the slowest-growing axis
    return WindowAverageResult(tuple(float(a) for a in widths), tuple(complex(v) for v in values),
                               complex(limit), cert, n is not None)


def _rational_ratio(t1: float, t2: float):
    """Continued-fraction rationality test for t1/t2 with a denominator bound.

    Floating point cannot certify irrationality.  A ratio is classified
    rational when its best fraction p/q with q <= 1e6 satisfies
    |ratio - p/q| <= 1e-9 / q: the denominator scaling keeps every
    float-represented rational (error ~ eps) while rejecting the spuriously
    close continued-fraction convergents of quadratic irrationals, which sit
    at error ~ 1/q^2 >> tol/q.
    """
    ratio = t1 / t2
    frac = Fraction(ratio).limit_denominator(RATIONAL_DENOMINATOR_BOUND)
    if abs(ratio - float(frac)) <= RESONANCE_TOL / frac.denominator:
        return frac
    return None


def _harmonics(f: FourierField, name: str) -> tuple:
    """Harmonic numbers, angular frequencies and coefficients of the nonzero terms of a 1D f."""
    if f.cell.dims != 1:
        raise ValidationError(f"{name} must be a 1D signal")
    _check_finite(f, name)
    keep = f.coeffs != 0
    ns = f.index_grid(0)[keep]
    return ns, TWO_PI * ns / f.cell.lengths[0], f.coeffs[keep]


def avg_product_periodic(f: FourierField, g: FourierField, windows) -> WindowAverageResult:
    """Averages (1/a) int_0^a f(x) g(x) dx for zero-mean 1D f and g.

    Incommensurate periods give limit 0; for T1/T2 = p/q the limit is the
    average over the common period q*T1, evaluated as the sum over resonant
    harmonic pairs n/T1 = -n'/T2.
    """
    (n1, nu1, c1), (n2, nu2, c2) = _harmonics(f, "f"), _harmonics(g, "g")
    if abs(f.mean()) > 0:
        raise ValidationError("avg_product_periodic requires f to have zero mean")
    win = _box_sizes(windows, 1)[:, 0]
    nu = np.add.outer(nu1, nu2).ravel()
    c = np.multiply.outer(c1, c2).ravel()
    values = box_average(c, [window_factor(nu, win[:, np.newaxis])])
    frac = _rational_ratio(f.cell.lengths[0], g.cell.lengths[0])
    limit = 0.0 + 0.0j
    if frac is not None:
        p, q = frac.numerator, frac.denominator
        for n, a in zip(n1, c1):
            for m, b in zip(n2, c2):
                if n * q == -m * p:
                    limit += a * b
    return WindowAverageResult(tuple(float(a) for a in win), tuple(complex(v) for v in values),
                               complex(limit), _certified_constant(nu, c), frac is not None)


def avg_derivative_product(f: FourierField, g: FourierField, windows) -> WindowAverageResult:
    """Averages (1/a) int_0^a f'(x) g(x) dx via the spectral derivative of f.

    f' automatically has zero mean, so this delegates to avg_product_periodic.
    """
    return avg_product_periodic(f.derivative(0), g, windows)
