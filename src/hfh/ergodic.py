"""Finite-window averages of periodic and quasi-periodic signals.

Signals are :class:`hfh.fourier.FourierField` tables (a 1D signal of period
T is a field on ``Cell((T,))``), so every window integral has a closed form
and the only approximation in sight is the window length itself.  Each
operation reports the analytic infinite-window limit, the numeric averages
per window, and the certified C and D in |average(a) - limit| <= C / a + D a.

One kernel, :func:`box_means`, gives the means of f e^{i lambda . xi} over
boxes, for the modulated averages here and the spacetime coupling averages
of :mod:`hfh.effective`.  It classifies each harmonic once, by
:func:`hfh.fourier.resonant_point`: the harmonic that cancels the carrier
is the limit and enters D, and every other one enters C.  A product of two
signals pairs harmonics by the rational period ratio, and its C leaves out
exactly the pairs its limit counts.
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

    ``decay_constant`` C and ``drift_rate`` D certify |value - limit| <=
    C / window + D L up to roundoff for every window, L the box's longest
    side (the window itself in 1D and for cubes).  C sums 2|c| / |q| over
    the nonzero non-resonant harmonics, as |phi(q, a)| <= 2 / (|q| a); D sums
    |c| |q| / 2 over the resonant ones, as |phi(q, a) - 1| <= |q| a / 2, so D
    is 0 unless a harmonic within RESONANCE_TOL of the lattice misses it.
    ``resonant`` records the analytic classification that produced the limit.
    """

    windows: tuple
    values: tuple
    analytic_limit: complex
    decay_constant: float
    resonant: bool
    drift_rate: float

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


def _frequencies(f: FourierField, lam) -> list:
    """Angular frequency 2 pi m / T_ax + lambda_ax of each harmonic index m, per axis."""
    return [TWO_PI * f.index_grid(ax) / length + lam[ax] for ax, length in enumerate(f.cell.lengths)]


def _drift_rate(coeffs, qs, resonant) -> float:
    """D of :class:`WindowAverageResult`: |c| sum_ax |q_ax| / 2 summed over the harmonics in ``resonant``."""
    at = np.nonzero(resonant)
    return float(np.sum(np.abs(coeffs[at]) * sum(np.abs(q[i]) for q, i in zip(qs, at))) / 2.0)


def _certificate(coeffs, qs, resonant) -> float:
    """C of :class:`WindowAverageResult`, from each harmonic's fastest axis; ``qs[ax]`` holds the
    frequencies along axis ax."""
    q = np.broadcast_arrays(*np.ix_(*[np.abs(q) for q in qs]))
    keep = ~resonant & (coeffs != 0)
    return float(np.sum(2.0 * np.abs(coeffs)[keep] / np.max(q, axis=0)[keep]))


def box_means(f: FourierField, lam, sizes: np.ndarray) -> tuple:
    """Means (1/|Q|) int_Q f(xi) e^{i lambda . xi} dxi over boxes Q = [0, a_1] x ... x [0, a_d].

    ``sizes`` has shape (n_boxes, d).  Returns the means, their limit (f's
    harmonic -n for n = resonant_point(lambda), else 0), the mask of that
    harmonic in f's table, whether n exists, and D (:func:`_drift_rate`) of
    the mask.  An axis with lambda = 0 and whole-cell boxes or index 0 alone
    keeps only index 0: the cell mean, exactly.
    """
    cell = f.cell
    n = resonant_point(lam, cell)
    qs = _frequencies(f, lam)
    factors = []
    for ax, (length, q) in enumerate(zip(cell.lengths, qs)):
        m, a = f.index_grid(ax), sizes[:, ax]
        if lam[ax] == 0 and (f.cutoffs[ax] == 0 or np.all(np.rint(a / length) * length == a)):
            factors.append(np.broadcast_to(m == 0, (len(a), len(m))).astype(np.complex128))
        else:
            factors.append(window_factor(q, a[:, np.newaxis]))
    values = box_average(f.coeffs, factors)
    resonant, limit = np.zeros(f.coeffs.shape, dtype=bool), 0.0 + 0.0j
    if n is not None and all(abs(v) <= c for v, c in zip(n, f.cutoffs)):
        at = tuple(c - v for v, c in zip(n, f.cutoffs))  # the harmonic -n
        resonant[at], limit = True, complex(f.coeffs[at])
    return values, limit, resonant, n is not None, _drift_rate(f.coeffs, qs, resonant)


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
    values, limit, mask, resonant, drift = box_means(f, lam, sizes)
    cert = _certificate(f.coeffs, _frequencies(f, lam), mask)
    widths = sizes.min(axis=1)  # decay is against the slowest-growing axis
    return WindowAverageResult(tuple(float(a) for a in widths), tuple(complex(v) for v in values),
                               limit, cert, resonant, drift)


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
    pairs = (np.equal.outer(n1 * frac.denominator, -n2 * frac.numerator) if frac is not None
             else np.zeros((len(n1), len(n2)), dtype=bool))
    limit = 0.0 + 0.0j
    for i, j in zip(*np.nonzero(pairs)):  # scalar products, in table order
        limit += c1[i] * c2[j]
    return WindowAverageResult(tuple(float(a) for a in win), tuple(complex(v) for v in values),
                               complex(limit), _certificate(c, [nu], pairs.ravel()), frac is not None,
                               _drift_rate(c, [nu], pairs.ravel()))


def avg_derivative_product(f: FourierField, g: FourierField, windows) -> WindowAverageResult:
    """Averages (1/a) int_0^a f'(x) g(x) dx: f' has zero mean, so this is avg_product_periodic(f', g)."""
    return avg_product_periodic(f.derivative(0), g, windows)
