"""Finite-window averages of periodic and quasi-periodic signals.

Signals are finite Fourier tables, so every window integral has a closed
form and the only approximation in sight is the window length itself.  Each
operation reports the analytic infinite-window limit (by resonance
detection), the numeric averages per window, and the fitted constant C in
|average(a) - limit| <= C / a.

These averages underpin the supercell coupling limits: the same
resonance-or-decay structure decides which coupling coefficients survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .fourier import TWO_PI, FourierField, box_average, window_factor

RESONANCE_TOL = 1e-9
RATIONAL_DENOMINATOR_BOUND = 10 ** 6


@dataclass(frozen=True)
class PeriodicSignal1D:
    """Real or complex T-periodic signal with finitely many harmonics e^{2 pi i n x / T}."""

    period: float
    harmonics: dict  # int -> complex

    def __post_init__(self):
        if not (np.isfinite(self.period) and self.period > 0):
            raise ValidationError(f"period must be positive and finite, got {self.period}")
        harmonics = {int(n): complex(c) for n, c in self.harmonics.items() if c != 0}
        if not all(np.isfinite(c) for c in harmonics.values()):
            raise ValidationError("harmonic coefficients must be finite")
        object.__setattr__(self, "harmonics", harmonics)

    @classmethod
    def constant(cls, value, period=1.0):
        return cls(period, {0: value})

    @classmethod
    def cosine(cls, period: float, harmonic: int = 1, amplitude: float = 1.0, phase: float = 0.0):
        half = 0.5 * amplitude * np.exp(1j * phase)
        return cls(period, {harmonic: half, -harmonic: np.conj(half)})

    @classmethod
    def sine(cls, period: float, harmonic: int = 1, amplitude: float = 1.0):
        return cls(period, {harmonic: amplitude / 2j, -harmonic: -amplitude / 2j})

    def mean(self) -> complex:
        return self.harmonics.get(0, 0.0 + 0.0j)

    def derivative(self) -> "PeriodicSignal1D":
        return PeriodicSignal1D(self.period, {
            n: c * (2j * np.pi * n / self.period) for n, c in self.harmonics.items()
        })

    def frequencies(self):
        """Angular frequencies and coefficients as two arrays, by harmonic number."""
        ns = sorted(self.harmonics)
        return (TWO_PI * np.array(ns, dtype=float) / self.period,
                np.array([self.harmonics[n] for n in ns], dtype=np.complex128))


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
    note: str = ""

    def errors(self) -> np.ndarray:
        return np.abs(np.asarray(self.values) - self.analytic_limit)


def _check_windows(windows) -> np.ndarray:
    try:
        win = np.array([float(a) for a in windows])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"windows must be a list of numbers: {exc}") from exc
    if not len(win) or not np.all(np.isfinite(win) & (win > 0)):
        raise ValidationError("windows must be positive and finite")
    if np.any(win[1:] <= win[:-1]):
        raise ValidationError("windows must be strictly increasing")
    return win


def _result(windows, values, limit, resonant, cert_constant, note=""):
    values = tuple(complex(v) for v in values)
    return WindowAverageResult(tuple(float(a) for a in windows), values, complex(limit),
                               float(cert_constant), resonant, note)


def _certified_constant(q, c) -> float:
    """Sum of 2|c|/|q| over the nonzero terms whose angular frequency q is non-resonant."""
    q = np.abs(q)
    keep = (q > RESONANCE_TOL) & (c != 0)
    return float(np.sum(2.0 * np.abs(c[keep]) / q[keep]))


def avg_modulated_1d(f: PeriodicSignal1D, b: float, windows) -> WindowAverageResult:
    """Averages (1/a) int_0^a f(x) e^{i b x} dx.

    The limit is 0 unless T*b/(2 pi) is an integer (within 1e-9), in which
    case it equals the single-period average of f e^{i b x}.
    """
    win = _check_windows(windows)
    b = float(b)
    if not np.isfinite(b):
        raise ValidationError(f"b must be finite, got {b}")
    nu, c = f.frequencies()
    values = box_average(c, [window_factor(nu + b, win[:, np.newaxis])])
    ratio = f.period * b / TWO_PI
    resonant = abs(ratio - round(ratio)) <= RESONANCE_TOL
    limit = f.harmonics.get(int(round(-ratio)), 0.0 + 0.0j) if resonant else 0.0 + 0.0j
    return _result(win, values, limit, resonant, _certified_constant(nu + b, c),
                   note=f"Tb/2pi = {ratio:.12g} ({'resonant' if resonant else 'non-resonant'})")


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


def avg_product_periodic(f: PeriodicSignal1D, g: PeriodicSignal1D, windows) -> WindowAverageResult:
    """Averages (1/a) int_0^a f(x) g(x) dx for zero-mean f.

    Incommensurate periods give limit 0; for T1/T2 = p/q the limit is the
    average over the common period q*T1, evaluated as the sum over resonant
    harmonic pairs n/T1 = -n'/T2.
    """
    if abs(f.mean()) > 0:
        raise ValidationError("avg_product_periodic requires f to have zero mean")
    win = _check_windows(windows)
    (nu1, c1), (nu2, c2) = f.frequencies(), g.frequencies()
    nu = np.add.outer(nu1, nu2).ravel()
    c = np.multiply.outer(c1, c2).ravel()
    values = box_average(c, [window_factor(nu, win[:, np.newaxis])])
    frac = _rational_ratio(f.period, g.period)
    limit = 0.0 + 0.0j
    resonant = frac is not None
    if resonant:
        p, q = frac.numerator, frac.denominator
        for n, c1 in f.harmonics.items():
            for n2, c2 in g.harmonics.items():
                if n * q == -n2 * p:
                    limit += c1 * c2
        note = f"T1/T2 = {p}/{q} (rational); limit over common period {q * f.period:.12g}"
    else:
        note = "T1/T2 classified irrational (continued-fraction test)"
    return _result(win, values, limit, resonant, _certified_constant(nu, c), note)


def avg_derivative_product(f: PeriodicSignal1D, g: PeriodicSignal1D, windows) -> WindowAverageResult:
    """Averages (1/a) int_0^a f'(x) g(x) dx via the spectral derivative of f.

    f' automatically has zero mean, so this delegates to avg_product_periodic.
    """
    return avg_product_periodic(f.derivative(), g, windows)


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
    if not np.all(np.isfinite(f.coeffs)):
        raise ValidationError("f must have finite coefficients")
    sizes = []
    for box in boxes:
        b = np.full(cell.dims, float(box)) if np.isscalar(box) else np.asarray(box, dtype=float)
        if b.shape != (cell.dims,) or not np.all(np.isfinite(b) & (b > 0)):
            raise ValidationError("each box must give a positive, finite size per axis")
        sizes.append(b)
    if not sizes:
        raise ValidationError("at least one box is required")
    sizes = np.array(sizes)
    if not np.all(sizes[1:] > sizes[:-1]):
        raise ValidationError("boxes must grow in every axis")

    # angular frequency of each harmonic along each axis, and its window factors
    qs = [TWO_PI * f.index_grid(ax) / cell.lengths[ax] + lam[ax] for ax in range(cell.dims)]
    values = box_average(f.coeffs, [window_factor(q, sizes[:, ax, np.newaxis])
                                    for ax, q in enumerate(qs)])

    fracs = cell.diag * lam / TWO_PI
    resonant = bool(np.all(np.abs(fracs - np.round(fracs)) <= RESONANCE_TOL))
    limit = f.coeff([-int(round(v)) for v in fracs]) if resonant else 0.0 + 0.0j
    # each term decays like 1/a along its fastest non-resonant axis
    nonres = np.broadcast_arrays(*np.ix_(*[np.where(np.abs(q) > RESONANCE_TOL, np.abs(q), 0.0)
                                           for q in qs]))
    cert = _certified_constant(np.max(nonres, axis=0), f.coeffs)
    widths = sizes.min(axis=1)  # decay is against the slowest-growing axis
    return _result(widths, values, limit, resonant, cert,
                   note=f"T(.)lambda/2pi = {np.array2string(fracs, precision=12)}")
