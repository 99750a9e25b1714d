"""Homogenized transport coefficients, packet speed, and cross-wave coupling.

All cell integrals are evaluated spectrally, so the carrier exponentials
cancel identically and the supercell-to-cell collapse for self-coupling is
exact, not approximate.

One kernel, :func:`_transport`, reads the constitutive symbol
(:class:`hfh.medium.Medium`) of the medium its modes were solved on
(``mode.medium``) and forms the first-order solvability integrand slot by
slot for every family.  It evaluates every factor on one FFT grid whose
axes are at least w_V + w_V' + w_C - 2 points wide (the table widths of the
two amplitudes and the widest symbol field), so the triple products wrap
no harmonic and its coefficient tables are exact up to roundoff.  The
transport coefficients take their zero harmonics, and the coupling averages
take the whole tables on spacetime boxes.

Carrier conventions follow :mod:`hfh.bloch`: wave families use
U0 = V0 e^{-i(k.xi - omega xi0)} (so the time slot gives d_0 = -2i*omega
under b-weighted normalization) and the schrodinger family uses
U0 = W e^{+i(k.xi - omega xi0)} (so d_0 = -i under unit normalization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import EIG_CLAMP, BlochMode, check_nondegenerate
from .ergodic import box_means
from .errors import NumericalError, ValidationError
from .fourier import (RESONANCE_TOL, TWO_PI, FourierField, SpacetimeCell, from_grid, product_grid, resonant_point,
                      to_grid)
from .fourier import product_mean  # noqa: F401  (bench/tracing.py resolves hfh.effective.product_mean)
from .fourier import window_factor  # noqa: F401  (bench/tracing.py resolves hfh.effective.window_factor)

# solve_bands clamps eigenvalues down to EIG_CLAMP to zero: an omega up to its root is roundoff
OMEGA_FLOOR = abs(EIG_CLAMP) ** 0.5
D0_FLOOR = 1e-10
ZERO_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# effective coefficients


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Spacetime transport coefficients d_0..d_d of ``mode`` and the envelope group velocity."""

    mode: BlochMode
    d: np.ndarray  # complex, length dims+1
    v: np.ndarray  # real, length dims: Re(d_j / d_0)

    @property
    def packet_speed(self) -> float:
        """Speed of the envelope f in d_0 f_t + sum_j d_j f_j = 0: signed v in 1D, |v| otherwise."""
        speed = float(self.v[0]) if len(self.v) == 1 else float(np.linalg.norm(self.v))
        if speed == 0.0:
            raise NumericalError("zero group velocity; no transport direction")
        return speed

    @property
    def imag_defect(self) -> float:
        """Max |Im(d_j / d_0)|; should vanish for non-degenerate modes of real media."""
        return float(np.max(np.abs(np.imag(self.d[1:] / self.d[0])))) if len(self.d) > 1 else 0.0


def _require_usable(mode: BlochMode, wave: bool):
    if not check_nondegenerate(mode):
        raise ValidationError(
            f"band {mode.band} at k={mode.k} is degenerate (gap {mode.gap:.3e}); "
            "effective coefficients need an isolated eigenvalue"
        )
    if wave and abs(mode.omega) <= OMEGA_FLOOR:
        raise ValidationError(
            "effective coefficients are not defined at omega ~ 0 "
            "(the transport scaling needs a finite nonzero slope)"
        )


def _integrands(modes, pairs) -> tuple:
    """Slots 0..d of the first-order solvability integrand on a grid, per mode pair.

    The symbol is that of ``modes[0].medium``, which every mode shares.
    For each (l, r) in ``pairs``, with V_k the amplitudes of modes[r] and
    conj(V_i) those of modes[l], each entry C_ipkq adds d_p C conj(V_i) V_k
    (p >= 1) and C conj(V_i) D_p V_k to slot q, and C conj(V_i) D_q V_k to
    slot p; each M_l adds M_l |V|^2 to slot l.  D_j = d/dxi_j + i sign k_j
    and the time slot D_0 = -sign i omega is a scalar factor (sign -1 for the
    wave carriers, +1 for the schrodinger carrier, by the medium's family;
    k, omega those of modes[r]).  A diagonal entry (p = q) adds its one
    term doubled.

    Every amplitude, its gauge derivatives, and every distinct symbol field
    and needed field derivative is put on one grid once (:func:`to_grid`,
    sized for a product of three factors).  Each slot integrand is formed
    pointwise there.  Returns the integrands' grid values, shape
    (len(pairs), d + 1) + grid, and per pair and slot the cutoff of its widest
    term, so that :func:`from_grid` gives the tables exactly up to roundoff.
    """
    medium = modes[0].medium
    sign = 1 if medium.family == "schrodinger" else -1
    dims = medium.cell.dims
    fields = {id(f): f for f in [*medium.C.values(), *medium.M.values()]}
    tables, amp, fld = [], {}, {}  # amp[mode, k, p] and fld[id(f), p]: positions in tables
    for m, mode in enumerate(modes):
        for k in range(mode.components):
            V = mode.amplitude_field(k)
            for p in range(dims + 1):
                amp[m, k, p] = len(tables)
                tables.append(V.gauge_derivative(p - 1, sign * mode.k[p - 1]).coeffs if p else V.coeffs)
    for key, f in fields.items():
        fld[key, 0] = len(tables)
        tables.append(f.coeffs)
    for (i, p, k, q), f in medium.C.items():
        if p and (id(f), p) not in fld:
            fld[id(f), p] = len(tables)
            tables.append(f.derivative(p - 1).coeffs)
    mode_w = np.max([mode.v0.shape[1:] for mode in modes], axis=0)
    field_w = np.max([f.coeffs.shape for f in fields.values()], axis=0)
    grid = to_grid(tables, product_grid([mode_w, mode_w, field_w]))
    mode_cut = [(np.array(mode.v0.shape[1:]) - 1) // 2 for mode in modes]

    slots, cutoffs = [], []
    for l, r in pairs:
        d0 = -sign * 1j * modes[r].omega
        out = np.zeros((dims + 1,) + grid.shape[1:], dtype=np.complex128)
        cut = [mode_cut[l] + mode_cut[r]] * (dims + 1)  # grows to the widest term of each slot
        products = {}

        def product(i, k, p):  # conj(V_i) D_p V_k, without the scalar D_0
            if (i, k, p) not in products:
                products[i, k, p] = np.conj(grid[amp[l, i, 0]]) * grid[amp[r, k, p]]
            return products[i, k, p]

        def add(slot, f, p, values, scale=1):  # scale * (field f, or d_p f) * values
            out[slot] += scale * (grid[fld[id(f), p]] * values)
            cut[slot] = np.maximum(cut[slot], mode_cut[l] + mode_cut[r] + f.cutoffs)

        for (i, p, k, q), f in medium.C.items():
            if p:
                add(q, f, p, product(i, k, 0))
            if p == q:
                add(q, f, 0, product(i, k, p), 2 if p else 2 * d0)
            else:
                add(q, f, 0, product(i, k, p), 1 if p else d0)
                add(p, f, 0, product(i, k, q), 1 if q else d0)
        for slot, f in medium.M.items():
            add(slot, f, 0, product(0, 0, 0))
        slots.append(out)
        cutoffs += [tuple(int(c) for c in c_slot) for c_slot in cut]
    return np.stack(slots), cutoffs


def _transport(modes, pairs) -> list:
    """Slot tables 0..d of :func:`_integrands` per mode pair, from one batched FFT."""
    values, cutoffs = _integrands(modes, pairs)
    tables = from_grid(values.reshape((-1,) + values.shape[2:]), cutoffs)
    n = values.shape[1]
    return [[FourierField(modes[0].medium.cell, t) for t in tables[i:i + n]] for i in range(0, len(tables), n)]


def effective_coefficients(mode: BlochMode) -> EffectiveCoefficients:
    """Unit-cell transport coefficients d_0..d_d of a mode of any family, from its medium's symbol.

    The carriers cancel analytically, so each d_l is the zero harmonic of
    the slot-l integrand of :func:`_integrands`: the mean of its grid values,
    exact up to roundoff.  Under the stored normalization d_0 = -2i*omega for
    the wave families and -i for the schrodinger family.
    """
    _require_usable(mode, mode.medium.family != "schrodinger")
    (values,), _ = _integrands([mode], [(0, 0)])
    d = values.reshape(len(values), -1).mean(axis=1)
    if abs(d[0]) < D0_FLOOR:
        raise NumericalError(f"|d_0| = {abs(d[0]):.3e} is near zero; normalization violated")
    return EffectiveCoefficients(mode, d, np.real(d[1:] / d[0]))


# ---------------------------------------------------------------------------
# equivalence and coupling


def are_equivalent(mode1: BlochMode, mode2: BlochMode) -> bool:
    """True iff the two carriers are the same Bloch wave up to a scalar.

    Requires equal frequencies and wavevectors differing by a reciprocal
    lattice vector: every component of (k - m) (.) lambda / (2 pi) within
    1e-9 of an integer.  Modes of two different media raise.
    """
    if mode1.medium != mode2.medium:
        raise ValidationError("modes come from different media")
    return (abs(mode1.omega - mode2.omega) <= RESONANCE_TOL
            and resonant_point(mode1.k - mode2.k, mode1.medium.cell) is not None)


@dataclass(frozen=True)
class CouplingReport:
    """Spacetime coupling averages for a mode pair, with resonance classification.

    ``averages[(j, p, l)]`` is the sequence of d_jp^(l)(Q_n) over the supercell
    counts; ``limits`` holds the Q -> infinity value of each sequence (the
    :func:`hfh.ergodic.box_means` limit); ``slopes`` is the fitted log-log
    decay rate of |average - limit| against n, and ``drift_rates`` the D of
    :class:`hfh.ergodic.WindowAverageResult` on the same boxes, 0 unless the
    pair's carrier is within RESONANCE_TOL of a lattice point but off it.
    """

    resonant: bool
    supercells: tuple
    time_window: float
    averages: dict
    limits: dict
    slopes: dict
    drift_rates: dict

    def max_cross_limit(self) -> float:
        vals = [abs(v) for (j, p, l), v in self.limits.items() if p != l]
        return max(vals) if vals else 0.0


def _slope(ns: np.ndarray, residuals: np.ndarray) -> float:
    """Log-log slope of |residual| against n, exact zeros dropped."""
    keep = np.abs(residuals) > ZERO_FLOOR
    if keep.sum() < 2:
        return float("-inf")
    return float(np.polyfit(np.log(ns[keep]), np.log(np.abs(residuals[keep])), 1)[0])


def coupling_coefficients(mode1: BlochMode, mode2: BlochMode, supercell_counts,
                          time_window: float | None = None) -> CouplingReport:
    """Spacetime-box averages d_jp^(l)(Q_n) for a pair of scalar-wave modes of one medium.

    Q_n = [0, T0*n] x (n * cell) with T0 = 2 pi / max(omega1, omega2, 1) by
    default.  Each average is one :func:`hfh.ergodic.box_means` call on the
    slot table, constant in time, on the cell (2 pi) x cell under the carrier
    (domega, -dk): the time period 2 pi keeps the limit iff |domega| <=
    RESONANCE_TOL.  Self terms (p == l) are the unit-cell integral exactly.
    """
    if mode1.medium != mode2.medium:
        raise ValidationError("modes come from different media")
    if mode1.medium.family != "scalar-wave":
        raise ValidationError("coupling is computed for the scalar wave family only")
    counts = tuple(int(n) for n in supercell_counts)
    if not counts or any(n < 1 for n in counts):
        raise ValidationError("supercell counts must be positive integers")
    if time_window is None:
        time_window = TWO_PI / max(mode1.omega, mode2.omega, 1.0)
    elif not (np.isfinite(time_window) and time_window > 0):
        raise ValidationError(f"time window must be finite and positive, got {time_window}")

    modes, cell = (mode1, mode2), mode1.medium.cell
    spacetime = SpacetimeCell((TWO_PI,) + cell.lengths)
    averages, limits, slopes, drift_rates = {}, {}, {}, {}
    ns = np.asarray(counts, dtype=float)
    boxes = ns[:, np.newaxis] * np.concatenate(([time_window], cell.diag))
    pairs = [(p, l) for p in (0, 1) for l in (0, 1)]
    for (p, l), g_fields in zip(pairs, _transport(modes, pairs)):
        lam = np.concatenate(([modes[l].omega - modes[p].omega], modes[p].k - modes[l].k))
        for j, slot in enumerate(g_fields):
            key = (j, p + 1, l + 1)
            G = FourierField(spacetime, slot.coeffs[np.newaxis])
            averages[key], limits[key], _, _, drift_rates[key] = box_means(G, lam, boxes)
            slopes[key] = _slope(ns, averages[key] - limits[key])

    return CouplingReport(are_equivalent(mode1, mode2), counts, float(time_window),
                          averages, limits, slopes, drift_rates)
