"""Brillouin-zone sweeps and finite-difference group velocities.

The central-difference group velocity is the independent numerical oracle
for the cell-integral transport coefficients: it sees only the dispersion
relation omega = g(k), never the eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import check_nondegenerate, solve_at
from .errors import NumericalError, ValidationError
from .fourier import TWO_PI

RICHARDSON_TOL = 1e-6


@dataclass(frozen=True)
class DispersionTable:
    """One band sampled along a straight k path."""

    band: int
    path: np.ndarray  # (samples, d)
    omegas: np.ndarray
    gaps: np.ndarray
    degenerate: np.ndarray  # per-point flag: gap below tolerance
    lipschitz: float  # recorded max |d omega| / |d k| along the path

    def __len__(self):
        return len(self.omegas)


def sweep_path(medium, k_start, k_end, samples: int, band: int, cutoff: int) -> DispersionTable:
    """Solve the band on evenly spaced k between k_start and k_end (inclusive).

    Degenerate samples are flagged and the sweep continues; band tracking is
    by sorted index, which is sufficient away from degeneracies.  A path of
    zero length (k_start == k_end) has no slope to record and is refused.
    """
    if samples < 2:
        raise ValidationError("a sweep needs at least 2 samples")
    d = medium.cell.dims
    k0 = np.atleast_1d(np.asarray(k_start, dtype=float))
    k1 = np.atleast_1d(np.asarray(k_end, dtype=float))
    if k0.shape != (d,) or k1.shape != (d,):
        raise ValidationError(f"k endpoints must have {d} component(s)")
    ts = np.linspace(0.0, 1.0, samples)
    path = k0[None, :] + ts[:, None] * (k1 - k0)[None, :]
    dk = np.linalg.norm(np.diff(path, axis=0), axis=1)
    if not np.all(dk > 0.0):
        raise ValidationError(f"k_start {k0} and k_end {k1} must be finite and differ: a sweep path "
                              "needs a nonzero length")
    omegas = np.empty(samples)
    gaps = np.empty(samples)
    flags = np.zeros(samples, dtype=bool)
    for i in range(samples):
        mode = solve_at(medium, path[i], cutoff, band)[band - 1]
        omegas[i] = mode.omega
        gaps[i] = mode.gap
        flags[i] = not check_nondegenerate(mode)
    lipschitz = float(np.max(np.abs(np.diff(omegas)) / dk))
    return DispersionTable(band, path, omegas, gaps, flags, lipschitz)


def _omega_at(medium, k, band, cutoff, label):
    mode = solve_at(medium, k, cutoff, band)[band - 1]
    if not check_nondegenerate(mode):
        raise NumericalError(f"degenerate band {band} at stencil point {label} (k={k}, gap={mode.gap:.3e})")
    return mode.omega


def group_velocity_fd(medium, k, band: int, cutoff: int, step: float | None = None) -> np.ndarray:
    """Central-difference gradient of the dispersion relation at k.

    Uses steps h and h/2 per axis and requires the two estimates to agree to
    RICHARDSON_TOL (Richardson consistency); the h/2 estimate is returned.
    Degeneracy at any stencil point is an error naming the point.  Only
    about 10 significant digits are stable: the eigenvalue roundoff (about
    eps times the spectral radius) is divided by 2h.
    """
    cell = medium.cell
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if step is None:
        step = 1e-4 * TWO_PI / min(cell.lengths)
    elif not (np.isfinite(step) and step > 0):
        raise ValidationError(f"step must be finite and positive, got {step}")
    _omega_at(medium, k, band, cutoff, "center")
    v = np.empty(cell.dims)
    for ax in range(cell.dims):
        e = np.zeros(cell.dims)
        e[ax] = 1.0
        est = []
        for h in (step, step / 2.0):
            wp = _omega_at(medium, k + h * e, band, cutoff, f"+h e_{ax}")
            wm = _omega_at(medium, k - h * e, band, cutoff, f"-h e_{ax}")
            est.append((wp - wm) / (2.0 * h))
        if abs(est[0] - est[1]) > RICHARDSON_TOL:
            raise NumericalError(f"group velocity on axis {ax} failed the Richardson check: "
                                 f"|{est[0]:.3e} - {est[1]:.3e}| > {RICHARDSON_TOL}")
        v[ax] = est[1]
    return v


def table_rows(table: DispersionTable):
    """Rows for the CSV interface: k_1..k_d, omega, band, gap."""
    for i in range(len(table)):
        yield list(table.path[i]) + [table.omegas[i], table.band, table.gaps[i]]
