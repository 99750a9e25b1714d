"""Plane-wave Galerkin Bloch operators and band solves for all three families.

Basis: cell-periodic plane waves e^{2*pi*i n.(xi/lambda)} enumerated in
lexicographic order of the multi-index n (components slowest axis first,
each running -cutoff..cutoff).  One assembler, :func:`assemble_operator`,
reads the medium's constitutive symbol (:class:`hfh.medium.Symbol`).  Its
spatial entries give the stiffness

    A[n, n'] = (k + 2*pi*n/lambda) . a_hat[n - n'] . (k + 2*pi*n'/lambda)

and, for the wave families, its time entries the mass matrix
B[n, n'] = b_hat[n - n'], both Hermitian by construction.  The schrodinger
family's first- and zeroth-order terms join A, which becomes H(k).  The
three ``assemble_*_operator`` functions check the medium type and call it.

Carrier conventions for the stored cell-periodic amplitudes:

* wave families: U0 = V0(xi') e^{-i(k.xi' - omega*xi0)}, omega >= 0.  The
  pencil above is solved and its eigenvector converted by v0[n] =
  conj(v[-n]) (an antiunitary equivalence, so residuals and b-weighted
  norms carry over unchanged).
* schrodinger family: U0 = W(xi') e^{+i(k.xi' - omega*xi0)} with omega the
  real eigenvalue (the energy); the eigenvector is stored directly.  This
  sign makes the free-particle spectrum (k + 2*pi*n)^2/(2m) positive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from .errors import NumericalError, UnsupportedScaleError, ValidationError
from .fourier import TWO_PI, Cell, FourierField
from .medium import MEDIUM_TYPES, ScalarWaveMedium, SchrodingerBlocks, VectorWaveMedium

RESIDUAL_TOL = 1e-9
EIG_CLAMP = -1e-10


@dataclass(frozen=True)
class BlochOperator:
    """Assembled Bloch pencil at one crystal wavevector.

    Wave families solve A v = omega^2 B v; the schrodinger family solves
    A v = omega v with B = None (identity weighting).
    """

    family: str
    k: np.ndarray
    cell: Cell
    basis: np.ndarray  # (n_basis, d) multi-indices
    components: int  # 1 for scalar/schrodinger, n for vector (basis is component-major)
    A: np.ndarray
    B: np.ndarray | None
    cutoff: int
    medium_key: str
    notes: tuple = field(default=())

    @property
    def size(self) -> int:
        return self.A.shape[0]

    def hermiticity_defect(self) -> float:
        err = float(np.max(np.abs(self.A - self.A.conj().T)))
        if self.B is not None:
            err = max(err, float(np.max(np.abs(self.B - self.B.conj().T))))
        return err


@dataclass(frozen=True)
class BlochMode:
    """One point (k, omega, band) of the dispersion diagram with its cell-periodic amplitude.

    ``v0`` holds the Fourier coefficients of V0 (shape (components, 2N+1, ...))
    in the family's carrier convention; the normalization is b-weighted
    ((1/|cell|) integral of V0^dag b V0 = 1; plain L2 for schrodinger) and the
    largest-modulus coefficient is made real positive.
    """

    family: str
    k: np.ndarray
    omega: float
    band: int
    v0: np.ndarray
    cutoff: int
    cell: Cell
    gap: float
    residual: float
    medium_key: str

    @property
    def components(self) -> int:
        return self.v0.shape[0]

    def amplitude_field(self, comp: int = 0) -> FourierField:
        return FourierField(self.cell, self.v0[comp])


def _basis_indices(dims: int, cutoff: int) -> np.ndarray:
    grids = np.meshgrid(*[np.arange(-cutoff, cutoff + 1)] * dims, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@lru_cache(maxsize=4)
def _lag_index(dims: int, cutoff: int) -> np.ndarray:
    """Flat index of the lag n - n' for every basis pair (n, n').

    It addresses a table of side 4*cutoff + 1 per axis whose centre is lag 0,
    so one ``take`` on such a table gives the whole lag block f_hat[n - n'].
    Read-only, since every caller shares it.  The cache is small because an
    entry takes half the bytes of a scalar operator's A; a sweep or a group
    velocity uses one (dims, cutoff) pair.
    """
    basis = _basis_indices(dims, cutoff)
    lags = basis[:, None, :] - basis[None, :, :] + 2 * cutoff
    index = np.ravel_multi_index(tuple(np.moveaxis(lags, -1, 0)), (4 * cutoff + 1,) * dims)
    index.flags.writeable = False
    return index


def _lag_block(f: FourierField, cutoff: int) -> np.ndarray:
    """Galerkin lag block f_hat[n - n'] over the basis of the given cutoff.

    Coefficients beyond the reachable lags |n - n'| <= 2*cutoff are cropped
    and missing ones read as 0.
    """
    reach = 2 * cutoff
    table = np.zeros((2 * reach + 1,) * f.cell.dims, dtype=np.complex128)
    src = tuple(slice(max(m - reach, 0), m + reach + 1) for m in f.cutoffs)
    dst = tuple(slice(max(reach - m, 0), reach + min(m, reach) + 1) for m in f.cutoffs)
    table[dst] = f.coeffs[src]
    return table.ravel().take(_lag_index(f.cell.dims, cutoff))


def _k_plus_g(cell: Cell, basis: np.ndarray, k: np.ndarray) -> np.ndarray:
    return k[None, :] + TWO_PI * basis / cell.diag[None, :]


def _as_k(cell: Cell, k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (cell.dims,):
        raise ValidationError(f"k must have {cell.dims} component(s)")
    if not np.all(np.isfinite(k)):
        raise ValidationError(f"k must be finite, got {k}")
    return k


def _truncation_notes(medium_cutoff: int, cutoff: int) -> tuple:
    if medium_cutoff > cutoff:
        msg = (f"operator cutoff {cutoff} below medium cutoff {medium_cutoff}; "
               "medium content beyond the operator lags is truncated")
        warnings.warn(msg)
        return (msg,)
    return ()


def _mirror_hermitian(m: np.ndarray) -> None:
    """Make the float matrix exactly Hermitian in place by mirroring its upper triangle.

    The exact Galerkin matrix is Hermitian entry-for-entry; evaluating each
    entry once and mirroring removes the ~1e-12 asymmetry that float
    non-associativity would otherwise leave at large cutoffs.  Entry values in
    the upper triangle are untouched; the diagonal loses its imaginary part.
    """
    np.copyto(m, m.conj().T, where=np.tri(len(m), k=-1, dtype=bool))
    np.fill_diagonal(m.imag, 0.0)


def _sandwich(kg: np.ndarray, j: int, block: np.ndarray, l: int) -> np.ndarray:
    """(k+G)_j block (k+G')_l for spatial slots j, l >= 1, in one temporary."""
    out = kg[:, None, j - 1] * block
    out *= kg[None, :, l - 1]
    return out


def assemble_operator(medium, k, cutoff: int) -> BlochOperator:
    """Galerkin Bloch operator of any medium, read off its constitutive symbol.

    A C entry with spatial slots j, l >= 1 adds (k+G)_j f_hat[n - n'] (k+G')_l
    to the (i, k) component block of A (in one pass with its transposed
    entry C_ilkj when the two share one field); the wave families' time entries
    C_i0k0 = -b_ik give B = -C_hat.  The schrodinger family has no B: its
    first-order terms (M_l / i)_hat (k+G')_l and its c_hat join A, which is
    then divided by beta0 = (mean M_0) / i, so A is the Hamiltonian H(k).
    """
    if not isinstance(medium, MEDIUM_TYPES):
        raise ValidationError(f"unknown medium type {type(medium).__name__}")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    cell = medium.cell
    wave = medium.family != "schrodinger"
    if not wave and cell.dims > 2:
        raise UnsupportedScaleError("schrodinger solves support d <= 2")
    k = _as_k(cell, k)
    sym = medium.symbol
    if not wave:
        beta0 = medium.beta0
        if beta0 == 0.0:
            raise ValidationError("b_block time component has no imaginary part; omega cannot be isolated")
    basis = _basis_indices(cell.dims, cutoff)
    kg = _k_plus_g(cell, basis, k)
    nb = len(basis)
    A = np.zeros((sym.n_comp * nb,) * 2, dtype=np.complex128)
    B = np.zeros(A.shape, dtype=np.complex128) if wave else None
    uses = {}  # id(field) -> (field, its C entries): one lag block per distinct field
    for idx, f in sym.C.items():
        uses.setdefault(id(f), (f, []))[1].append(idx)
    for f, entries in uses.values():
        block = _lag_block(f, cutoff)
        for (i, j, kk, l) in entries:
            part = (slice(i * nb, (i + 1) * nb), slice(kk * nb, (kk + 1) * nb))
            if wave and not (j or l):
                B[part] -= block
            elif not (j and l):
                raise ValidationError(f"C entry {(i, j, kk, l)} has no term in the Bloch operator")
            elif j == l or sym.C.get((i, l, kk, j)) is not f:
                A[part] += _sandwich(kg, j, block, l)
            elif j < l:  # the transposed entry C_ilkj shares f: add both terms in one pass
                term = _sandwich(kg, j, block, l)
                term += _sandwich(kg, l, block, j)
                A[part] += term
    if not wave:
        for l, f in sym.M.items():
            if l:
                A += _lag_block(FourierField(cell, f.coeffs / 1j), cutoff) * kg[None, :, l - 1]
        for f in sym.c.values():
            A += _lag_block(f, cutoff)
        A /= beta0
    _mirror_hermitian(A)
    if wave:
        _mirror_hermitian(B)
    notes = _truncation_notes(medium.cutoff, cutoff)
    return BlochOperator(medium.family, k, cell, basis, sym.n_comp, A, B, cutoff,
                         medium.fingerprint, notes)


def assemble_wave_operator(medium: ScalarWaveMedium, k, cutoff: int) -> BlochOperator:
    """Galerkin Bloch pencil A v = omega^2 B v for the scalar wave family at wavevector k."""
    if not isinstance(medium, ScalarWaveMedium):
        raise ValidationError("assemble_wave_operator expects a scalar wave medium")
    return assemble_operator(medium, k, cutoff)


def assemble_vector_operator(medium: VectorWaveMedium, k, cutoff: int) -> BlochOperator:
    """Block Galerkin pencil for the n-component vector wave family (component-major)."""
    if not isinstance(medium, VectorWaveMedium):
        raise ValidationError("assemble_vector_operator expects a vector wave medium")
    return assemble_operator(medium, k, cutoff)


def assemble_schrodinger_operator(blocks: SchrodingerBlocks, k, cutoff: int) -> BlochOperator:
    """Hermitian Bloch Hamiltonian H(k) of the reduced first-order system."""
    if not isinstance(blocks, SchrodingerBlocks):
        raise ValidationError("assemble_schrodinger_operator expects SchrodingerBlocks")
    return assemble_operator(blocks, k, cutoff)


def _phase_fix(v0: np.ndarray) -> np.ndarray:
    flat = v0.ravel()
    imax = int(np.argmax(np.abs(flat)))
    mag = np.abs(flat[imax])
    if mag == 0.0:
        return v0
    out = v0 * (np.conj(flat[imax]) / mag)
    out.ravel()[imax] = mag  # exact by convention
    return out


def _spectral_radius_bound(op: BlochOperator, evals: np.ndarray) -> float:
    """Lower bound on the spectral radius from a partial solve.

    The computed eigenvalues and the diagonal Rayleigh quotients A_ii / B_ii
    (H_ii without B) all lie in the range of the spectrum.
    """
    diag = np.real(np.diag(op.A))
    if op.B is not None:
        diag = diag / np.real(np.diag(op.B))
    return max(float(np.max(np.abs(evals))), float(np.max(np.abs(diag))))


def solve_bands(op: BlochOperator, n_bands: int) -> list:
    """Solve the assembled pencil and return the lowest n_bands normalized modes.

    Only the lowest n_bands + 1 eigenpairs are computed (all of them when
    n_bands is the basis size); the extra pair makes each mode's gap to its
    nearest neighbour exact.  Wave families: eigenvalues are omega^2 (clamped
    at 0 down to -1e-10; anything lower raises an ellipticity violation) and
    omega = +sqrt.  Modes are b-normalized, converted to the stored carrier
    convention, phase-fixed, and carry their spectral gap and residual.  A
    residual above max(1e-9, 1e-13 * rho), or NaN, raises; rho is bounded
    from below by the computed eigenvalues and the diagonal Rayleigh quotients.
    """
    if n_bands < 1 or n_bands > op.size:
        raise ValidationError(f"n_bands must be in 1..{op.size}")
    wave = op.family in ("scalar-wave", "vector-wave")
    if op.family == "vector-wave" and op.cell.dims > 2:
        raise UnsupportedScaleError("3D vector eigensolves are out of scope (assembly only)")
    subset = [0, min(n_bands, op.size - 1)]
    try:
        if op.B is None:
            evals, evecs = scipy.linalg.eigh(op.A, subset_by_index=subset)
        else:
            evals, evecs = scipy.linalg.eigh(op.A, op.B, subset_by_index=subset)
    except scipy.linalg.LinAlgError as exc:
        diag = ""
        if op.B is not None:
            diag = f"; cond(B) ~ {np.linalg.cond(op.B):.3e}"
        raise NumericalError(f"eigensolver failed: {exc}{diag}") from exc

    if wave:
        if evals.min() < EIG_CLAMP:
            raise NumericalError(
                f"negative eigenvalue {evals.min():.3e} below the clamp bound; ellipticity violated"
            )
        omegas = np.sqrt(np.clip(evals, 0.0, None))
    else:
        omegas = evals

    shape = (op.components,) + tuple(2 * op.cutoff + 1 for _ in range(op.cell.dims))
    # failure gate scales with the spectral radius so very large bases do not
    # trip on bare LAPACK roundoff; at desk-scale cutoffs it reduces to 1e-9.
    # The partial solve only bounds the radius from below, so the gate is
    # never looser than one taken from the full spectrum.
    gate = max(RESIDUAL_TOL, 1e-13 * _spectral_radius_bound(op, evals))
    modes = []
    for idx in range(n_bands):
        v = evecs[:, idx]
        mu = evals[idx]
        r = op.A @ v - mu * (v if op.B is None else op.B @ v)
        residual = float(np.linalg.norm(r) / np.linalg.norm(v))
        if not residual <= gate:
            raise NumericalError(f"band {idx + 1} residual {residual:.3e} exceeds {gate:.3e}")
        v0 = v.reshape(shape).copy()
        if wave:
            # antiunitary map to the e^{-i(k.xi - omega t)} carrier
            flip = (slice(None),) + tuple(slice(None, None, -1) for _ in range(op.cell.dims))
            v0 = np.conj(v0[flip])
        v0 = _phase_fix(v0)
        others = np.abs(omegas - omegas[idx])
        others[idx] = np.inf
        gap = float(others.min())
        modes.append(BlochMode(op.family, op.k.copy(), float(omegas[idx]), idx + 1, v0,
                               op.cutoff, op.cell, gap, residual, op.medium_key))
    return modes


def solve_at(medium, k, cutoff: int, n_bands: int) -> list:
    """Assemble and solve in one call."""
    return solve_bands(assemble_operator(medium, k, cutoff), n_bands)


def check_nondegenerate(mode: BlochMode, gap_tol: float | None = None) -> bool:
    """True iff the mode's spectral gap exceeds the tolerance.

    Default tolerance 1e-6 * max(1, |omega|); effective-coefficient
    operations require this to hold.
    """
    if gap_tol is None:
        gap_tol = 1e-6 * max(1.0, abs(mode.omega))
    return mode.gap > gap_tol
