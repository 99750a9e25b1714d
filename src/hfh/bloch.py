"""Plane-wave Galerkin Bloch operators and band solves for all three families.

Basis: cell-periodic plane waves e^{2*pi*i n.(xi/lambda)} enumerated in
lexicographic order of the multi-index n (components slowest axis first,
each running -cutoff..cutoff).  One assembler, :func:`assemble_operator`,
reads the medium's constitutive symbol (:class:`hfh.medium.Medium`).  Its
spatial entries give the stiffness

    A[n, n'] = (k + 2*pi*n/lambda) . a_hat[n - n'] . (k + 2*pi*n'/lambda)

and, for the wave families, its time entries the mass matrix
B[n, n'] = b_hat[n - n'], both Hermitian by construction.  The schrodinger
family's first- and zeroth-order terms join A, which becomes H(k).

Only A depends on k.  A medium keeps the rest for one operator cutoff in its
instance dict, built on first use: the basis and G = 2*pi*n/lambda, one
read-only lag block per distinct symbol field, and for the wave families B
and its lower Cholesky factor (not for 3D vector media, which are assembly
only).  A wave solve runs the rest of LAPACK's xHEGVX on the factor (HEGST,
HEEVX with its queried optimal workspace, TRSM), which gives the bits
``scipy.linalg.eigh(A, B)`` gives; the schrodinger family solves with
``scipy.linalg.eigh``.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import NumericalError, UnsupportedScaleError, ValidationError
from .fourier import TWO_PI, Cell, FourierField
from .medium import Medium

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
    factor: tuple | None  # lapack.zpotrf(B, lower=1) as (L, info); None if nothing is solved with B

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


def _as_k(cell: Cell, k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (cell.dims,):
        raise ValidationError(f"k must have {cell.dims} component(s)")
    if not np.all(np.isfinite(k)):
        raise ValidationError(f"k must be finite, got {k}")
    return k


def _assembly_only(family: str, cell: Cell) -> bool:
    """3D vector media are assembled but never solved."""
    return family == "vector-wave" and cell.dims > 2


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
    """(k+G)_j block (k+G')_l in one temporary; slot 0 gives a factor 1."""
    out = kg[:, None, j - 1] * block if j else block.copy()
    if l:
        out *= kg[None, :, l - 1]
    return out


@dataclass(frozen=True)
class _Galerkin:
    """The k-independent parts of a medium's Bloch operators at one cutoff, all arrays read-only.

    ``terms`` holds (part, j, l, paired, lag block) per term of A in assembly
    order: it adds :func:`_sandwich` of the block to ``A[part]``, and so for
    the transposed slots if ``paired``.  ``factor`` is what
    ``lapack.zpotrf(B, lower=1)`` returns, (L, info); info > 0 means B is
    not positive definite.
    """

    cutoff: int
    basis: np.ndarray
    G: np.ndarray  # 2*pi*n/lambda
    terms: tuple
    B: np.ndarray | None
    factor: tuple | None


def _galerkin(medium, cutoff: int) -> _Galerkin:
    """The medium's k-independent Galerkin parts, built on first use and again when the cutoff changes.

    They live in the medium's instance dict, so they last as long as the
    medium; one cutoff is kept.
    """
    cache = medium.__dict__.get("_galerkin")
    if cache is not None and cache.cutoff == cutoff:
        return cache
    cell = medium.cell
    wave = medium.family != "schrodinger"
    basis = _basis_indices(cell.dims, cutoff)
    nb = len(basis)
    B = np.zeros((medium.n_comp * nb,) * 2, dtype=np.complex128) if wave else None
    uses = {}  # id(field) -> (field, its C entries): one lag block per distinct field
    for idx, f in medium.C.items():
        uses.setdefault(id(f), (f, []))[1].append(idx)
    terms = []
    for f, entries in uses.values():
        block = _lag_block(f, cutoff)
        for (i, j, kk, l) in entries:
            part = (slice(i * nb, (i + 1) * nb), slice(kk * nb, (kk + 1) * nb))
            if wave and not (j or l):
                B[part] -= block
            elif not (j and l):
                raise ValidationError(f"C entry {(i, j, kk, l)} has no term in the Bloch operator")
            elif j == l or medium.C.get((i, l, kk, j)) is not f:
                terms.append((part, j, l, False, block))
            elif j < l:  # the transposed entry C_ilkj shares f: add both terms in one pass
                terms.append((part, j, l, True, block))
    # the schrodinger family's (M_l / i)_hat (k+G')_l and c_hat (one component)
    terms += [(slice(None), 0, l, False, _lag_block(FourierField(cell, f.coeffs / 1j), cutoff))
              for l, f in medium.M.items() if l]
    terms += [(slice(None), 0, 0, False, _lag_block(f, cutoff)) for f in medium.c.values()]
    factor = None
    if wave:
        _mirror_hermitian(B)
        if not _assembly_only(medium.family, cell):
            factor = lapack.zpotrf(B, lower=1)
            factor[0].flags.writeable = False
    G = TWO_PI * basis / cell.diag[None, :]
    for arr in [basis, G, B] + [t[-1] for t in terms]:
        if arr is not None:
            arr.flags.writeable = False
    cache = _Galerkin(cutoff, basis, G, tuple(terms), B, factor)
    medium.__dict__["_galerkin"] = cache
    return cache


def assemble_operator(medium, k, cutoff: int) -> BlochOperator:
    """Galerkin Bloch operator of any medium, read off its constitutive symbol.

    A C entry with spatial slots j, l >= 1 adds (k+G)_j f_hat[n - n'] (k+G')_l
    to the (i, k) component block of A (in one pass with its transposed
    entry C_ilkj when the two share one field); the wave families' time entries
    C_i0k0 = -b_ik give B = -C_hat.  The schrodinger family has no B: its
    first-order terms (M_l / i)_hat (k+G')_l and its c_hat join A, which is
    then divided by beta0 = (mean M_0) / i, so A is the Hamiltonian H(k).
    Only A depends on k; the rest comes from the medium's cache.
    """
    if not isinstance(medium, Medium):
        raise ValidationError(f"unknown medium type {type(medium).__name__}")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    cell = medium.cell
    wave = medium.family != "schrodinger"
    if not wave and cell.dims > 2:
        raise UnsupportedScaleError("schrodinger solves support d <= 2")
    k = _as_k(cell, k)
    if not wave:
        beta0 = float((medium.M[0].mean() / 1j).real)
        if beta0 == 0.0:
            raise ValidationError("M_0 has a zero mean; omega cannot be isolated")
    g = _galerkin(medium, cutoff)
    kg = k[None, :] + g.G
    A = np.zeros((medium.n_comp * len(g.basis),) * 2, dtype=np.complex128)
    for part, j, l, paired, block in g.terms:
        term = _sandwich(kg, j, block, l)
        if paired:
            term += _sandwich(kg, l, block, j)
        A[part] += term
        del term  # the mirror below then holds the only temporary
    if not wave:
        A /= beta0
    _mirror_hermitian(A)
    if medium.cutoff > cutoff:
        warnings.warn(f"operator cutoff {cutoff} below medium cutoff {medium.cutoff}; "
                      "medium content beyond the operator lags is truncated")
    return BlochOperator(medium.family, k, cell, g.basis, medium.n_comp, A, g.B, cutoff,
                         medium.fingerprint, g.factor)


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


def _solve_pencil(op: BlochOperator, subset) -> tuple:
    """Eigenpairs subset[0]..subset[1] of A v = mu B v by LAPACK xHEGVX's steps, POTRF + HEGST + HEEVX + TRSM.

    B's factor comes with the operator (a medium factors B once per cutoff).
    With HEEVX's optimal workspace the result is bit for bit that of
    ``scipy.linalg.eigh(A, B, subset_by_index=subset)``.
    """
    L, info = op.factor
    if info:
        raise scipy.linalg.LinAlgError(
            f"The leading minor of order {info} of B is not positive definite. The factorization "
            "of B could not be completed and no eigenvalues or eigenvectors were computed.")
    C, _ = lapack.zhegst(op.A, L, lower=1)
    lwork = int(lapack.zheevx_lwork(len(C), lower=1)[0].real)
    w, Z, m, _, info = lapack.zheevx(C, range="I", lower=1, il=subset[0] + 1, iu=subset[1] + 1,
                                     abstol=0.0, lwork=lwork, overwrite_a=1)
    if info:
        raise scipy.linalg.LinAlgError(f"{info} eigenvectors failed to converge.")
    return w[:m], scipy.linalg.solve_triangular(L, Z[:, :m], lower=True, trans="C",
                                                overwrite_b=True, check_finite=False)


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
    if _assembly_only(op.family, op.cell):
        raise UnsupportedScaleError("3D vector eigensolves are out of scope (assembly only)")
    subset = [0, min(n_bands, op.size - 1)]
    try:
        if op.B is None:
            evals, evecs = scipy.linalg.eigh(op.A, subset_by_index=subset)
        else:
            evals, evecs = _solve_pencil(op, subset)
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


def check_nondegenerate(mode: BlochMode) -> bool:
    """True iff the mode's spectral gap exceeds 1e-6 * max(1, |omega|), as effective coefficients require."""
    return mode.gap > 1e-6 * max(1.0, abs(mode.omega))
