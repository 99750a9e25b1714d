"""Plane-wave Galerkin Bloch operators and band solves for all three families.

Basis: cell-periodic plane waves e^{2*pi*i n.(xi/lambda)} enumerated in
lexicographic order of the multi-index n (components slowest axis first,
each running -cutoff..cutoff).  One assembler, :func:`assemble_operator`,
reads the medium's constitutive symbol (:class:`hfh.medium.Medium`).  Its
spatial entries give the stiffness

    A[n, n'] = (k + 2*pi*n/lambda) . a_hat[n - n'] . (k + 2*pi*n'/lambda)

and every family solves one Hermitian pencil A v = mu B v.  For the wave
families the time entries give the mass matrix B[n, n'] = b_hat[n - n'] and
mu = omega^2.  The schrodinger family's first- and zeroth-order terms join
A, which becomes H(k), B = I and mu is the energy.

Only A depends on k.  The k-independent parts (:class:`_Galerkin`) are
read-only and kept for the last (medium, cutoff) asked for in the process
(:func:`_galerkin`); each operator owns its A.  A solve writes only to
arrays of its own, so solves are reentrant, on one medium too.  An
operator, and each mode solved from it, holds its medium, so what consumes
a mode (transport coefficients, coupling, wave packets) reads the medium
from the mode.

A pencil of size ``LANCZOS_MIN_SIZE`` or more (but no 3D vector one, which
is only assembled) has band parts, and its lowest pairs come from shift-invert
Lanczos on the band (:func:`_lanczos`), kept only if :func:`_certified`
certifies them.  Any other solve is dense: one ZHEEVR call on H for the
schrodinger family, one ZHEGVX call for a wave pencil, each bit for bit the
solve ``scipy.linalg.eigh`` makes.  README "Eigensolve" describes the method.
The LAPACK and BLAS routines are scipy's f2py wrappers, loaded without the
``scipy.linalg`` package (:func:`_scipy_linalg_wrappers`).

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

import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NumericalError, UnsupportedScaleError, ValidationError
from .fourier import TWO_PI, Cell, FourierField
from .medium import Medium


def _scipy_linalg_wrappers(name: str):
    """scipy's compiled f2py module ``scipy.linalg.<name>``, loaded from its file.

    Importing the ``scipy.linalg`` package would run its ``__init__``, whose
    array-API shim imports ``numpy.f2py`` and ``numpy.testing``: more than
    half of each CLI command's start-up (README "Start-up"), while the
    wrappers alone load in a few milliseconds.  The module is registered
    under its own name (or reused if a caller imported it first), so a later
    ``import scipy.linalg`` shares it: ``scipy.linalg.lapack`` and
    ``scipy.linalg.blas`` re-export these very routines.  Without the file
    it is imported through the package.
    """
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy_spec = importlib.util.find_spec("scipy")  # finds the package without importing it
    for root in getattr(scipy_spec, "submodule_search_locations", None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(full, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[full] = module
                return module
    return importlib.import_module(full)


lapack = _scipy_linalg_wrappers("_flapack")
blas = _scipy_linalg_wrappers("_fblas")

RESIDUAL_TOL = 1e-9
EIG_CLAMP = -1e-10
# Pencils of this size or more, asked for at most _LANCZOS_MAX_PAIRS
# pairs, solve by certified shift-invert Lanczos (:func:`_lanczos`): the
# measured crossover (README "Eigensolve").  Near it, more pairs take more
# Lanczos steps than a dense solve costs.
LANCZOS_MIN_SIZE = 128
_LANCZOS_MAX_PAIRS = 4
_LANCZOS_MAX_STEPS = 64
_LANCZOS_TOL = 1e-14
_LANCZOS_SPLIT = 1e-9
# Pinned plane waves per Ritz value in the band certificate (:func:`_band_negative_count`):
# sweep2d media need one, a strongly modulated 1D medium up to three.
_CERTIFICATE_PINS = 4


@dataclass(frozen=True, eq=False)
class BlochOperator:
    """Assembled Bloch pencil of ``medium`` at one crystal wavevector.

    Every family solves A v = mu B v: mu = omega^2 for the wave families,
    and the energy omega with B = I for the schrodinger family.  The basis is
    component-major: ``medium.n_comp`` blocks of ``basis``.  ``values``
    holds A's entries at ``parts.upper``; dense A and B are read-only and
    formed on first read, which a certified Lanczos solve never makes.
    Operators compare by identity, as their array fields have no truth value.
    """

    medium: Medium = field(repr=False)
    k: np.ndarray
    basis: np.ndarray  # (n_basis, d) multi-indices
    values: np.ndarray  # A at parts.upper
    cutoff: int
    parts: _Galerkin = field(repr=False)

    @property
    def size(self) -> int:
        return self.parts.n

    @cached_property
    def A(self) -> np.ndarray:
        """A, dense and read-only: the parts' zero template with ``values`` put at ``upper`` and
        mirrored below the diagonal."""
        A = self.parts.zero_A.copy()
        A.put(self.parts.upper, self.values)
        A.put(self.parts.mirror[1], np.conjugate(self.values[self.parts.mirror[0]]))
        A.flags.writeable = False
        return A

    @property
    def B(self) -> np.ndarray:
        """The parts' dense B, formed on first read."""
        return self.parts.B

    @property
    def band(self) -> _Band | None:
        """The parts' band parts when Lanczos solves the pencil, else None."""
        return self.parts.band

    @cached_property
    def _a_lower(self) -> np.ndarray:
        """A's written entries conjugated, as the band's lower triangle holds them."""
        return np.conjugate(self.values)

    @cached_property
    def _band_work(self) -> np.ndarray:
        """The operator's (kd + 1) x n band work array, in Fortran order (see :func:`_shift_into_band`)."""
        return np.empty((self.band.kd + 1, self.size), dtype=np.complex128, order="F")

    @cached_property
    def _quotients(self) -> np.ndarray:
        """The diagonal quotients A_ii / B_ii, B's diagonal read from its band if there is one."""
        diag = np.zeros(self.size)
        diag[self.parts.diagonal[0]] = self.values[self.parts.diagonal[1]].real
        return diag / (self.band.B[0].real if self.band is not None else np.diag(self.B).real)

    @property
    def medium_key(self) -> str:
        """The medium's fingerprint; kept because ``bench/tracing.py`` keys each traced solve by it."""
        return self.medium.fingerprint

    def hermiticity_defect(self) -> float:
        return max(float(np.max(np.abs(m - m.conj().T))) for m in (self.A, self.B))


@dataclass(frozen=True, eq=False)
class BlochMode:
    """One point (k, omega, band) of ``medium``'s dispersion diagram with its cell-periodic amplitude.

    ``v0`` holds the Fourier coefficients of V0 (shape (components, 2N+1, ...))
    in the family's carrier convention; the normalization is b-weighted
    ((1/|cell|) integral of V0^dag b V0 = 1; plain L2 for schrodinger) and the
    largest-modulus coefficient is made real positive.  The family, the
    cell and the coefficients every cell integral of the mode reads are
    those of ``medium``.  Modes compare by identity, like operators.
    """

    medium: Medium = field(repr=False)
    k: np.ndarray
    omega: float
    band: int
    v0: np.ndarray
    cutoff: int
    gap: float
    residual: float

    @property
    def components(self) -> int:
        return self.v0.shape[0]

    def amplitude_field(self, comp: int = 0) -> FourierField:
        return FourierField(self.medium.cell, self.v0[comp])


def _basis_indices(dims: int, cutoff: int) -> np.ndarray:
    return np.indices((2 * cutoff + 1,) * dims).reshape(dims, -1).T - cutoff


def _lag_entries(f: FourierField, basis: np.ndarray, cutoff: int, upper: bool) -> tuple:
    """The nonzero Galerkin entries f_hat[n - n'] over the basis pairs (n, n'), as (rows, cols, values).

    Zero coefficients and lags beyond the reachable |n - n'| <= 2*cutoff give
    no entry, and no (row, col) pair occurs twice; ``upper`` keeps only the
    entries with row <= col.  All three arrays are read-only.
    """
    reach = 2 * cutoff
    table = f.coeffs[tuple(slice(max(m - reach, 0), m + reach + 1) for m in f.cutoffs)]
    pos = table.nonzero()
    inside = shift = None  # shift: row - col of a lag's entries, its offset in the basis order
    for ax, p in enumerate(pos):
        lag = p - min(f.cutoffs[ax], reach)
        # n' = n - lag lies in the basis on this axis; a negative index wraps to a huge value
        ok = ((basis[:, ax, None] + cutoff) - lag).view(np.uintp) <= reach
        inside, shift = (ok, lag) if ax == 0 else (inside & ok, shift * (reach + 1) + lag)
    if upper:
        inside &= shift <= 0
    at = np.flatnonzero(inside)
    rows = at // len(shift)
    which = at - rows * len(shift)
    entries = rows, rows - shift[which], table[pos][which]
    for arr in entries:
        arr.flags.writeable = False
    return entries


def _as_k(cell: Cell, k) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (cell.dims,):
        raise ValidationError(f"k must have {cell.dims} component(s)")
    if not np.all(np.isfinite(k)):
        raise ValidationError(f"k must be finite, got {k}")
    return k


def _assembly_only(medium: Medium) -> bool:
    """3D vector media are assembled but never solved."""
    return medium.family == "vector-wave" and medium.cell.dims > 2


@dataclass(frozen=True)
class _Band:
    """A pencil's band parts in LAPACK's lower band storage, all read-only.

    Every nonzero entry of A and B lies within ``kd`` of the diagonal.
    ``B`` holds B[r + d, r] at [d, r] over B's own band, (kd_B + 1) x n in
    Fortran order with kd_B <= kd, and ``B_factor`` its lower Cholesky
    factor by ZPBTRF (meaningful only if B is positive definite).  ``at``
    gives, for each entry of :attr:`_Galerkin.upper`, its flat index in a
    (kd + 1) x n band in Fortran order, where A's entry (r, c), r <= c,
    lands conjugated.
    """

    kd: int
    B: np.ndarray
    B_factor: np.ndarray
    at: np.ndarray


def _band(n: int, upper: np.ndarray, b_terms: tuple) -> tuple:
    """The band parts of a pencil of size n whose A entries on and above the diagonal sit at the flat
    indices ``upper`` and whose B entries there are -values at the flat indices ``at``, for each
    (at, values) in ``b_terms``; and the info of ZPBTRF on B's band (0 if B is positive definite).

    B's band gets the bits the mirrored dense B (:attr:`_Galerkin.B`) holds below its diagonal:
    conj(-value) at a written entry, conj(+0) = 0 - 0i where B has none, and a diagonal with a
    zero imaginary part.
    """
    at_B = np.concatenate([upper[:0], *(at for at, _ in b_terms)])  # upper[:0]: none if B has no entry
    values = np.concatenate([np.zeros(0, dtype=np.complex128), *(v for _, v in b_terms)])
    rows, cols = np.divmod(at_B, n)
    kd_B = int(np.max(cols - rows, initial=0))
    B_band = np.zeros((kd_B + 1, n), dtype=np.complex128, order="F")
    for d in range(1, kd_B + 1):
        B_band.imag[d, :n - d] = -0.0
    B_band.T.reshape(-1)[(cols - rows) + rows * (kd_B + 1)] = np.conjugate(-values)
    B_band.imag[0] = 0.0
    B_factor, info = lapack.zpbtrf(B_band, lower=1)
    rows, cols = np.divmod(upper, n)
    kd = max(kd_B, int(np.max(cols - rows, initial=0)))
    at = (cols - rows) + rows * (kd + 1)
    for arr in (B_band, B_factor, at):
        arr.flags.writeable = False
    return _Band(kd, B_band, B_factor, at), info


def _b_indefinite(info: int) -> NumericalError:
    return NumericalError(f"B is not positive definite (leading minor {info})")


@dataclass(frozen=True)
class _Galerkin:
    """The k-independent parts of a medium's Bloch operators at one cutoff, all read-only.

    ``upper`` lists, ascending, the flat indices of A (n x n, C order) that
    the terms write, all on or above the diagonal.  ``mirror`` holds the
    positions in ``upper`` of those above the diagonal and their transposed
    flat indices; ``diagonal`` the rows and positions in ``upper`` of those
    on it.  ``terms`` holds (at, entries, j, l, paired) per term of A in
    assembly order: ``entries`` are the (rows, cols, values) of its field
    from :func:`_lag_entries` on or above A's diagonal, and ``at`` their
    positions in ``upper``.  The term adds (k+G)_j f_hat (k+G')_l there
    (slot 0 gives a factor 1), with the transposed slots in the same pass
    if ``paired``.  ``beta0`` divides the schrodinger family's A, which is
    then H (1 for the wave families).  ``b_terms`` holds (at, values) per
    block of B on and above its diagonal: B is -values at the flat indices
    ``at`` and zero elsewhere (one diagonal block of -1 for the schrodinger
    family, whose B is I).  ``band`` holds the band parts (:func:`_band`)
    of a pencil with n >= ``LANCZOS_MIN_SIZE`` that is not assembly only,
    else None.  ``b_info`` is ZPBTRF's info on ``band.B`` (0 if B is
    positive definite, else the order of its first leading minor that is
    not), and 0 without band parts, where the dense solve checks B.
    """

    n: int
    basis: np.ndarray
    G: np.ndarray  # 2*pi*n/lambda, one row per axis
    terms: tuple
    upper: np.ndarray
    mirror: tuple
    diagonal: tuple
    beta0: float
    b_terms: tuple
    b_info: int
    band: _Band | None

    @cached_property
    def B(self) -> np.ndarray:
        """B, dense and read-only, formed on first read.

        Each entry above the diagonal is evaluated once and mirrored, so B is
        Hermitian bit for bit, and the diagonal loses its imaginary part.
        """
        n = self.n
        B = np.zeros((n, n), dtype=np.complex128)
        for at, values in self.b_terms:
            B.put(at, -values)  # the entries are nonzero, so -v is 0 - v
        np.copyto(B, B.conj().T, where=np.greater.outer(np.arange(n), np.arange(n)))
        np.fill_diagonal(B.imag, 0.0)
        B.flags.writeable = False
        return B

    @cached_property
    def zero_A(self) -> np.ndarray:
        """A with every term zero, mirrored, read-only: the value each entry no term writes has at
        every k (+0 divided by beta0, conjugated below the diagonal, real on it)."""
        zero = np.zeros(1, dtype=np.complex128) / self.beta0
        A = np.where(np.greater.outer(np.arange(self.n), np.arange(self.n)), zero.conj(), zero)
        np.fill_diagonal(A.imag, 0.0)
        A.flags.writeable = False
        return A


@lru_cache(maxsize=1)
def _galerkin(medium: Medium, cutoff: int) -> _Galerkin:
    """The k-independent Galerkin parts of (medium, cutoff), kept for the last pair asked for.

    Media hash and compare by family, cutoff and fingerprint, so equal media
    share one entry.  Only blocks on and above the diagonal are formed, since
    the mirror fills the others, and B only in band storage.  A schrodinger
    medium whose M_0 is not constant is refused: only its mean divides A.
    """
    cell = medium.cell
    wave = medium.family != "schrodinger"
    basis = _basis_indices(cell.dims, cutoff)
    nb = len(basis)
    n = medium.n_comp * nb
    lags = {}  # (field, diagonal block?) -> its lag entries, shared by the field's terms

    def on_block(f, i, kk):
        """Flat indices in A and lag entries of f on component block (i, kk), on and above A's diagonal."""
        key = (f, i == kk)  # fields hash by identity; holding f keeps its identity unique
        if key not in lags:
            lags[key] = _lag_entries(f, basis, cutoff, i == kk)
        return lags[key][0] * n + lags[key][1] + (i * n + kk) * nb, lags[key]

    uses = {}  # id(field) -> (field, its C entries): the terms of one field are added together
    for idx, f in medium.C.items():
        uses.setdefault(id(f), (f, []))[1].append(idx)
    b_terms = []
    beta0 = 1.0
    if not wave:  # H = A / beta0, and B = I: the B a time entry C_0000 = -1 would give
        m0 = medium.M[0]
        if np.count_nonzero(m0.coeffs) > (m0.mean() != 0):  # a nonzero harmonic besides the mean
            raise ValidationError("M_0 must be constant: only its mean divides the Hamiltonian")
        beta0 = float((m0.mean() / 1j).real)
        if beta0 == 0.0:
            raise ValidationError("M_0 has a zero mean; omega cannot be isolated")
        at, (_, _, values) = on_block(FourierField.constant(cell, -1.0), 0, 0)
        b_terms.append((at, values))
    terms = []
    for f, entries in uses.values():
        for (i, j, kk, l) in entries:
            if wave and not (j or l):
                if i <= kk:
                    at, (_, _, values) = on_block(f, i, kk)
                    b_terms.append((at, values))
            elif not (j and l):
                raise ValidationError(f"C entry {(i, j, kk, l)} has no term in the Bloch operator")
            elif i > kk:  # a block below the diagonal: the mirror fills it
                continue
            elif j == l or medium.C.get((i, l, kk, j)) is not f:
                terms.append((*on_block(f, i, kk), j, l, False))
            elif j < l:  # the transposed entry C_ilkj shares f: add both terms in one pass
                terms.append((*on_block(f, i, kk), j, l, True))
    # the schrodinger family's (M_l / i)_hat (k+G')_l and c_hat (one component)
    terms += [(*on_block(FourierField(cell, f.coeffs / 1j), 0, 0), 0, l, False)
              for l, f in medium.M.items() if l and f.coeffs.any()]
    terms += [(*on_block(f, 0, 0), 0, 0, False) for f in medium.c.values()]
    terms = [t for t in terms if len(t[0])]  # a zero field adds nothing
    upper = np.sort(np.concatenate([np.zeros(0, dtype=np.intp), *(t[0] for t in terms)]))
    upper = upper[np.diff(upper, prepend=-1) > 0]  # each written index once
    terms = tuple((np.searchsorted(upper, at), *rest) for at, *rest in terms)
    rows, cols = np.divmod(upper, n)
    above, on = np.flatnonzero(rows < cols), np.flatnonzero(rows == cols)
    mirror = (above, cols[above] * n + rows[above])
    diagonal = (rows[on], on)
    band = None
    b_info = 0
    if n >= LANCZOS_MIN_SIZE and not _assembly_only(medium):
        band, b_info = _band(n, upper, b_terms)
    G = TWO_PI * basis.T / cell.diag[:, None]
    for arr in [basis, G, upper, *mirror, *diagonal, *(t[0] for t in terms), *(at for at, _ in b_terms)]:
        arr.flags.writeable = False
    return _Galerkin(n, basis, G, terms, upper, mirror, diagonal, beta0, tuple(b_terms), b_info, band)


def assemble_operator(medium, k, cutoff: int) -> BlochOperator:
    """Galerkin Bloch operator of any medium, read off its constitutive symbol.

    A C entry with spatial slots j, l >= 1 adds (k+G)_j f_hat[n - n'] (k+G')_l
    to the (i, k) component block of A (in one pass with its transposed
    entry C_ilkj when the two share one field); the wave families' time entries
    C_i0k0 = -b_ik give B = -C_hat.  The schrodinger family's B is I: its
    first-order terms (M_l / i)_hat (k+G')_l and its c_hat join A, which is
    then divided by beta0 = (mean M_0) / i, so A is the Hamiltonian H(k).
    The operator's ``values`` are new and read-only, and its A gets, entry
    for entry, the bits a dense assembly of each term over whole lag
    blocks, in the same order, then a mirror, would give it.  Warns when
    the cutoff is below the medium's.
    """
    if not isinstance(medium, Medium):
        raise ValidationError(f"unknown medium type {type(medium).__name__}")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    k = _as_k(medium.cell, k)
    g = _galerkin(medium, cutoff)
    kg = k[:, None] + g.G
    values = np.zeros(len(g.upper), dtype=np.complex128)
    for at, (rows, cols, f_hat), j, l, paired in g.terms:
        if j:
            term = kg[j - 1][rows] * f_hat
            if l:
                term *= kg[l - 1][cols]
        else:
            term = f_hat * kg[l - 1][cols] if l else f_hat
        if paired:
            twin = kg[l - 1][rows] * f_hat
            twin *= kg[j - 1][cols]
            term += twin
        np.add.at(values, at, term)
    if medium.family == "schrodinger":
        values /= g.beta0
    values.imag[g.diagonal[1]] = 0.0
    values.flags.writeable = False
    if medium.cutoff > cutoff:
        warnings.warn(f"operator cutoff {cutoff} below medium cutoff {medium.cutoff}; "
                      "medium content beyond the operator lags is truncated")
    return BlochOperator(medium, k, g.basis, values, cutoff, g)


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
    all lie in the range of the spectrum.
    """
    return max(float(np.max(np.abs(evals))), float(np.max(np.abs(op._quotients))))


def _residual_gate(op: BlochOperator, evals: np.ndarray) -> float:
    """The largest residual |A v - mu B v| / |v| a solve may return: max(1e-9, 1e-13 * rho).

    It scales with the spectral radius so that very large bases do not trip
    on bare LAPACK roundoff; at desk-scale cutoffs it is 1e-9.  The partial
    solve only bounds the radius from below, so the gate is never looser
    than one taken from the full spectrum.
    """
    return max(RESIDUAL_TOL, 1e-13 * _spectral_radius_bound(op, evals))


def _shift_into_band(op: BlochOperator, shift: float) -> np.ndarray:
    """Write A + shift*B into the operator's band work array, in lower band storage, and return it.

    A's entries outside ``parts.upper`` are zero (A holds only what its
    terms write), so shift*B plus A's written entries,
    conjugated into the lower triangle, is the whole band, entry for entry
    the lower triangle of A + shift*B.  B's own band fills the first
    kd_B + 1 rows, and the rows below it start at zero.
    """
    work = op._band_work
    kd_B = len(op.band.B) - 1
    np.multiply(op.band.B, shift, out=work[:kd_B + 1])
    work[kd_B + 1:] = 0.0
    flat = work.T.reshape(-1)  # a view, since work is in Fortran order
    flat[op.band.at] += op._a_lower
    return work


def _band_times(ab: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The Hermitian matrix held in lower band storage ``ab`` times each column of X, by ZHBMV."""
    return np.column_stack([blas.zhbmv(len(ab) - 1, 1.0, ab, x, lower=1) for x in X.T])


def _orthogonalize(w: np.ndarray, basis: np.ndarray, conj: np.ndarray) -> tuple:
    """Remove from w, in place, its components along the orthonormal rows of ``basis`` (``conj``
    holds them conjugated) by classical Gram-Schmidt; return the coefficients removed and |w|.

    A second pass runs only when the first shrinks w to 1/sqrt 2 of its norm or less (Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 30 (1976) 772): only then can the first pass's rounding leave w
    measurably out of orthogonality.
    """
    before = blas.dznrm2(w)
    removed = 0.0
    for _ in range(2):
        h = conj @ w
        w -= h @ basis
        removed = removed + h
        norm = blas.dznrm2(w)
        if norm > before * 0.5 ** 0.5:
            break
    return removed, norm


def _start_vector(n: int) -> np.ndarray:
    """Lanczos's unit start vector of size n, from the SplitMix64 hash of the indices 1..2n.

    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) mixes the i-th multiple
    of its odd increment; the top 53 bits of each hash, times 2^-53, minus
    1/2, give a value in [-1/2, 1/2).  The first n are the real parts and
    the next n the imaginary parts.  uint64 array arithmetic wraps without
    a warning, and the scaling is exact, so the bits are the same on every
    platform.
    """
    z = np.arange(1, 2 * n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 - 0.5
    v = x[:n] + 1j * x[n:]
    return v / np.linalg.norm(v)


def _lanczos(op: BlochOperator, nev: int):
    """The nev lowest eigenpairs of A v = mu B v by shift-invert Lanczos, and the next Ritz value; or None.

    The shift s > 0 is a quarter of the nev-th smallest positive diagonal
    quotient A_ii / B_ii: near the wanted values, so their theta are well
    separated, but not so far below them that the largest theta swamps the
    rest in roundoff.  With A + s B = L L^H, the pencil's eigenpairs are
    those of the Hermitian T = L^-1 B L^-H, with theta = 1 / (mu + s) and
    v = L^-H y, so the lowest mu are the largest theta.  PBTRF factors
    A + s B in the operator's band work array, and a step applies T by
    two TBSV and one HBMV on B's own band, which also B-normalizes the Ritz
    vectors.  Lanczos on T starts from a fixed pseudo-random vector, an
    integer hash (:func:`_start_vector`), which no symmetry of the medium
    keeps out of any eigenspace.  A step subtracts the three-term
    recurrence alpha_m q_m + beta_(m-1) q_(m-1), then orthogonalizes
    against all earlier vectors (kept conjugated too) by
    :func:`_orthogonalize`, whose second pass thus sees only the loss of
    orthogonality to older vectors.  With Ritz values theta_1 > theta_2 >
    ... and Ritz residual estimates e_i = beta_m |z_mi|, it stops when the
    first nev - 1, whose vectors are returned, meet e_i <= ``_LANCZOS_TOL``
    theta_i, and the nev-th, whose value only sets the spectral gap, meets
    e_nev^2 <= ``_LANCZOS_TOL`` theta_nev (theta_nev - theta_(nev+1)): its
    Ritz value then lies within about that relative error of its limit,
    though its vector is converged only to about the square root of that
    (the quadratic estimate behind the Kato-Temple bound; Parlett, The
    Symmetric Eigenvalue Problem, section 10).  Returns (mu, X): nev + 1
    ascending Ritz values and the B-normalized vectors of the first nev.
    None if no positive shift exists, A + s B is not positive definite,
    Lanczos breaks down early, or ``_LANCZOS_MAX_STEPS`` steps pass without
    convergence.  L stays in the band work array.
    """
    n = op.size
    quotients = op._quotients
    positive = np.sort(quotients[quotients > 0.0])
    if len(positive) < nev:
        return None
    s = 0.25 * float(positive[nev - 1])
    band = op.band
    L, info = lapack.zpbtrf(_shift_into_band(op, s), lower=1, overwrite_ab=1)
    if info:
        return None
    steps = min(n, _LANCZOS_MAX_STEPS)
    # Qc holds conj(Q) row by row.  One block for both: once freed, it lifts glibc's dynamic mmap
    # threshold above a solve's scratch, so the heap is not trimmed and refaulted between solves
    Q, Qc = np.empty((2, steps, n), dtype=np.complex128)
    Q[0] = _start_vector(n)
    np.conjugate(Q[0], out=Qc[0])
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    for m in range(steps):
        w = blas.ztbsv(band.kd, L, Q[m], lower=1, trans=2)
        w = blas.ztbsv(band.kd, L, blas.zhbmv(len(band.B) - 1, 1.0, band.B, w, lower=1), lower=1,
                       overwrite_x=1)
        alpha[m] = (Qc[m] @ w).real
        w -= alpha[m] * Q[m]
        if m:
            w -= beta[m - 1] * Q[m - 1]
        basis = Q[:m + 1]
        h, beta[m] = _orthogonalize(w, basis, Qc[:m + 1])
        alpha[m] += h[m].real
        if m >= nev:
            theta, Z, _ = lapack.dstev(alpha[:m + 1], beta[:m])
            lo = m + 1 - nev  # dstev sorts ascending: the nev largest are theta[lo:]
            e = beta[m] * np.abs(Z[m])  # theta[lo] is the gap pair's, theta[lo - 1] the next
            if (np.all(e[lo + 1:] <= _LANCZOS_TOL * theta[lo + 1:])
                    and e[lo] ** 2 <= _LANCZOS_TOL * theta[lo] * (theta[lo] - theta[lo - 1])):
                Y = basis.T @ Z[:, lo:][:, ::-1]
                X = np.column_stack([blas.ztbsv(band.kd, L, y, lower=1, trans=2) for y in Y.T])
                X /= np.sqrt(np.einsum("ij,ij->j", X.conj(), _band_times(band.B, X)).real)
                return 1.0 / theta[lo - 1:][::-1] - s, X
        if not beta[m] > 0.0 or m + 1 == steps:
            return None
        Q[m + 1] = w / beta[m]
        np.conjugate(Q[m + 1], out=Qc[m + 1])


def _band_negative_count(op: BlochOperator, tau: float, pins: int):
    """The number of negative eigenvalues of H = A - tau B, counted on the band, or None.

    Pin the ``pins`` plane waves S of smallest diagonal quotient A_ii / B_ii
    (stable order) with weights c_i = 4 tau B_ii: H' = H + E E^H, E =
    sum over S of sqrt(c_i) e_i.  If H' is positive definite, Haynsworth's
    inertia additivity (Linear Algebra Appl. 1 (1968) 73) on the block
    matrix [[H', E], [E^H, I]] gives neg(H) = neg(K) and zero(H) = zero(K)
    for the p x p Hermitian K = I - E^H H'^-1 E, exactly, for any S and
    positive weights.  The eigenvectors below tau live mostly on the
    low-quotient plane waves, so lifting those normally makes H' positive
    definite.  PBTRF factors H' = L L^H in the band work array
    (overwriting the Lanczos factor, which is no longer read), one band
    triangular solve (TBTRS) gives Y = L^-1 E, and the eigenvalues of
    K = I - Y^H Y give the count; with a backward-stable factor and solve
    it is exact for A - tau B + Delta, |Delta| = O(u |H|), as an LDL^H
    count would be.  None if tau <= 0, H' is not positive definite, or an
    eigenvalue of K is within 1e-10 max(1, |K|) of zero.
    """
    if not tau > 0.0:
        return None
    ab = _shift_into_band(op, -tau)
    S = np.argsort(op._quotients, kind="stable")[:pins]
    c = 4.0 * tau * op.band.B[0, S].real
    ab[0, S] += c
    L, info = lapack.zpbtrf(ab, lower=1, overwrite_ab=1)
    if info:
        return None
    E = np.zeros((op.size, len(S)), dtype=np.complex128, order="F")
    E[S, np.arange(len(S))] = np.sqrt(c)
    Y, _ = lapack.ztbtrs(L, E, uplo="L", overwrite_b=1)  # L^-1 E, so K = I - Y^H Y
    w = np.linalg.eigvalsh(np.eye(len(S)) - Y.conj().T @ Y)
    if not np.min(np.abs(w)) > 1e-10 * max(1.0, float(np.max(np.abs(w)))):
        return None
    return int(np.count_nonzero(w < 0.0))


def _b_inverse_norm(op: BlochOperator, r: np.ndarray) -> float:
    """|r|_{B^-1} = |L_B^-1 r|, by one TBSV on the band factor of B = L_B L_B^H."""
    return float(np.linalg.norm(blas.ztbsv(len(op.band.B) - 1, op.band.B_factor, r, lower=1)))


def _kato_temple(op: BlochOperator, x: np.ndarray, Ax: np.ndarray, Bx: np.ndarray, alpha: float,
                 tau: float) -> tuple:
    """The Rayleigh quotient rho of x (with its products A x and B x), and the Kato-Temple bound
    eps^2 / delta on rho's distance to the pencil's eigenvalue in (alpha, tau).

    With eps = |A x - rho B x|_{B^-1} / |x|_B and delta = min(rho - alpha,
    tau - rho) > 0, an interval (alpha, tau) that holds exactly one
    eigenvalue lambda holds it within rho - eps^2 / (tau - rho) <= lambda
    <= rho + eps^2 / (rho - alpha) (Kato, J. Phys. Soc. Japan 4 (1949)
    334; Parlett, The Symmetric Eigenvalue Problem, section 10).  The bound
    is quadratic in the residual, so a vector converged to about the square
    root of the precision certifies its value to the full precision.  The
    bound is inf unless alpha < rho < tau.
    """
    xBx = float((x.conj() @ Bx).real)
    rho = float((x.conj() @ Ax).real) / xBx
    eps2 = _b_inverse_norm(op, Ax - rho * Bx) ** 2 / xBx
    delta = min(rho - alpha, tau - rho)
    return rho, (eps2 / delta if delta > 0.0 else np.inf)


def _certified(op: BlochOperator, mu: np.ndarray, X: np.ndarray):
    """The pencil's lowest len(mu) - 1 eigenvalues, the residuals |A x - mu B x| / |x| of all but
    the last of the Lanczos pairs (mu[:-1], X), and the last value's Kato-Temple bound, if the
    certificate holds; else None.

    Consecutive Ritz values must differ by more than ``_LANCZOS_SPLIT``
    times the spectral radius bound: a multiplet's eigenvectors are not
    unique, and the dense solve stays the reference for them.  Each
    returned pair (all but the last of X) must meet half the residual gate.
    The last pair only sets the spectral gap, and only its value is
    certified: its Rayleigh quotient, the value returned, must lie within
    half the gate of its eigenvalue by :func:`_kato_temple` on (alpha,
    tau).  alpha, the last returned value plus its residual's B^-1 norm
    (X is B-normalized), bounds the returned pairs' eigenvalues from above;
    tau = mu[-2] + (mu[-1] - mu[-2]) / 4 lies below the next
    Ritz value, and A - tau B must have exactly len(mu) - 1 negative
    eigenvalues, so that no eigenvalue below tau was missed and (alpha,
    tau) holds exactly the last pair's.  Held to half the gate, the bound
    certifies that value at least as tightly as the Weyl bound of a
    half-gate residual would.  The residuals come from band products (A
    scattered into the band work array, B's own band), and
    :func:`_band_negative_count` counts with ``_CERTIFICATE_PINS`` pins per
    Ritz value.  A failed check, or a count that declines, rejects the
    pairs, and the dense solve runs instead.
    """
    rho = _spectral_radius_bound(op, mu)
    if not np.min(np.diff(mu)) > _LANCZOS_SPLIT * rho:
        return None
    # A scattered over the Lanczos factor, which is no longer read
    AX = _band_times(_shift_into_band(op, 0.0), X)
    BX = _band_times(op.band.B, X)
    R = AX[:, :-1] - BX[:, :-1] * mu[:-2]
    gate = _residual_gate(op, mu[:-1])
    r_norm, x_norm = np.linalg.norm(R, axis=0), np.linalg.norm(X[:, :-1], axis=0)
    if not np.all(r_norm <= 0.5 * gate * x_norm):
        return None
    alpha = mu[-3] + _b_inverse_norm(op, R[:, -1])
    tau = mu[-2] + 0.25 * (mu[-1] - mu[-2])
    value, bound = _kato_temple(op, X[:, -1], AX[:, -1], BX[:, -1], alpha, tau)
    if not bound <= 0.5 * gate:
        return None
    if _band_negative_count(op, tau, min(_CERTIFICATE_PINS * len(mu), op.size)) != len(mu) - 1:
        return None
    return np.append(mu[:-2], value), r_norm / x_norm, bound


def _solve_pencil(op: BlochOperator, subset) -> tuple:
    """Eigenpairs subset[0]..subset[1] of A v = mu B v (subset[0] == 0; B = I for the schrodinger
    family), and their residuals or None.

    For a pencil with band parts (and few pairs) the pairs come from
    :func:`_lanczos` on the band when :func:`_certified` accepts them, with
    the values it certified and the residuals it formed (for all but the
    last pair, whose vector is converged only far enough for its value).
    Otherwise, and whenever either declines, the solve is dense: for the
    schrodinger family one ZHEEVR call on a copy of A with the arguments and
    rounded workspace query of ``scipy.linalg.eigh(A, subset_by_index=subset)``,
    for a wave pencil one ZHEGVX call with its queried optimal workspace on
    copies of dense A and B, bit for bit ``scipy.linalg.eigh(A, B,
    subset_by_index=subset)``, whose failure to converge names cond(B).  An
    indefinite B raises :func:`_b_indefinite`'s ``NumericalError``: from the
    band Cholesky of the parts' build, or from ZHEGVX's Cholesky of B.
    """
    n, nev = op.size, subset[1] + 1
    if op.parts.b_info:
        raise _b_indefinite(op.parts.b_info)
    if op.band is not None and nev <= _LANCZOS_MAX_PAIRS:
        found = _lanczos(op, nev)
        certified = None if found is None else _certified(op, *found)
        if certified is not None:
            return certified[0], found[1], certified[1]
    if op.medium.family == "schrodinger":
        lwork, lrwork, liwork = (int(x.real) for x in lapack.zheevr_lwork(n, lower=1)[:3])
        w, x, m, _, info = lapack.zheevr(op.A, compute_v=1, range="I", il=1, iu=nev, lower=1,
                                         lwork=lwork, lrwork=lrwork, liwork=liwork)
        if info:
            raise LinAlgError(f"ZHEEVR failed (info {info}).")
        return w[:m], x[:, :m], None
    w, x, m, _, info = lapack.zhegvx(op.A, op.B, uplo="L", range="I", il=1, iu=nev, abstol=0.0,
                                     lwork=int(lapack.zhegvx_lwork(n, uplo="L")[0].real))
    if info > n:
        raise _b_indefinite(info - n)
    if info:
        raise LinAlgError(f"{info} eigenvectors failed to converge; cond(B) ~ {np.linalg.cond(op.B):.3e}")
    return w[:m], x, None


def solve_bands(op: BlochOperator, n_bands: int) -> list:
    """Solve the assembled pencil A v = mu B v (B = I for the schrodinger family) and return the
    lowest n_bands normalized modes.

    Only the lowest n_bands + 1 eigenpairs are computed (all of them when
    n_bands is the basis size); the extra pair's eigenvalue makes each
    mode's gap to its nearest neighbour exact (the Lanczos path converges
    and certifies only that value, not its vector).  Wave families: eigenvalues are omega^2 (clamped
    at 0 down to -1e-10; anything lower raises an ellipticity violation) and
    omega = +sqrt.  Modes are b-normalized, converted to the stored carrier
    convention, phase-fixed, and carry their spectral gap and residual.  A
    residual above max(1e-9, 1e-13 * rho), or NaN, raises; rho is bounded
    from below by the computed eigenvalues and the diagonal Rayleigh quotients.
    An eigensolver failure raises :func:`_solve_pencil`'s error as a
    ``NumericalError``.
    """
    if n_bands < 1 or n_bands > op.size:
        raise ValidationError(f"n_bands must be in 1..{op.size}")
    cell = op.medium.cell
    wave = op.medium.family != "schrodinger"
    if _assembly_only(op.medium):
        raise UnsupportedScaleError("3D vector eigensolves are out of scope (assembly only)")
    try:
        evals, evecs, residuals = _solve_pencil(op, [0, min(n_bands, op.size - 1)])
    except LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc

    if wave:
        if evals.min() < EIG_CLAMP:
            raise NumericalError(
                f"negative eigenvalue {evals.min():.3e} below the clamp bound; ellipticity violated"
            )
        omegas = np.sqrt(np.clip(evals, 0.0, None))
    else:
        omegas = evals

    shape = (op.medium.n_comp,) + tuple(2 * op.cutoff + 1 for _ in range(cell.dims))
    gate = _residual_gate(op, evals)
    modes = []
    for idx in range(n_bands):
        v = evecs[:, idx]
        if residuals is None:
            r = op.A @ v - evals[idx] * (op.B @ v)
            residual = float(np.linalg.norm(r) / np.linalg.norm(v))
        else:
            residual = float(residuals[idx])
        if not residual <= gate:
            raise NumericalError(f"band {idx + 1} residual {residual:.3e} exceeds {gate:.3e}")
        v0 = v.reshape(shape).copy()
        if wave:
            # antiunitary map to the e^{-i(k.xi - omega t)} carrier
            flip = (slice(None),) + tuple(slice(None, None, -1) for _ in range(cell.dims))
            v0 = np.conj(v0[flip])
        v0 = _phase_fix(v0)
        others = np.abs(omegas - omegas[idx])
        others[idx] = np.inf
        gap = float(others.min())
        modes.append(BlochMode(op.medium, op.k.copy(), float(omegas[idx]), idx + 1, v0, op.cutoff,
                               gap, residual))
    return modes


def solve_at(medium, k, cutoff: int, n_bands: int) -> list:
    """Assemble and solve in one call."""
    return solve_bands(assemble_operator(medium, k, cutoff), n_bands)


def check_nondegenerate(mode: BlochMode) -> bool:
    """True iff the mode's spectral gap exceeds 1e-6 * max(1, |omega|), as effective coefficients require."""
    return mode.gap > 1e-6 * max(1.0, abs(mode.omega))
