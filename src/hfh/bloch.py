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
instance dict, built on first use: the basis and G = 2*pi*n/lambda, each
distinct symbol field's nonzero lag entries f_hat[n - n'] over the basis
pairs as coordinates (rows, cols, values), on and above A's diagonal, and
for the wave families B, all read-only.  A term of A is formed at its
field's entries only, and the mirror copies only the entries the terms
wrote: a smooth medium's lag blocks are mostly structural zeros, and the
entries no term writes keep one value for every k.  A wave pencil that
Lanczos solves also keeps B in LAPACK's band storage, over B's own band,
and where each entry A's terms write lands in a band of half-width kd
(up to n - 1), and checks that B is positive definite by a band
Cholesky.  B's dense Cholesky factor waits for the first dense solve,
which a certified Lanczos solve never needs.  The cache also holds two
writable n x n work arrays: :func:`solve_at` assembles A into the first,
and a dense solve overwrites the second (Fortran order) with a copy of A,
so a k-solve allocates no new n x n array.  With band parts a third,
(kd + 1) x n, holds A + s B and its factor, then A for the certificate's
residuals, then the inertia count's A - tau B with its pinned diagonal
lift and that factor.  Hence :func:`solve_at` and :func:`solve_bands`
are not reentrant for one medium object: two threads must not solve on
the same medium at once.  A pickled medium leaves the cache out.
:func:`assemble_operator` returns an A of its own, which no later call
changes.  An operator holds the medium's cache at its cutoff, which its
solves read and overwrite.  An operator, and each mode solved from it,
holds the medium it was built from, so what consumes a mode (transport coefficients, coupling,
wave packets) reads the medium from the mode and takes no medium argument.

A wave pencil of size ``LANCZOS_MIN_SIZE`` or more gets its lowest pairs
by shift-invert Lanczos on its band (:func:`_lanczos`), kept only if each
pair meets the residual gate, by band products, and a Sylvester inertia
count from a pinned band Cholesky shows that no eigenvalue below them was
missed (:func:`_certified`, :func:`_band_negative_count`).  Any other wave
solve, and any Lanczos solve that is not certified, runs the rest of
LAPACK's xHEGVX on B's factor (HEGST, HEEVX with its queried optimal
workspace, the triangular solve), which gives the bits
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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import NumericalError, UnsupportedScaleError, ValidationError
from .fourier import TWO_PI, Cell, FourierField
from .medium import Medium

RESIDUAL_TOL = 1e-9
EIG_CLAMP = -1e-10
# Wave pencils of this size or more, asked for at most _LANCZOS_MAX_PAIRS
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


@dataclass(frozen=True)
class BlochOperator:
    """Assembled Bloch pencil of ``medium`` at one crystal wavevector.

    Wave families solve A v = omega^2 B v; the schrodinger family solves
    A v = omega v with B = None (identity weighting).  The basis is
    component-major: ``medium.n_comp`` blocks of ``basis``.
    """

    medium: Medium = field(repr=False)
    k: np.ndarray
    basis: np.ndarray  # (n_basis, d) multi-indices
    A: np.ndarray
    B: np.ndarray | None
    cutoff: int
    parts: _Galerkin = field(repr=False)  # the medium's cache at this cutoff, which solves read and overwrite

    @property
    def size(self) -> int:
        return self.A.shape[0]

    @property
    def scratch(self) -> np.ndarray:
        """The medium's Fortran-order n x n work array; solves overwrite it."""
        return self.parts.work[1]

    @property
    def band(self) -> _Band | None:
        """The medium's band parts when Lanczos solves the pencil, else None."""
        return self.parts.band

    @cached_property
    def _a_lower(self) -> np.ndarray:
        """A's written entries conjugated, as the band's lower triangle holds them, in ``band.upper``'s
        order: gathered once per operator for the Lanczos factor, the residuals and the count."""
        return np.conjugate(self.A.reshape(-1)[self.band.upper])

    @property
    def medium_key(self) -> str:
        """The medium's fingerprint; kept because ``bench/tracing.py`` keys each traced solve by it."""
        return self.medium.fingerprint

    def hermiticity_defect(self) -> float:
        err = float(np.max(np.abs(self.A - self.A.conj().T)))
        if self.B is not None:
            err = max(err, float(np.max(np.abs(self.B - self.B.conj().T))))
        return err


@dataclass(frozen=True)
class BlochMode:
    """One point (k, omega, band) of ``medium``'s dispersion diagram with its cell-periodic amplitude.

    ``v0`` holds the Fourier coefficients of V0 (shape (components, 2N+1, ...))
    in the family's carrier convention; the normalization is b-weighted
    ((1/|cell|) integral of V0^dag b V0 = 1; plain L2 for schrodinger) and the
    largest-modulus coefficient is made real positive.  The family, the
    cell and the coefficients every cell integral of the mode reads are
    those of ``medium``.
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


def _mirror_hermitian(m: np.ndarray, scratch: np.ndarray, lower: np.ndarray) -> None:
    """Make the float matrix exactly Hermitian in place by mirroring its upper triangle.

    The exact Galerkin matrix is Hermitian entry-for-entry; evaluating each
    entry once and mirroring removes the ~1e-12 asymmetry that float
    non-associativity would otherwise leave at large cutoffs.  Entry values in
    the upper triangle are untouched; the diagonal loses its imaginary part.
    ``scratch`` (Fortran order, m's shape) receives m^H on the way, and
    ``lower`` masks the strict lower triangle.
    """
    np.conjugate(m, out=scratch.T)
    np.copyto(m, scratch, where=lower)
    np.fill_diagonal(m.imag, 0.0)


@dataclass(frozen=True)
class _Band:
    """A wave pencil's band in LAPACK's lower band storage, and a work array of that shape.

    Every nonzero entry of A and B lies within ``kd`` of the diagonal.
    ``B`` holds B's entries B[r + d, r] at [d, r] over B's own band,
    (kd_B + 1) x n in Fortran order with kd_B <= kd, the layout ZPBTRF and
    ZHBMV read.  A's entry (r, c), r <= c, lands conjugated, as A[c, r], at
    [c - r, r] of a (kd + 1) x n array: ``at`` gives that position, as a
    flat index in Fortran order, for each flat index in ``upper`` (the
    cache's list of the entries A's terms write).  Those three are
    read-only; ``work``, (kd + 1) x n, is writable and receives A + s B,
    then its factor, then A for the certificate's residuals, then the
    inertia count's A - tau B with its pinned diagonal lift, and that
    factor.
    """

    kd: int
    B: np.ndarray
    upper: np.ndarray
    at: np.ndarray
    work: np.ndarray


def _band(B: np.ndarray, upper: np.ndarray, b_at: list) -> _Band:
    """The band parts of a pencil whose B and A entries on and above the diagonal sit at the flat
    indices ``b_at`` (a list of arrays) and ``upper``."""
    n = len(B)
    rows, cols = np.divmod(np.concatenate([upper[:0], *b_at]), n)  # upper[:0]: none if B has no entry
    kd_B = int(np.max(cols - rows, initial=0))
    rows, cols = np.divmod(upper, n)
    kd = max(kd_B, int(np.max(cols - rows, initial=0)))
    d, r = np.indices((kd_B + 1, n))
    B_band = np.asfortranarray(np.where(d + r < n, B[np.minimum(d + r, n - 1), r], 0.0))
    at = (cols - rows) + rows * (kd + 1)
    for arr in (B_band, at):
        arr.flags.writeable = False
    return _Band(kd, B_band, upper, at, np.empty((kd + 1, n), dtype=np.complex128, order="F"))


def _b_indefinite(info: int) -> scipy.linalg.LinAlgError:
    return scipy.linalg.LinAlgError(
        f"The leading minor of order {info} of B is not positive definite. The factorization "
        "of B could not be completed and no eigenvalues or eigenvectors were computed.")


@dataclass(frozen=True)
class _Galerkin:
    """The k-independent parts of a medium's Bloch operators at one cutoff, and two work arrays.

    ``terms`` holds (at, entries, j, l, paired) per term of A in assembly
    order: ``entries`` are the (rows, cols, values) of its field from
    :func:`_lag_entries` that fall on or above A's diagonal, and ``at`` their
    flat indices in A.  The term adds (k+G)_j f_hat (k+G')_l there (slot 0
    gives a factor 1), in one pass with the transposed slots if ``paired``;
    a zero field has no term.  ``upper`` lists every flat index a term
    writes, ascending, and ``mirror`` pairs those above the diagonal with
    their transposed indices.  ``beta0`` is the schrodinger family's
    divisor (None for the wave families).  ``band`` holds the pencil's band
    parts (:func:`_band`) when Lanczos solves it (a wave pencil with n >=
    ``LANCZOS_MIN_SIZE`` that is not assembly only), else None.
    ``b_info`` is the info of ZPBTRF on ``band.B``: 0 if B is positive
    definite, else the order of its first leading minor that is not; 0
    without band parts, where :attr:`factor` checks B.  Every array is
    read-only except the two in ``work``, A(k) (C order) and the
    eigensolve's scratch (Fortran order), and ``band.work``.
    """

    cutoff: int
    basis: np.ndarray
    G: np.ndarray  # 2*pi*n/lambda, one row per axis
    terms: tuple
    upper: np.ndarray
    mirror: tuple
    beta0: float | None
    B: np.ndarray | None
    b_info: int
    band: _Band | None
    work: tuple

    @cached_property
    def factor(self) -> np.ndarray:
        """B's lower Cholesky factor (ZPOTRF), read-only, formed by the first dense solve: a
        certified Lanczos solve never reads it.  Raises ``LinAlgError`` if B is not positive definite.
        """
        L, info = lapack.zpotrf(self.B, lower=1)
        if info:
            raise _b_indefinite(info)
        L.flags.writeable = False
        return L


def _galerkin(medium, cutoff: int) -> _Galerkin:
    """The medium's k-independent Galerkin parts, built on first use and again when the cutoff changes.

    They live in the medium's instance dict, so they last as long as the
    medium; one cutoff is kept.  Only blocks on and above the diagonal are
    formed, since the mirror fills the others.  The first work array starts
    as A with every term zero, mirrored, so the entries no term writes
    already hold their value for every k: +0 divided by beta0, conjugated
    below the diagonal.
    """
    cache = medium.__dict__.get("_galerkin")
    if cache is not None and cache.cutoff == cutoff:
        return cache
    cell = medium.cell
    wave = medium.family != "schrodinger"
    beta0 = None
    if not wave:
        beta0 = float((medium.M[0].mean() / 1j).real)
        if beta0 == 0.0:
            raise ValidationError("M_0 has a zero mean; omega cannot be isolated")
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
    B = np.zeros((n, n), dtype=np.complex128) if wave else None
    b_at = []  # the flat indices of B the time entries write
    terms = []
    for f, entries in uses.values():
        for (i, j, kk, l) in entries:
            if wave and not (j or l):
                if i <= kk:
                    at, (_, _, values) = on_block(f, i, kk)
                    B.put(at, -values)  # the entries are nonzero, so -v is 0 - v
                    b_at.append(at)
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
    terms = tuple(t for t in terms if len(t[0]))  # a zero field adds nothing
    written = np.zeros(n * n, dtype=bool)  # the flat indices of A the terms write
    for t in terms:
        written[t[0]] = True
    upper = np.flatnonzero(written)
    written[::n + 1] = False
    above = np.flatnonzero(written)
    rows, cols = np.divmod(above, n)
    mirror = (above, cols * n + rows)
    lower = np.greater.outer(np.arange(n), np.arange(n))
    scratch = np.empty((n, n), dtype=np.complex128, order="F")
    band = None
    b_info = 0
    if wave:
        _mirror_hermitian(B, scratch, lower)
        if n >= LANCZOS_MIN_SIZE and not _assembly_only(medium):
            band = _band(B, upper, b_at)
            b_info = lapack.zpbtrf(band.B, lower=1)[1]
    zero = np.zeros(1, dtype=np.complex128)
    if not wave:
        zero /= beta0
    A = np.where(lower, zero.conj(), zero)
    np.fill_diagonal(A.imag, 0.0)
    G = TWO_PI * basis.T / cell.diag[:, None]
    for arr in [basis, G, B, upper, *mirror, *(t[0] for t in terms)]:
        if arr is not None:
            arr.flags.writeable = False
    cache = _Galerkin(cutoff, basis, G, terms, upper, mirror, beta0, B, b_info, band, (A, scratch))
    medium.__dict__["_galerkin"] = cache
    return cache


def assemble_operator(medium, k, cutoff: int, *, _into_work: bool = False) -> BlochOperator:
    """Galerkin Bloch operator of any medium, read off its constitutive symbol.

    A C entry with spatial slots j, l >= 1 adds (k+G)_j f_hat[n - n'] (k+G')_l
    to the (i, k) component block of A (in one pass with its transposed
    entry C_ilkj when the two share one field); the wave families' time entries
    C_i0k0 = -b_ik give B = -C_hat.  The schrodinger family has no B: its
    first-order terms (M_l / i)_hat (k+G')_l and its c_hat join A, which is
    then divided by beta0 = (mean M_0) / i, so A is the Hamiltonian H(k).
    Only A depends on k, and only at the entries the terms write; the rest
    comes from the medium's cache.  A is assembled in the cache's first
    work array and returned as a copy of its own; :func:`solve_at` passes
    ``_into_work`` to use it in place, valid until the medium's next
    assembly.  Every entry gets the bits a dense assembly of each term over
    whole lag blocks, in the same order, then a mirror, would give it.
    """
    if not isinstance(medium, Medium):
        raise ValidationError(f"unknown medium type {type(medium).__name__}")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    cell = medium.cell
    if medium.family == "schrodinger" and cell.dims > 2:
        raise UnsupportedScaleError("schrodinger solves support d <= 2")
    k = _as_k(cell, k)
    g = _galerkin(medium, cutoff)
    kg = k[:, None] + g.G
    A = g.work[0]
    flat = A.reshape(-1)
    flat[g.upper] = 0.0
    for at, (rows, cols, values), j, l, paired in g.terms:
        if j:
            term = kg[j - 1][rows] * values
            if l:
                term *= kg[l - 1][cols]
        else:
            term = values * kg[l - 1][cols] if l else values
        if paired:
            twin = kg[l - 1][rows] * values
            twin *= kg[j - 1][cols]
            term += twin
        np.add.at(flat, at, term)
    if g.beta0 is not None:
        flat[g.upper] = flat[g.upper] / g.beta0
    flat[g.mirror[1]] = np.conjugate(flat[g.mirror[0]])
    np.fill_diagonal(A.imag, 0.0)
    if medium.cutoff > cutoff:
        warnings.warn(f"operator cutoff {cutoff} below medium cutoff {medium.cutoff}; "
                      "medium content beyond the operator lags is truncated")
    return BlochOperator(medium, k, g.basis, A if _into_work else A.copy(), g.B, cutoff, g)


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

    A's entries outside ``band.upper`` are zero (a wave family's A holds
    only what its terms write), so shift*B plus A's written entries,
    conjugated into the lower triangle, is the whole band, entry for entry
    the lower triangle of A + shift*B.  B's own band fills the first
    kd_B + 1 rows, and the rows below it start at zero.
    """
    band = op.band
    kd_B = len(band.B) - 1
    np.multiply(band.B, shift, out=band.work[:kd_B + 1])
    band.work[kd_B + 1:] = 0.0
    flat = band.work.T.reshape(-1)  # a view, since work is in Fortran order
    flat[band.at] += op._a_lower
    return band.work


def _band_times(ab: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The Hermitian matrix held in lower band storage ``ab`` times each column of X, by ZHBMV."""
    return np.column_stack([blas.zhbmv(len(ab) - 1, 1.0, ab, x, lower=1) for x in X.T])


def _lanczos(op: BlochOperator, nev: int):
    """The nev lowest eigenpairs of A v = mu B v by shift-invert Lanczos, and the next Ritz value; or None.

    The shift s > 0 is a quarter of the nev-th smallest positive diagonal
    quotient A_ii / B_ii: near the wanted values, so their theta are well
    separated, but not so far below them that the largest theta swamps the
    rest in roundoff.  With A + s B = L L^H, the pencil's eigenpairs are
    those of the Hermitian T = L^-1 B L^-H, with theta = 1 / (mu + s) and
    v = L^-H y, so the lowest mu are the largest theta.  PBTRF factors
    A + s B in the band's work array (``op.band``), and a step applies T by
    two TBSV and one HBMV on B's own band, which also B-normalizes the Ritz
    vectors.  Lanczos on T starts from a fixed pseudo-random vector, which
    no symmetry of the medium keeps out of any eigenspace, and
    orthogonalizes each new vector against all earlier ones (kept
    conjugated too); a second pass runs only when the first shrinks the
    vector to 1/sqrt 2 of its norm or less (Daniel, Gragg, Kaufman &
    Stewart, Math. Comp. 30 (1976) 772), since otherwise the first pass
    lost no orthogonality to cancellation.  It
    stops when the Ritz residual estimate beta_m |z_m| of each of the nev
    largest Ritz values is below ``_LANCZOS_TOL`` times that value.
    Returns (mu, X): nev + 1 ascending Ritz values and the B-normalized
    vectors of the first nev.  None if no positive shift exists, A + s B is
    not positive definite, Lanczos breaks down early, or
    ``_LANCZOS_MAX_STEPS`` steps pass without convergence.  L stays in the
    band's work array.
    """
    n = op.size
    quotients = np.diag(op.A).real / np.diag(op.B).real
    positive = np.sort(quotients[quotients > 0.0])
    if len(positive) < nev:
        return None
    s = 0.25 * float(positive[nev - 1])
    band = op.band
    L, info = lapack.zpbtrf(_shift_into_band(op, s), lower=1, overwrite_ab=1)
    if info:
        return None
    steps = min(n, _LANCZOS_MAX_STEPS)
    Q = np.empty((steps, n), dtype=np.complex128)
    Qc = np.empty_like(Q)  # conj(Q), row by row
    start = np.random.default_rng(0).standard_normal((2, n))
    Q[0] = start[0] + 1j * start[1]
    Q[0] /= np.linalg.norm(Q[0])
    np.conjugate(Q[0], out=Qc[0])
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    for m in range(steps):
        w = blas.ztbsv(band.kd, L, Q[m], lower=1, trans=2)
        w = blas.ztbsv(band.kd, L, blas.zhbmv(len(band.B) - 1, 1.0, band.B, w, lower=1), lower=1,
                       overwrite_x=1)
        basis = Q[:m + 1]
        before = blas.dznrm2(w)
        for _ in range(2):
            h = Qc[:m + 1] @ w
            w -= h @ basis
            alpha[m] += h[m].real
            beta[m] = blas.dznrm2(w)
            if beta[m] > before * 0.5 ** 0.5:
                break
        if m >= nev:
            theta, Z, _ = lapack.dstev(alpha[:m + 1], beta[:m])
            lo = m + 1 - nev  # dstev sorts ascending: the nev largest are theta[lo:]
            if np.all(beta[m] * np.abs(Z[m, lo:]) <= _LANCZOS_TOL * theta[lo:]):
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
    definite.  PBTRF factors H' = L L^H in the band's work array
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
    quotients = np.diag(op.A).real / op.band.B[0].real
    S = np.argsort(quotients, kind="stable")[:pins]
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


def _certified(op: BlochOperator, mu: np.ndarray, X: np.ndarray):
    """The residuals |A x - mu B x| / |x| of the Lanczos pairs (mu[:-1], X) if they are the pencil's
    lowest, each within half the residual gate; else None.

    Consecutive Ritz values must differ by more than ``_LANCZOS_SPLIT``
    times the spectral radius bound: a multiplet's eigenvectors are not
    unique, and the dense solve stays the reference for them.  Then
    tau = mu[-2] + (mu[-1] - mu[-2]) / 4 lies above the last wanted value
    and below the next Ritz value, and A - tau B must have exactly
    len(mu) - 1 negative eigenvalues, so that no eigenvalue below tau was
    missed.  The residuals come from band products (A scattered into the
    band's work array, B's own band), and :func:`_band_negative_count`
    counts with ``_CERTIFICATE_PINS`` pins per Ritz value.  A count that
    declines rejects the pairs, and the dense solve runs instead.
    """
    rho = _spectral_radius_bound(op, mu)
    if not np.min(np.diff(mu)) > _LANCZOS_SPLIT * rho:
        return None
    # A scattered over the Lanczos factor, which is no longer read
    R = _band_times(_shift_into_band(op, 0.0), X) - _band_times(op.band.B, X) * mu[:-1]
    gate = _residual_gate(op, mu[:-1])
    r_norm, x_norm = np.linalg.norm(R, axis=0), np.linalg.norm(X, axis=0)
    if not np.all(r_norm <= 0.5 * gate * x_norm):
        return None
    tau = mu[-2] + 0.25 * (mu[-1] - mu[-2])
    if _band_negative_count(op, tau, min(_CERTIFICATE_PINS * len(mu), op.size)) != len(mu) - 1:
        return None
    return r_norm / x_norm


def _solve_pencil(op: BlochOperator, subset) -> tuple:
    """Eigenpairs subset[0]..subset[1] of A v = mu B v (subset[0] == 0), and their residuals or None.

    For n >= ``LANCZOS_MIN_SIZE`` (and few pairs) the pairs come from
    :func:`_lanczos` on the band when :func:`_certified` accepts them, with
    the residuals the certificate formed.  Otherwise, and whenever either
    declines, LAPACK xHEGVX's steps run on a fresh copy of A in the
    scratch: POTRF + HEGST + HEEVX + TRSM, with B's factor from the
    medium's cache (formed by the first dense solve of a cutoff, see
    :class:`_Galerkin`).  With HEEVX's optimal workspace that result is bit
    for bit that of ``scipy.linalg.eigh(A, B, subset_by_index=subset)``.
    An indefinite B raises ``LinAlgError`` on either path: from the band
    Cholesky of the cache build, or from :attr:`_Galerkin.factor`.
    """
    if op.parts.b_info:
        raise _b_indefinite(op.parts.b_info)
    nev = subset[1] + 1
    if op.size >= LANCZOS_MIN_SIZE and nev <= _LANCZOS_MAX_PAIRS:
        found = _lanczos(op, nev)
        residuals = None if found is None else _certified(op, *found)
        if residuals is not None:
            return found[0][:-1], found[1], residuals
    L = op.parts.factor
    np.copyto(op.scratch, op.A)
    C, _ = lapack.zhegst(op.scratch, L, lower=1, overwrite_a=1)
    lwork = int(lapack.zheevx_lwork(len(C), lower=1)[0].real)
    w, Z, m, _, info = lapack.zheevx(C, range="I", lower=1, il=subset[0] + 1, iu=subset[1] + 1,
                                     abstol=0.0, lwork=lwork, overwrite_a=1)
    if info:
        raise scipy.linalg.LinAlgError(f"{info} eigenvectors failed to converge.")
    x, _ = lapack.ztrtrs(L, Z[:, :m], lower=1, trans=2, overwrite_b=1)  # L's diagonal is nonzero
    return w[:m], x, None


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
    cell = op.medium.cell
    wave = op.medium.family != "schrodinger"
    if _assembly_only(op.medium):
        raise UnsupportedScaleError("3D vector eigensolves are out of scope (assembly only)")
    subset = [0, min(n_bands, op.size - 1)]
    residuals = None  # a certified Lanczos solve has formed them already
    try:
        if op.B is None:
            np.copyto(op.scratch, op.A)  # LAPACK works in place on this Fortran-order copy
            evals, evecs = scipy.linalg.eigh(op.scratch, subset_by_index=subset, overwrite_a=True)
        else:
            evals, evecs, residuals = _solve_pencil(op, subset)
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

    shape = (op.medium.n_comp,) + tuple(2 * op.cutoff + 1 for _ in range(cell.dims))
    gate = _residual_gate(op, evals)
    modes = []
    for idx in range(n_bands):
        v = evecs[:, idx]
        if residuals is None:
            r = op.A @ v - evals[idx] * (v if op.B is None else op.B @ v)
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
    """Assemble and solve in one call, in the medium's work arrays."""
    return solve_bands(assemble_operator(medium, k, cutoff, _into_work=True), n_bands)


def check_nondegenerate(mode: BlochMode) -> bool:
    """True iff the mode's spectral gap exceeds 1e-6 * max(1, |omega|), as effective coefficients require."""
    return mode.gap > 1e-6 * max(1.0, abs(mode.omega))
