"""Cell-periodic material data for the three equation families.

Media are stored as truncated Fourier series (see :mod:`hfh.fourier`), so
piecewise-constant phases keep analytic coefficients and all downstream
operator assembly is exact convolution.  One :class:`Medium` serves all
three families: it *is* its constitutive symbol, whose entries are the
truncated series, so every consumer (Bloch assembly, cell integrals, time
stepping) reads the same coefficient tables, and the families share one
assembler and one transport formula.  The family is a label that picks the
carrier convention.  Matrix and tensor coefficients are plain dicts keyed by
index tuple, in sorted key order; an absent entry is zero.

Field specs accepted by the builders (and by the JSON descriptor):

* a number -> constant field
* ``{"type": "constant", "value": v}``
* ``{"type": "piecewise", "breaks": [0.0, x1, ...], "values": [v0, v1, ...]}``
  (1D; piece i occupies [breaks[i], breaks[i+1]) and the last piece runs to
  the cell edge; coefficients are exact indicator-function integrals)
* ``{"type": "cosine", "mean": m, "harmonics": [{"n": [...], "amp": a, "phase": p}]}``
* ``{"type": "fourier", "terms": [{"n": [...], "re": x, "im": y}, ...]}``
* an existing :class:`~hfh.fourier.FourierField`
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, need, reading
from .fourier import TWO_PI, Cell, FourierField

# CPython's builtin SHA-256 (the stdlib's random.py takes _sha512 the same way): the
# same digests as hashlib's, without loading OpenSSL.  cli's config digest uses it too.
try:
    from _sha256 import sha256  # Python <= 3.11
except ImportError:
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        from hashlib import sha256

CONJ_SYMMETRY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
DIVERGENCE_TOL = 1e-12


# ---------------------------------------------------------------------------
# field construction


def piecewise(breaks, values) -> dict:
    return {"type": "piecewise", "breaks": list(breaks), "values": list(values)}


def cosine(mean, harmonics) -> dict:
    """harmonics: iterable of (multi-index, amplitude) or (multi-index, amplitude, phase)."""
    entries = []
    for h in harmonics:
        n, amp = h[0], h[1]
        phase = h[2] if len(h) > 2 else 0.0
        entries.append({"n": list(np.atleast_1d(n)), "amp": amp, "phase": phase})
    return {"type": "cosine", "mean": mean, "harmonics": entries}


def fourier_terms(terms: dict) -> dict:
    out = []
    for n, c in terms.items():
        c = complex(c)
        out.append({"n": list(np.atleast_1d(n)), "re": c.real, "im": c.imag})
    return {"type": "fourier", "terms": out}


def _piecewise_coefficients(cell: Cell, cutoff: int, breaks, values) -> FourierField:
    if cell.dims != 1:
        raise ValidationError("piecewise specs are supported on 1D cells only")
    breaks = [float(x) for x in breaks]
    values = [float(v) for v in values]
    lam = cell.lengths[0]
    if len(breaks) != len(values) or not breaks:
        raise ValidationError("piecewise spec needs one value per break")
    if breaks[0] != 0.0:
        raise ValidationError("piecewise breaks must start at 0.0")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])) or breaks[-1] >= lam:
        raise ValidationError("piecewise breaks must be strictly increasing inside the cell")
    # one row per piece [s, e): its indicator integral against e^{-i q x} / lam
    s, e = np.array(breaks)[:, None], np.array(breaks[1:] + [lam])[:, None]
    v = np.array(values)[:, None]
    n = FourierField.zeros(cell, cutoff).index_grid(0)
    q = TWO_PI * np.where(n == 0, 1, n) / lam  # the n = 0 column takes the mean branch
    rows = np.where(n == 0, v * (e - s) / lam,
                    v * (np.exp(-1j * q * s) - np.exp(-1j * q * e)) / (1j * q * lam))
    return FourierField(cell, sum(rows, np.zeros(len(n), dtype=np.complex128)))  # pieces in order


def build_field(spec, cell: Cell, cutoff, name: str = "field") -> FourierField:
    """Realize a field spec as a truncated Fourier series on the given cell.

    A malformed value in the spec raises ValidationError naming ``name``.
    """
    with reading(name):
        if isinstance(spec, FourierField):
            if spec.cell != cell:
                raise ValidationError("field was built on a different cell")
            return spec
        if isinstance(spec, (int, float, complex)):
            return FourierField.constant(cell, spec)
        if not isinstance(spec, dict) or "type" not in spec:
            raise ValidationError(f"unrecognized field spec: {spec!r}")
        kind = spec["type"]
        if kind == "constant":
            return FourierField.constant(cell, complex(spec["value"]))
        if kind == "piecewise":
            return _piecewise_coefficients(cell, cutoff, spec["breaks"], spec["values"])
        if kind == "cosine":
            out = FourierField.zeros(cell, cutoff)
            out.coeffs[out.cutoffs] = spec.get("mean", 0.0)
            for h in spec["harmonics"]:
                n = tuple(int(v) for v in np.atleast_1d(h["n"]))
                amp, phase = float(h["amp"]), float(h.get("phase", 0.0))
                half = 0.5 * amp * np.exp(1j * phase)
                for sign, c in ((1, half), (-1, np.conj(half))):
                    idx = tuple(sign * v + out.cutoffs[ax] for ax, v in enumerate(n))
                    if any(i < 0 or i >= s for i, s in zip(idx, out.coeffs.shape)):
                        raise ValidationError(f"cosine harmonic {n} exceeds cutoff {cutoff}")
                    out.coeffs[idx] += c
            return out
        if kind == "fourier":
            table = {}
            for t in spec["terms"]:
                n = tuple(int(v) for v in np.atleast_1d(t["n"]))
                table[n] = table.get(n, 0.0) + complex(t.get("re", 0.0), t.get("im", 0.0))
            return FourierField.from_terms(cell, cutoff, table)
        raise ValidationError(f"unknown field spec type {kind!r}")


def _digest(kind: str, cell: Cell, parts) -> str:
    h = sha256()
    h.update(kind.encode())
    h.update(np.asarray(cell.lengths).tobytes())
    for tag, f in parts:
        h.update(str(tag).encode())
        h.update(np.ascontiguousarray(f.coeffs).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# media


@dataclass(frozen=True, eq=False)
class Medium:
    """A medium of any family as its constitutive symbol P(K) = -K.C.K - M.K - c at K = (-omega, k + G).

    ``C[(i, j, k, l)]`` couples components i and k through spacetime slots
    j and l, where slot 0 is time and slot j >= 1 is spatial axis j - 1.
    ``M[l]`` is the first-order term of slot l and ``c[(i, k)]`` the
    zeroth-order term.  Absent entries are zero.  The builders give

    * scalar-wave: C_0000 = -b and C_0,j+1,0,l+1 = a_jl;
    * vector-wave: C_i0k0 = -b_ik and C_i,j+1,k,l+1 = a_ijkl;
    * schrodinger: C_0j0l = a_jl with a = diag(0, -I/(2m)), M_l = b_l -
      conj(b_l) with b = (-i/2, i e Phi / (2m)), and c_00 = -e V.

    Transposed entries share one field object.  ``fingerprint`` digests the
    source fields, so a mode solved on the medium can be matched to it.
    Media compare and hash by family, cutoff and fingerprint, so two built
    from one descriptor are equal; one without a fingerprint equals itself only.
    """

    family: str  # "scalar-wave", "vector-wave" or "schrodinger"
    cell: Cell
    cutoff: int
    n_comp: int
    C: dict
    M: dict = field(default_factory=dict)
    c: dict = field(default_factory=dict)
    fingerprint: str = ""

    def _key(self) -> tuple:
        return self.family, self.cutoff, self.fingerprint or id(self)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Medium) else NotImplemented

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# validation helpers


def _require_real(f: FourierField, name: str):
    err = f.conj_symmetry_error()
    if err > CONJ_SYMMETRY_TOL:
        raise ValidationError(f"{name} must be real-valued; conjugate-symmetry defect {err:.3e}")


def _check_positive_definite(entries: dict, n: int, cell: Cell, cutoff: int, what: str):
    """Sample the symmetric part of the n x n field {(i, j): f} on a grid of
    4*(2*cutoff+1) points per axis; its least eigenvalue must be positive."""
    res = (4 * (2 * cutoff + 1),) * cell.dims
    mats = np.zeros(res + (n, n))
    for (i, j), f in entries.items():
        mats[..., i, j] = np.real(f.sample_grid(res))
    least = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2))).min()
    if least <= POSITIVITY_TOL:
        raise ValidationError(f"{what}; min sampled eigenvalue {least:.3e}")


def _check_exact_equal(f: FourierField, g: FourierField, what: str):
    if f.cutoffs != g.cutoffs or not np.array_equal(f.coeffs, g.coeffs):
        raise ValidationError(what)


def _matrix_field(spec, n: int, cell: Cell, cutoff: int, name: str) -> dict:
    """Real symmetric positive-definite n x n field as {(i, j): field}, keys sorted.

    ``spec`` is a nested list, an {(i, j): spec} table, or one field spec
    meaning spec * I.  Each off-diagonal entry needs its partner with exactly
    equal coefficients, and both slots then hold one field object: assembly
    recognizes transposed entries by identity.
    """
    if isinstance(spec, (list, tuple)):
        spec = {(i, j): s for i, row in enumerate(spec) for j, s in enumerate(row)}
    elif not isinstance(spec, dict) or "type" in spec:
        diag = build_field(spec, cell, cutoff, name)
        spec = {(i, i): diag for i in range(n)}
    entries = {}
    for key, s in spec.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ValidationError(f"{name}: {key!r} is not an (i, j) entry; a field spec needs a 'type'")
        i, j = int(key[0]), int(key[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"{name}[{i}][{j}] lies outside the {n} x {n} matrix")
        entries[(i, j)] = build_field(s, cell, cutoff, f"{name}[{i}][{j}]")
    for (i, j), f in entries.items():
        if (j, i) not in entries:
            raise ValidationError(f"matrix {name} is missing the symmetric partner of ({i},{j})")
        _check_exact_equal(f, entries[(j, i)],
                           f"matrix {name} must be symmetric: {name}[{i}][{j}] != {name}[{j}][{i}]")
        _require_real(f, f"{name}[{i}][{j}]")
    matrix = {(i, j): entries[(min(i, j), max(i, j))] for (i, j) in sorted(entries)}
    _check_positive_definite(matrix, n, cell, cutoff, f"{name} must be positive definite")
    return matrix


# ---------------------------------------------------------------------------
# builders


def _wave_medium(family: str, cell: Cell, cutoff: int, n_comp: int, a: dict, b: dict,
                 fingerprint: str) -> Medium:
    """C_i0k0 = -b_ik, then C_i,j+1,k,l+1 = a_ijkl."""
    C = {(i, 0, k, 0): -f for (i, k), f in b.items()}
    C.update({(i, j + 1, k, l + 1): f for (i, j, k, l), f in a.items()})
    return Medium(family, cell, cutoff, n_comp, C, fingerprint=fingerprint)


def build_scalar_medium(a, b, cell: Cell, cutoff: int) -> Medium:
    """Build the scalar wave medium div(a grad u) = b u_tt.

    ``a`` is either a single field spec (isotropic, a*I) or a d x d nested
    list / {(i, j): spec} table; ``b`` is a scalar field spec.  Both must be
    real; a must be symmetric and positive definite, b strictly positive,
    checked on a sampling grid of resolution 4*(2*cutoff+1) per axis.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    a_field = _matrix_field(a, cell.dims, cell, cutoff, "a")
    b_field = build_field(b, cell, cutoff, "b")
    _require_real(b_field, "b")
    _check_positive_definite({(0, 0): b_field}, 1, cell, cutoff, "b must be strictly positive")
    fp = _digest("scalar", cell, list(a_field.items()) + [("b", b_field)])
    return _wave_medium("scalar-wave", cell, cutoff, 1,
                        {(0, j, 0, l): f for (j, l), f in a_field.items()}, {(0, 0): b_field}, fp)


def build_vector_medium(n_comp: int, a, b, cell: Cell, cutoff: int) -> Medium:
    """Build an n-component vector wave medium.

    ``a`` maps (i, j, k, l) -> field spec (0-based; i, k component indices,
    j, l spatial).  Missing major-symmetric partners are filled from
    a_ijkl = a_klij; explicit conflicting entries are rejected.  ``b`` is an
    (i, k) table, nested list, or a single spec meaning b * I.  The
    (n*d) x (n*d) matrix a[(i,j),(k,l)] must be positive definite on the
    sampling grid (a sufficient, Gram ellipticity check).
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    if not 1 <= n_comp <= 3:
        raise ValidationError("vector media support at most 3 components")
    d = cell.dims
    a_field = {}
    for idx, spec in a.items():
        i, j, k, l = (int(v) for v in idx)
        if not (0 <= i < n_comp and 0 <= k < n_comp and 0 <= j < d and 0 <= l < d):
            raise ValidationError(f"component index {(i, j, k, l)} outside shape {(n_comp, d, n_comp, d)}")
        f = build_field(spec, cell, cutoff, f"a[{(i, j, k, l)}]")
        if (k, l, i, j) in a_field:
            _check_exact_equal(f, a_field[(k, l, i, j)],
                               f"tensor a must satisfy a_ijkl = a_klij at {(i, j, k, l)}")
        a_field[(i, j, k, l)] = a_field[(k, l, i, j)] = f
        _require_real(f, f"a[{(i, j, k, l)}]")
    a_field = dict(sorted(a_field.items()))
    b_field = _matrix_field(b, n_comp, cell, cutoff, "b")
    _check_positive_definite({(i * d + j, k * d + l): f for (i, j, k, l), f in a_field.items()},
                             n_comp * d, cell, cutoff, "tensor a fails the ellipticity check")
    fp = _digest("vector", cell, list(a_field.items()) + list(b_field.items()))
    return _wave_medium("vector-wave", cell, cutoff, n_comp, a_field, b_field, fp)


# the nonzero Levi-Civita entries e_ijp
_LEVI_CIVITA = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
                (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}


def maxwell_tensor_from_permeability(mu_inverse, cell: Cell, cutoff: int) -> dict:
    """Minus the Maxwell curl-curl stiffness {(i, j, k, l): field} from an inverse-permeability matrix.

    a_ijkl = -e_ijp e_klq (mu^-1)_pq componentwise in Fourier space, where e is
    the Levi-Civita tensor; in hfh's convention A = (k+G).a.(k+G) the
    stiffness of curl(mu^-1 curl H) is +e_ijp e_klq (mu^-1)_pq, so mu^-1 = I
    gives a_0101 = -1.  (i, j) fixes p and (k, l) fixes q, so each entry
    is one term, and a_ijkl = a_klij holds exactly because mu^-1 must be
    exactly symmetric.  Identically zero entries are left out.  The output is
    construction-only (the curl-curl form is not elliptic), so no ellipticity
    is claimed or checked here.
    """
    if cell.dims != 3:
        raise ValidationError("the Maxwell map needs a 3D cell (n = d = 3)")
    mu = _matrix_field(mu_inverse, 3, cell, cutoff, "mu_inverse")
    levi = sorted(_LEVI_CIVITA.items())
    return {(i, j, k, l): (-s * t) * mu[(p, q)]
            for (i, j, p), s in levi for (k, l, q), t in levi
            if (p, q) in mu and np.any(mu[(p, q)].coeffs)}


def build_schrodinger_blocks(mass: float, charge: float, potential, magnetic,
                             cell: Cell, cutoff: int) -> Medium:
    """Build the constitutive system containing Schrodinger dynamics from physical inputs (m, e, V, Phi).

    ``magnetic`` is None or a list of d field specs for the components of the
    magnetic potential Phi, which must be divergence free on the cell (in 1D
    this forces a constant Phi).
    """
    if mass <= 0:
        raise ValidationError("mass must be positive")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    d = cell.dims
    v_field = build_field(potential, cell, cutoff, "potential")
    _require_real(v_field, "potential")
    if magnetic is None:
        phi = tuple(FourierField.constant(cell, 0.0) for _ in range(d))
    else:
        if len(magnetic) != d:
            raise ValidationError("magnetic potential needs one component per spatial axis")
        phi = tuple(build_field(spec, cell, cutoff, f"magnetic[{j}]") for j, spec in enumerate(magnetic))
        for j, f in enumerate(phi):
            _require_real(f, f"magnetic[{j}]")
        div = phi[0].derivative(0)
        for j in range(1, d):
            div = div + phi[j].derivative(j)
        resid = float(np.max(np.abs(div.coeffs)))
        if resid > DIVERGENCE_TOL:
            raise ValidationError(f"magnetic potential must be divergence free; residual {resid:.3e}")

    C = {(0, j, 0, j): FourierField.constant(cell, -1.0 / (2.0 * mass)) for j in range(1, d + 1)}
    b = (FourierField.constant(cell, -0.5j),) + tuple((1j * charge / (2.0 * mass)) * f for f in phi)
    M = {l: f - f.conjugate() for l, f in enumerate(b)}

    fp = _digest("schrodinger", cell,
                 [("m", FourierField.constant(cell, mass)),
                  ("e", FourierField.constant(cell, charge)),
                  ("V", v_field)] + [(f"phi{j}", phi[j]) for j in range(d)])
    return Medium("schrodinger", cell, cutoff, 1, C, M, {(0, 0): (-charge) * v_field}, fp)


# ---------------------------------------------------------------------------
# descriptors


def medium_from_descriptor(desc: dict) -> Medium:
    """Build a medium from a JSON-style descriptor; a bad or missing value is a ValidationError naming it."""
    entry = functools.partial(need, "descriptor", desc)
    cell = entry("cell", lambda v: Cell(tuple(np.atleast_1d(v))))
    kind = entry("kind")
    cutoff = entry("cutoff", _whole)
    try:
        if kind == "scalar":
            return build_scalar_medium(entry("a", _matrix_or_field), entry("b"), cell, cutoff)
        if kind == "vector":
            return build_vector_medium(entry("n", _whole), entry("a", _tensor_terms),
                                       entry("b", _matrix_or_field), cell, cutoff)
        if kind == "schrodinger":
            magnetic = None if desc.get("magnetic") is None else entry("magnetic", list)
            return build_schrodinger_blocks(entry("mass", float), entry("charge", float),
                                            entry("potential"), magnetic, cell, cutoff)
    except KeyError as exc:
        raise ValidationError(f"descriptor: missing key {exc}") from exc
    raise ValidationError(f"kind: unknown medium kind {kind!r}")


def _whole(value) -> int:
    """A whole number; a fraction or a boolean is refused, not truncated."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(value)


def _matrix_or_field(spec):
    if isinstance(spec, dict) and spec.get("type") == "matrix":
        return spec["entries"]
    return spec


def _tensor_terms(spec) -> dict:
    if not (isinstance(spec, dict) and spec.get("type") == "tensor4"):
        raise ValidationError('a: vector media need {"type": "tensor4", "terms": [...]}')
    return {tuple(int(v) for v in term["ijkl"]): term["field"] for term in spec["terms"]}
