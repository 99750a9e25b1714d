"""Cell-periodic material data for the three equation families.

Media are stored as truncated Fourier series (see :mod:`hfh.fourier`), so
piecewise-constant phases keep analytic coefficients and all downstream
operator assembly is exact convolution.  A medium *is* its truncated series:
every consumer (Bloch assembly, cell integrals, time stepping) reads the same
coefficient tables.  Bloch assembly and the transport integrals read them
through one :class:`Symbol` per medium, so the three families share one
assembler and one transport formula.

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

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .fourier import TWO_PI, Cell, FourierField

CONJ_SYMMETRY_TOL = 1e-12
POSITIVITY_TOL = 1e-10
DIVERGENCE_TOL = 1e-12


# ---------------------------------------------------------------------------
# field construction


def constant(value) -> dict:
    return {"type": "constant", "value": value}


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
    edges = breaks + [lam]
    out = FourierField.zeros(cell, cutoff)
    ns = out.index_grid(0)
    for v, (s, e) in zip(values, zip(edges[:-1], edges[1:])):
        for pos, n in enumerate(ns):
            if n == 0:
                out.coeffs[pos] += v * (e - s) / lam
            else:
                q = TWO_PI * n / lam
                out.coeffs[pos] += v * (np.exp(-1j * q * s) - np.exp(-1j * q * e)) / (1j * q * lam)
    return out


def build_field(spec, cell: Cell, cutoff) -> FourierField:
    """Realize a field spec as a truncated Fourier series on the given cell."""
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
        out.coeffs[out._center()] = spec.get("mean", 0.0)
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


# ---------------------------------------------------------------------------
# component containers


class ComponentField:
    """Matrix/tensor-valued cell-periodic field: one Fourier table per component.

    Components that are identically zero may be omitted; lookups return a
    shared zero field so assembly code never branches.
    """

    def __init__(self, cell: Cell, shape: tuple, comps: dict):
        self.cell = cell
        self.shape = tuple(int(s) for s in shape)
        self.comps = {}
        for idx, f in comps.items():
            idx = tuple(int(i) for i in np.atleast_1d(idx))
            if len(idx) != len(self.shape) or any(not 0 <= i < s for i, s in zip(idx, self.shape)):
                raise ValidationError(f"component index {idx} outside shape {self.shape}")
            self.comps[idx] = f
        self._zero = FourierField.zeros(cell, 0)

    def __getitem__(self, idx) -> FourierField:
        return self.comps.get(tuple(np.atleast_1d(idx)) if not isinstance(idx, tuple) else idx, self._zero)

    def indices(self):
        return sorted(self.comps)

    def max_cutoff(self) -> int:
        return max((max(f.cutoffs) for f in self.comps.values()), default=0)


def _digest(kind: str, cell: Cell, parts) -> str:
    h = hashlib.sha256()
    h.update(kind.encode())
    h.update(np.asarray(cell.lengths).tobytes())
    for tag, f in parts:
        h.update(str(tag).encode())
        h.update(np.ascontiguousarray(f.coeffs).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# media


@dataclass(frozen=True)
class Symbol:
    """Constitutive symbol P(K) = -K.C.K - M.K - c of a medium at K = (-omega, k + G).

    ``C[(i, j, k, l)]`` couples components i and k through spacetime slots
    j and l, where slot 0 is time and slot j >= 1 is spatial axis j - 1.
    ``M[l]`` is the first-order term b_l - conj(b_l) of slot l, and
    ``c[(i, k)]`` the zeroth-order term.  Absent entries are zero.  Entries
    are the medium's own Fourier fields, except the -b time entries of the
    wave families.
    """

    n_comp: int
    C: dict
    M: dict = field(default_factory=dict)
    c: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScalarWaveMedium:
    """Scalar wave equation div(a grad u) = b u_tt with matrix a and scalar b."""

    cell: Cell
    a: ComponentField  # shape (d, d), symmetric
    b: FourierField
    cutoff: int
    fingerprint: str = field(default="", compare=False)

    @property
    def family(self) -> str:
        return "scalar-wave"

    @cached_property
    def symbol(self) -> Symbol:
        """C_0000 = -b and C_0,j+1,0,l+1 = a_jl."""
        C = {(0, 0, 0, 0): -self.b}
        C.update({(0, j + 1, 0, l + 1): self.a[(j, l)] for (j, l) in self.a.indices()})
        return Symbol(1, C)


@dataclass(frozen=True)
class VectorWaveMedium:
    """n-component wave system with rank-4 stiffness a_ijkl and matrix density b_ik."""

    cell: Cell
    n_comp: int
    a: ComponentField  # shape (n, d, n, d)
    b: ComponentField  # shape (n, n), symmetric positive definite
    cutoff: int
    fingerprint: str = field(default="", compare=False)

    @property
    def family(self) -> str:
        return "vector-wave"

    @cached_property
    def symbol(self) -> Symbol:
        """C_i0k0 = -b_ik and C_i,j+1,k,l+1 = a_ijkl."""
        C = {(i, 0, k, 0): -self.b[(i, k)] for (i, k) in self.b.indices()}
        C.update({(i, j + 1, k, l + 1): self.a[(i, j, k, l)]
                  for (i, j, k, l) in self.a.indices()})
        return Symbol(self.n_comp, C)


@dataclass(frozen=True)
class SchrodingerBlocks:
    """Blocks (a, b, c) of the first-order constitutive system containing Schrodinger dynamics.

    Built from physical inputs: a_block = diag(0, -I/(2m)), b_block =
    (-i/2, i*e*Phi/(2m)) with Phi divergence free, c_block = -e*V.
    """

    cell: Cell
    mass: float
    charge: float
    a_block: ComponentField  # shape (d+1, d+1), real symmetric
    b_block: ComponentField  # shape (d+1,), complex, divergence free in xi'
    c_block: FourierField  # real scalar
    potential: FourierField
    magnetic: tuple
    cutoff: int
    fingerprint: str = field(default="", compare=False)

    @property
    def family(self) -> str:
        return "schrodinger"

    @property
    def beta0(self) -> float:
        """(mean M_0)/i = 2*Im(b_0): coefficient of omega in the reduced Bloch equation."""
        return float((self.symbol.M[0].mean() / 1j).real)

    @cached_property
    def symbol(self) -> Symbol:
        """C = a_block, M_l = b_l - conj(b_l) for l = 0..d, and c = c_block."""
        C = {(0, j, 0, l): self.a_block[(j, l)] for (j, l) in self.a_block.indices()}
        b = [self.b_block[(l,)] for l in range(self.cell.dims + 1)]
        return Symbol(1, C, {l: f - f.conjugate() for l, f in enumerate(b)}, {(0, 0): self.c_block})


MEDIUM_TYPES = (ScalarWaveMedium, VectorWaveMedium, SchrodingerBlocks)


# ---------------------------------------------------------------------------
# validation helpers


def _require_real(f: FourierField, name: str):
    err = f.conj_symmetry_error()
    if err > CONJ_SYMMETRY_TOL:
        raise ValidationError(f"{name} must be real-valued; conjugate-symmetry defect {err:.3e}")


def _sampling_resolution(cutoff: int) -> int:
    return 4 * (2 * cutoff + 1)


def _sample_real(f: FourierField, res: int) -> np.ndarray:
    return np.real(f.sample_grid((res,) * f.cell.dims))


def _check_scalar_positive(f: FourierField, cutoff: int, name: str):
    vals = _sample_real(f, _sampling_resolution(cutoff))
    if vals.min() <= POSITIVITY_TOL:
        raise ValidationError(f"{name} must be strictly positive; min sampled value {vals.min():.3e}")


def _check_matrix_spd(m: ComponentField, dim: int, cutoff: int, name: str):
    res = _sampling_resolution(cutoff)
    grids = np.stack([[_sample_real(m[(i, j)], res) for j in range(dim)] for i in range(dim)])
    # grids shape (dim, dim, *res) -> (..., dim, dim)
    mats = np.moveaxis(grids, (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(mats)
    if eigs.min() <= POSITIVITY_TOL:
        raise ValidationError(f"{name} must be positive definite; min sampled eigenvalue {eigs.min():.3e}")


def _check_exact_equal(f: FourierField, g: FourierField, what: str):
    if f.cutoffs != g.cutoffs or not np.array_equal(f.coeffs, g.coeffs):
        raise ValidationError(what)


# ---------------------------------------------------------------------------
# builders


def build_scalar_medium(a, b, cell: Cell, cutoff: int) -> ScalarWaveMedium:
    """Build the (a, b) pair for the scalar wave family.

    ``a`` is either a single field spec (isotropic, a*I) or a d x d nested
    list / {(i, j): spec} table; ``b`` is a scalar field spec.  Both must be
    real; a must be symmetric and positive definite, b strictly positive,
    checked on a sampling grid of resolution 4*(2*cutoff+1) per axis.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    d = cell.dims
    comps = {}
    if isinstance(a, (list, tuple)) or (isinstance(a, dict) and "type" not in a):
        entries = {}
        if isinstance(a, dict):
            for (i, j), spec in a.items():
                entries[(int(i), int(j))] = build_field(spec, cell, cutoff)
        else:
            for i, row in enumerate(a):
                for j, spec in enumerate(row):
                    entries[(i, j)] = build_field(spec, cell, cutoff)
        for (i, j), f in entries.items():
            if i > j:
                continue
            other = entries.get((j, i))
            if i != j:
                if other is None:
                    raise ValidationError(f"matrix a is missing the symmetric partner of ({i},{j})")
                _check_exact_equal(f, other, f"matrix a must be symmetric: a[{i}][{j}] != a[{j}][{i}]")
            comps[(i, j)] = f
            comps[(j, i)] = f
    else:
        diag = build_field(a, cell, cutoff)
        for i in range(d):
            comps[(i, i)] = diag
    a_field = ComponentField(cell, (d, d), comps)
    b_field = build_field(b, cell, cutoff)
    for idx in a_field.indices():
        _require_real(a_field[idx], f"a[{idx}]")
    _require_real(b_field, "b")
    _check_matrix_spd(a_field, d, cutoff, "a")
    _check_scalar_positive(b_field, cutoff, "b")
    fp = _digest("scalar", cell, [(i, a_field[i]) for i in a_field.indices()] + [("b", b_field)])
    return ScalarWaveMedium(cell, a_field, b_field, cutoff, fp)


def build_vector_medium(n_comp: int, a, b, cell: Cell, cutoff: int,
                        check_ellipticity: bool = True) -> VectorWaveMedium:
    """Build an n-component vector wave medium.

    ``a`` maps (i, j, k, l) -> field spec (0-based; i, k component indices,
    j, l spatial).  Missing major-symmetric partners are filled from
    a_ijkl = a_klij; explicit conflicting entries are rejected.  ``b`` is an
    (i, k) table, nested list, or a single spec meaning b * I.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    if not 1 <= n_comp <= 3:
        raise ValidationError("vector media support at most 3 components")
    d = cell.dims
    entries = {}
    for idx, spec in a.items():
        i, j, k, l = (int(v) for v in idx)
        entries[(i, j, k, l)] = build_field(spec, cell, cutoff)
    comps = {}
    for (i, j, k, l), f in entries.items():
        major = (k, l, i, j)
        if major in entries:
            _check_exact_equal(f, entries[major],
                               f"tensor a must satisfy a_ijkl = a_klij at {(i, j, k, l)}")
        comps[(i, j, k, l)] = f
        comps[major] = f
    a_field = ComponentField(cell, (n_comp, d, n_comp, d), comps)

    b_entries = {}
    if isinstance(b, dict) and "type" not in b:
        for (i, k), spec in b.items():
            b_entries[(int(i), int(k))] = build_field(spec, cell, cutoff)
    elif isinstance(b, (list, tuple)):
        for i, row in enumerate(b):
            for k, spec in enumerate(row):
                b_entries[(i, k)] = build_field(spec, cell, cutoff)
    else:
        diag = build_field(b, cell, cutoff)
        b_entries = {(i, i): diag for i in range(n_comp)}
    for (i, k), f in list(b_entries.items()):
        other = b_entries.get((k, i))
        if i != k:
            if other is None:
                raise ValidationError(f"matrix b is missing the symmetric partner of ({i},{k})")
            _check_exact_equal(f, other, f"matrix b must be symmetric: b[{i}][{k}] != b[{k}][{i}]")
    b_field = ComponentField(cell, (n_comp, n_comp), b_entries)

    for idx in a_field.indices():
        _require_real(a_field[idx], f"a[{idx}]")
    for idx in b_field.indices():
        _require_real(b_field[idx], f"b[{idx}]")
    _check_matrix_spd(b_field, n_comp, cutoff, "b")
    if check_ellipticity:
        # Sufficient (Gram) ellipticity check: the (n*d) x (n*d) matrix
        # A[(i,j),(k,l)] must be positive definite on the sampling grid.
        res = _sampling_resolution(cutoff)
        nd = n_comp * d
        mats = np.zeros((res,) * d + (nd, nd))
        for (i, j, k, l) in a_field.indices():
            mats[..., i * d + j, k * d + l] = _sample_real(a_field[(i, j, k, l)], res)
        eigs = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
        if eigs.min() <= POSITIVITY_TOL:
            raise ValidationError(
                f"tensor a fails the ellipticity check; min sampled eigenvalue {eigs.min():.3e}"
            )
    fp = _digest("vector", cell,
                 [(i, a_field[i]) for i in a_field.indices()] +
                 [(i, b_field[i]) for i in b_field.indices()])
    return VectorWaveMedium(cell, n_comp, a_field, b_field, cutoff, fp)


_LEVI_CIVITA = np.zeros((3, 3, 3))
for _p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _LEVI_CIVITA[_p] = 1.0
for _p in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]:
    _LEVI_CIVITA[_p] = -1.0


def maxwell_tensor_from_permeability(mu_inverse, cell: Cell, cutoff: int) -> ComponentField:
    """Rank-4 stiffness for the Maxwell system from an inverse-permeability matrix.

    a_ijkl = -e_ijp e_klq (mu^-1)_pq componentwise in Fourier space, where e is
    the Levi-Civita tensor; the construction satisfies a_ijkl = a_klij exactly.
    The output is construction-only (the curl-curl form is not elliptic), so no
    ellipticity is claimed or checked here.
    """
    if cell.dims != 3:
        raise ValidationError("the Maxwell map needs a 3D cell (n = d = 3)")
    entries = {}
    if isinstance(mu_inverse, dict) and "type" not in mu_inverse:
        for (p, q), spec in mu_inverse.items():
            entries[(int(p), int(q))] = build_field(spec, cell, cutoff)
    elif isinstance(mu_inverse, (list, tuple)):
        for p, row in enumerate(mu_inverse):
            for q, spec in enumerate(row):
                entries[(p, q)] = build_field(spec, cell, cutoff)
    else:
        diag = build_field(mu_inverse, cell, cutoff)
        entries = {(p, p): diag for p in range(3)}
    for (p, q), f in entries.items():
        _require_real(f, f"mu_inverse[{p}][{q}]")
        if p < q:
            other = entries.get((q, p))
            if other is None:
                raise ValidationError(f"mu_inverse is missing the symmetric partner of ({p},{q})")
            _check_exact_equal(f, other, f"mu_inverse must be symmetric at ({p},{q})")
    mu_field = ComponentField(cell, (3, 3), entries)
    _check_matrix_spd(mu_field, 3, cutoff, "mu_inverse")

    comps = {}
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    acc = None
                    for p in range(3):
                        for q in range(3):
                            w = -_LEVI_CIVITA[i, j, p] * _LEVI_CIVITA[k, l, q]
                            if w == 0.0 or (p, q) not in mu_field.comps:
                                continue
                            term = w * mu_field[(p, q)]
                            acc = term if acc is None else acc + term
                    if acc is not None and np.any(acc.coeffs):
                        comps[(i, j, k, l)] = acc
    return ComponentField(cell, (3, 3, 3, 3), comps)


def build_schrodinger_blocks(mass: float, charge: float, potential, magnetic,
                             cell: Cell, cutoff: int) -> SchrodingerBlocks:
    """Assemble the constitutive blocks from physical inputs (m, e, V, Phi).

    ``magnetic`` is None or a list of d field specs for the components of the
    magnetic potential Phi, which must be divergence free on the cell (in 1D
    this forces a constant Phi).
    """
    if mass <= 0:
        raise ValidationError("mass must be positive")
    if cutoff < 1:
        raise ValidationError("cutoff must be at least 1")
    d = cell.dims
    v_field = build_field(potential, cell, cutoff)
    _require_real(v_field, "potential")
    if magnetic is None:
        phi = tuple(FourierField.constant(cell, 0.0) for _ in range(d))
    else:
        if len(magnetic) != d:
            raise ValidationError("magnetic potential needs one component per spatial axis")
        phi = tuple(build_field(spec, cell, cutoff) for spec in magnetic)
        for j, f in enumerate(phi):
            _require_real(f, f"magnetic[{j}]")
        div = phi[0].derivative(0)
        for j in range(1, d):
            div = div + phi[j].derivative(j)
        resid = float(np.max(np.abs(div.coeffs)))
        if resid > DIVERGENCE_TOL:
            raise ValidationError(f"magnetic potential must be divergence free; residual {resid:.3e}")

    a_comps = {(i, i): FourierField.constant(cell, -1.0 / (2.0 * mass)) for i in range(1, d + 1)}
    a_block = ComponentField(cell, (d + 1, d + 1), a_comps)
    b_comps = {(0,): FourierField.constant(cell, -0.5j)}
    for j in range(d):
        b_comps[(j + 1,)] = (1j * charge / (2.0 * mass)) * phi[j]
    b_block = ComponentField(cell, (d + 1,), b_comps)
    c_block = (-charge) * v_field

    fp = _digest("schrodinger", cell,
                 [("m", FourierField.constant(cell, mass)),
                  ("e", FourierField.constant(cell, charge)),
                  ("V", v_field)] + [(f"phi{j}", phi[j]) for j in range(d)])
    return SchrodingerBlocks(cell, float(mass), float(charge), a_block, b_block, c_block,
                             v_field, phi, cutoff, fp)


# ---------------------------------------------------------------------------
# sampling and descriptors


def sample_on_grid(f, resolution) -> np.ndarray:
    """Synthesize a field (scalar or component-valued) on a uniform cell grid."""
    if isinstance(f, FourierField):
        return f.sample_grid(resolution)
    if isinstance(f, ComponentField):
        first = None
        out = None
        for idx in np.ndindex(*f.shape):
            vals = f[idx].sample_grid(resolution)
            if out is None:
                first = vals.shape
                out = np.zeros(f.shape + first, dtype=np.complex128)
            out[idx] = vals
        return out
    raise ValidationError(f"cannot sample object of type {type(f).__name__}")


def medium_from_descriptor(desc: dict):
    """Build a medium from a JSON-style descriptor; raises ValidationError with a path."""

    def need(key, where="descriptor"):
        if key not in desc:
            raise ValidationError(f"{where}: missing required key {key!r}")
        return desc[key]

    cell = Cell(tuple(np.atleast_1d(need("cell"))))
    kind = need("kind")
    cutoff = int(need("cutoff"))
    try:
        if kind == "scalar":
            return build_scalar_medium(_matrix_or_field(need("a"), "a"), need("b"), cell, cutoff)
        if kind == "vector":
            n_comp = int(need("n"))
            a_spec = need("a")
            if not (isinstance(a_spec, dict) and a_spec.get("type") == "tensor4"):
                raise ValidationError('a: vector media need {"type": "tensor4", "terms": [...]}')
            terms = {}
            for t, term in enumerate(a_spec["terms"]):
                ijkl = tuple(int(v) for v in term["ijkl"])
                terms[ijkl] = term["field"]
            return build_vector_medium(n_comp, terms, _matrix_or_field(need("b"), "b"), cell, cutoff)
        if kind == "schrodinger":
            return build_schrodinger_blocks(float(need("mass")), float(need("charge")),
                                            need("potential"), desc.get("magnetic"),
                                            cell, cutoff)
    except KeyError as exc:
        raise ValidationError(f"descriptor: missing key {exc}") from exc
    raise ValidationError(f"kind: unknown medium kind {kind!r}")


def _matrix_or_field(spec, name):
    if isinstance(spec, dict) and spec.get("type") == "matrix":
        return spec["entries"]
    if isinstance(spec, dict) and spec.get("type") == "isotropic":
        return spec["field"]
    return spec
