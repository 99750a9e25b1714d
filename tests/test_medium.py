import itertools

import numpy as np
import pytest

from hfh import medium
from hfh.errors import ValidationError
from hfh.fourier import TWO_PI, Cell, FourierField


def test_constant_medium_single_coefficient(cell1d):
    med = medium.build_scalar_medium(1.0, 1.0, cell1d, 2)
    a = med.C[(0, 1, 0, 1)]
    assert a.coeff((0,)) == 1.0
    assert all(a.coeff((n,)) == 0.0 for n in (-2, -1, 1, 2))


def test_two_phase_fourier_closed_form(two_phase):
    # oracle: c_n = int of the indicator pieces; c_0 = 2.5, c_1 = 3i/pi
    a = two_phase.C[(0, 1, 0, 1)]
    assert abs(a.coeff((0,)) - 2.5) < 1e-15
    assert abs(a.coeff((1,)) - 3j / np.pi) < 1e-14
    # conjugate symmetry (real field) holds coefficientwise
    assert a.conj_symmetry_error() < 1e-15


def test_two_phase_against_symbolic_integral(cell1d):
    sympy = pytest.importorskip("sympy")
    x, n = sympy.symbols("x n", real=True)
    expected = {}
    for nn in (1, 2, 3):
        expr = (sympy.integrate(1 * sympy.exp(-2 * sympy.pi * sympy.I * nn * x), (x, 0, sympy.Rational(1, 2)))
                + sympy.integrate(4 * sympy.exp(-2 * sympy.pi * sympy.I * nn * x), (x, sympy.Rational(1, 2), 1)))
        expected[nn] = complex(expr.evalf())
    med = medium.build_scalar_medium(medium.piecewise([0.0, 0.5], [1.0, 4.0]), 1.0, cell1d, 4)
    a = med.C[(0, 1, 0, 1)]
    for nn, val in expected.items():
        assert abs(a.coeff((nn,)) - val) < 1e-12


def test_piecewise_sampling_matches_phases(cell1d):
    # away from the jumps the truncated series approaches the phase values,
    # with the ringing amplitude shrinking as the cutoff doubles
    errs = []
    for cutoff in (64, 128):
        med = medium.build_scalar_medium(medium.piecewise([0.0, 0.5], [1.0, 4.0]), 1.0,
                                         cell1d, cutoff)
        a = med.C[(0, 1, 0, 1)]
        err = max(abs(np.real(a.sample_points_1d([0.25])[0]) - 1.0),
                  abs(np.real(a.sample_points_1d([0.75])[0]) - 4.0))
        errs.append(err)
    assert errs[0] < 0.02
    assert errs[1] < errs[0]


def _piecewise_loop(cell, cutoff, breaks, values):
    """Reference: the per-piece, per-harmonic loop the array expression replaced."""
    lam = cell.lengths[0]
    edges = breaks + [lam]
    out = FourierField.zeros(cell, cutoff)
    for v, s, e in zip(values, edges[:-1], edges[1:]):
        for pos, n in enumerate(out.index_grid(0)):
            if n == 0:
                out.coeffs[pos] += v * (e - s) / lam
            else:
                q = TWO_PI * n / lam
                out.coeffs[pos] += v * (np.exp(-1j * q * s) - np.exp(-1j * q * e)) / (1j * q * lam)
    return out.coeffs


def test_piecewise_matches_loop(rng):
    cell = Cell((1.7,))
    for _ in range(100):
        pieces = int(rng.integers(1, 6))
        breaks = [0.0] + sorted(float(x) for x in rng.uniform(0.0, 1.7, pieces - 1))
        values = [float(v) for v in rng.uniform(0.5, 4.0, pieces)]
        cutoff = int(rng.integers(1, 20))
        got = medium.build_field(medium.piecewise(breaks, values), cell, cutoff).coeffs
        assert np.array_equal(got, _piecewise_loop(cell, cutoff, breaks, values))


def test_matrix_asymmetry_rejected():
    cell = Cell((1.0, 1.0))
    with pytest.raises(ValidationError, match="symmetric"):
        medium.build_scalar_medium([[1.0, 0.2], [0.1, 1.0]], 1.0, cell, 2)


def test_matrix_a_accepted_and_spd_checked():
    cell = Cell((1.0, 1.0))
    med = medium.build_scalar_medium([[2.0, 0.3], [0.3, 1.0]], 1.0, cell, 2)
    assert med.C[(0, 1, 0, 2)].coeff((0, 0)) == 0.3
    assert med.C[(0, 1, 0, 2)] is med.C[(0, 2, 0, 1)]  # one field, so assembly pairs the transposed entries
    with pytest.raises(ValidationError, match="positive"):
        medium.build_scalar_medium([[1.0, 2.0], [2.0, 1.0]], 1.0, cell, 2)


def test_nonpositive_phase_rejected(cell1d):
    with pytest.raises(ValidationError, match="positive"):
        medium.build_scalar_medium(medium.piecewise([0.0, 0.5], [1.0, -0.5]), 1.0, cell1d, 8)
    with pytest.raises(ValidationError, match="positive"):
        medium.build_scalar_medium(1.0, medium.cosine(1.0, [((1,), 3.0)]), cell1d, 4)


def test_complex_field_rejected_for_real_slot(cell1d):
    spec = medium.fourier_terms({(1,): 1.0})  # no conjugate partner
    with pytest.raises(ValidationError, match="real-valued"):
        medium.build_scalar_medium(spec, 1.0, cell1d, 2)


def test_maxwell_tensor_identity_values():
    cell = Cell((1.0, 1.0, 1.0))
    t = medium.maxwell_tensor_from_permeability(1.0, cell, 1)
    assert t[(0, 1, 0, 1)].mean() == -1.0  # e_123 e_123 = 1
    assert (0, 0, 1, 1) not in t  # e_11p = 0
    assert t[(0, 1, 1, 0)].mean() == 1.0


def test_maxwell_tensor_major_symmetry_exact(rng):
    cell = Cell((1.0, 1.0, 1.0))
    mu = {}
    for p in range(3):
        for q in range(p, 3):
            base = 2.0 if p == q else 0.1
            spec = medium.cosine(base, [((1, 0, 0), 0.05 * rng.uniform(0.5, 1.0))])
            mu[(p, q)] = spec
            mu[(q, p)] = spec
    t = medium.maxwell_tensor_from_permeability(mu, cell, 1)
    for (i, j, k, l), f in t.items():
        a = f.coeffs
        b = t[(k, l, i, j)].coeffs
        assert a.shape == b.shape and np.array_equal(a, b)


def test_maxwell_tensor_matches_loop(rng):
    # reference: the sum over all (p, q) of -e_ijp e_klq mu_pq, zero sums left out
    cell = Cell((1.0, 1.0, 1.0))
    levi = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        levi[perm] = np.linalg.det(np.eye(3)[list(perm)])
    mu = {(p, p): medium.cosine(2.0, [((1, 0, 0), 0.1 * rng.uniform(0.5, 1.0))]) for p in range(3)}
    mu[(0, 1)] = mu[(1, 0)] = medium.cosine(0.1, [((0, 1, 1), 0.05)])
    mu[(1, 2)] = mu[(2, 1)] = 0.2
    mu[(0, 2)] = mu[(2, 0)] = 0.0
    fields = {pq: medium.build_field(spec, cell, 1) for pq, spec in mu.items()}
    want = {}
    for i, j, k, l, p, q in np.ndindex(3, 3, 3, 3, 3, 3):
        w = -levi[i, j, p] * levi[k, l, q]
        if w and np.any(fields[(p, q)].coeffs):
            want[(i, j, k, l)] = want.get((i, j, k, l), 0) + w * fields[(p, q)].coeffs
    t = medium.maxwell_tensor_from_permeability(mu, cell, 1)
    assert list(t) == list(want)  # same entries, in the same order
    assert all(type(v) is int for key in t for v in key)
    assert all(np.array_equal(t[key].coeffs, want[key]) for key in want)


def test_maxwell_requires_symmetric_input():
    cell = Cell((1.0, 1.0, 1.0))
    mu = {(p, q): 1.0 if p == q else (0.2 if (p, q) == (0, 1) else 0.1) for p in range(3) for q in range(3)}
    with pytest.raises(ValidationError, match="symmetric"):
        medium.maxwell_tensor_from_permeability(mu, cell, 1)


def _diag_plus(n, extra):
    return {**{(i, i): 1.0 for i in range(n)}, **extra}


def _scalar_a(a):
    return medium.build_scalar_medium(a, 1.0, Cell((1.0, 1.0)), 2)


def _scalar_a_json(entries):
    return medium.medium_from_descriptor({"cell": [1.0, 1.0], "kind": "scalar", "cutoff": 2,
                                          "a": {"type": "matrix", "entries": entries}, "b": 1.0})


def _vector_b(b):
    return medium.build_vector_medium(2, {(0, 0, 0, 0): 1.0, (1, 0, 1, 0): 1.0}, b, Cell((1.0,)), 1)


def _mu_inverse(mu):
    return medium.maxwell_tensor_from_permeability(mu, Cell((1.0, 1.0, 1.0)), 1)


@pytest.mark.parametrize("build, spec", [
    (_scalar_a, _diag_plus(2, {(0, 1): 0.3})),
    (_scalar_a, _diag_plus(2, {(1, 0): 0.3})),
    (_scalar_a, _diag_plus(3, {})),
    (_scalar_a_json, [[1.0, 0.3]]),
    (_scalar_a_json, [[1.0], [0.3, 1.0]]),
    (_scalar_a_json, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    (_vector_b, _diag_plus(2, {(0, 1): 0.1})),
    (_vector_b, _diag_plus(2, {(1, 0): 0.1})),
    (_vector_b, _diag_plus(3, {})),
    (_mu_inverse, _diag_plus(3, {(0, 2): 0.1})),
    (_mu_inverse, _diag_plus(3, {(2, 0): 0.1})),
    (_mu_inverse, _diag_plus(4, {})),
], ids=[f"{name}-{case}" for name in ("a", "a-json", "b", "mu-inverse")
        for case in ("upper-only", "lower-only", "out-of-range")])
def test_matrix_partner_required(build, spec):
    # an off-diagonal entry without its transposed partner, or an entry outside
    # the n x n matrix, is rejected, never dropped
    with pytest.raises(ValidationError, match="symmetric partner|outside"):
        build(spec)


def test_schrodinger_blocks_structure(cell1d):
    blocks = medium.build_schrodinger_blocks(0.5, 2.0, medium.cosine(0.0, [((1,), 1.0)]),
                                             [0.3], cell1d, 4)
    assert list(blocks.C) == [(0, 1, 0, 1)]  # a = diag(0, -I/(2m)): no time entry
    assert blocks.C[(0, 1, 0, 1)].mean() == -1.0  # -1/(2m) with m = 1/2
    assert blocks.M[0].mean() == 2 * -0.5j  # M_0 = b_0 - conj(b_0) with b_0 = -i/2
    assert blocks.M[1].mean() == 2 * (1j * 2.0 * 0.3 / 1.0)  # b_1 = i e Phi / (2m)
    assert blocks.c[(0, 0)].coeff((1,)) == -2.0 * 0.5  # -e * V_hat
    assert (blocks.M[0].mean() / 1j).real == -1.0  # beta0, the coefficient of omega


def test_schrodinger_divergence_free_enforced(cell1d):
    # a non-constant 1D magnetic potential cannot be divergence free
    with pytest.raises(ValidationError, match="divergence"):
        medium.build_schrodinger_blocks(0.5, 1.0, 0.0, [medium.cosine(0.0, [((1,), 1.0)])],
                                        cell1d, 4)


def test_schrodinger_divergence_free_2d_field():
    cell = Cell((1.0, 1.0))
    # Phi = (sin-free combo varying along y, 0) has zero divergence
    phi_x = medium.cosine(0.0, [((0, 1), 0.4)])
    blocks = medium.build_schrodinger_blocks(1.0, 1.0, 0.0, [phi_x, 0.0], cell, 3)
    div = blocks.M[1].derivative(0) + blocks.M[2].derivative(1)
    assert np.max(np.abs(div.coeffs)) < 1e-12
    # swapping the dependence breaks it
    with pytest.raises(ValidationError, match="divergence"):
        medium.build_schrodinger_blocks(1.0, 1.0, 0.0,
                                        [medium.cosine(0.0, [((1, 0), 0.4)]), 0.0], cell, 3)


def test_descriptor_roundtrip_scalar(two_phase):
    desc = {
        "cell": [1.0], "kind": "scalar", "cutoff": 16,
        "a": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [1.0, 4.0]},
        "b": {"type": "constant", "value": 1.0},
    }
    med = medium.medium_from_descriptor(desc)
    assert med.fingerprint == two_phase.fingerprint
    # a is one field spec or a matrix: there is no isotropic wrapper around a field spec
    with pytest.raises(ValidationError, match="unknown field spec type 'isotropic'"):
        medium.medium_from_descriptor(dict(desc, a={"type": "isotropic", "field": desc["a"]}))


def test_descriptor_schrodinger_and_errors(mathieu_blocks):
    desc = {
        "cell": [1.0], "kind": "schrodinger", "cutoff": 16,
        "mass": 0.5, "charge": 1.0,
        "potential": {"type": "cosine", "mean": 0.0,
                      "harmonics": [{"n": [1], "amp": 2.0, "phase": 0.0}]},
    }
    blocks = medium.medium_from_descriptor(desc)
    assert blocks.fingerprint == mathieu_blocks.fingerprint
    with pytest.raises(ValidationError, match="kind"):
        medium.medium_from_descriptor({"cell": [1.0], "kind": "fluid", "cutoff": 4})
    with pytest.raises(ValidationError, match="missing"):
        medium.medium_from_descriptor({"kind": "scalar"})


def test_fingerprint_distinguishes_media(cell1d, two_phase):
    other = medium.build_scalar_medium(medium.piecewise([0.0, 0.5], [1.0, 4.00001]), 1.0, cell1d, 16)
    assert other.fingerprint != two_phase.fingerprint


def test_media_compare_by_descriptor(cell1d):
    desc = {
        "cell": [1.0], "kind": "scalar", "cutoff": 4,
        "a": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [1.0, 4.0]},
        "b": {"type": "constant", "value": 1.0},
    }
    first, second = medium.medium_from_descriptor(desc), medium.medium_from_descriptor(desc)
    assert first is not second and first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    stiffer = dict(desc, a={"type": "piecewise", "breaks": [0.0, 0.5], "values": [1.0, 5.0]})
    assert first != medium.medium_from_descriptor(stiffer)
    assert first != medium.medium_from_descriptor(dict(desc, cutoff=8))
    # a constant medium keeps one coefficient at any cutoff, so only the cutoff tells these apart
    coarse, fine = (medium.build_scalar_medium(1.0, 1.0, cell1d, c) for c in (1, 4))
    assert coarse.fingerprint == fine.fingerprint and coarse != fine
    # a medium built without a fingerprint equals itself only
    one = FourierField.constant(cell1d, 1.0)
    bare = [medium.Medium("scalar-wave", cell1d, 1, 1, {(0, 0, 0, 0): -one, (0, 1, 0, 1): one})
            for _ in range(2)]
    assert bare[0] == bare[0] and bare[0] != bare[1] and len(set(bare)) == 2
