"""Grid products and the batched transport kernel against exact convolutions.

``fourier.to_grid`` on a ``fourier.product_grid``, ``fourier.from_grid`` and ``FourierField.__mul__``
are compared with ``scipy.signal.convolve`` on random tables.  The private
``_oracle_transport`` below is the slot kernel that ``effective._transport``
replaced: it forms every product conj(V_i) D_p V_k and every integrand as an
exact convolution of coefficient tables, one product at a time, and takes
the transport coefficients as exact Parseval sums.  Random media, modes and
mode pairs come from hypothesis with ``derandomize=True``, so every run
draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from hfh import bloch, effective, medium
from hfh.errors import ValidationError
from hfh.fourier import Cell, FourierField, from_grid, product_grid, product_mean, to_grid

REL = 1e-13


def _convolve(f, g):
    return FourierField(f.cell, signal.convolve(f.coeffs, g.coeffs, method="direct"))


def _oracle_transport(med, left, right, sign, pair):
    Vc = [left.amplitude_field(i).conjugate() for i in range(left.components)]
    V = [right.amplitude_field(k) for k in range(right.components)]
    d0 = -sign * 1j * right.omega
    products = {}

    def product(i, k, p):
        if (i, k, p) not in products:
            g = V[k].gauge_derivative(p - 1, sign * right.k[p - 1]) if p else V[k]
            products[(i, k, p)] = _convolve(Vc[i], g)
        return products[(i, k, p)]

    def term(f, i, k, p, times=1):
        scale = times if p else times * d0
        t = pair(f, product(i, k, p))
        return t if scale == 1 else scale * t

    out = [None] * (left.medium.cell.dims + 1)

    def add(slot, t):
        out[slot] = t if out[slot] is None else out[slot] + t

    for (i, p, k, q), f in med.C.items():
        if p:
            add(q, pair(f.derivative(p - 1), product(i, k, 0)))
        if p == q:
            add(q, term(f, i, k, p, times=2))
        else:
            add(q, term(f, i, k, p))
            add(p, term(f, i, k, q))
    for l, f in med.M.items():
        add(l, pair(f, product(0, 0, 0)))
    return out


# ---------------------------------------------------------------------------
# grid products


@pytest.mark.parametrize("shapes", [
    [(5,), (11,)],
    [(3,), (7,), (13,)],
    [(3, 9), (7, 5)],
    [(5, 3), (1, 7), (9, 5)],
    [(3, 5, 7), (7, 3, 1)],
    [(1, 3, 5), (5, 1, 3), (3, 5, 1)],
], ids=["1d-2", "1d-3", "2d-2", "2d-3", "3d-2", "3d-3"])
def test_grid_product_matches_convolve(shapes, rng):
    tables = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    values = to_grid(tables, product_grid(shapes))
    (got,) = from_grid(np.prod(values, axis=0, keepdims=True),
                       [tuple(sum((s[ax] - 1) // 2 for s in shapes) for ax in range(len(shapes[0])))])
    want = tables[0]
    for t in tables[1:]:
        want = signal.convolve(want, t, method="direct")
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REL * np.prod([np.abs(t).sum() for t in tables])
    if len(tables) == 2:
        cell = Cell((1.0,) * len(shapes[0]))
        product = FourierField(cell, tables[0]) * FourierField(cell, tables[1])
        assert product.coeffs.shape == want.shape
        bound = REL * np.abs(tables[0]).sum() * np.abs(tables[1]).sum()
        assert np.max(np.abs(product.coeffs - want)) <= bound


def test_grid_refuses_cutoff_it_cannot_hold():
    values = to_grid([np.ones(3)], product_grid([(3,), (3,)]))
    assert values.shape == (1, 5)
    with pytest.raises(ValidationError, match="cannot hold"):
        from_grid(values, [(3,)])


# ---------------------------------------------------------------------------
# transport kernel


def _field(rng, cell, cutoffs, mean, amp):
    """Real field with cutoffs per axis: mean plus random harmonics of total size <= amp."""
    shape = tuple(2 * c + 1 for c in cutoffs)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[tuple(slice(None, None, -1) for _ in shape)]))
    coeffs *= amp / np.abs(coeffs).sum()
    coeffs[cutoffs] = mean
    return FourierField(cell, coeffs)


def _medium(family, dims, rng, cutoff):
    cell = Cell(tuple(rng.uniform(0.8, 1.3, size=dims)))
    if family == "scalar":
        a = _field(rng, cell, (cutoff,) * dims, rng.uniform(1.5, 3.0), 0.4)
        if dims == 2:
            off = _field(rng, cell, (cutoff,) * dims, 0.2, 0.1)
            a = {(0, 0): a, (0, 1): off, (1, 0): off,
                 (1, 1): _field(rng, cell, (cutoff,) * dims, rng.uniform(1.5, 3.0), 0.4)}
        return medium.build_scalar_medium(a, _field(rng, cell, (cutoff,) * dims, 1.2, 0.3), cell, cutoff)
    if family == "vector":
        terms = {(0, 0, 0, 0): _field(rng, cell, (cutoff,) * 2, 2.5, 0.4), (0, 1, 0, 1): 1.5,
                 (1, 0, 1, 0): _field(rng, cell, (cutoff,) * 2, 1.5, 0.3), (1, 1, 1, 1): 2.5,
                 (0, 0, 1, 1): 0.3, (0, 1, 1, 0): _field(rng, cell, (cutoff,) * 2, 0.2, 0.05)}
        b = [[1.0, 0.15], [0.15, _field(rng, cell, (cutoff,) * 2, 1.1, 0.2)]]
        return medium.build_vector_medium(2, terms, b, cell, cutoff)
    potential = _field(rng, cell, (cutoff,) * dims, 0.0, 1.5)
    magnetic = None
    if dims == 2:  # Phi_0 depends on xi_1 only and Phi_1 on xi_0 only: divergence free
        magnetic = [_field(rng, cell, (0, cutoff), 0.3, 0.4), _field(rng, cell, (cutoff, 0), -0.2, 0.3)]
    return medium.build_schrodinger_blocks(0.6, 1.0, potential, magnetic, cell, cutoff)


CASES = [("scalar", 1), ("scalar", 2), ("vector", 2), ("schrodinger", 1), ("schrodinger", 2)]


def _modes(med, cutoff, rng, band):
    k = rng.uniform(-0.9, 0.9, size=med.cell.dims) * np.pi / np.asarray(med.cell.lengths)
    return bloch.solve_at(med, k, cutoff, band)


def _assert_tables_match(med, left, right):
    sign = 1 if med.family == "schrodinger" else -1
    (got,) = effective._transport([left, right], [(0, 1)])
    want = _oracle_transport(med, left, right, sign, _convolve)
    assert len(got) == len(want) == med.cell.dims + 1
    for g, w in zip(got, want):
        assert g.coeffs.shape == w.coeffs.shape
        assert np.max(np.abs(g.coeffs - w.coeffs)) <= REL * np.max(np.abs(w.coeffs))


@pytest.mark.parametrize("family, dims", CASES, ids=[f"{f}-{d}d" for f, d in CASES])
@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2 ** 32 - 1), band=st.integers(1, 2),
       other=st.sampled_from(["same", "band", "k"]))
def test_transport_matches_convolution_oracle(family, dims, seed, band, other):
    # the left mode is the right one, another band at the same k, or the same band at another k
    rng = np.random.default_rng(seed)
    cutoff = 5 if dims == 1 else 2
    med = _medium(family, dims, rng, cutoff)
    modes = _modes(med, cutoff, rng, 2)
    right = modes[band - 1]
    left = {"same": right, "band": modes[2 - band], "k": _modes(med, cutoff, rng, band)[band - 1]}[other]
    _assert_tables_match(med, left, right)
    if bloch.check_nondegenerate(right) and (family == "schrodinger" or right.omega > 1e-6):
        d = effective.effective_coefficients(right).d
        oracle = np.array(_oracle_transport(med, right, right, 1 if family == "schrodinger" else -1,
                                            product_mean))
        assert np.max(np.abs(d - oracle)) <= REL * np.max(np.abs(oracle))


def test_transport_with_per_axis_field_cutoffs(rng):
    # the widest field reaches cutoff 4 on axis 1 only and another field cutoff 3 on axis 0:
    # a grid sized from any one field, or from the modes alone, wraps harmonics here
    cell = Cell((1.0, 1.2))
    a00 = _field(rng, cell, (3, 1), 2.5, 0.5)
    off = _field(rng, cell, (1, 4), 0.2, 0.1)
    a11 = _field(rng, cell, (0, 2), 2.0, 0.4)
    b = _field(rng, cell, (2, 0), 1.2, 0.3)
    med = medium.build_scalar_medium({(0, 0): a00, (0, 1): off, (1, 0): off, (1, 1): a11}, b, cell, 2)
    m1 = bloch.solve_at(med, [0.7, -0.4], 2, 1)[0]
    m2 = bloch.solve_at(med, [-1.1, 0.9], 2, 2)[1]
    for left, right in ((m1, m1), (m1, m2), (m2, m1)):
        _assert_tables_match(med, left, right)
    tables = effective._transport([m1, m2], [(0, 0), (0, 1)])
    assert [t.cutoffs for t in tables[1]] == [(6, 4), (7, 8), (5, 8)]
