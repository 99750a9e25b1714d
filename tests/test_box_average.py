"""Vectorized window averages against per-window, per-harmonic loops.

The private ``_oracle_*`` functions below are the scalar loops that
``fourier.box_average`` and its callers replaced: one window and one
harmonic at a time, with the scalar window factor.  Random fields come from
hypothesis with ``derandomize=True``, so every run draws the same cases.
The drawn wavevector and frequency offsets put some harmonic's |q L| at
0, 1e-9, 1e-8, 1e-7 and 1, so each branch of the window factor is reached.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signal
from hfh import effective, ergodic
from hfh.fourier import TWO_PI, Cell, FourierField, box_average, window_factor

REL = 1e-13
QL_TARGETS = (0.0, 1e-9, 1e-8, 1e-7, 1.0)


def _oracle_window_factor(q, length):
    ql = q * length
    if ql == 0.0:
        return 1.0 + 0.0j
    if abs(ql) < 1e-8:
        return 1.0 + 1j * ql / 2.0 - ql * ql / 6.0
    return (np.exp(1j * ql) - 1.0) / (1j * ql)


def _oracle_supercell_average(G, domega, dk, t0, n):
    cell = G.cell
    tf = _oracle_window_factor(domega, t0 * n)
    total = G.coeffs.copy()
    for ax in range(cell.dims):
        lam = cell.lengths[ax]
        ms = G.index_grid(ax)
        if dk[ax] == 0.0:
            fac = (ms == 0).astype(np.complex128)
        else:
            fac = np.array([_oracle_window_factor(TWO_PI * m / lam - dk[ax], n * lam) for m in ms])
        shape = [1] * cell.dims
        shape[ax] = -1
        total = total * fac.reshape(shape)
    return complex(tf * total.sum())


def _oracle_structural_limit(G, domega, dk):
    if abs(domega) > effective.RESONANCE_TOL:
        return 0.0 + 0.0j
    cell = G.cell
    total = G.coeffs.copy()
    for ax in range(cell.dims):
        frac = dk[ax] * cell.lengths[ax] / TWO_PI
        fac = (np.abs(frac - G.index_grid(ax)) <= effective.RESONANCE_TOL).astype(np.complex128)
        shape = [1] * cell.dims
        shape[ax] = -1
        total = total * fac.reshape(shape)
    return complex(total.sum())


def _oracle_modulated_dd(f, lam, sizes):
    """Per-box values and the certified constant of ``avg_modulated_dd``."""
    cell = f.cell
    values = []
    for b in sizes:
        total = f.coeffs.copy()
        for ax in range(cell.dims):
            fac = np.array([_oracle_window_factor(TWO_PI * m / cell.lengths[ax] + lam[ax], b[ax])
                            for m in f.index_grid(ax)])
            shape = [1] * cell.dims
            shape[ax] = -1
            total = total * fac.reshape(shape)
        values.append(complex(total.sum()))
    cert = 0.0
    for m in np.ndindex(*f.coeffs.shape):
        c = f.coeffs[m]
        if c == 0:
            continue
        qs = [TWO_PI * (m[ax] - f.cutoffs[ax]) / cell.lengths[ax] + lam[ax]
              for ax in range(cell.dims)]
        q_nonres = [abs(q) for q in qs if abs(q) > ergodic.RESONANCE_TOL]
        if q_nonres:
            cert += 2.0 * abs(c) / max(q_nonres)
    return values, cert


def _oracle_harmonic_sums(pairs, windows):
    """sum over (q, c) pairs of c * window_factor(q, a), and the certified constant."""
    values = [sum(c * _oracle_window_factor(q, a) for q, c in pairs) for a in windows]
    cert = sum(2.0 * abs(c) / abs(q) for q, c in pairs if abs(q) > ergodic.RESONANCE_TOL)
    return values, cert


def _assert_close(got, want, scale=None):
    """|got - want| <= REL * |want| elementwise, or REL * scale where a sum cancels."""
    got, want = np.asarray(got), np.asarray(want)
    bound = REL * (np.abs(want) if scale is None else np.maximum(np.abs(want), scale))
    assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) - bound)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def _fields(draw, dims=None):
    dims = draw(st.integers(1, 3)) if dims is None else dims
    lengths = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dims))
    cutoffs = tuple(draw(st.integers(0, 4 if dims < 3 else 2)) for _ in range(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = tuple(2 * c + 1 for c in cutoffs)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs[rng.random(shape) < 0.2] = 0.0  # some exact zeros, which the certificate skips
    return FourierField(Cell(lengths), coeffs)


def _offset(draw, step, index, length):
    """An offset o with (step * index - o) * length landing near a drawn |q L| target,
    or a reciprocal multiple (exactly resonant), or a generic value."""
    kind = draw(st.sampled_from(("target", "reciprocal", "generic")))
    if kind == "target":
        return step * index - draw(st.sampled_from(QL_TARGETS)) / length
    if kind == "reciprocal":
        return step * index
    return draw(st.floats(-3.0, 3.0))


_settings = settings(derandomize=True, database=None, deadline=None, max_examples=40)


# ---------------------------------------------------------------------------
# window factor and the contraction


def test_window_factor_array_matches_scalar_at_branch_edges():
    edge = 1e-8
    qls = np.array([0.0, -0.0, 1e-9, -1e-9, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0),
                    -np.nextafter(edge, 0.0), -edge, 1e-7, -1e-7, 1.0, -1.0, 37.5])
    for length in (1.0, 0.37, 12.0):
        q = qls / length
        arr = window_factor(q, length)
        assert arr.shape == q.shape and arr.dtype == np.complex128
        for qi, got in zip(q, arr):
            scalar = window_factor(float(qi), length)
            assert type(scalar) is complex
            want = _oracle_window_factor(float(qi), length)
            assert got == want and scalar == want, (qi * length, got, scalar, want)
    # broadcasting: one row per length, one column per q
    table = window_factor(qls, np.array([[1.0], [2.0]]))
    assert table.shape == (2, len(qls))
    assert table[1, 3] == _oracle_window_factor(qls[3], 2.0)


@_settings
@given(field=_fields(), n_windows=st.integers(1, 5), data=st.data())
def test_box_average_matches_window_loop(field, n_windows, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    factors = [rng.normal(size=(n_windows, s)) + 1j * rng.normal(size=(n_windows, s))
               for s in field.coeffs.shape]
    got = box_average(field.coeffs, factors)
    assert got.shape == (n_windows,)
    for w in range(n_windows):
        total = field.coeffs.copy()
        for ax, fac in enumerate(factors):
            shape = [1] * field.cell.dims
            shape[ax] = -1
            total = total * fac[w].reshape(shape)
        _assert_close(got[w], total.sum())


# ---------------------------------------------------------------------------
# coupling averages


@_settings
@given(G=_fields(), data=st.data())
def test_supercell_average_matches_oracle(G, data):
    cell = G.cell
    counts = sorted(set(data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))))
    ns = np.asarray(counts, dtype=float)
    dk = np.array([0.0 if data.draw(st.booleans()) else
                   _offset(data.draw, TWO_PI / lam, data.draw(st.integers(-G.cutoffs[ax], G.cutoffs[ax])),
                           counts[0] * lam)
                   for ax, lam in enumerate(cell.lengths)])
    t0 = data.draw(st.floats(0.3, 3.0))
    domega = data.draw(st.sampled_from((0.0, 1e-10)) | st.just(1e-7 / (t0 * counts[0]))
                       | st.floats(-2.0, 2.0))
    got = effective._supercell_average(G, domega, dk, t0, ns)
    want = [_oracle_supercell_average(G, domega, dk, t0, n) for n in counts]
    _assert_close(got, want)
    _assert_close(effective._structural_limit(G, domega, dk), _oracle_structural_limit(G, domega, dk))


# ---------------------------------------------------------------------------
# ergodic averages


@_settings
@given(f=_fields(), data=st.data())
def test_modulated_dd_matches_oracle(f, data):
    cell = f.cell
    base = np.array([data.draw(st.floats(0.5, 4.0)) for _ in range(cell.dims)])
    sizes = [base * s for s in (1.0, 2.5, 7.0)]
    lam = [-_offset(data.draw, TWO_PI / t, data.draw(st.integers(-f.cutoffs[ax], f.cutoffs[ax])),
                    base[ax])
           for ax, t in enumerate(cell.lengths)]
    res = ergodic.avg_modulated_dd(f, lam, sizes)
    values, cert = _oracle_modulated_dd(f, lam, sizes)
    _assert_close(res.values, values)
    _assert_close(res.decay_constant, cert)


@_settings
@given(data=st.data())
def test_modulated_1d_and_product_match_oracle(data):
    def drawn_signal(period):
        ns = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=7, unique=True))
        return signal(period, {n: complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
                               for n in ns})

    def frequencies(f):
        return TWO_PI * f.index_grid(0) / f.cell.lengths[0], f.coeffs

    windows = [3.1, 6.7, 14.2, 29.9]
    f = drawn_signal(data.draw(st.floats(0.5, 2.0)))
    b = -_offset(data.draw, TWO_PI / f.cell.lengths[0], data.draw(st.integers(-5, 5)), windows[0])
    res = ergodic.avg_modulated_dd(f, [b], windows)
    pairs = [(q + b, c) for q, c in zip(*frequencies(f))]
    values, cert = _oracle_harmonic_sums(pairs, windows)
    scale = sum(abs(c) for _, c in pairs)
    _assert_close(res.values, values, scale)
    _assert_close(res.decay_constant, cert, cert)

    period = f.cell.lengths[0]
    zero_mean = FourierField(f.cell, np.where(f.index_grid(0) == 0, 0.0, f.coeffs))
    g = drawn_signal(data.draw(st.sampled_from((period, 1.5 * period))) if data.draw(st.booleans())
                     else data.draw(st.floats(0.5, 2.0)))
    res = ergodic.avg_product_periodic(zero_mean, g, windows)
    pairs = [(q1 + q2, c1 * c2) for q1, c1 in zip(*frequencies(zero_mean))
             for q2, c2 in zip(*frequencies(g))]
    values, cert = _oracle_harmonic_sums(pairs, windows)
    scale = sum(abs(c) for _, c in pairs)
    _assert_close(res.values, values, scale)
    _assert_close(res.decay_constant, cert, cert)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_supercell_self_terms_collapse_exactly(dims):
    # dk == 0 on every axis: the Kronecker factor keeps only the cell mean
    rng = np.random.default_rng(dims)
    shape = (5,) * dims
    G = FourierField(Cell((1.0, 1.3, 0.8)[:dims]), rng.normal(size=shape) + 1j * rng.normal(size=shape))
    got = effective._supercell_average(G, 0.0, np.zeros(dims), 1.7, np.array([1.0, 4.0, 64.0]))
    assert np.all(got == G.mean())
