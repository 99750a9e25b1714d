"""Vectorized window averages against per-window, per-harmonic loops.

The private ``_oracle_*`` functions below are the scalar loops that
``fourier.box_average`` and its callers replaced: one window and one
harmonic at a time, with the scalar window factor.  Their certified
constants read the one resonance rule of the code: a harmonic is resonant
when its carrier offset is on the integer lattice within RESONANCE_TOL (a
product pair when the rational period ratio pairs it), and every other
nonzero harmonic enters the constant.  Random fields come from hypothesis
with ``derandomize=True``, so every run draws the same cases.  The drawn
wavevector offsets put some harmonic's |q L| at 0, 1e-9, 1e-8, 1e-7, 0.1
and 1, so each branch of the window factor is reached.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signal
from hfh import bloch, effective, ergodic
from hfh.fourier import RESONANCE_TOL, TWO_PI, Cell, FourierField, box_average, window_factor

REL = 1e-13
QL_TARGETS = (0.0, 1e-9, 1e-8, 1e-7, 0.1, 1.0)


def _oracle_window_factor(q, length):
    ql = q * length
    if ql == 0.0:
        return 1.0 + 0.0j
    if abs(ql) < 0.1:
        h = ql / 2.0
        return complex(np.exp(1j * h) * (np.sin(h) / h))
    return (np.exp(1j * ql) - 1.0) / (1j * ql)


def _whole_cells(lam, length, sizes):
    """A carrier-free axis whose boxes are whole cells keeps only its index-0 harmonics."""
    return lam == 0 and all(round(a / length) * length == a for a in sizes)


def _oracle_supercell_average(G, dk, n):
    cell = G.cell
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
    return complex(total.sum())


def _oracle_structural_limit(G, dk):
    cell = G.cell
    total = G.coeffs.copy()
    for ax in range(cell.dims):
        frac = dk[ax] * cell.lengths[ax] / TWO_PI
        fac = (np.abs(frac - G.index_grid(ax)) <= RESONANCE_TOL).astype(np.complex128)
        shape = [1] * cell.dims
        shape[ax] = -1
        total = total * fac.reshape(shape)
    return complex(total.sum())


def _oracle_modulated_dd(f, lam, sizes):
    """Per-box values and the certified constant of ``avg_modulated_dd``.

    A harmonic is resonant when lam_ax * T_ax / (2 pi) is within
    RESONANCE_TOL of -m_ax on every axis; every other nonzero harmonic adds
    2|c| / max_ax |q_ax| to the constant.
    """
    cell = f.cell
    values = []
    for b in sizes:
        total = f.coeffs.copy()
        for ax in range(cell.dims):
            ms = f.index_grid(ax)
            if _whole_cells(lam[ax], cell.lengths[ax], [s[ax] for s in sizes]):
                fac = (ms == 0).astype(np.complex128)
            else:
                fac = np.array([_oracle_window_factor(TWO_PI * m / cell.lengths[ax] + lam[ax], b[ax])
                                for m in ms])
            shape = [1] * cell.dims
            shape[ax] = -1
            total = total * fac.reshape(shape)
        values.append(complex(total.sum()))
    cert = 0.0
    for m in np.ndindex(*f.coeffs.shape):
        c = f.coeffs[m]
        ns = [m[ax] - f.cutoffs[ax] for ax in range(cell.dims)]
        resonant = all(abs(lam[ax] * cell.lengths[ax] / TWO_PI + ns[ax]) <= RESONANCE_TOL
                       for ax in range(cell.dims))
        if c == 0 or resonant:
            continue
        cert += 2.0 * abs(c) / max(abs(TWO_PI * ns[ax] / cell.lengths[ax] + lam[ax])
                                   for ax in range(cell.dims))
    return values, cert


def _oracle_harmonic_sums(terms, windows):
    """sum over (q, c, resonant) terms of c * window_factor(q, a), and the certified constant
    summed over the nonzero, non-resonant terms."""
    values = [sum(c * _oracle_window_factor(q, a) for q, c, _ in terms) for a in windows]
    cert = sum(2.0 * abs(c) / abs(q) for q, c, resonant in terms if c != 0 and not resonant)
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
    edge = 0.1
    qls = np.array([0.0, -0.0, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7, 1.0, -1.0, 37.5]
                   + [s * v for v in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0))
                      for s in (1.0, -1.0)])
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
    # the coupling averages' spatial part: carrier -dk over boxes of n cells
    cell = G.cell
    counts = sorted(set(data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))))
    ns = np.asarray(counts, dtype=float)
    dk = np.array([0.0 if data.draw(st.booleans()) else
                   _offset(data.draw, TWO_PI / lam, data.draw(st.integers(-G.cutoffs[ax], G.cutoffs[ax])),
                           counts[0] * lam)
                   for ax, lam in enumerate(cell.lengths)])
    values, limit, _, _, _ = ergodic.box_means(G, -dk, ns[:, np.newaxis] * cell.diag)
    _assert_close(values, [_oracle_supercell_average(G, dk, n) for n in counts])
    _assert_close(limit, _oracle_structural_limit(G, dk))


@pytest.fixture(scope="module")
def band_pair(two_phase):
    return bloch.solve_at(two_phase, [np.pi / 2], 16, 2)


# frequency offsets: exact, inside the limit gate, on either side of its edge, and generic
DOMEGAS = (0.0, 1e-10, RESONANCE_TOL * (1 - 1e-6), RESONANCE_TOL * (1 + 1e-6))


@_settings
@given(data=st.data())
def test_coupling_time_factor_and_limit_gate(two_phase, band_pair, data):
    # each coupling average is window_factor(domega, t0 n) times the spatial mean of its
    # integrand, and its limit is the spatial limit while |domega| <= RESONANCE_TOL, else 0
    m1, m2 = band_pair
    counts = sorted(set(data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))))
    t0 = data.draw(st.floats(0.3, 3.0))
    dk = 0.0 if data.draw(st.booleans()) else _offset(data.draw, TWO_PI, data.draw(st.integers(-2, 2)), counts[0])
    d = data.draw(st.sampled_from(DOMEGAS) | st.just(1e-7 / (t0 * counts[0])) | st.floats(-2.0, 2.0))
    modes = (m1, replace(m2, k=m1.k + dk, omega=m1.omega + d))
    report = effective.coupling_coefficients(*modes, counts, time_window=t0)
    pairs = [(p, l) for p in (0, 1) for l in (0, 1)]
    for (p, l), g_fields in zip(pairs, effective._transport(modes, pairs)):
        domega, pair_dk = modes[l].omega - modes[p].omega, modes[l].k - modes[p].k
        for j, G in enumerate(g_fields):
            scale = np.sum(np.abs(G.coeffs))
            want = [_oracle_window_factor(domega, t0 * n) * _oracle_supercell_average(G, pair_dk, n)
                    for n in counts]
            _assert_close(report.averages[(j, p + 1, l + 1)], want, scale)
            gate = abs(domega) <= RESONANCE_TOL
            _assert_close(report.limits[(j, p + 1, l + 1)], _oracle_structural_limit(G, pair_dk) * gate, scale)


@pytest.mark.parametrize("d, kept", [(1e-10, True), (RESONANCE_TOL * (1 - 1e-6), True),
                                     (RESONANCE_TOL * (1 + 1e-6), False), (1e-7, False)])
def test_coupling_limit_gate_edge(two_phase, band_pair, d, kept):
    # same band, same k, omega moved by d: a cross limit is the self limit (to the O(d)
    # change of its integrand) inside the gate, and exactly 0 above it
    m1, _ = band_pair
    report = effective.coupling_coefficients(m1, replace(m1, omega=m1.omega + d), [4, 8])
    for j in range(2):
        self_limit, cross_limit = report.limits[(j, 1, 1)], report.limits[(j, 1, 2)]
        assert abs(self_limit) > 0.1
        if kept:
            assert abs(cross_limit - self_limit) <= 1e-8 * abs(self_limit)
        else:
            assert cross_limit == 0


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
    period = f.cell.lengths[0]
    terms = [(q + b, c, abs(b * period / TWO_PI + n) <= RESONANCE_TOL)
             for n, q, c in zip(f.index_grid(0), *frequencies(f))]
    values, cert = _oracle_harmonic_sums(terms, windows)
    scale = sum(abs(c) for _, c, _ in terms)
    _assert_close(res.values, values, scale)
    _assert_close(res.decay_constant, cert, cert)

    zero_mean = FourierField(f.cell, np.where(f.index_grid(0) == 0, 0.0, f.coeffs))
    g = drawn_signal(data.draw(st.sampled_from((period, 1.5 * period))) if data.draw(st.booleans())
                     else data.draw(st.floats(0.5, 2.0)))
    res = ergodic.avg_product_periodic(zero_mean, g, windows)
    frac = ergodic._rational_ratio(period, g.cell.lengths[0])

    def paired(n1, n2):  # n1 / T1 = -n2 / T2 with T1 / T2 = p / q
        return frac is not None and n1 * frac.denominator == -n2 * frac.numerator

    terms = [(q1 + q2, c1 * c2, paired(n1, n2))
             for n1, q1, c1 in zip(zero_mean.index_grid(0), *frequencies(zero_mean))
             for n2, q2, c2 in zip(g.index_grid(0), *frequencies(g))]
    values, cert = _oracle_harmonic_sums(terms, windows)
    scale = sum(abs(c) for _, c, _ in terms)
    _assert_close(res.values, values, scale)
    _assert_close(res.decay_constant, cert, cert)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_supercell_self_terms_collapse_exactly(dims):
    # dk == 0 on every axis: the Kronecker factor keeps only the cell mean
    rng = np.random.default_rng(dims)
    shape = (5,) * dims
    G = FourierField(Cell((1.0, 1.3, 0.8)[:dims]), rng.normal(size=shape) + 1j * rng.normal(size=shape))
    ns = np.array([1.0, 4.0, 64.0])
    got, limit, _, _, _ = ergodic.box_means(G, np.zeros(dims), ns[:, np.newaxis] * G.cell.diag)
    assert np.all(got == G.mean()) and limit == G.mean()
