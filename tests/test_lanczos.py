"""Certified shift-invert Lanczos against the dense pencil solve it replaces on large bases.

Wave pencils of size ``bloch.LANCZOS_MIN_SIZE`` or more take their lowest
pairs from ``bloch._lanczos`` when ``bloch._certified`` accepts them; the
dense xHEGVX steps are the oracle, reached here by raising the threshold
above the pencil size.  A pencil whose band is narrow factors A + s B in
band storage, any other one densely; each family below pins which.  Random
media come from hypothesis with ``derandomize=True``, so every run draws
the same cases.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hfh import bloch, medium
from hfh.fourier import Cell


def _dense(fn, op):
    """``fn()`` with every solve of ``op``'s size on the dense path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bloch, "LANCZOS_MIN_SIZE", op.size + 1)
        return fn()


# ---------------------------------------------------------------------------
# the inertia count


def _forced_two_by_two(rng, n, blocks):
    """A Hermitian matrix whose leading ``blocks`` 2 x 2 diagonal blocks are zero.

    A zero diagonal entry makes Bunch-Kaufman take a 2 x 2 pivot (a 1 x 1
    pivot needs |a_11| >= alpha * (largest entry below it)).
    """
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = m + m.conj().T
    for b in range(blocks):
        m[2 * b:2 * b + 2, 2 * b:2 * b + 2] = 0.0
    return m


@pytest.mark.parametrize("n, blocks, shift", [(4, 2, 0.0), (7, 3, 0.0), (40, 20, 0.0),
                                               (40, 20, 3.0), (41, 10, -2.5), (120, 30, 1.0)])
def test_negative_count_matches_eigvalsh(n, blocks, shift):
    rng = np.random.default_rng(n + blocks)
    m = _forced_two_by_two(rng, n, blocks) - shift * np.eye(n)
    _, ipiv, _ = scipy.linalg.lapack.zhetrf(np.asfortranarray(m.copy()), lower=1)
    assert np.any(ipiv < 0)  # the case does take 2 x 2 pivots
    want = int(np.count_nonzero(np.linalg.eigvalsh(m) < 0.0))
    assert bloch._negative_count(np.asfortranarray(m.copy())) == want


def test_negative_count_of_definite_and_diagonal_matrices():
    assert bloch._negative_count(np.asfortranarray(np.diag([3.0, -1.0, 2.0, -4.0]).astype(complex))) == 2
    assert bloch._negative_count(np.asfortranarray(np.eye(5, dtype=complex))) == 0
    assert bloch._negative_count(np.asfortranarray(-np.eye(5, dtype=complex))) == 5


# ---------------------------------------------------------------------------
# Lanczos pairs against the dense oracle

_amp = st.floats(0.05, 0.3)
_phase = st.floats(0.0, 2 * np.pi)
_kcomp = st.floats(0.3, 2.8) | st.floats(-2.8, -0.3)  # away from the symmetry points 0 and pi


def _random_medium(family, draw):
    """A random wave medium of the family and an operator cutoff whose pencil takes the Lanczos path."""
    def harmonics(*modes):
        return [(n, draw(_amp), draw(_phase)) for n in modes]

    if family == "scalar-2d":
        cell = Cell((1.0, draw(st.floats(0.8, 1.3))))
        cutoff = draw(st.sampled_from([7, 8]))
        med = medium.build_scalar_medium(
            medium.cosine(draw(st.floats(1.5, 3.0)), harmonics((1, 0), (0, 1), (1, 1), (2, -1))),
            medium.cosine(draw(st.floats(1.2, 2.0)), harmonics((1, -1), (0, 2))), cell, 2)
    elif family == "vector-2d":
        cell, cutoff = Cell((1.0, 1.0)), 6
        a_terms = {(i, j, i, j): medium.cosine(1.5, harmonics((1, 0), (0, 1)))
                   for i in range(2) for j in range(2)}
        a_terms[(0, 0, 1, 1)] = medium.cosine(0.2, harmonics((1, 1)))
        med = medium.build_vector_medium(2, a_terms, [[1.0, 0.1], [0.1, 1.0]], cell, 2)
    else:  # piecewise media at the operator cutoff (a band of half-width (n - 1) / 2), truncated at
        # 16 harmonics (half-width 32), or at twice the operator cutoff (every lag of the basis)
        cutoff = draw(st.integers(64, 100))
        inner = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3)))
        breaks = [0.0] + inner
        values = [draw(st.floats(1.0, 4.0)) for _ in breaks]
        mass = [draw(st.floats(1.0, 2.0)) for _ in breaks]
        cell = Cell((1.0,))
        table = {"scalar-1d-band": 16, "scalar-1d-full": 2 * cutoff}.get(family, cutoff)
        med = medium.build_scalar_medium(medium.piecewise(breaks, values), medium.piecewise(breaks, mass),
                                         cell, table)
    return med, cutoff


# the factor each family's Lanczos solves take: band storage while 2 kd < n; the component-major
# blocks of a vector medium, and a 1D table that reaches every lag, make the band wide
BAND_FAMILIES = {"scalar-2d": True, "vector-2d": False, "scalar-1d": True, "scalar-1d-band": True,
                 "scalar-1d-full": False}


def _assert_band_holds(op, shift):
    """The band parts hold A + shift B, entry for entry, and A and B vanish outside the band."""
    kd, n = op.band.kd, op.size
    ab = bloch._shift_into_band(op, shift)
    dense = op.A + shift * op.B
    rows, cols = np.indices((n, n))
    outside = np.abs(rows - cols) > kd
    assert not op.A[outside].any() and not op.B[outside].any()
    for d in range(kd + 1):
        assert np.array_equal(ab[d, :n - d], np.diagonal(dense, -d))


def _check_against_dense(med, k, cutoff, n_bands, monkeypatch, band=True):
    """Solve at k on both paths: a multiplet among the lowest n_bands + 2 eigenvalues must give the
    dense bits, anything else certified Lanczos pairs that agree with the dense ones.  Lanczos must
    factor A + s B in band storage if ``band``, densely if not.  Returns whether the solve fell back."""
    verdicts = []
    formed = []  # the residuals the certificate formed
    factors = []
    certified = bloch._certified

    def spy(op, mu, X):
        formed.append(certified(op, mu, X))
        verdicts.append(formed[-1] is not None)
        return formed[-1]

    def factor_spy(name):
        routine = getattr(bloch.lapack, name)

        def factor(*args, **kwargs):
            factors.append(name)
            return routine(*args, **kwargs)
        return factor

    op = bloch.assemble_operator(med, k, cutoff)
    assert op.size >= bloch.LANCZOS_MIN_SIZE
    nev = n_bands + 1
    low = scipy.linalg.eigh(op.A, op.B, eigvals_only=True, subset_by_index=[0, nev])
    rho = bloch._spectral_radius_bound(op, low)
    want = _dense(lambda: bloch.solve_at(med, k, cutoff, n_bands), op)
    with monkeypatch.context() as patch:
        patch.setattr(bloch, "_certified", spy)
        for name in ("zpbtrf", "zpotrf"):
            patch.setattr(bloch.lapack, name, factor_spy(name))
        got = bloch.solve_at(med, k, cutoff, n_bands)
    assert factors == ["zpbtrf" if band else "zpotrf"]
    assert (op.band is not None) == band
    if band:
        _assert_band_holds(op, 0.37 * rho)
    if np.min(np.diff(low)) < 1e-9 * rho:  # a multiplet: its eigenvectors are not unique
        assert True not in verdicts
        _same_modes(got, want)
        return True
    assert verdicts == [True]
    assert [m.residual for m in got] == list(formed[0][:n_bands])  # reported as formed
    op = bloch.assemble_operator(med, k, cutoff)
    mu, X = bloch._lanczos(op, nev)
    mu = mu[:-1]
    w, x, _ = _dense(lambda: bloch._solve_pencil(op, [0, n_bands]), op)
    gate = bloch._residual_gate(op, w)
    # compare omega^2: at an omega = 0 mode the square root turns roundoff into ~1e-7 in omega
    assert np.all(np.abs(mu - w) <= 1e-13 * rho)
    spacing = np.diff(low)
    for i in range(nev):
        if min(spacing[i], spacing[i - 1] if i else np.inf) > 1e-6 * rho:  # nondegenerate
            assert abs(abs(X[:, i].conj() @ op.B @ x[:, i]) - 1.0) <= 1e-10
        r = op.A @ X[:, i] - mu[i] * (op.B @ X[:, i])
        assert np.linalg.norm(r) / np.linalg.norm(X[:, i]) <= gate
    for m1, m2 in zip(got, want):
        assert abs(m1.omega ** 2 - m2.omega ** 2) <= 1e-13 * rho
        assert m1.residual <= gate
    return False


@pytest.mark.parametrize("n_bands", [1, 3])
@pytest.mark.parametrize("family", BAND_FAMILIES)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_lanczos_pairs_match_dense(family, n_bands, data):
    med, cutoff = _random_medium(family, data.draw)
    k = [data.draw(_kcomp) for _ in range(med.cell.dims)]
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        if family == "scalar-1d-full":  # the operator truncates the medium's table, deliberately
            warnings.filterwarnings("ignore", "operator cutoff .* below medium cutoff")
        _check_against_dense(med, k, cutoff, n_bands, patch, BAND_FAMILIES[family])


# ---------------------------------------------------------------------------
# fallbacks: exact degeneracies and a missed eigenvalue return the dense bits


def _c4_medium():
    """a, b = mean + cos 2 pi x + cos 2 pi y on the unit square: C4-symmetric."""
    cell = Cell((1.0, 1.0))
    field = lambda mean: medium.cosine(mean, [((1, 0), 1.0), ((0, 1), 1.0)])  # noqa: E731
    return medium.build_scalar_medium(field(3.0), field(2.5), cell, 1)


def _same_modes(got, want):
    assert len(got) == len(want)
    for m1, m2 in zip(got, want):
        assert m1.omega == m2.omega and m1.gap == m2.gap and m1.residual == m2.residual
        assert np.array_equal(m1.v0, m2.v0)


@pytest.mark.parametrize("k, multiplets", [((0.0, 0.0), True), ((np.pi, 0.0), False),
                                           ((np.pi, np.pi), True)], ids=["G", "X", "M"])
def test_exact_degeneracies_fall_back(k, multiplets, monkeypatch):
    # at Gamma and M the lowest bands hold two-fold multiplets; at X every level is simple
    fell_back = [_check_against_dense(_c4_medium(), k, 8, n_bands, monkeypatch) for n_bands in (1, 2, 3)]
    assert fell_back == [multiplets] * 3


def test_missed_eigenvalue_fails_certificate(monkeypatch):
    med = _c4_medium()
    k = (0.7, -1.3)
    lanczos, certified = bloch._lanczos, bloch._certified
    verdicts = []

    def skip_second(op, nev):
        mu, X = lanczos(op, nev + 1)
        return np.delete(mu, 1), np.delete(X, 1, axis=1)

    def spy(op, mu, X):
        residuals = certified(op, mu, X)
        verdicts.append(residuals is not None)
        return residuals

    op = bloch.assemble_operator(med, k, 8)
    want = _dense(lambda: bloch.solve_at(med, k, 8, 2), op)
    assert certified(op, *lanczos(op, 3)) is not None  # unpatched, the fast path holds here
    monkeypatch.setattr(bloch, "_lanczos", skip_second)
    monkeypatch.setattr(bloch, "_certified", spy)
    _same_modes(bloch.solve_at(med, k, 8, 2), want)
    assert verdicts == [False]


def test_small_pencils_keep_the_dense_path(monkeypatch):
    med = _c4_medium()
    op = bloch.assemble_operator(med, (0.7, -1.3), 4)  # 81 plane waves
    assert op.size < bloch.LANCZOS_MIN_SIZE
    monkeypatch.setattr(bloch, "_lanczos", lambda op, nev: pytest.fail("Lanczos below the crossover"))
    bloch.solve_bands(op, 2)
