"""Certified shift-invert Lanczos against the dense pencil solve it replaces on large bases.

Wave pencils of size ``bloch.LANCZOS_MIN_SIZE`` or more take their lowest
pairs from ``bloch._lanczos`` when ``bloch._certified`` accepts them; the
dense xHEGVX steps are the oracle, reached here by raising the threshold
above the pencil size.  Every such pencil, narrow or as wide as the basis,
factors A + s B in band storage and counts the inertia of A - tau B from a
pinned band Cholesky; ``numpy.linalg.eigvalsh`` is the count's oracle.  A
count that declines rejects the pairs, and the solve gives the dense bits.
Random media come from hypothesis with ``derandomize=True``, so every run
draws the same cases.
"""

import contextlib
import functools
import io
import json
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hfh import bloch, cli, medium
from hfh.fourier import Cell


def _dense(fn, op):
    """``fn()`` with every solve of ``op``'s size on the dense path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bloch, "LANCZOS_MIN_SIZE", op.size + 1)
        return fn()


def _pins(negatives):
    """The pins :func:`bloch._certified` takes for ``negatives`` wanted pairs (one Ritz value more)."""
    return bloch._CERTIFICATE_PINS * (negatives + 1)


def _spy(patch, owner, name, log, record=lambda result: result):
    """Replace ``owner.name`` by a pass-through that appends ``record(result)`` to ``log``."""
    routine = getattr(owner, name)

    def spy(*args, **kwargs):
        result = routine(*args, **kwargs)
        log.append(record(result))
        return result
    patch.setattr(owner, name, spy)


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
        inner = sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3, unique=True)))
        breaks = [0.0] + inner
        values = [draw(st.floats(1.0, 4.0)) for _ in breaks]
        mass = [draw(st.floats(1.0, 2.0)) for _ in breaks]
        cell = Cell((1.0,))
        table = {"scalar-1d-band": 16, "scalar-1d-full": 2 * cutoff}.get(family, cutoff)
        med = medium.build_scalar_medium(medium.piecewise(breaks, values), medium.piecewise(breaks, mass),
                                         cell, table)
    return med, cutoff


# every family's Lanczos solves run in band storage; the component-major blocks of a vector medium,
# and a 1D table that reaches every lag (kd = n - 1), make the band wide
BAND_FAMILIES = ["scalar-2d", "vector-2d", "scalar-1d", "scalar-1d-band", "scalar-1d-full"]


@contextlib.contextmanager
def _truncation_allowed(family):
    """Ignore the operator cutoff warning for scalar-1d-full, whose table the operator truncates
    deliberately."""
    with warnings.catch_warnings():
        if family == "scalar-1d-full":
            warnings.filterwarnings("ignore", "operator cutoff .* below medium cutoff")
        yield


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


def _check_against_dense(med, k, cutoff, n_bands, monkeypatch):
    """Build a fresh medium's cache, solve at k twice, then on the dense path: a multiplet among the
    lowest n_bands + 2 eigenvalues must give the dense bits, anything else certified Lanczos pairs
    that agree with the dense ones.  The cache must check B by a band Cholesky, Lanczos must factor
    A + s B in band storage and the count run on the band, and B's dense factor must be formed
    once, by the first dense solve.  Returns whether the solves fell back."""
    assert "_galerkin" not in vars(med)  # the spy below sees the cache built
    verdicts = []
    formed = []  # the residuals the certificate formed
    factors = []
    splits = []  # whether the Ritz values passed the split test
    certified = bloch._certified

    def spy(op, mu, X):
        splits.append(bool(np.min(np.diff(mu)) > bloch._LANCZOS_SPLIT * bloch._spectral_radius_bound(op, mu)))
        formed.append(certified(op, mu, X))
        verdicts.append(formed[-1] is not None)
        return formed[-1]

    def taken():
        """The factorizations since the last call."""
        log = factors[:]
        factors.clear()
        return log

    with monkeypatch.context() as patch:
        patch.setattr(bloch, "_certified", spy)
        for name in ("zpbtrf", "zpotrf"):
            _spy(patch, bloch.lapack, name, factors, lambda result, name=name: name)
        op = bloch.assemble_operator(med, k, cutoff)
        built = taken()
        got = bloch.solve_at(med, k, cutoff, n_bands)
        first = taken()
        again = bloch.solve_at(med, k, cutoff, n_bands)
        second = taken()
        want = _dense(lambda: bloch.solve_at(med, k, cutoff, n_bands), op)
        dense = taken()
    assert op.size >= bloch.LANCZOS_MIN_SIZE
    _same_modes(again, got)
    nev = n_bands + 1
    low = scipy.linalg.eigh(op.A, op.B, eigvals_only=True, subset_by_index=[0, nev])
    rho = bloch._spectral_radius_bound(op, low)
    _assert_band_holds(op, 0.37 * rho)
    # the cache checks B with a band Cholesky; Lanczos factors A + s B, then the inertia count
    # factors the pinned A - tau B, both on the band; the first dense solve forms B's dense factor
    assert built == ["zpbtrf"]
    if np.min(np.diff(low)) < 1e-9 * rho:  # a multiplet: its eigenvectors are not unique
        assert True not in verdicts and splits[0] == splits[1]
        # split Ritz values mean Lanczos saw one vector of the multiplet and the count rejects;
        # the split test rejects a resolved multiplet before any count
        attempt = ["zpbtrf", "zpbtrf"] if splits[0] else ["zpbtrf"]
        assert first == attempt + ["zpotrf"] and second == attempt and dense == []
        _same_modes(got, want)
        return True
    assert verdicts == [True, True]
    # no dense factor of B until the dense solve
    assert first == second == ["zpbtrf", "zpbtrf"] and dense == ["zpotrf"]
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
    with pytest.MonkeyPatch.context() as patch, _truncation_allowed(family):
        _check_against_dense(med, k, cutoff, n_bands, patch)


@pytest.mark.parametrize("family", BAND_FAMILIES)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_band_count_matches_eigvalsh(family, data):
    # tau midway between consecutive eigenvalues among the lowest six: every tau below the sixth
    # must get a count from the pinned band Cholesky, and it must be the dense spectrum's
    med, cutoff = _random_medium(family, data.draw)
    k = [data.draw(_kcomp) for _ in range(med.cell.dims)]
    with _truncation_allowed(family):
        op = bloch.assemble_operator(med, k, cutoff)
    low = scipy.linalg.eigh(op.A, op.B, eigvals_only=True, subset_by_index=[0, 5])
    for j in range(5):
        tau = 0.5 * (low[j] + low[j + 1])
        want = int(np.count_nonzero(np.linalg.eigvalsh(op.A - tau * op.B) < 0.0))
        assert bloch._band_negative_count(op, tau, min(_pins(j + 1), op.size)) == want == j + 1


@pytest.mark.parametrize("n_bands", [1, 3])
@pytest.mark.parametrize("family", BAND_FAMILIES)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_band_residuals_match_dense(family, n_bands, data):
    # a certified band solve forms its residuals by ZHBMV on the band; they must be the dense
    # |A x - mu B x| / |x| to within the rounding error bound of the two products: each entry of
    # a dense product sums n terms, of a band one at most 2 kd + 1, and the difference of the
    # computed residuals is at most (n + 2 kd + 3) u (|| |A| || + mu || |B| ||)
    med, cutoff = _random_medium(family, data.draw)
    k = [data.draw(_kcomp) for _ in range(med.cell.dims)]
    with _truncation_allowed(family):
        op = bloch.assemble_operator(med, k, cutoff)
    mu, X = bloch._lanczos(op, n_bands + 1)
    got = bloch._certified(op, mu, X)
    assert got is not None
    mu = mu[:-1]
    want = np.linalg.norm(op.A @ X - (op.B @ X) * mu, axis=0) / np.linalg.norm(X, axis=0)
    u = np.finfo(float).eps / 2
    bound = (op.size + 2 * op.band.kd + 3) * u * (np.linalg.norm(np.abs(op.A), 2)
                                                  + np.abs(mu) * np.linalg.norm(np.abs(op.B), 2))
    assert np.all(np.abs(got - want) <= bound)


def test_band_count_declines():
    op = bloch.assemble_operator(_c4_medium(), (0.7, -1.3), 8)
    low = scipy.linalg.eigh(op.A, op.B, eigvals_only=True, subset_by_index=[0, 4])
    for j in range(4):
        tau = 0.5 * (low[j] + low[j + 1])
        assert bloch._band_negative_count(op, tau, _pins(j + 1)) == j + 1
        # a rank-j update removes at most j of the j + 1 negative eigenvalues: H' is indefinite
        assert bloch._band_negative_count(op, tau, j) is None
        # tau on an eigenvalue: H is singular to roundoff, and so is K
        assert bloch._band_negative_count(op, low[j], _pins(j + 1)) is None
    assert bloch._band_negative_count(op, 0.0, _pins(1)) is None  # no positive weights


@pytest.mark.parametrize("missed", [False, True])
def test_declined_band_count_gives_the_dense_verdict(missed, monkeypatch):
    # with no pins, H' = A - tau B is indefinite and the band count declines: the certificate
    # rejects the pairs, whether or not Lanczos skipped an eigenvalue, and the solve returns the
    # dense solve's bits
    med = _c4_medium()
    k = (0.7, -1.3)
    op = bloch.assemble_operator(med, k, 8)
    want = _dense(lambda: bloch.solve_at(med, k, 8, 2), op)
    lanczos = bloch._lanczos

    def skip_second(op, nev):
        mu, X = lanczos(op, nev + 1)
        return np.delete(mu, 1), np.delete(X, 1, axis=1)

    mu, X = (skip_second if missed else lanczos)(op, 3)
    assert (bloch._certified(op, mu, X) is None) == missed  # with pins, the count decides
    counts, verdicts = [], []
    with monkeypatch.context() as patch:
        patch.setattr(bloch, "_CERTIFICATE_PINS", 0)
        _spy(patch, bloch, "_band_negative_count", counts)
        assert bloch._certified(op, mu, X) is None and counts == [None]
        if missed:
            patch.setattr(bloch, "_lanczos", skip_second)
        _spy(patch, bloch, "_certified", verdicts)
        got = bloch.solve_at(med, k, 8, 2)
    assert counts == [None, None] and verdicts == [None]
    _same_modes(got, want)


def test_sweep2d_bands_count_on_the_band(tmp_path, monkeypatch):
    # the traffic the band certificate serves: a 2D cosine medium with harmonics up to 2 per
    # axis at cutoff 8 (289 plane waves); every solve of a 9-sample sweep is certified by a
    # pinned band count, and no dense factor is formed
    def cosine(mean, harmonics):
        return {"type": "cosine", "mean": mean,
                "harmonics": [{"n": n, "amp": amp, "phase": phase} for n, amp, phase in harmonics]}

    config = tmp_path / "medium.json"
    config.write_text(json.dumps({
        "cell": [1.0, 1.0], "kind": "scalar", "cutoff": 2,
        "a": cosine(2.2, [([1, -2], 0.4, 0.3), ([2, 1], 0.5, 1.9), ([0, 2], 0.3, 4.0)]),
        "b": cosine(1.2, [([1, 0], 0.35, 2.5), ([1, 1], 0.3, 0.7)])}))
    counts, factors, certified = [], [], []
    _spy(monkeypatch, bloch, "_band_negative_count", counts)
    _spy(monkeypatch, bloch.lapack, "zpotrf", factors, lambda result: "zpotrf")
    _spy(monkeypatch, bloch, "_certified", certified, lambda result: result is not None)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["bands", "--config", str(config), "--k-start=0.6,-0.4", "--k-end=2.1,-1.9",
                         "--samples", "9", "--band", "1", "--cutoff", "8",
                         "--out", str(tmp_path / "bands.csv")])
    assert code == 0
    assert certified == [True] * 9 and counts == [2] * 9 and factors == []


def test_a_is_gathered_once_per_operator(monkeypatch):
    # a certified solve scatters A into the band three times (for the Lanczos factor, the residuals
    # and the count) from one gather of A's written entries, and each new operator gathers its own
    gather = bloch.BlochOperator._a_lower.func
    gathers, scatters, certified = [], [], []

    def spy(op):
        gathers.append(tuple(op.k))
        return gather(op)
    counted = functools.cached_property(spy)
    counted.__set_name__(bloch.BlochOperator, "_a_lower")
    monkeypatch.setattr(bloch.BlochOperator, "_a_lower", counted)
    _spy(monkeypatch, bloch, "_shift_into_band", scatters, lambda result: None)
    _spy(monkeypatch, bloch, "_certified", certified, lambda result: result is not None)
    med = _c4_medium()
    ks = [(0.7, -1.3), (1.1, 0.4)]
    for k in ks:
        bloch.solve_at(med, k, 8, 2)
    assert certified == [True, True] and len(scatters) == 6 and gathers == ks


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
    counts = []
    monkeypatch.setattr(bloch, "_lanczos", skip_second)
    monkeypatch.setattr(bloch, "_certified", spy)
    _spy(monkeypatch, bloch, "_band_negative_count", counts)
    _same_modes(bloch.solve_at(med, k, 8, 2), want)
    assert verdicts == [False]
    # the band count found the skipped eigenvalue: four below tau, not three
    assert counts == [4]


def test_small_pencils_keep_the_dense_path(monkeypatch):
    med = _c4_medium()
    op = bloch.assemble_operator(med, (0.7, -1.3), 4)  # 81 plane waves
    assert op.size < bloch.LANCZOS_MIN_SIZE
    monkeypatch.setattr(bloch, "_lanczos", lambda op, nev: pytest.fail("Lanczos below the crossover"))
    bloch.solve_bands(op, 2)
