"""Certified shift-invert Lanczos against the dense pencil solve it replaces on large bases.

Pencils of size ``bloch.LANCZOS_MIN_SIZE`` or more, schrodinger ones (B = I)
included, take their lowest pairs from ``bloch._lanczos`` when
``bloch._certified`` accepts them; the dense solve (ZHEGVX, or ZHEEVR for
the schrodinger family) is the oracle, reached here by raising the
threshold above the pencil size.  Every such pencil, narrow or as wide as
the basis, factors A + s B in band storage and counts the inertia of
A - tau B from a pinned band Cholesky; ``numpy.linalg.eigvalsh`` is the
count's oracle.  A count that declines rejects the pairs, and the solve
gives the dense bits.
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
    """``fn()`` with every operator of ``op``'s size that it assembles on the dense path: the
    Galerkin parts are rebuilt without band parts, and dropped again afterwards."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bloch, "LANCZOS_MIN_SIZE", op.size + 1)
        bloch._galerkin.cache_clear()
        try:
            return fn()
        finally:
            bloch._galerkin.cache_clear()


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
    """A random medium of the family and an operator cutoff whose pencil takes the Lanczos path."""
    def harmonics(*modes):
        return [(n, draw(_amp), draw(_phase)) for n in modes]

    if family.startswith("schrodinger-2d"):  # a mean-0 potential; -magnetic: a divergence-free Phi
        cell, cutoff = Cell((1.0, draw(st.floats(0.8, 1.3)))), draw(st.sampled_from([7, 8]))
        magnetic = None
        if family.endswith("-magnetic"):
            magnetic = [medium.cosine(0.0, harmonics((0, 1))), medium.cosine(0.1, harmonics((1, 0)))]
        med = medium.build_schrodinger_blocks(draw(st.floats(0.5, 2.0)), 1.0,
                                              medium.cosine(0.0, harmonics((1, 0), (1, 1), (0, 2))),
                                              magnetic, cell, 2)
    elif family == "schrodinger-1d":  # a piecewise potential at the operator cutoff
        cutoff = draw(st.integers(64, 100))
        breaks = [0.0] + sorted(draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=3, unique=True)))
        potential = medium.piecewise(breaks, [draw(st.floats(0.0, 4.0)) for _ in breaks])
        med = medium.build_schrodinger_blocks(draw(st.floats(0.5, 2.0)), 1.0, potential, None,
                                              Cell((1.0,)), cutoff)
    elif family == "scalar-2d":
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
BAND_FAMILIES = ["scalar-2d", "vector-2d", "scalar-1d", "scalar-1d-band", "scalar-1d-full",
                 "schrodinger-1d", "schrodinger-2d", "schrodinger-2d-magnetic"]


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
    """Build the medium's Galerkin parts afresh, solve at k twice, then on the dense path: a multiplet
    among the lowest n_bands + 2 eigenvalues must give the dense bits, anything else certified
    Lanczos pairs that agree with the dense ones.  The parts' build must check B by a band Cholesky,
    Lanczos must factor A + s B in band storage and the count run on the band, and each dense solve
    must be one ZHEGVX call (ZHEEVR for the schrodinger family); certified solves make none and form
    no dense B.  Returns whether the solves fell back."""
    bloch._galerkin.cache_clear()  # the spy below sees the parts built
    verdicts = []
    formed = []  # what the certificate formed: values, residuals and the gap value's bound
    factors = []  # the LAPACK factorizations and dense eigensolves called, by name
    splits = []  # whether the Ritz values passed the split test
    certified = bloch._certified

    def spy(op, mu, X):
        splits.append(bool(np.min(np.diff(mu)) > bloch._LANCZOS_SPLIT * bloch._spectral_radius_bound(op, mu)))
        formed.append(certified(op, mu, X))
        verdicts.append(formed[-1] is not None)
        return formed[-1]

    def taken():
        """The factorizations and dense eigensolves since the last call."""
        log = factors[:]
        factors.clear()
        return log

    with monkeypatch.context() as patch:
        patch.setattr(bloch, "_certified", spy)
        for name in ("zpbtrf", "zpotrf", "zhegst", "zheevx", "zhegvx", "zheevr"):
            _spy(patch, bloch.lapack, name, factors, lambda result, name=name: name)
        op = bloch.assemble_operator(med, k, cutoff)
        built = taken()
        got = bloch.solve_at(med, k, cutoff, n_bands)
        first = taken()
        again = bloch.solve_at(med, k, cutoff, n_bands)
        second = taken()
        kept = set(vars(op.parts))  # before the dense solve below
        want = _dense(lambda: bloch.solve_at(med, k, cutoff, n_bands), op)
        dense = taken()
    assert op.size >= bloch.LANCZOS_MIN_SIZE
    schrodinger = med.family == "schrodinger"
    dense_solve = "zheevr" if schrodinger else "zhegvx"
    _same_modes(again, got)
    nev = n_bands + 1
    low = scipy.linalg.eigh(op.A, op.B, eigvals_only=True, subset_by_index=[0, nev])
    rho = bloch._spectral_radius_bound(op, low)
    _assert_band_holds(op, 0.37 * rho)
    # the parts' build checks B with a band Cholesky; Lanczos factors A + s B, then the inertia count
    # factors the pinned A - tau B, both on the band; a dense solve is one LAPACK call
    assert built == ["zpbtrf"]
    if np.min(np.diff(low)) < 1e-9 * rho:  # a multiplet: its eigenvectors are not unique
        assert True not in verdicts and splits[0] == splits[1]
        # split Ritz values mean Lanczos saw one vector of the multiplet and the count rejects;
        # the split test rejects a resolved multiplet before any count
        attempt = ["zpbtrf", "zpbtrf"] if splits[0] else ["zpbtrf"]
        assert first == second == attempt + [dense_solve] and dense == [dense_solve]
        _same_modes(got, want)
        return True
    assert verdicts == [True, True]
    # no dense B or dense solve until the dense path
    assert first == second == ["zpbtrf", "zpbtrf"] and dense == [dense_solve]
    assert "B" not in kept
    assert [m.residual for m in got] == list(formed[0][1])  # reported as formed
    op = bloch.assemble_operator(med, k, cutoff)
    mu, X = bloch._lanczos(op, nev)
    values, _, bound = bloch._certified(op, mu, X)
    w, x, _ = _dense(lambda: bloch._solve_pencil(bloch.assemble_operator(med, k, cutoff), [0, n_bands]), op)
    gate = bloch._residual_gate(op, w)
    # compare the eigenvalues, omega^2 for a wave pencil: at an omega = 0 mode the square root turns
    # roundoff into ~1e-7 in omega.
    # The returned pairs: Ritz values and vectors; the gap pair, which only sets the spectral gap:
    # its certified value, within its Kato-Temple bound, and the dense solve's rounding
    assert np.array_equal(values[:-1], mu[:-2])
    assert np.all(np.abs(mu[:-2] - w[:-1]) <= 1e-13 * rho)
    assert abs(values[-1] - w[-1]) <= bound + 1e-13 * rho and bound <= 0.5 * gate
    spacing = np.diff(low)
    for i in range(n_bands):
        if min(spacing[i], spacing[i - 1] if i else np.inf) > 1e-6 * rho:  # nondegenerate
            assert abs(abs(X[:, i].conj() @ op.B @ x[:, i]) - 1.0) <= 1e-10
        r = op.A @ X[:, i] - mu[i] * (op.B @ X[:, i])
        assert np.linalg.norm(r) / np.linalg.norm(X[:, i]) <= gate
    power = 1 if schrodinger else 2
    for m1, m2 in zip(got, want):
        assert abs(m1.omega ** power - m2.omega ** power) <= 1e-13 * rho
        assert m1.residual <= gate
    # B's band holds the bits of the mirrored dense B's band, signed zeros included
    kd_B, n = len(op.band.B) - 1, op.size
    d, r = np.indices((kd_B + 1, n))
    old = np.asfortranarray(np.where(d + r < n, op.B[np.minimum(d + r, n - 1), r], 0.0))
    assert op.band.B.tobytes(order="F") == old.tobytes(order="F")
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
    certified = bloch._certified(op, mu, X)
    assert certified is not None
    got, mu, X = certified[1], mu[:-2], X[:, :-1]  # the returned pairs
    want = np.linalg.norm(op.A @ X - (op.B @ X) * mu, axis=0) / np.linalg.norm(X, axis=0)
    u = np.finfo(float).eps / 2
    bound = (op.size + 2 * op.band.kd + 3) * u * (np.linalg.norm(np.abs(op.A), 2)
                                                  + np.abs(mu) * np.linalg.norm(np.abs(op.B), 2))
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("family", BAND_FAMILIES)
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_gap_value_within_its_bound(family, data):
    # the extra pair of a solve only sets the spectral gap: Lanczos converges its value, not its
    # vector, and the certificate returns its Rayleigh quotient with a Kato-Temple bound.  Dense
    # eigh's eigenvalue nev lies within that bound, up to the two solves' rounding (measured at
    # most about u rho), and the bound within half the residual gate
    med, cutoff = _random_medium(family, data.draw)
    k = [data.draw(_kcomp) for _ in range(med.cell.dims)]
    nev = data.draw(st.integers(1, 3)) + 1
    with _truncation_allowed(family):
        op = bloch.assemble_operator(med, k, cutoff)
    mu, X = bloch._lanczos(op, nev)
    certified = bloch._certified(op, mu, X)
    assert certified is not None
    values, _, bound = certified
    w = scipy.linalg.eigh(op.A, op.B, eigvals_only=True, subset_by_index=[0, nev - 1])
    rho = bloch._spectral_radius_bound(op, w)
    assert abs(values[-1] - w[-1]) <= bound + 1e-14 * rho
    assert 0.0 <= bound <= 0.5 * bloch._residual_gate(op, values)


@pytest.mark.parametrize("k", [0.3, 0.7])
def test_kato_temple_bound_reads_both_ends(k):
    # x = c v_j + s v_(j+1) from the dense B-orthonormal eigenvectors has Rayleigh quotient
    # lambda_j + s^2 (lambda_(j+1) - lambda_j), and (alpha, tau) = (lambda_(j-1), lambda_j + gap / 2)
    # holds lambda_j alone.  The bound eps^2 / min(rho - alpha, tau - rho) must hold the true
    # distance; here the eigenvalue below is farther than the one above, so a bound that read
    # only rho - alpha would be smaller than that distance
    med = medium.build_scalar_medium(medium.cosine(2.0, [((1,), 0.6, 0.3)]),
                                     medium.cosine(1.5, [((1,), 0.4, 1.1)]), Cell((1.0,)), 1)
    op = bloch.assemble_operator(med, [k], 64)
    band = 1
    lam, V = scipy.linalg.eigh(op.A, op.B, subset_by_index=[0, band + 1])
    lower, above = lam[band] - lam[band - 1], lam[band + 1] - lam[band]
    assert lower > above  # the case a one-sided bound gets wrong
    c, s = np.sqrt(0.9), np.sqrt(0.1)
    x = c * V[:, band] + s * V[:, band + 1]
    tau = lam[band] + 0.5 * above
    rho, bound = bloch._kato_temple(op, x, op.A @ x, op.B @ x, lam[band - 1], tau)
    assert abs(rho - (lam[band] + 0.1 * above)) <= 1e-12 * lam[band]
    assert abs(rho - lam[band]) <= bound <= 1.01 * 0.9 * 0.1 * above / 0.4  # c^2 s^2 gap^2 / (tau - rho)
    assert bloch._kato_temple(op, x, op.A @ x, op.B @ x, lam[band - 1], rho)[1] == np.inf


def test_second_pass_restores_orthogonality(monkeypatch):
    # a Lanczos step orthogonalizes after the three-term recurrence, so the first Gram-Schmidt pass
    # cancels heavily only when the step lost orthogonality to older vectors.  w all but in the
    # span of the basis shrinks to 1e-9 of its norm in the first pass, which leaves it out of
    # orthogonality by about u / 1e-9; only the second pass brings that back to roundoff.  A
    # vector the first pass leaves at more than 1/sqrt 2 of its norm gets one pass
    rng = np.random.default_rng(5)
    n, m = 200, 12
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    basis = np.ascontiguousarray(np.linalg.qr(gauss(n, m))[0].T)
    fresh = gauss(n)
    for _ in range(2):
        fresh -= (basis.conj() @ fresh) @ basis
    fresh /= np.linalg.norm(fresh)
    coeffs = gauss(m)
    norms = []
    _spy(monkeypatch, bloch.blas, "dznrm2", norms)
    for scale, tail, passes in ((1.0, 1e-9, 2), (1e-3, 1.0, 1)):
        norms.clear()
        w = scale * coeffs @ basis + tail * fresh
        removed, norm = bloch._orthogonalize(w, basis, basis.conj())
        assert len(norms) == 1 + passes and norm == norms[-1]
        assert abs(norm - tail) <= 1e-6 * tail and np.linalg.norm(basis.conj() @ w) <= 1e-14 * norm
        assert np.allclose(removed, scale * coeffs, rtol=1e-12, atol=0.0)


def test_unconverged_gap_value_is_rejected(monkeypatch):
    # the gap pair's vector perturbed by 1e-3 of its norm: its Kato-Temple bound exceeds half the
    # residual gate, and the certificate rejects the pairs before the count
    op = bloch.assemble_operator(_c4_medium(), (0.7, -1.3), 8)
    mu, X = bloch._lanczos(op, 3)
    assert bloch._certified(op, mu, X) is not None
    noise = np.random.default_rng(2).standard_normal((2, op.size))
    X[:, -1] += 1e-3 * np.linalg.norm(X[:, -1]) * (noise[0] + 1j * noise[1]) / np.sqrt(2 * op.size)
    counts = []
    _spy(monkeypatch, bloch, "_band_negative_count", counts)
    assert bloch._certified(op, mu, X) is None and counts == []


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
    # pinned band count, and no dense solve runs
    def cosine(mean, harmonics):
        return {"type": "cosine", "mean": mean,
                "harmonics": [{"n": n, "amp": amp, "phase": phase} for n, amp, phase in harmonics]}

    config = tmp_path / "medium.json"
    config.write_text(json.dumps({
        "cell": [1.0, 1.0], "kind": "scalar", "cutoff": 2,
        "a": cosine(2.2, [([1, -2], 0.4, 0.3), ([2, 1], 0.5, 1.9), ([0, 2], 0.3, 4.0)]),
        "b": cosine(1.2, [([1, 0], 0.35, 2.5), ([1, 1], 0.3, 0.7)])}))
    counts, dense, certified, tridiagonal, norms = [], [], [], [], []
    _spy(monkeypatch, bloch, "_band_negative_count", counts)
    _spy(monkeypatch, bloch.lapack, "zhegvx", dense, lambda result: "zhegvx")
    _spy(monkeypatch, bloch, "_certified", certified, lambda result: result is not None)
    _spy(monkeypatch, bloch.lapack, "dstev", tridiagonal)
    _spy(monkeypatch, bloch.blas, "dznrm2", norms)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["bands", "--config", str(config), "--k-start=0.6,-0.4", "--k-end=2.1,-1.9",
                         "--samples", "9", "--band", "1", "--cutoff", "8",
                         "--out", str(tmp_path / "bands.csv")])
    assert code == 0
    assert certified == [True] * 9 and counts == [2] * 9 and dense == []
    # Lanczos converges the gap pair by value, not by vector: 137 steps here (190, 21 a solve, when
    # the gap pair's vector was converged too); DSTEV runs from step nev = 2 on.  Each step makes
    # one orthogonalization pass after the three-term recurrence, and the DGKS test never asks for
    # a second (181 second passes when the test also saw alpha and beta)
    steps = len(tridiagonal) + 2 * 9
    assert steps <= 16 * 9 and len(norms) == 2 * steps


def _splitmix64(i: int) -> int:
    """SplitMix64's hash of index i, in Python integers: the reference for ``bloch._start_vector``."""
    mask = 2 ** 64 - 1
    z = i * 0x9E3779B97F4A7C15 & mask
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
    return z ^ z >> 31


@pytest.mark.parametrize("n", [33, 129, 289, 1089])  # 1D cutoffs 16 and 64, 2D cutoffs 8 and 16
def test_start_vector_is_the_hash_with_both_inversion_parities(n):
    # the start vector is SplitMix64 of the indices 1..2n (index 1 hashes to the generator's
    # first output from seed 0), the same bits on every call, and no uint64 wrap warns.  Every
    # component is nonzero, and its even and odd parts under the inversion n -> -n, which
    # reverses the lexicographic basis, are both far from zero: no symmetry of the medium keeps
    # it out of an eigenspace
    assert _splitmix64(1) == 0xE220A8397B1DCDAF
    x = np.array([_splitmix64(i) >> 11 for i in range(1, 2 * n + 1)]) * 2.0 ** -53 - 0.5
    want = x[:n] + 1j * x[n:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = bloch._start_vector(n)
    assert np.array_equal(v, want / np.linalg.norm(want))
    assert np.array_equal(v, bloch._start_vector(n))
    assert np.all(v.real != 0.0) and np.all(v.imag != 0.0)
    assert np.linalg.norm(v + v[::-1]) / 2 > 0.5 and np.linalg.norm(v - v[::-1]) / 2 > 0.5


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


def _small_medium(family):
    """A medium of the family and an operator cutoff just below the Lanczos threshold."""
    if family == "scalar-2d":
        return _c4_medium(), (0.7, -1.3), 4  # 81 plane waves
    if family == "schrodinger-1d":  # 127 plane waves
        potential = medium.piecewise([0.0, 0.3, 0.7], [1.0, 3.0, 0.5])
        return medium.build_schrodinger_blocks(0.8, 1.0, potential, None, Cell((1.0,)), 63), (0.7,), 63
    magnetic = None
    if family == "schrodinger-2d-magnetic":
        magnetic = [medium.cosine(0.0, [((0, 1), 0.2)]), medium.cosine(0.1, [((1, 0), 0.3)])]
    med = medium.build_schrodinger_blocks(0.7, 1.0, medium.cosine(0.0, [((1, 0), 0.3), ((1, 1), 0.2)]),
                                          magnetic, Cell((1.0, 1.1)), 1)
    return med, (0.7, -1.3), 5  # 121 plane waves


@pytest.mark.parametrize("family", ["scalar-2d", "schrodinger-1d", "schrodinger-2d",
                                    "schrodinger-2d-magnetic"])
def test_small_pencils_keep_the_dense_path(family, monkeypatch):
    med, k, cutoff = _small_medium(family)
    op = bloch.assemble_operator(med, k, cutoff)
    assert op.size < bloch.LANCZOS_MIN_SIZE
    monkeypatch.setattr(bloch, "_lanczos", lambda op, nev: pytest.fail("Lanczos below the crossover"))
    bloch.solve_bands(op, 2)


def _schrodinger_well(amplitudes):
    """A 2D schrodinger medium: mass 0.7 and a mean-0 potential with the given amplitudes on the
    harmonics (1, 0), (1, 1) and (0, 2)."""
    potential = medium.cosine(0.0, list(zip([(1, 0), (1, 1), (0, 2)], amplitudes)))
    return medium.build_schrodinger_blocks(0.7, 1.0, potential, None, Cell((1.0, 1.0)), 2)


def test_shallow_well_certifies_on_the_band():
    # no shift beyond the one Lanczos takes: a well with amplitudes 4, 3 and 2 certifies, within the
    # gate of ZHEEVR's energies
    med, k = _schrodinger_well((4.0, 3.0, 2.0)), (0.9, -0.6)
    op = bloch.assemble_operator(med, k, 8)
    mu, X = bloch._lanczos(op, 4)
    values, _, _ = bloch._certified(op, mu, X)
    want = _dense(lambda: bloch.solve_at(med, k, 8, 3), op)
    gate = bloch._residual_gate(op, values)
    assert all(abs(value - mode.omega) <= gate for value, mode in zip(values, want))


def test_deep_well_declines_to_zheevr(monkeypatch):
    # a well with amplitudes 30, 20 and 10 has E_0 near -15.6, below minus the shift Lanczos takes:
    # A + s B is not positive definite, _lanczos declines, and the solve returns ZHEEVR's bits
    med, k = _schrodinger_well((30.0, 20.0, 10.0)), (0.9, -0.6)
    op = bloch.assemble_operator(med, k, 8)
    assert op.band is not None and bloch._lanczos(op, 4) is None
    want = _dense(lambda: bloch.solve_at(med, k, 8, 3), op)
    assert want[0].omega < -15.0
    solves = []
    _spy(monkeypatch, bloch.lapack, "zheevr", solves, lambda result: "zheevr")
    _same_modes(bloch.solve_at(med, k, 8, 3), want)
    assert solves == ["zheevr"]
