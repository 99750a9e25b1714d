import concurrent.futures
import dataclasses
import pickle
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_elastic_3d
from hfh import bands, bloch, checks, cli, effective, medium
from hfh.errors import NumericalError, ValidationError
from hfh.fourier import Cell, FourierField


# ---------------------------------------------------------------------------
# oracles

def quadrature_wave_matrix(med, k, cutoff, n_grid=1024):
    """Dense-grid evaluation of the stiffness bilinear form.

    Rectangle-rule quadrature on a uniform grid is exact for the band-limited
    truncated medium, so this reproduces the Galerkin entries independently of
    the lag-gather assembly path.
    """
    x = np.arange(n_grid) / n_grid
    a_vals = med.C[(0, 1, 0, 1)].sample_points_1d(x)
    ns = np.arange(-cutoff, cutoff + 1)
    kg = k + 2 * np.pi * ns
    A = np.zeros((len(ns), len(ns)), dtype=complex)
    for i, n in enumerate(ns):
        for j, n2 in enumerate(ns):
            phase = np.exp(-2j * np.pi * (n - n2) * x)
            A[i, j] = kg[i] * kg[j] * np.mean(a_vals * phase)
    return A


def bloch_fd_eigs(potential_vals_fn, mass, k, n_grid):
    """Central-difference Bloch eigensolve of -(1/2m) psi'' + V psi on one cell.

    psi(x + 1) = e^{ik} psi(x); returns all eigenvalues sorted ascending.
    """
    h = 1.0 / n_grid
    x = np.arange(n_grid) * h
    main = 2.0 / (2 * mass * h * h) + potential_vals_fn(x)
    H = np.diag(main).astype(complex)
    off = -1.0 / (2 * mass * h * h)
    idx = np.arange(n_grid)
    H[idx[:-1], idx[1:]] = off
    H[idx[1:], idx[:-1]] = off
    H[0, -1] = off * np.exp(-1j * k)
    H[-1, 0] = off * np.exp(+1j * k)
    return np.linalg.eigvalsh(H)


def gather_oracle(f, lags):
    """Coefficient lookup per integer lag (shape (..., d)); lags outside the table read as 0.

    A masked lookup per lag, independent of the coordinate entries that
    ``bloch._lag_entries`` builds.
    """
    lags = np.asarray(lags, dtype=int)
    mask = np.ones(lags.shape[:-1], dtype=bool)
    idx = []
    for ax in range(f.cell.dims):
        la = lags[..., ax]
        mask &= np.abs(la) <= f.cutoffs[ax]
        idx.append(np.clip(la + f.cutoffs[ax], 0, 2 * f.cutoffs[ax]))
    return np.where(mask, f.coeffs[tuple(idx)], 0.0 + 0.0j)


def mathieu_fd_oracle(k, bands):
    """Richardson-extrapolated finite-difference energies for V = 2 cos(2 pi x), m = 1/2."""
    pot = lambda x: 2.0 * np.cos(2 * np.pi * x)
    coarse = bloch_fd_eigs(pot, 0.5, k, 512)[:bands]
    fine = bloch_fd_eigs(pot, 0.5, k, 1024)[:bands]
    return (4.0 * fine - coarse) / 3.0


def oracle_basis(dims, cutoff):
    """Multi-indices -cutoff..cutoff per axis, the last axis fastest."""
    grids = np.meshgrid(*[np.arange(-cutoff, cutoff + 1)] * dims, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def oracle_assemble(med, k, cutoff):
    """A and B built densely per call: every lag block f_hat[n - n'] gathered whole by
    ``gather_oracle`` and every term formed on the whole block, in the assembler's term order
    and with its float operations per entry, then the upper triangles mirrored.  The schrodinger
    family's B is the mirrored identity."""
    cell = med.cell
    wave = med.family != "schrodinger"
    k = np.asarray(k, dtype=float)
    basis = oracle_basis(cell.dims, cutoff)
    lags = basis[:, None, :] - basis[None, :, :]
    kg = k[None, :] + 2 * np.pi * basis / cell.diag[None, :]

    def sandwich(j, block, l):  # (k+G)_j block (k+G')_l; slot 0 gives a factor 1
        out = kg[:, None, j - 1] * block if j else block.copy()
        if l:
            out *= kg[None, :, l - 1]
        return out

    def mirror(m):
        np.copyto(m, m.conj().T, where=np.tri(len(m), k=-1, dtype=bool))
        np.fill_diagonal(m.imag, 0.0)

    nb = len(basis)
    A = np.zeros((med.n_comp * nb,) * 2, dtype=np.complex128)
    B = np.zeros(A.shape, dtype=np.complex128) if wave else np.eye(len(A), dtype=np.complex128)
    uses = {}
    for idx, f in med.C.items():
        uses.setdefault(id(f), (f, []))[1].append(idx)
    for f, entries in uses.values():
        block = gather_oracle(f, lags)
        for (i, j, kk, l) in entries:
            part = (slice(i * nb, (i + 1) * nb), slice(kk * nb, (kk + 1) * nb))
            if wave and not (j or l):
                B[part] -= block
            elif j == l or med.C.get((i, l, kk, j)) is not f:
                A[part] += sandwich(j, block, l)
            elif j < l:
                term = sandwich(j, block, l)
                term += sandwich(l, block, j)
                A[part] += term
    if not wave:
        for l, f in med.M.items():
            if l:
                A += sandwich(0, gather_oracle(FourierField(cell, f.coeffs / 1j), lags), l)
        for f in med.c.values():
            A += gather_oracle(f, lags)
        A /= (med.M[0].mean() / 1j).real
    mirror(A)
    mirror(B)
    return A, B


def oracle_solve(op, n_bands):
    """``solve_bands`` with the problem handed to ``scipy.linalg.eigh`` whole: the generalized one
    for a wave pencil, the standard one on H for the schrodinger family.  The residuals are
    ``bloch._residuals``'s."""
    B = None if op.medium.family == "schrodinger" else op.B

    def solve(op, subset):
        w, x = scipy.linalg.eigh(op.A, B, subset_by_index=subset)
        k = len(w) - (len(w) < op.size)  # the gap pair's residual is not read, unless it is a mode
        return w, x, bloch._residuals(op, op.A @ x[:, :k], w[:k], x[:, :k])[0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bloch, "_solve_pencil", solve)
        return bloch.solve_bands(op, n_bands)


# ---------------------------------------------------------------------------
# assembly

def test_constant_medium_operator_diagonal(const_medium):
    k = np.pi / 2
    op = bloch.assemble_operator(const_medium, [k], 1)
    expected = np.array([(k - 2 * np.pi) ** 2, k ** 2, (k + 2 * np.pi) ** 2])
    assert np.allclose(np.diag(op.A).real, expected, atol=1e-13)
    assert np.max(np.abs(op.A - np.diag(np.diag(op.A)))) == 0.0
    assert np.allclose(op.B, np.eye(3))


def test_two_phase_offdiagonal_entry_vs_quadrature(two_phase):
    k = 0.8
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cutoff 8 < medium cutoff 16, deliberately
        op = bloch.assemble_operator(two_phase, [k], 8)
    oracle = quadrature_wave_matrix(two_phase, k, 8)
    assert np.max(np.abs(op.A - oracle)) < 1e-10
    # spec spot value: the (n=0, n'=1) entry is k(k+2 pi) * conj(3i/pi)
    i0 = 8  # index of n = 0 in the -8..8 ordering
    assert abs(op.A[i0, i0 + 1] - k * (k + 2 * np.pi) * (-3j / np.pi)) < 1e-13


def test_hermiticity_random_media(rng):
    worst = 0.0
    for trial in range(3):
        harmonics = [((n,), 0.15 * rng.uniform(0.2, 1.0), rng.uniform(0, 2 * np.pi))
                     for n in (1, 2, 3)]
        med = medium.build_scalar_medium(medium.cosine(1.0, harmonics),
                                         medium.cosine(1.1, harmonics), Cell((1.0,)), 6)
        op = bloch.assemble_operator(med, [rng.uniform(-3, 3)], 8)
        worst = max(worst, op.hermiticity_defect())
    assert worst < 1e-12


def test_hermiticity_2d_matrix_medium():
    cell = Cell((1.0, 1.3))
    a = [[medium.cosine(2.0, [((1, 0), 0.3)]), medium.cosine(0.2, [((0, 1), 0.05)])],
         [medium.cosine(0.2, [((0, 1), 0.05)]), medium.cosine(1.5, [((1, 1), 0.2)])]]
    med = medium.build_scalar_medium(a, 1.0, cell, 3)
    op = bloch.assemble_operator(med, [0.7, -0.4], 3)
    assert op.hermiticity_defect() < 1e-12


@pytest.mark.parametrize("field_cutoffs", [(1,), (4,), (7,), (1, 1), (4, 4), (7, 7), (1, 7)])
def test_lag_block_matches_gather(field_cutoffs, rng):
    # operator cutoff 2 reaches lags up to 4: field cutoffs below, at and above it
    cutoff = 2
    cell = Cell((1.0, 1.3)[:len(field_cutoffs)])
    shape = tuple(2 * c + 1 for c in field_cutoffs)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    coeffs[field_cutoffs] = 0.0  # lag 0: an exact zero gives no entry
    f = FourierField(cell, coeffs)
    basis = oracle_basis(cell.dims, cutoff)
    dense = gather_oracle(f, basis[:, None, :] - basis[None, :, :])
    for upper in (False, True):  # all entries, or those on and above the diagonal
        want = dense * (np.triu(np.ones(dense.shape)) if upper else 1.0)
        rows, cols, values = bloch._lag_entries(f, basis, cutoff, upper)
        assert np.array_equal(np.sort(rows * len(basis) + cols), np.flatnonzero(want))
        assert np.array_equal(values, dense[rows, cols])
        assert not any(a.flags.writeable for a in (rows, cols, values))


def test_truncation_warning_recorded(two_phase):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bloch.assemble_operator(two_phase, [0.5], 8)
    assert any("cutoff" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# wave solves

def test_constant_medium_bands(const_medium):
    modes = bloch.solve_at(const_medium, [np.pi / 2], 4, 3)
    expected = [np.pi / 2, 3 * np.pi / 2, 5 * np.pi / 2]
    for mode, w in zip(modes, expected):
        assert abs(mode.omega - w) < 1e-12


def test_folding_degeneracy_at_k0(const_medium):
    modes = bloch.solve_at(const_medium, [0.0], 4, 3)
    assert abs(modes[1].omega - 2 * np.pi) < 1e-12
    assert abs(modes[2].omega - 2 * np.pi) < 1e-12
    assert modes[1].gap < 1e-12 and modes[2].gap < 1e-12
    assert not bloch.check_nondegenerate(modes[1])
    assert bloch.check_nondegenerate(modes[0])


def test_two_phase_band_gap_and_cutoff_convergence(two_phase):
    # cutoff-doubling agreement certifies convergence of the truncated-medium solve
    w96 = [m.omega for m in bloch.solve_at(two_phase, [np.pi], 96, 2)]
    w192 = [m.omega for m in bloch.solve_at(two_phase, [np.pi], 192, 2)]
    assert max(abs(a - b) for a, b in zip(w96, w192)) < 1e-8
    assert w192[1] - w192[0] > 0.5  # strict band gap at the zone edge


def test_mode_invariants(two_phase):
    op = bloch.assemble_operator(two_phase, [1.1], 16)
    modes = bloch.solve_bands(op, 3)
    for mode in modes:
        assert mode.residual < 1e-9
        # b-weighted normalization against the mass matrix of the solving pencil
        flip = np.conj(mode.v0[0][::-1])  # back to the pencil's eigenvector
        norm = np.real(np.conj(flip) @ op.B @ flip)
        assert abs(norm - 1.0) < 1e-10
        flat = mode.v0.ravel()
        imax = np.argmax(np.abs(flat))
        assert flat[imax].imag == 0.0 and flat[imax].real > 0


def test_time_reversal_symmetry(two_phase, mathieu_blocks):
    for k in (0.6, 1.9):
        wp = [m.omega for m in bloch.solve_at(two_phase, [k], 16, 3)]
        wm = [m.omega for m in bloch.solve_at(two_phase, [-k], 16, 3)]
        assert max(abs(a - b) for a, b in zip(wp, wm)) < 1e-10
        sp = [m.omega for m in bloch.solve_at(mathieu_blocks, [k], 16, 2)]
        sm = [m.omega for m in bloch.solve_at(mathieu_blocks, [-k], 16, 2)]
        assert max(abs(a - b) for a, b in zip(sp, sm)) < 1e-10


def test_stored_amplitude_solves_cell_problem(two_phase):
    # V0 is the amplitude for the carrier e^{-i(k xi - omega xi0)}: check the
    # residual of the conjugated pencil A(-k) v0 = omega^2 B v0 directly
    k = 1.1
    mode = bloch.solve_at(two_phase, [k], 16, 1)[0]
    opm = bloch.assemble_operator(two_phase, [-k], 16)
    v = mode.v0[0]
    r = opm.A @ v - mode.omega ** 2 * (opm.B @ v)
    assert np.linalg.norm(r) / np.linalg.norm(v) < 1e-9


# ---------------------------------------------------------------------------
# schrodinger solves

def test_free_particle_operator_and_bands(cell1d):
    free = medium.build_schrodinger_blocks(0.5, 1.0, 0.0, None, cell1d, 1)
    k = np.pi / 2
    op = bloch.assemble_operator(free, [k], 1)
    expected = np.array([(k - 2 * np.pi) ** 2, k ** 2, (k + 2 * np.pi) ** 2])
    assert np.allclose(np.diag(op.A).real, expected, atol=1e-13)
    assert op.medium.family == "schrodinger" and np.array_equal(op.B, np.eye(3))
    mode = bloch.solve_bands(op, 1)[0]
    assert abs(mode.omega - k ** 2) < 1e-12


def test_mathieu_bands_vs_fd_oracle(mathieu_blocks):
    k = np.pi
    oracle = mathieu_fd_oracle(k, 2)
    modes = bloch.solve_at(mathieu_blocks, [k], 16, 2)
    for mode, ref in zip(modes, oracle):
        assert abs(mode.omega - ref) / max(abs(ref), 1.0) < 1e-6


def test_constant_magnetic_gauge_equivalence(cell1d):
    # H(k; Phi) = H(k - e Phi; 0) - e^2 Phi^2 / (2m) I, exactly, including a potential
    mass, e, phi = 0.5, 1.0, 0.7
    pot = medium.cosine(0.0, [((1,), 2.0)])
    with_phi = medium.build_schrodinger_blocks(mass, e, pot, [phi], cell1d, 8)
    without = medium.build_schrodinger_blocks(mass, e, pot, None, cell1d, 8)
    k = 0.9
    H1 = bloch.assemble_operator(with_phi, [k], 8).A
    H2 = bloch.assemble_operator(without, [k - e * phi], 8).A
    shift = e ** 2 * phi ** 2 / (2 * mass)
    assert np.max(np.abs(H1 - (H2 - shift * np.eye(len(H1))))) < 1e-11
    w1 = [m.omega for m in bloch.solve_at(with_phi, [k], 8, 3)]
    w2 = [m.omega - shift for m in bloch.solve_at(without, [k - e * phi], 8, 3)]
    assert max(abs(a - b) for a, b in zip(w1, w2)) < 1e-11


def test_schrodinger_hermiticity_with_2d_magnetic():
    cell = Cell((1.0, 1.0))
    blocks = medium.build_schrodinger_blocks(1.0, 1.0, medium.cosine(0.0, [((1, 0), 1.0)]),
                                             [medium.cosine(0.0, [((0, 1), 0.4)]), 0.0],
                                             cell, 3)
    op = bloch.assemble_operator(blocks, [0.4, -0.7], 3)
    assert op.hermiticity_defect() < 1e-12


def test_schrodinger_m0_with_harmonics_refused(cell1d):
    # the Bloch operator divides by the mean of M_0 alone, while the transport integrals read the
    # whole field: a directly built medium whose M_0 varies would get its mode and its transport
    # coefficients from two different operators
    built = medium.build_schrodinger_blocks(0.5, 1.0, medium.cosine(0.0, [((1,), 2.0)]), None, cell1d, 4)
    varying = dataclasses.replace(built, M={**built.M, 0: FourierField(cell1d, [0.1j, -1j, 0.1j])},
                                  fingerprint="varying-m0")
    with pytest.raises(ValidationError, match="M_0 must be constant"):
        bloch.assemble_operator(varying, [0.5], 4)
    assert bloch.solve_at(built, [0.5], 4, 1)[0].residual <= bloch.RESIDUAL_TOL


def _schrodinger_3d(magnetic=None):
    """A 3D schrodinger medium whose default magnetic potential is divergence free: each component
    is constant along its own axis."""
    if magnetic is None:
        magnetic = [medium.cosine(0.0, [((0, 1, 0), 0.3)]), medium.cosine(0.0, [((0, 0, 1), 0.2, 0.5)]),
                    medium.cosine(0.1, [((1, 0, 0), 0.25)])]
    potential = medium.cosine(0.5, [((1, 0, 0), 0.4), ((0, 1, 1), 0.3, 1.0)])
    return medium.build_schrodinger_blocks(0.8, 1.0, potential, magnetic, Cell((1.0, 1.0, 1.0)), 1)


_K3 = [0.4, -0.7, 0.9]


def test_schrodinger_3d_small_basis_is_zheevr():
    # 125 plane waves: below the Lanczos threshold, one ZHEEVR call with eigh's bits
    op = bloch.assemble_operator(_schrodinger_3d(), _K3, 2)
    assert op.size == 125 < bloch.LANCZOS_MIN_SIZE and op.hermiticity_defect() < 1e-12
    w, x, residuals = bloch._solve_pencil(op, [0, 2])
    want_w, want_x = scipy.linalg.eigh(op.A, subset_by_index=[0, 2])
    assert np.array_equal(w, want_w) and np.array_equal(x, want_x)
    # the residuals of all but the last pair, which only sets the spectral gap
    want_x = want_x[:, :-1]
    assert np.array_equal(residuals, bloch._residuals(op, op.A @ want_x, want_w[:-1], want_x)[0])


def test_schrodinger_3d_solves_on_the_band(monkeypatch):
    # 343 plane waves: certified on the band, no dense solve, within the gate of eigh's energies
    op = bloch.assemble_operator(_schrodinger_3d(), _K3, 3)
    assert op.size == 343 >= bloch.LANCZOS_MIN_SIZE
    want = scipy.linalg.eigh(op.A, eigvals_only=True, subset_by_index=[0, 3])  # before the patch below
    monkeypatch.setattr(bloch.lapack, "zheevr", lambda *args, **kwargs: pytest.fail("a dense solve"))
    modes = bloch.solve_bands(op, 3)
    gate = bloch._residual_gate(op, want)
    assert all(abs(mode.omega - w) <= gate and mode.residual <= gate for mode, w in zip(modes, want))


def test_schrodinger_3d_transport_matches_fd():
    med = _schrodinger_3d()
    co = effective.effective_coefficients(bloch.solve_at(med, _K3, 3, 1)[0])
    assert np.max(np.abs(co.v - bands.group_velocity_fd(med, _K3, 1, 3))) < 1e-6


def test_schrodinger_3d_divergent_magnetic_refused():
    with pytest.raises(ValidationError, match="divergence free"):
        _schrodinger_3d([medium.cosine(0.0, [((1, 0, 0), 0.3)]), 0.0, 0.0])


# ---------------------------------------------------------------------------
# vector solves

@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_vector_3d_transport_matches_fd(data):
    # 3D elastic-type media solve like every other medium: at cutoff 1 (81 plane waves) one ZHEGVX
    # call with eigh's bits; at cutoff 2 (375) every solve, the FD stencil's included, certified on
    # the band, and effective's v within 1e-6 of the FD group velocity
    med = random_elastic_3d(data.draw)
    k = [data.draw(st.floats(0.3, 2.8) | st.floats(-2.8, -0.3)) for _ in range(3)]
    op = bloch.assemble_operator(med, k, 1)
    w, x, _ = bloch._solve_pencil(op, [0, 2])
    want_w, want_x = scipy.linalg.eigh(op.A, op.B, subset_by_index=[0, 2])
    assert op.size == 81 and np.array_equal(w, want_w) and np.array_equal(x, want_x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bloch.lapack, "zhegvx", lambda *args, **kwargs: pytest.fail("a dense solve"))
        co = effective.effective_coefficients(bloch.solve_at(med, k, 2, 1)[0])
        v_fd = bands.group_velocity_fd(med, k, 1, 2)
    assert np.max(np.abs(co.v - v_fd)) < 1e-6


def test_vector_decoupled_equals_scalar(const_medium, cell1d):
    a_terms = {(0, 0, 0, 0): 1.0, (1, 0, 1, 0): 1.0}
    vmed = medium.build_vector_medium(2, a_terms, 1.0, cell1d, 1)
    k = np.pi / 2
    vop = bloch.assemble_operator(vmed, [k], 1)
    sop = bloch.assemble_operator(const_medium, [k], 1)
    nb = len(sop.basis)
    assert np.allclose(vop.A[:nb, :nb], sop.A)
    assert np.allclose(vop.A[nb:, nb:], sop.A)
    assert np.max(np.abs(vop.A[:nb, nb:])) == 0.0
    modes = bloch.solve_bands(vop, 2)
    assert abs(modes[0].omega - k) < 1e-12 and abs(modes[1].omega - k) < 1e-12


def test_vector_asymmetric_b_rejected(cell1d):
    a_terms = {(0, 0, 0, 0): 1.0, (1, 0, 1, 0): 1.0}
    with pytest.raises(ValidationError, match="symmetric"):
        medium.build_vector_medium(2, a_terms, [[1.0, 0.3], [0.1, 1.0]], cell1d, 1)


def test_vector_hermiticity(vector_medium):
    op = bloch.assemble_operator(vector_medium, [0.9], 8)
    assert op.hermiticity_defect() < 1e-12


def test_vector_3d_assembly_allowed_solve_refused():
    # a 3D vector pencil built past the Gram check straight from maxwell_tensor_from_permeability,
    # which returns minus the curl-curl stiffness: assembly builds no band parts, and the solve,
    # like any other medium's, finds the negative eigenvalues of -curl curl (near -1.2e2 at
    # cutoff 1) and refuses them.  The curl-curl form needs a grad-div penalty to solve
    cell = Cell((1.0, 1.0, 1.0))
    tensor = medium.maxwell_tensor_from_permeability(1.0, cell, 1)
    C = {(i, 0, i, 0): FourierField.constant(cell, -1.0) for i in range(3)}  # b = I
    C.update({(i, j + 1, k, l + 1): f for (i, j, k, l), f in tensor.items()})
    vmed = medium.Medium("vector-wave", cell, 1, 3, C, fingerprint="maxwell-demo")
    op = bloch.assemble_operator(vmed, [0.2, 0.1, 0.0], 1)
    assert op.hermiticity_defect() < 1e-12
    assert "band" not in vars(op.parts)  # assembly alone: B is never factored
    with pytest.raises(NumericalError, match=r"eigenvalue -1\.2\d*e\+02 .*ellipticity violated"):
        bloch.solve_bands(op, 2)


def test_nan_residual_raises(const_medium, monkeypatch):
    # the wave path's dense eigensolve is one ZHEGVX call
    op = bloch.assemble_operator(const_medium, [0.5], 2)
    evals = np.zeros(op.size)
    evals[:2] = np.linalg.eigvalsh(op.A)[:2]
    nan_vectors = np.full((op.size, 2), np.nan + 0j, order="F")
    monkeypatch.setattr(bloch.lapack, "zhegvx",
                        lambda *args, **kwargs: (evals, nan_vectors, 2, np.zeros(op.size, int), 0))
    with pytest.raises(NumericalError, match="residual"):
        bloch.solve_bands(op, 1)


def test_nan_residual_raises_schrodinger(mathieu_blocks, monkeypatch):
    # the schrodinger family's eigensolve is one ZHEEVR call
    op = bloch.assemble_operator(mathieu_blocks, [0.5], 16)
    evals = np.linalg.eigvalsh(op.A)[:2]
    nan_vectors = np.full((op.size, 2), np.nan + 0j)
    monkeypatch.setattr(bloch.lapack, "zheevr",
                        lambda *args, **kwargs: (evals, nan_vectors, 2, np.zeros(4, np.int32), 0))
    with pytest.raises(NumericalError, match="residual"):
        bloch.solve_bands(op, 1)


def test_indefinite_b_raises(cell1d, tmp_path, monkeypatch):
    # built directly, so build_scalar_medium's positivity check never runs; B = -I
    one = FourierField.constant(cell1d, 1.0)
    neg = medium.Medium("scalar-wave", cell1d, 1, 1, {(0, 0, 0, 0): one, (0, 1, 0, 1): one},
                        fingerprint="negative-b")  # C_0000 = -b = 1
    with pytest.raises(NumericalError, match=r"^B is not positive definite \(leading minor 1\)$"):
        bloch.solve_at(neg, [0.5], 2, 1)
    config = tmp_path / "medium.json"
    config.write_text('{"cell": [1.0], "kind": "scalar", "cutoff": 1, "a": 1.0, "b": 1.0}')
    monkeypatch.setattr(medium, "medium_from_descriptor", lambda desc: neg)
    assert cli.main(["groupvel", "--config", str(config), "--k", "0.5", "--band", "1",
                     "--cutoff", "2", "--out", str(tmp_path / "gv.csv")]) == 2
    assert not (tmp_path / "gv.csv").exists()


def test_indefinite_b_is_checked_by_the_first_dense_solve(cell1d, monkeypatch):
    # a pencil below the Lanczos threshold assembles without factoring B; its first solve builds the
    # band parts, whose Cholesky of B raises before ZHEGVX runs.  Were that check to pass B,
    # ZHEGVX's own Cholesky would raise the same error
    one = FourierField.constant(cell1d, 1.0)
    neg = medium.Medium("scalar-wave", cell1d, 1, 1, {(0, 0, 0, 0): one, (0, 1, 0, 1): one},
                        fingerprint="negative-b")  # C_0000 = -b = 1, so B = -I
    op = bloch.assemble_operator(neg, [0.5], 2)
    assert op.size < bloch.LANCZOS_MIN_SIZE and "band" not in vars(op.parts)
    solves = []
    with monkeypatch.context() as patch:
        patch.setattr(bloch.lapack, "zhegvx", lambda *args, **kwargs: solves.append(args))
        with pytest.raises(NumericalError) as exc:
            bloch._solve_pencil(op, [0, 1])
    assert str(exc.value) == str(bloch._b_indefinite(1)) and op.band.info == 1 and solves == []
    band = bloch._band
    monkeypatch.setattr(bloch, "_band", lambda *args: dataclasses.replace(band(*args), info=0))
    bloch._galerkin.cache_clear()
    with pytest.raises(NumericalError) as exc:
        bloch._solve_pencil(bloch.assemble_operator(neg, [0.5], 2), [0, 1])
    assert str(exc.value) == str(bloch._b_indefinite(1))


def test_unconverged_dense_solve_raises(const_medium, tmp_path, monkeypatch):
    # ZHEGVX's info 1..n (eigenvectors that failed to converge) is a NumericalError naming
    # cond(B), and the CLI exits 2 without writing its artifact
    def unconverged(a, b, **kwargs):
        n = len(a)
        return np.zeros(n), np.zeros((n, kwargs["iu"]), dtype=complex), 0, np.zeros(n, int), 1

    monkeypatch.setattr(bloch.lapack, "zhegvx", unconverged)
    with pytest.raises(NumericalError, match=r"1 eigenvectors failed to converge.*cond\(B\)"):
        bloch.solve_at(const_medium, [0.5], 2, 1)
    config = tmp_path / "medium.json"
    config.write_text('{"cell": [1.0], "kind": "scalar", "cutoff": 1, "a": 1.0, "b": 1.0}')
    assert cli.main(["groupvel", "--config", str(config), "--k", "0.5", "--band", "1",
                     "--cutoff", "2", "--out", str(tmp_path / "gv.csv")]) == 2
    assert not (tmp_path / "gv.csv").exists()


def test_indefinite_b_raises_on_the_band(cell1d, tmp_path, monkeypatch):
    # b = 1 + 1.6 cos 2 pi x is negative near x = 1/2.  At cutoff 64 (129 plane waves, a band of
    # half-width 1) the parts' build checks B by a band Cholesky, no dense solve runs and no dense
    # B is formed, and the solve raises what the dense path raises for the same medium
    def negative_b():
        minus_b = FourierField(cell1d, [-0.8, -1.0, -0.8])  # C_0000 = -b
        return medium.Medium("scalar-wave", cell1d, 1, 1,
                             {(0, 0, 0, 0): minus_b, (0, 1, 0, 1): FourierField.constant(cell1d, 1.0)},
                             fingerprint="negative-b-band")

    indefinite = r"^B is not positive definite \(leading minor \d+\)$"
    with monkeypatch.context() as patch:
        patch.setattr(bloch, "LANCZOS_MIN_SIZE", 1000)  # the dense path
        with pytest.raises(NumericalError, match=indefinite) as dense:
            bloch.solve_at(negative_b(), [0.5], 64, 1)
    bloch._galerkin.cache_clear()  # the spy below sees the band parts built
    factors = []

    def spy(name):
        routine = getattr(bloch.lapack, name)

        def call(*args, **kwargs):
            factors.append(name)
            return routine(*args, **kwargs)
        return call
    with monkeypatch.context() as patch:
        for name in ("zhegvx", "zpbtrf"):
            patch.setattr(bloch.lapack, name, spy(name))
        med = negative_b()
        with pytest.raises(NumericalError) as band:
            bloch.solve_at(med, [0.5], 64, 1)
    parts = bloch._galerkin(med, 64)
    assert parts.band.info and factors == ["zpbtrf"] and "B" not in vars(parts)
    assert str(band.value) == str(dense.value)
    config = tmp_path / "medium.json"
    config.write_text('{"cell": [1.0], "kind": "scalar", "cutoff": 1, "a": 1.0, "b": 1.0}')
    monkeypatch.setattr(medium, "medium_from_descriptor", lambda desc: negative_b())
    assert cli.main(["groupvel", "--config", str(config), "--k", "0.5", "--band", "1",
                     "--cutoff", "64", "--out", str(tmp_path / "gv.csv")]) == 2
    assert not (tmp_path / "gv.csv").exists()


def test_solver_guards(const_medium):
    op = bloch.assemble_operator(const_medium, [0.5], 2)
    with pytest.raises(ValidationError):
        bloch.solve_bands(op, 99)
    with pytest.raises(ValidationError):
        bloch.assemble_operator(const_medium, [0.1, 0.2], 2)  # wrong k dimension


# ---------------------------------------------------------------------------
# partial eigensolve against the full dense spectrum

_amp = st.floats(0.05, 0.3)
_phase = st.floats(0.0, 2 * np.pi)
_kcomp = st.floats(0.3, 2.8) | st.floats(-2.8, -0.3)  # away from k = 0, where omega -> 0


def _random_medium(family, draw):
    """A random medium of the family and the operator cutoff to solve it at."""
    def harmonics(*modes):
        return [(n, draw(_amp), draw(_phase)) for n in modes]

    if family == "scalar-1d":
        cell, cutoff = Cell((1.0,)), 6
        med = medium.build_scalar_medium(medium.cosine(1.0, harmonics((1,), (2,))),
                                         medium.cosine(1.2, harmonics((1,))), cell, 3)
    elif family == "scalar-2d":
        cell, cutoff = Cell((1.0, 1.3)), 2
        med = medium.build_scalar_medium(medium.cosine(2.0, harmonics((1, 0), (0, 1), (1, 1))),
                                         medium.cosine(1.5, harmonics((1, -1))), cell, 2)
    elif family == "scalar-2d-aniso":
        cell, cutoff = Cell((1.0, 1.3)), 2
        off = medium.cosine(0.3, harmonics((1, 1)))
        a = [[medium.cosine(2.0, harmonics((1, 0))), off], [off, medium.cosine(1.5, harmonics((0, 1)))]]
        med = medium.build_scalar_medium(a, medium.cosine(1.2, harmonics((1, -1))), cell, 2)
    elif family == "vector-2d":
        cell, cutoff = Cell((1.0, 1.0)), 2
        a_terms = {(i, j, i, j): medium.cosine(1.5, harmonics((1, 0), (0, 1)))
                   for i in range(2) for j in range(2)}
        a_terms[(0, 0, 1, 1)] = medium.cosine(0.2, harmonics((1, 1)))
        med = medium.build_vector_medium(2, a_terms, [[1.0, 0.1], [0.1, 1.0]], cell, 2)
    elif family == "schrodinger-1d":
        cell, cutoff = Cell((1.0,)), 6
        med = medium.build_schrodinger_blocks(0.5, 1.0, medium.cosine(0.0, harmonics((1,), (2,))),
                                              None, cell, 3)
    else:  # schrodinger-2d, with a divergence-free magnetic potential; -mean: potentials of nonzero
        # mean; -magnetic: both magnetic components vary, so two first-order terms join A
        cell, cutoff = Cell((1.0, 1.0)), 2
        mean = draw(st.floats(0.2, 0.8)) if family.endswith("-mean") else 0.0
        second = medium.cosine(0.1, harmonics((1, 0))) if family.endswith("-magnetic") else 0.0
        med = medium.build_schrodinger_blocks(1.0, 1.0, medium.cosine(mean, harmonics((1, 0))),
                                              [medium.cosine(mean, harmonics((0, 1))), second],
                                              cell, 2)
    return med, cutoff


def _random_operator(family, draw):
    med, cutoff = _random_medium(family, draw)
    k = [draw(_kcomp) for _ in range(med.cell.dims)]
    return bloch.assemble_operator(med, k, cutoff)


@pytest.mark.parametrize("bands", [1, 2, "size"])
@pytest.mark.parametrize("family", ["scalar-1d", "scalar-2d", "vector-2d",
                                    "schrodinger-1d", "schrodinger-2d"])
@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(data=st.data())
def test_partial_solve_matches_full_eigh(family, bands, data):
    op = _random_operator(family, data.draw)
    n_bands = op.size if bands == "size" else bands
    full = scipy.linalg.eigh(op.A, op.B, eigvals_only=True)  # the dense oracle
    ref = full if op.medium.family == "schrodinger" else np.sqrt(np.clip(full, 0.0, None))
    modes = bloch.solve_bands(op, n_bands)
    assert len(modes) == n_bands
    rho = bloch._spectral_radius_bound(op, full[:min(n_bands, op.size - 1) + 1])
    assert rho <= np.max(np.abs(full)) * (1 + 1e-12)  # so the gate is never looser
    gate = max(bloch.RESIDUAL_TOL, 1e-13 * rho)
    for idx, mode in enumerate(modes):
        scale = max(abs(ref[idx]), 1.0)
        assert abs(mode.omega - ref[idx]) <= 1e-10 * scale
        others = np.abs(ref - ref[idx])
        others[idx] = np.inf
        assert abs(mode.gap - others.min()) <= 2e-10 * (scale + others.min())
        assert mode.residual <= gate


@pytest.mark.parametrize("family", ["schrodinger-1d", "schrodinger-2d-magnetic"])
@settings(derandomize=True, database=None, deadline=None, max_examples=5)
@given(data=st.data())
def test_schrodinger_zheevr_is_eighs_bits(family, data):
    # the schrodinger solve is one direct ZHEEVR call: scipy.linalg.eigh's solve, bit for bit,
    # for every subset [0, hi]
    op = _random_operator(family, data.draw)
    for hi in range(op.size):
        w, x, residuals = bloch._solve_pencil(op, [0, hi])
        want_w, want_x = scipy.linalg.eigh(op.A, subset_by_index=[0, hi])
        assert np.array_equal(w, want_w) and np.array_equal(x, want_x)
        k = hi + (hi + 1 == op.size)  # all but the gap pair, or all when every pair is asked for
        want_x = want_x[:, :k]
        assert np.array_equal(residuals, bloch._residuals(op, op.A @ want_x, want_w[:k], want_x)[0])


def test_zheevr_failure_raises(mathieu_blocks, monkeypatch):
    # a nonzero ZHEEVR info is a NumericalError, without the wave family's cond(B)
    op = bloch.assemble_operator(mathieu_blocks, [0.5], 16)
    monkeypatch.setattr(bloch.lapack, "zheevr", lambda a, **kwargs: (
        np.zeros(len(a)), np.zeros((len(a), kwargs["iu"]), complex), 0, np.zeros(4, np.int32), 3))
    with pytest.raises(NumericalError, match=r"^eigensolver failed: ZHEEVR failed \(info 3\)\.$"):
        bloch.solve_bands(op, 1)


def test_operators_and_modes_compare_by_identity(two_phase):
    # their fields are arrays, so == answers by identity instead of raising
    ops = [bloch.assemble_operator(two_phase, [0.7], 16) for _ in range(2)]
    modes = [bloch.solve_bands(op, 1)[0] for op in ops]
    for x, y in (ops, modes):
        assert (x == y) is False and (x != y) is True
        assert (x == x) is True


# ---------------------------------------------------------------------------
# cached Galerkin parts against the per-k assembly and the whole-pencil eigh

def _outcome(fn):
    try:
        return fn()
    except NumericalError as exc:
        return exc


@pytest.mark.parametrize("bands", [1, 3, "size"])
@pytest.mark.parametrize("family", ["scalar-1d", "scalar-2d", "scalar-2d-aniso", "vector-2d",
                                    "schrodinger-1d", "schrodinger-2d", "schrodinger-2d-mean",
                                    "schrodinger-2d-magnetic"])
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_cached_parts_bit_identical(family, bands, data):
    med, cutoff = _random_medium(family, data.draw)
    ks = [[data.draw(st.just(0.0) | st.floats(-3.0, 3.0)) for _ in range(med.cell.dims)]
          for _ in range(2)]
    bloch._galerkin.cache_clear()  # an example may draw an earlier example's medium
    for first, k in zip([True, False, False], ks + [[0.0] * med.cell.dims]):  # k = 0 included
        op = bloch.assemble_operator(med, k, cutoff)
        A, B = oracle_assemble(med, k, cutoff)
        assert op.A.tobytes() == A.tobytes()
        # these pencils take the dense path, and the build forms neither band parts nor dense B
        assert op.size < bloch.LANCZOS_MIN_SIZE
        assert not first or not {"band", "B"} & set(vars(op.parts))
        n_bands = op.size if bands == "size" else bands
        # solve_bands on the operator, and solve_at on an operator of its own
        solved = [_outcome(lambda: bloch.solve_bands(op, n_bands)),
                  _outcome(lambda: bloch.solve_at(med, k, cutoff, n_bands))]
        # the first solve built the band parts, and formed dense B for ZHEGVX alone (a schrodinger
        # solve forms none): bit for bit the mirrored dense B, signed zeros included
        assert not first or ("band" in vars(op.parts)
                             and ("B" in vars(op.parts)) == (med.family != "schrodinger"))
        assert op.B.tobytes() == B.tobytes()
        want = _outcome(lambda: oracle_solve(op, n_bands))  # its A and B are the oracle's, checked above
        for got in solved:
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
                continue
            assert len(got) == len(want) == n_bands
            for m1, m2 in zip(got, want):
                assert m1.omega == m2.omega and m1.gap == m2.gap and m1.residual == m2.residual
                assert np.array_equal(m1.v0, m2.v0)
        assert op.A.tobytes() == A.tobytes()


def test_cutoff_switch_rebuilds_same_bits():
    med = checks._two_phase_medium(3)
    first = bloch.assemble_operator(med, [0.7], 4)
    modes = bloch.solve_bands(first, 2)
    bloch.assemble_operator(med, [0.7], 9)
    again = bloch.assemble_operator(med, [0.7], 4)
    assert again.parts is not first.parts and again.B is not first.B  # the parts were rebuilt
    for x, y in [(first.A, again.A), (first.B, again.B)]:
        assert np.array_equal(x, y)
    for m1, m2 in zip(modes, bloch.solve_bands(again, 2)):
        assert m1.omega == m2.omega and np.array_equal(m1.v0, m2.v0)
    assert bloch._galerkin(med, 4) is again.parts  # the last pair asked for is kept


def _arrays(obj):
    """Every array held in ``obj``: the Galerkin parts, their band parts and their tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, bloch._Galerkin, bloch._Band)):
        for item in (obj if isinstance(obj, tuple) else vars(obj).values()):
            yield from _arrays(item)


def test_cached_parts_read_only(vector_medium, cell1d, monkeypatch):
    blocks = medium.build_schrodinger_blocks(0.5, 1.0, medium.cosine(0.0, [((1,), 2.0)]), [0.7],
                                             cell1d, 4)
    certified = []
    certify = bloch._certified

    def spy(*args):
        certified.append(certify(*args))
        return certified[-1]
    monkeypatch.setattr(bloch, "_certified", spy)
    # the last pencil, 129 plane waves with a band of half-width 16, takes the Lanczos path
    for med, cutoff in ((vector_medium, 8), (blocks, 8), (checks._two_phase_medium(16), 64)):
        op = bloch.assemble_operator(med, [0.3], cutoff)
        cache = bloch._galerkin(med, cutoff)
        assert op.parts is cache and op.basis is cache.basis
        # the build forms neither band parts nor dense B, and no operator owns a dense A yet
        assert "band" not in vars(cache) and "B" not in vars(cache) and "A" not in vars(op)
        assert op.band is cache.band
        if cutoff == 64:
            # a certified band solve forms neither dense A nor dense B
            bloch.solve_bands(op, 2)
            assert certified and certified[-1] is not None
            assert "A" not in vars(op) and "B" not in vars(cache)
        # a dense solve (5 bands ask for more pairs than Lanczos takes) forms B for a wave pencil
        bloch.solve_bands(op, 5)
        assert ("B" in vars(cache)) == (med.family != "schrodinger")
        held = list(_arrays(cache))
        assert len(held) >= 10 and not any(a.flags.writeable for a in held)
        n = op.size
        assert op.A.shape == (n, n) and op.A.flags.c_contiguous and not op.A.flags.writeable
        assert not op.values.flags.writeable and op.values.shape == cache.upper.shape
        if cutoff == 64:
            kd = cache.band.kd
            assert kd == 16
            # B in its own band: b = 1 makes B the identity, a band of half-width 0
            rows, cols = np.nonzero(cache.B)
            kd_B = int(np.max(rows - cols))
            assert kd_B == 0 and cache.band.B.shape == (kd_B + 1, n)
            # bit for bit the band of the mirrored dense B, signed zeros included
            d, r = np.indices((kd_B + 1, n))
            old = np.where(d + r < n, cache.B[np.minimum(d + r, n - 1), r], 0.0)
            assert cache.band.B.tobytes(order="F") == np.asfortranarray(old).tobytes(order="F")
            assert cache.band.B_factor.tobytes() == scipy.linalg.lapack.zpbtrf(old, lower=1)[0].tobytes()
            # each operator has a band work array of its own
            other = bloch.assemble_operator(med, [0.3], cutoff)
            for work in (op._band_work, other._band_work):
                assert work.shape == (kd + 1, n) and work.flags.f_contiguous and work.flags.writeable
            assert not np.shares_memory(op._band_work, other._band_work)
    for name in ("A", "B"):
        with pytest.raises(ValueError):
            getattr(bloch.assemble_operator(vector_medium, [0.3], 8), name)[0, 0] = 2.0


def test_assembled_operator_keeps_its_A(two_phase, vector_medium, mathieu_blocks):
    # each operator owns its A: later solves and assemblies on the medium leave it as it was
    for med, cutoff in ((two_phase, 16), (vector_medium, 8), (mathieu_blocks, 16)):
        op = bloch.assemble_operator(med, [0.4], cutoff)
        kept = op.A.copy()
        bloch.solve_at(med, [1.3], cutoff, 2)
        later = bloch.assemble_operator(med, [-0.9], cutoff)
        bloch.solve_bands(later, 2)
        bloch.solve_bands(op, 2)
        assert np.array_equal(op.A, kept) and not np.array_equal(later.A, kept)
        assert not np.shares_memory(op.A, later.A)


@pytest.mark.parametrize("case", ["band-2d", "dense-1d"])
def test_two_threads_solve_one_medium(case, two_phase):
    # solves are reentrant: two threads solving on one medium object at once get the modes a
    # sequential run gets, bit for bit, on a band pencil (2D, 289 plane waves) and a dense one
    if case == "band-2d":
        med = medium.build_scalar_medium(medium.cosine(2.0, [((1, 0), 0.3, 0.4), ((1, 1), 0.2, 1.1)]),
                                         medium.cosine(1.5, [((0, 1), 0.25, 2.0)]), Cell((1.0, 1.2)), 2)
        cutoff, ks = 8, [(0.7 + 0.1 * i, -0.4 + 0.05 * i) for i in range(8)]
    else:
        med, cutoff, ks = two_phase, 16, [(0.3 + 0.2 * i,) for i in range(16)]
    want = [bloch.solve_at(med, k, cutoff, 2) for k in ks]
    assert (bloch._galerkin(med, cutoff).n >= bloch.LANCZOS_MIN_SIZE) == (case == "band-2d")
    bloch._galerkin.cache_clear()  # both threads start without parts
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the Python parts of a solve too
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda k: bloch.solve_at(med, k, cutoff, 2), ks, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for modes, ref in zip(got, want):
        for m1, m2 in zip(modes, ref, strict=True):
            assert m1.omega == m2.omega and m1.gap == m2.gap and m1.residual == m2.residual
            assert np.array_equal(m1.v0, m2.v0)


def test_operator_and_modes_hold_their_medium(two_phase, vector_medium, mathieu_blocks):
    # bench/tracing.py keys every traced solve by op.medium_key, k, cutoff and size
    for med, cutoff in ((two_phase, 16), (vector_medium, 8), (mathieu_blocks, 16)):
        op = bloch.assemble_operator(med, [0.4], cutoff)
        assert op.medium is med and op.medium_key == med.fingerprint
        assert all(mode.medium is med for mode in bloch.solve_bands(op, 2))
        assert all(mode.medium is med for mode in bloch.solve_at(med, [1.3], cutoff, 2))


def test_pickled_mode_leaves_the_solver_cache_out():
    cell = Cell((1.0, 1.2))
    med = medium.build_scalar_medium(medium.cosine(2.0, [((1, 0), 0.3, 0.4), ((1, 1), 0.2, 1.1)]),
                                     medium.cosine(1.5, [((0, 1), 0.25, 2.0)]), cell, 2)
    k = [0.7, -0.4]
    modes = bloch.solve_at(med, k, 8, 2)
    assert modes[0].v0.size == 289 and "band" in vars(bloch._galerkin(med, 8))
    fields = {id(f): f for f in (*med.C.values(), *med.M.values(), *med.c.values())}
    tables = sum(f.coeffs.nbytes for f in fields.values())
    blob = pickle.dumps(modes[0])
    assert len(blob) <= 2 * (modes[0].v0.nbytes + tables)
    again = pickle.loads(blob)
    # a medium holds its fields only: the parts live in the solver's cache, not in the medium
    names = {f.name for f in dataclasses.fields(medium.Medium)}
    assert set(vars(med)) == set(vars(again.medium)) == names
    assert again.medium == med
    for m1, m2 in zip(modes, bloch.solve_at(again.medium, k, 8, 2)):
        assert m1.omega == m2.omega and m1.gap == m2.gap and m1.residual == m2.residual
        assert np.array_equal(m1.v0, m2.v0)
