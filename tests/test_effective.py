import dataclasses

import numpy as np
import pytest

from hfh import bands, bloch, effective, medium
from hfh.errors import NumericalError, ValidationError
from hfh.fourier import Cell
from test_golden import CONFIGS


def test_spacetime_matrix_scalar_blocks(two_phase):
    C = two_phase.C
    cell = two_phase.cell
    assert np.array_equal(C[(0, 0, 0, 0)].coeffs, -medium.build_field(1.0, cell, 16).coeffs)  # -b
    a = medium.build_field(medium.piecewise([0.0, 0.5], [1.0, 4.0]), cell, 16)
    assert np.array_equal(C[(0, 1, 0, 1)].coeffs, a.coeffs)  # a's own Fourier data
    assert (0, 0, 0, 1) not in C and (0, 1, 0, 0) not in C  # no mixed time-space entry


def test_spacetime_matrix_vector_blocks(vector_medium):
    C = vector_medium.C
    assert C[(0, 0, 0, 0)].mean() == -1.0  # -b_11
    assert C[(0, 0, 1, 0)].mean() == -0.15
    assert not any((j == 0) != (l == 0) for (_, j, _, l) in C)  # no mixed slot
    assert C[(0, 1, 1, 1)] is C[(1, 1, 0, 1)]  # a_0010 = a_1000: one shared field
    assert C[(0, 1, 1, 1)].mean() == 0.25


def test_medium_symbol(mathieu_blocks):
    assert mathieu_blocks.M[0].mean() == -1j
    assert mathieu_blocks.c[(0, 0)].coeff((1,)) == -1.0  # -e V_hat with V = 2 cos(2 pi x), e = 1


def test_constant_medium_coefficients_closed_form(const_medium):
    k = np.pi / 2
    mode = bloch.solve_at(const_medium, [k], 4, 1)[0]
    co = effective.effective_coefficients(mode)
    assert abs(co.d[0] - (-2j * k)) < 1e-12  # omega = k
    assert abs(co.d[1] - (-2j * k)) < 1e-12
    assert abs(co.v[0] - 1.0) < 1e-12


@pytest.mark.parametrize("kfrac", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("band", [1, 2])
def test_identity_scalar_two_phase(two_phase, kfrac, band):
    k = kfrac * np.pi
    mode = bloch.solve_at(two_phase, [k], 16, band)[band - 1]
    co = effective.effective_coefficients(mode)
    v_fd = bands.group_velocity_fd(two_phase, [k], band, 16)
    assert abs(co.v[0] - v_fd[0]) < 1e-6
    assert abs(co.d[0] + 2j * mode.omega) < 1e-9
    assert co.imag_defect < 1e-8


def test_identity_band2_negative_velocity(two_phase):
    mode = bloch.solve_at(two_phase, [np.pi / 2], 16, 2)[1]
    co = effective.effective_coefficients(mode)
    assert co.v[0] < 0


def test_identity_vector(vector_medium):
    for band in (1, 2):
        mode = bloch.solve_at(vector_medium, [np.pi / 2], 8, band)[band - 1]
        co = effective.effective_coefficients(mode)
        v_fd = bands.group_velocity_fd(vector_medium, [np.pi / 2], band, 8)
        assert abs(co.v[0] - v_fd[0]) < 1e-6
        assert abs(co.d[0] + 2j * mode.omega) < 1e-9


def test_vector_decoupled_matches_scalar(cell1d, const_medium):
    # two identical decoupled copies double every eigenvalue, so the solve
    # path rightly refuses; the block-decoupling claim is about the integrand,
    # checked on a mode populated in one component only
    a_terms = {(0, 0, 0, 0): 1.0, (1, 0, 1, 0): 1.0}
    vmed = medium.build_vector_medium(2, a_terms, 1.0, cell1d, 1)
    smode = bloch.solve_at(const_medium, [0.9], 4, 1)[0]
    stacked = np.stack([smode.v0[0], np.zeros_like(smode.v0[0])])
    vmode = dataclasses.replace(smode, medium=vmed, v0=stacked)
    vco = effective.effective_coefficients(vmode)
    sco = effective.effective_coefficients(smode)
    assert abs(vco.v[0] - sco.v[0]) < 1e-10
    assert abs(vco.d[0] - sco.d[0]) < 1e-10
    assert abs(vco.d[1] - sco.d[1]) < 1e-10


def test_family_is_only_a_label():
    # the anisotropic 2D golden medium rebuilt as a 1-component vector medium has the same
    # symbol, so its operator, modes and transport coefficients are the same bits
    config = CONFIGS["scalar2d"]
    scalar = medium.medium_from_descriptor(config)
    entries = config["a"]["entries"]
    a_terms = {(0, j, 0, l): spec for j, row in enumerate(entries) for l, spec in enumerate(row)}
    vector = medium.build_vector_medium(1, a_terms, config["b"], scalar.cell, scalar.cutoff)
    assert (scalar.family, vector.family) == ("scalar-wave", "vector-wave")
    k = [0.9, 0.4]
    ops = [bloch.assemble_operator(med, k, 3) for med in (scalar, vector)]
    assert np.array_equal(ops[0].A, ops[1].A) and np.array_equal(ops[0].B, ops[1].B)
    modes = [bloch.solve_bands(op, 2) for op in ops]
    for s_mode, v_mode in zip(*modes):
        assert s_mode.omega == v_mode.omega
        assert np.array_equal(s_mode.v0, v_mode.v0)
    d = [effective.effective_coefficients(m[0]).d for m in modes]
    assert np.array_equal(d[0], d[1])


def test_identity_schrodinger_free_and_mathieu(cell1d, mathieu_blocks):
    free = medium.build_schrodinger_blocks(0.5, 1.0, 0.0, None, cell1d, 1)
    mode = bloch.solve_at(free, [np.pi / 2], 4, 1)[0]
    co = effective.effective_coefficients(mode)
    assert abs(co.v[0] - np.pi) < 1e-8  # d(k^2)/dk at k = pi/2
    assert abs(co.d[0] + 1j) < 1e-12

    mmode = bloch.solve_at(mathieu_blocks, [np.pi / 2], 16, 1)[0]
    mco = effective.effective_coefficients(mmode)
    v_fd = bands.group_velocity_fd(mathieu_blocks, [np.pi / 2], 1, 16)
    assert abs(mco.v[0] - v_fd[0]) < 1e-6


def test_schrodinger_band_edge_near_zero_slope(mathieu_blocks):
    mode = bloch.solve_at(mathieu_blocks, [np.pi], 16, 1)[0]
    assert bloch.check_nondegenerate(mode)  # the potential opens a gap at the edge
    co = effective.effective_coefficients(mode)
    assert abs(co.v[0]) < 1e-6


def test_identity_2d_scalar():
    cell = Cell((1.0, 1.2))
    a = medium.cosine(1.5, [((1, 0), 0.3), ((0, 1), 0.2), ((1, 1), 0.1)])
    b = medium.cosine(1.0, [((1, 0), 0.2)])
    med = medium.build_scalar_medium(a, b, cell, 4)
    k = np.array([0.7, 0.4])
    mode = bloch.solve_at(med, k, 4, 1)[0]
    co = effective.effective_coefficients(mode)
    v_fd = bands.group_velocity_fd(med, k, 1, 4)
    assert np.max(np.abs(co.v - v_fd)) < 1e-6
    assert abs(co.d[0] + 2j * mode.omega) < 1e-9


def test_phase_convention_invariance(two_phase, rng):
    mode = bloch.solve_at(two_phase, [np.pi / 2], 16, 1)[0]
    base = effective.effective_coefficients(mode)
    ratios = base.d[1:] / base.d[0]
    for _ in range(20):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        co = effective.effective_coefficients(dataclasses.replace(mode, v0=mode.v0 * phase))
        assert np.max(np.abs(co.d[1:] / co.d[0] - ratios)) < 1e-12


def test_degenerate_mode_refused(const_medium):
    mode = bloch.solve_at(const_medium, [0.0], 4, 2)[1]
    with pytest.raises(ValidationError, match="degenerate"):
        effective.effective_coefficients(mode)


def test_near_zero_omega_refused(const_medium):
    mode = bloch.solve_at(const_medium, [1e-10], 4, 1)[0]
    with pytest.raises(ValidationError, match="omega"):
        effective.effective_coefficients(mode)


def test_packet_speed(const_medium, two_phase):
    mode = bloch.solve_at(const_medium, [np.pi / 2], 4, 1)[0]
    co = effective.effective_coefficients(mode)
    assert abs(co.packet_speed - 1.0) < 1e-12

    mode2 = bloch.solve_at(two_phase, [np.pi / 2], 16, 2)[1]
    co2 = effective.effective_coefficients(mode2)
    assert co2.packet_speed == co2.v[0] < 0  # signed in 1D

    cell = Cell((1.0, 1.2))
    med = medium.build_scalar_medium(medium.cosine(1.5, [((1, 0), 0.3), ((0, 1), 0.2)]), 1.0, cell, 4)
    co3 = effective.effective_coefficients(bloch.solve_at(med, [0.7, 0.4], 4, 1)[0])
    assert co3.packet_speed == np.linalg.norm(co3.v) > 0  # |v| otherwise


@pytest.mark.parametrize("v", [[0.0], [-0.0], [0.0, 0.0]], ids=["1d", "1d-minus-zero", "2d"])
def test_packet_speed_zero_raises(const_medium, v):
    mode = bloch.solve_at(const_medium, [np.pi / 2], 4, 1)[0]
    co = dataclasses.replace(effective.effective_coefficients(mode), v=np.array(v))
    with pytest.raises(NumericalError, match="zero group velocity"):
        co.packet_speed
