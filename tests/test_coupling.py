import numpy as np
import pytest

from hfh import bloch, effective, ergodic
from hfh.errors import ValidationError
from hfh.fourier import TWO_PI, Cell, FourierField
from hfh.medium import medium_from_descriptor
from test_golden import CONFIGS


def cross_keys(report):
    return [key for key in report.averages if key[1] != key[2]]


def test_self_coupling_collapses_to_cell_integral(two_phase):
    mode = bloch.solve_at(two_phase, [np.pi / 2], 16, 1)[0]
    co = effective.effective_coefficients(mode)
    report = effective.coupling_coefficients(mode, mode, [4, 8, 16, 32])
    assert report.resonant
    assert effective.are_equivalent(mode, mode) == report.resonant
    for j in range(2):
        vals = report.averages[(j, 1, 1)]
        assert np.max(np.abs(vals - co.d[j])) < 1e-10
        assert abs(report.limits[(j, 1, 1)] - co.d[j]) < 1e-10


def test_different_bands_same_k_do_not_couple(two_phase):
    m1, m2 = bloch.solve_at(two_phase, [np.pi / 2], 16, 2)
    report = effective.coupling_coefficients(m1, m2, [4, 8, 16, 32])
    assert not report.resonant
    assert effective.are_equivalent(m1, m2) == report.resonant
    assert report.max_cross_limit() < 1e-6
    # the time-slot cross averages vanish already at finite n by b-orthogonality
    for p, l in ((1, 2), (2, 1)):
        assert np.max(np.abs(report.averages[(0, p, l)])) < 1e-12
    for key in cross_keys(report):
        assert report.slopes[key] <= -0.9


def test_opposite_k_same_band_do_not_couple(two_phase):
    ma = bloch.solve_at(two_phase, [1.0], 16, 1)[0]
    mb = bloch.solve_at(two_phase, [-1.0], 16, 1)[0]
    # time reversal makes the frequencies equal; dk*lambda/2pi = 1/pi is not an integer
    assert abs(ma.omega - mb.omega) < 1e-9
    report = effective.coupling_coefficients(ma, mb, [4, 8, 16, 32])
    assert not report.resonant
    assert report.max_cross_limit() < 1e-6
    for key in cross_keys(report):
        assert report.slopes[key] <= -0.9
    # no harmonic of a non-resonant pair sits near the lattice, so nothing drifts
    assert all(d == 0.0 for d in report.drift_rates.values())


def test_bands_one_three_do_not_couple(two_phase):
    k = 0.3 * np.pi
    modes = bloch.solve_at(two_phase, [k], 16, 3)
    report = effective.coupling_coefficients(modes[0], modes[2], [4, 8, 16, 32])
    assert not report.resonant
    assert report.max_cross_limit() < 1e-6
    for key in cross_keys(report):
        assert report.slopes[key] <= -0.9


def test_reciprocal_shift_is_equivalent(two_phase):
    # the folded solve needs basis margin beyond the medium content to land
    # within the 1e-9 equivalence tolerance
    base = bloch.solve_at(two_phase, [np.pi / 2], 96, 1)[0]
    shifted = bloch.solve_at(two_phase, [np.pi / 2 + 2 * np.pi], 96, 1)[0]
    assert effective.are_equivalent(base, shifted)
    report = effective.coupling_coefficients(base, shifted, [4, 8])
    assert report.resonant
    assert effective.are_equivalent(base, shifted) == report.resonant


def test_equivalence_predicate_cases(two_phase):
    m1 = bloch.solve_at(two_phase, [np.pi / 2], 16, 1)[0]
    assert effective.are_equivalent(m1, m1)
    # equal omega but dk = pi: (k - m) lambda / 2pi = 1/2, not an integer
    m2 = bloch.solve_at(two_phase, [-np.pi / 2], 16, 1)[0]
    assert abs(m1.omega - m2.omega) < 1e-9
    assert not effective.are_equivalent(m1, m2)


def test_modes_from_different_media_rejected(two_phase, const_medium):
    m1 = bloch.solve_at(two_phase, [0.9], 16, 1)[0]
    m2 = bloch.solve_at(const_medium, [0.9], 4, 1)[0]
    with pytest.raises(ValidationError, match="different media"):
        effective.coupling_coefficients(m1, m2, [4, 8])
    with pytest.raises(ValidationError, match="different media"):
        effective.are_equivalent(m1, m2)


def test_time_window_default_and_override(two_phase):
    m1, m2 = bloch.solve_at(two_phase, [np.pi / 2], 16, 2)
    default = effective.coupling_coefficients(m1, m2, [4, 8])
    assert abs(default.time_window - 2 * np.pi / m2.omega) < 1e-12
    custom = effective.coupling_coefficients(m1, m2, [4, 8], time_window=1.0)
    assert custom.time_window == 1.0


def test_resonant_pair_meets_the_kernel_bound():
    # band 1 at k and at k + (2 pi, 0): omega agrees to ~1e-13, so each cross average drifts
    # linearly in n; the kernel's C / (n a) + D n A bounds every entry, a and A the shortest
    # and longest sides of Q_1 = [0, T0] x cell
    med = medium_from_descriptor(CONFIGS["resonant2d"])
    k = np.array([0.9, 0.4])
    modes = (bloch.solve_at(med, k, 6, 1)[0], bloch.solve_at(med, k + [TWO_PI, 0.0], 6, 1)[0])
    counts = list(range(2, 65, 2))
    report = effective.coupling_coefficients(*modes, counts)
    assert report.resonant
    ns = np.asarray(counts, dtype=float)
    sides = np.r_[report.time_window, med.cell.diag]
    spacetime = Cell((TWO_PI,) + med.cell.lengths)
    pairs = [(p, l) for p in (0, 1) for l in (0, 1)]
    for (p, l), g_fields in zip(pairs, effective._transport(modes, pairs)):
        lam = np.r_[modes[l].omega - modes[p].omega, modes[p].k - modes[l].k]
        for j, G in enumerate(g_fields):
            key = (j, p + 1, l + 1)
            res = ergodic.avg_modulated_dd(FourierField(spacetime, G.coeffs[np.newaxis]), lam,
                                           ns[:, np.newaxis] * sides)
            assert report.drift_rates[key] == res.drift_rate
            assert (report.drift_rates[key] > 0) == (p != l)
            err = np.abs(report.averages[key] - report.limits[key])
            bound = res.decay_constant / (ns * sides.min()) + res.drift_rate * ns * sides.max()
            assert np.all(err <= bound + 1e-13), key


def test_couple_on_a_3d_cell_uses_a_4_axis_spacetime_cell():
    # the spacetime cell of a 3D medium has 4 axes, which a spatial Cell refuses
    med = medium_from_descriptor({"cell": [1.0, 1.0, 1.0], "kind": "scalar", "cutoff": 1,
                                  "a": {"type": "cosine", "mean": 2.0,
                                        "harmonics": [{"n": [1, 0, 0], "amp": 0.3}]},
                                  "b": 1.0})
    with pytest.raises(ValidationError):
        Cell((TWO_PI, 1.0, 1.0, 1.0))
    m1, m2 = bloch.solve_at(med, [0.3, 0.2, 0.1], 1, 2)
    report = effective.coupling_coefficients(m1, m2, [2, 4])
    assert not report.resonant
    co = effective.effective_coefficients(m1)
    for j in range(4):
        assert np.max(np.abs(report.averages[(j, 1, 1)] - co.d[j])) < 1e-10
