import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from hfh import bloch, medium, simulate
from hfh.errors import ValidationError
from hfh.simulate import GaussianEnvelope, GridSpec


@pytest.fixture(scope="module")
def const_mode(const_medium):
    return bloch.solve_at(const_medium, [np.pi / 2], 4, 1)[0]


@pytest.fixture(scope="module")
def coarse_mode(two_phase_coarse):
    return bloch.solve_at(two_phase_coarse, [np.pi / 2], 16, 1)[0]


def _relative_error(rec, fit):
    return abs(fit.speed - rec.ic.group_velocity) / abs(rec.ic.group_velocity)


def test_ic_peak_matches_envelope(const_medium, const_mode):
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    ic = simulate.build_wavepacket_ic(const_mode, const_medium, 1 / 16, env, GridSpec(6.0))
    # |V0| = 1 for the constant medium, so max |u| = max h
    assert abs(np.max(np.abs(ic.u0)) - env.values(ic.x).max()) < 1e-12
    assert abs(ic.group_velocity - 1.0) < 1e-10


def test_ic_cell_average_recovers_envelope(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    eps = 1 / 16
    ic = simulate.build_wavepacket_ic(coarse_mode, two_phase_coarse, eps, env, GridSpec(6.0, 32))
    rec = simulate.SimulationRecord(ic, 0.0, 0.9, np.array([0.0]), np.array([ic.u0]),
                                    np.array([0.0]), 0.0, True)
    frames = simulate.extract_envelope(rec)
    h = env.values(frames.x)
    assert np.max(np.abs(frames.frames[0] - h)) < 0.02 * h.max()


def test_ic_validation(const_medium, const_mode):
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    with pytest.raises(ValidationError, match="epsilon"):
        simulate.build_wavepacket_ic(const_mode, const_medium, 0.5, env, GridSpec(6.0))
    with pytest.raises(ValidationError, match="points per epsilon-cell"):
        simulate.build_wavepacket_ic(const_mode, const_medium, 1 / 16, env, GridSpec(6.0, 8))
    with pytest.raises(ValidationError, match="integer number"):
        simulate.build_wavepacket_ic(const_mode, const_medium, 1 / 16, env, GridSpec(6.03))
    with pytest.raises(ValidationError, match="4 sigma"):
        simulate.build_wavepacket_ic(const_mode, const_medium, 1 / 16,
                                     GaussianEnvelope(center=1.0, sigma=0.5), GridSpec(6.0))
    for length in (np.nan, np.inf, -6.0):
        with pytest.raises(ValidationError, match="domain length"):
            simulate.build_wavepacket_ic(const_mode, const_medium, 1 / 16, env, GridSpec(length))
    for center, sigma in ((np.nan, 0.5), (3.0, np.nan), (3.0, np.inf), (3.0, 0.0)):
        with pytest.raises(ValidationError, match="envelope"):
            GaussianEnvelope(center, sigma)


def test_underresolved_grid_warns(two_phase_coarse, coarse_mode):
    # a cutoff-16 carrier needs 2 * 16 + 1 = 33 samples per epsilon-cell
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    with pytest.warns(UserWarning, match="needs 33"):
        simulate.build_wavepacket_ic(coarse_mode, two_phase_coarse, 1 / 16, env, GridSpec(6.0, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate.build_wavepacket_ic(coarse_mode, two_phase_coarse, 1 / 16, env, GridSpec(6.0, 33))


def test_carrier_periodicity_validation(const_medium):
    # k = 0.9 is not commensurate with the domain at this epsilon
    mode = bloch.solve_at(const_medium, [0.9], 4, 1)[0]
    with pytest.raises(ValidationError, match="periodic"):
        simulate.build_wavepacket_ic(mode, const_medium, 1 / 16,
                                     GaussianEnvelope(3.0, 0.5), GridSpec(6.0))


def test_plane_wave_translation_constant_medium(const_medium, const_mode):
    # exact d'Alembert translation of the Bloch plane wave at speed 1
    eps = 1 / 8
    length = 4.0
    ppc = 512
    n = int(length / eps) * ppc
    dx = length / n
    x = np.arange(n) * dx
    k, omega = float(const_mode.k[0]), const_mode.omega
    u0 = np.exp(-1j * k * x / eps)
    ut0 = 1j * omega / eps * u0
    ic = simulate.WavePacketIC(eps, const_mode, GaussianEnvelope(length / 2, 0.1), x, dx, u0, ut0, 0.0)
    period = 2 * np.pi * eps / omega
    rec = simulate.run_fdtd_1d(const_medium, ic, period, cfl=0.9, n_frames=5)
    exact = np.exp(-1j * (k * x / eps - omega * period / eps))
    assert np.max(np.abs(rec.fields[-1] - exact)) < 1e-6
    assert rec.energy_drift < 1e-6


def test_bloch_time_periodicity_two_phase(two_phase_coarse):
    # after an integer number of carrier periods the Bloch wave returns to
    # itself; the carrier is solved with extra basis margin so the eigenvector
    # truncation error sits well below the tolerance
    mode = bloch.solve_at(two_phase_coarse, [np.pi / 2], 32, 1)[0]
    eps = 1 / 8
    length = 4.0
    ppc = 128
    n = int(length / eps) * ppc
    dx = length / n
    x = np.arange(n) * dx
    k, omega = float(mode.k[0]), mode.omega
    v0 = mode.amplitude_field(0).sample_points_1d(x / eps)
    u0 = v0 * np.exp(-1j * k * x / eps)
    ut0 = 1j * omega / eps * u0
    ic = simulate.WavePacketIC(eps, mode, GaussianEnvelope(length / 2, 0.1), x, dx, u0, ut0, 0.0)
    period = 2 * np.pi * eps / omega
    rec = simulate.run_fdtd_1d(two_phase_coarse, ic, period, cfl=0.9, n_frames=5)
    assert np.max(np.abs(rec.fields[-1] - u0)) / np.max(np.abs(u0)) < 1e-3


def test_energy_conservation_and_stability_flag(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    rec, _, _ = simulate.packet_speed_experiment(two_phase_coarse, coarse_mode, 1 / 8, env,
                                                 GridSpec(8.0, 32), 2.0)
    assert rec.stable
    assert rec.energy_drift < 1e-6


def test_cfl_validation(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    ic = simulate.build_wavepacket_ic(coarse_mode, two_phase_coarse, 1 / 8, env, GridSpec(6.0, 32))
    with pytest.raises(ValidationError, match="cfl"):
        simulate.run_fdtd_1d(two_phase_coarse, ic, 1.0, cfl=1.2)
    with pytest.raises(ValidationError, match="boundary"):
        simulate.run_fdtd_1d(two_phase_coarse, ic, 50.0)
    for t_final in (0.0, np.nan):
        with pytest.raises(ValidationError, match="t_final"):
            simulate.run_fdtd_1d(two_phase_coarse, ic, t_final)
    with pytest.raises(ValidationError, match="cfl"):
        simulate.run_fdtd_1d(two_phase_coarse, ic, 1.0, cfl=np.nan)


def test_measured_speed_matches_prediction(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=2.5, sigma=0.5)
    rec, _, fit = simulate.packet_speed_experiment(two_phase_coarse, coarse_mode, 1 / 16, env,
                                                   GridSpec(12.0, 32), 4.0)
    assert _relative_error(rec, fit) < 0.02
    assert fit.residual < 0.01 * abs(fit.speed * 4.0)


def test_negative_band_measured_speed(two_phase_coarse):
    mode2 = bloch.solve_at(two_phase_coarse, [np.pi / 2], 16, 2)[1]
    env = GaussianEnvelope(center=7.0, sigma=0.5)
    rec, _, fit = simulate.packet_speed_experiment(two_phase_coarse, mode2, 1 / 16, env,
                                                   GridSpec(10.0, 32), 2.0)
    assert rec.ic.group_velocity < 0
    assert fit.speed < 0
    assert _relative_error(rec, fit) < 0.02


def test_envelope_mask_at_amplitude_node(two_phase_coarse):
    # the zone-edge standing wave has a true node in |V0|, so the mask engages
    mode = bloch.solve_at(two_phase_coarse, [np.pi], 16, 1)[0]
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    eps = 1 / 16
    ic = simulate.build_wavepacket_ic(mode, two_phase_coarse, eps, env, GridSpec(6.0, 32))
    rec = simulate.SimulationRecord(ic, 0.0, 0.9, np.array([0.0]), np.array([ic.u0]),
                                    np.array([0.0]), 0.0, True)
    frames = simulate.extract_envelope(rec)
    v0 = mode.amplitude_field(0).sample_points_1d(ic.x / eps)
    assert np.any(np.abs(v0) <= 0.1 * np.abs(v0).max())  # mask actually engaged
    assert np.all(np.isfinite(frames.frames))
    h = env.values(frames.x)
    assert np.max(np.abs(frames.frames[0] - h)) < 0.05 * h.max()


def test_extract_envelope_leaves_record_unchanged(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    ic = simulate.build_wavepacket_ic(coarse_mode, two_phase_coarse, 1 / 8, env, GridSpec(8.0, 32))
    rec = simulate.run_fdtd_1d(two_phase_coarse, ic, 0.5, cfl=0.9, n_frames=3)
    before = pickle.dumps(rec)
    frames = simulate.extract_envelope(rec)
    assert pickle.dumps(rec) == before
    assert frames.frames.shape == (3, 64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.stable = False


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_zero_or_nonfinite_initial_energy_rejected(two_phase_coarse, coarse_mode, value):
    # a zero reference energy made the drift 0/0, which the gate read as stable
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    ic = simulate.build_wavepacket_ic(coarse_mode, two_phase_coarse, 1 / 8, env, GridSpec(8.0, 32))
    blank = dataclasses.replace(ic, u0=np.full_like(ic.u0, value), ut0=np.zeros_like(ic.ut0))
    with pytest.raises(ValidationError, match="initial energy"):
        simulate.run_fdtd_1d(two_phase_coarse, blank, 0.5, cfl=0.9, n_frames=3)


def test_measure_velocity_guards(const_medium, const_mode):
    frames = simulate.EnvelopeFrames(np.array([0.0, 1.0]), np.array([0.5, 1.5]),
                                     np.ones((2, 2)), 0, 8.0)
    with pytest.raises(ValidationError, match="5 frames"):
        simulate.measure_packet_velocity(frames)


def _reference_run_fdtd_1d(med, ic, t_final, cfl=0.9, n_frames=9):
    """The original np.roll-based complex leapfrog loop, kept as an oracle."""
    a_stag, b_vals = simulate._medium_profiles(med, ic.x, ic.dx, ic.epsilon)
    c_max = np.sqrt(a_stag.max() / b_vals.min())
    dt_max = cfl * ic.dx / c_max
    n_steps = max(int(np.ceil(t_final / dt_max)), n_frames - 1)
    dt = t_final / n_steps
    frame_steps = np.unique(np.round(np.linspace(0, n_steps, n_frames)).astype(int))

    def flux_div(u):
        du = (np.roll(u, -1) - u) / ic.dx
        return (a_stag * du - np.roll(a_stag * du, 1)) / ic.dx

    def half_energy(u_old, u_new):
        ut = (u_new - u_old) / dt
        du_old = (np.roll(u_old, -1) - u_old) / ic.dx
        du_new = (np.roll(u_new, -1) - u_new) / ic.dx
        kinetic = np.sum(b_vals * np.abs(ut) ** 2)
        elastic = np.sum(a_stag * np.real(np.conj(du_new) * du_old))
        return 0.5 * ic.dx * (kinetic + elastic)

    u = ic.u0.astype(np.complex128).copy()
    u_prev = u - dt * ic.ut0 + 0.5 * dt ** 2 * flux_div(u) / b_vals

    frames = [u.copy()]
    times = [0.0]
    energies = []
    e_ref = None
    drift = 0.0
    next_frame = 1
    for step in range(1, n_steps + 1):
        u_next = 2.0 * u - u_prev + dt ** 2 * flux_div(u) / b_vals
        e = half_energy(u, u_next)
        if e_ref is None:
            e_ref = e
        drift = max(drift, abs(e - e_ref) / abs(e_ref))
        u_prev, u = u, u_next
        if next_frame < len(frame_steps) and step == frame_steps[next_frame]:
            frames.append(u.copy())
            times.append(step * dt)
            energies.append(e)
            next_frame += 1
    energies.insert(0, e_ref)

    return simulate.SimulationRecord(ic, dt, cfl, np.asarray(times), np.asarray(frames),
                                     np.asarray(energies), float(drift),
                                     drift <= simulate.ENERGY_DRIFT_LIMIT)


@pytest.fixture(scope="module")
def random_three_phase(cell1d):
    rng = np.random.default_rng(2016)
    breaks = [0.0] + sorted(rng.uniform(0.1, 0.9, size=2).tolist())
    return medium.build_scalar_medium(medium.piecewise(breaks, rng.uniform(1.0, 4.0, 3)),
                                      medium.piecewise(breaks, rng.uniform(1.0, 2.0, 3)),
                                      cell1d, 8)


@pytest.mark.parametrize("medium_name", ["two_phase_coarse", "random_three_phase"])
@pytest.mark.parametrize("eps", [1 / 8, 1 / 16])
def test_fdtd_matches_reference_loop(medium_name, eps, request):
    med = request.getfixturevalue(medium_name)
    mode = bloch.solve_at(med, [np.pi / 2], 16, 1)[0]
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    ic = simulate.build_wavepacket_ic(mode, med, eps, env, GridSpec(6.0, 32))
    t_final = 1.0
    new = simulate.run_fdtd_1d(med, ic, t_final)
    ref = _reference_run_fdtd_1d(med, ic, t_final)

    assert new.dt == ref.dt
    np.testing.assert_array_equal(new.times, ref.times)
    field_scale = np.max(np.abs(ref.fields))
    assert np.max(np.abs(new.fields - ref.fields)) <= 1e-10 * field_scale
    assert np.max(np.abs(new.energies - ref.energies)) <= 1e-12 * np.max(np.abs(ref.energies))
    assert new.energy_drift < 1e-6 and ref.energy_drift < 1e-6

    speeds = [simulate.measure_packet_velocity(simulate.extract_envelope(rec)).speed
              for rec in (new, ref)]
    assert abs(speeds[0] - speeds[1]) <= 1e-10 * abs(speeds[1])
