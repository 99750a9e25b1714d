import dataclasses
import pickle
import warnings

import numpy as np
import pytest

from hfh import bloch, medium, simulate
from hfh.errors import ValidationError
from hfh.fourier import FourierField
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
    ic = simulate.build_wavepacket_ic(const_mode, 1 / 16, env, GridSpec(6.0))
    # |V0| = 1 for the constant medium, so max |u| = max h
    assert abs(np.max(np.abs(ic.u0)) - env.values(ic.x).max()) < 1e-12
    assert abs(ic.group_velocity - 1.0) < 1e-10


def test_ic_cell_average_recovers_envelope(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    eps = 1 / 16
    ic = simulate.build_wavepacket_ic(coarse_mode, eps, env, GridSpec(6.0, 33))
    rec = simulate.SimulationRecord(ic, 0.0, 0.9, np.array([0.0]), np.array([ic.u0]),
                                    np.array([0.0]), 0.0, True)
    frames = simulate.extract_envelope(rec)
    h = env.values(frames.x)
    assert np.max(np.abs(frames.frames[0] - h)) < 0.02 * h.max()


def test_ic_validation(const_medium, const_mode):
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    with pytest.raises(ValidationError, match="epsilon"):
        simulate.build_wavepacket_ic(const_mode, 0.5, env, GridSpec(6.0))
    with pytest.raises(ValidationError, match="points per epsilon-cell"):
        simulate.build_wavepacket_ic(const_mode, 1 / 16, env, GridSpec(6.0, 8))
    with pytest.raises(ValidationError, match="integer number"):
        simulate.build_wavepacket_ic(const_mode, 1 / 16, env, GridSpec(6.03))
    with pytest.raises(ValidationError, match="4 sigma"):
        simulate.build_wavepacket_ic(const_mode, 1 / 16,
                                     GaussianEnvelope(center=1.0, sigma=0.5), GridSpec(6.0))
    for length in (np.nan, np.inf, -6.0):
        with pytest.raises(ValidationError, match="domain length"):
            simulate.build_wavepacket_ic(const_mode, 1 / 16, env, GridSpec(length))
    for center, sigma in ((np.nan, 0.5), (3.0, np.nan), (3.0, np.inf), (3.0, 0.0)):
        with pytest.raises(ValidationError, match="envelope"):
            GaussianEnvelope(center, sigma)


def test_underresolved_grid_warns(two_phase_coarse, coarse_mode):
    # a cutoff-16 carrier needs 2 * 16 + 1 = 33 samples per epsilon-cell
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    with pytest.warns(UserWarning, match="needs 33"):
        simulate.build_wavepacket_ic(coarse_mode, 1 / 16, env, GridSpec(6.0, 16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate.build_wavepacket_ic(coarse_mode, 1 / 16, env, GridSpec(6.0, 33))


def test_default_grid_resolves_the_carrier(two_phase_coarse, coarse_mode):
    # without points_per_cell a cutoff-16 carrier gets 2 * 16 + 1 = 33 samples per epsilon-cell
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ic = simulate.build_wavepacket_ic(coarse_mode, 1 / 16, env, GridSpec(6.0))
    assert len(ic.x) == 96 * 33


def test_carrier_periodicity_validation(const_medium):
    # k = 0.9 is not commensurate with the domain at this epsilon
    mode = bloch.solve_at(const_medium, [0.9], 4, 1)[0]
    with pytest.raises(ValidationError, match="periodic"):
        simulate.build_wavepacket_ic(mode, 1 / 16, GaussianEnvelope(3.0, 0.5), GridSpec(6.0))


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
    rec = simulate.run_fdtd_1d(ic, period, cfl=0.9, n_frames=5)
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
    rec = simulate.run_fdtd_1d(ic, period, cfl=0.9, n_frames=5)
    assert np.max(np.abs(rec.fields[-1] - u0)) / np.max(np.abs(u0)) < 1e-3


def test_energy_conservation_and_stability_flag(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    rec, _, _ = simulate.packet_speed_experiment(coarse_mode, 1 / 8, env, GridSpec(8.0, 33), 2.0)
    assert rec.stable
    assert rec.energy_drift < 1e-6


def test_cfl_validation(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    ic = simulate.build_wavepacket_ic(coarse_mode, 1 / 8, env, GridSpec(6.0, 33))
    with pytest.raises(ValidationError, match="cfl"):
        simulate.run_fdtd_1d(ic, 1.0, cfl=1.2)
    with pytest.raises(ValidationError, match="boundary"):
        simulate.run_fdtd_1d(ic, 50.0)
    for t_final in (0.0, np.nan):
        with pytest.raises(ValidationError, match="t_final"):
            simulate.run_fdtd_1d(ic, t_final)
    with pytest.raises(ValidationError, match="cfl"):
        simulate.run_fdtd_1d(ic, 1.0, cfl=np.nan)


def test_measured_speed_matches_prediction(two_phase_coarse, coarse_mode):
    env = GaussianEnvelope(center=2.5, sigma=0.5)
    rec, _, fit = simulate.packet_speed_experiment(coarse_mode, 1 / 16, env, GridSpec(12.0, 33), 4.0)
    assert _relative_error(rec, fit) < 0.02
    assert fit.residual < 0.01 * abs(fit.speed * 4.0)


def test_negative_band_measured_speed(two_phase_coarse):
    mode2 = bloch.solve_at(two_phase_coarse, [np.pi / 2], 16, 2)[1]
    env = GaussianEnvelope(center=7.0, sigma=0.5)
    rec, _, fit = simulate.packet_speed_experiment(mode2, 1 / 16, env, GridSpec(10.0, 33), 2.0)
    assert rec.ic.group_velocity < 0
    assert fit.speed < 0
    assert _relative_error(rec, fit) < 0.02


def test_envelope_mask_at_amplitude_node(two_phase_coarse):
    # the zone-edge standing wave has a true node in |V0|, so the mask engages
    mode = bloch.solve_at(two_phase_coarse, [np.pi], 16, 1)[0]
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    eps = 1 / 16
    ic = simulate.build_wavepacket_ic(mode, eps, env, GridSpec(6.0, 33))
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
    ic = simulate.build_wavepacket_ic(coarse_mode, 1 / 8, env, GridSpec(8.0, 33))
    rec = simulate.run_fdtd_1d(ic, 0.5, cfl=0.9, n_frames=3)
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
    ic = simulate.build_wavepacket_ic(coarse_mode, 1 / 8, env, GridSpec(8.0, 33))
    blank = dataclasses.replace(ic, u0=np.full_like(ic.u0, value), ut0=np.zeros_like(ic.ut0))
    with pytest.raises(ValidationError, match="initial energy") as new:
        simulate.run_fdtd_1d(blank, 0.5, cfl=0.9, n_frames=3)
    with pytest.raises(ValidationError) as old:
        oracle_fdtd(two_phase_coarse, blank, 0.5, cfl=0.9, n_frames=3)
    assert str(new.value) == str(old.value)


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


def oracle_profiles(med, ic):
    """a at the staggered points and b at the grid points, each sampled over the whole grid."""
    a_stag = np.real(med.C[(0, 1, 0, 1)].sample_points_1d((ic.x + 0.5 * ic.dx) / ic.epsilon))
    b_vals = np.real((-med.C[(0, 0, 0, 0)]).sample_points_1d(ic.x / ic.epsilon))
    return a_stag, b_vals


def oracle_fdtd(med, ic, t_final, cfl=0.9, n_frames=9):
    """The leapfrog in its velocity form v = u_next - u, as run before the
    (q, u) form: energy weights kin_w and el_w, one update term per step,
    and a running max for the drift."""
    a_stag, b_vals = oracle_profiles(med, ic)
    c_max = np.sqrt(a_stag.max() / b_vals.min())
    dt_max = cfl * ic.dx / c_max
    n_steps = max(int(np.ceil(t_final / dt_max)), n_frames - 1)
    dt = t_final / n_steps
    frame_steps = np.unique(np.round(np.linspace(0, n_steps, n_frames)).astype(int))

    shape = (2, len(ic.x))
    a_full = np.broadcast_to(a_stag, shape).copy()
    step_coef = np.broadcast_to(dt ** 2 / (ic.dx ** 2 * b_vals), shape).copy()
    kin_w = np.broadcast_to(0.5 * ic.dx * b_vals / dt ** 2, shape).copy()
    el_w = np.broadcast_to(0.5 * a_stag / ic.dx, shape).copy()

    u = np.stack([np.real(ic.u0), np.imag(ic.u0)])
    v = np.stack([np.real(ic.ut0), np.imag(ic.ut0)])
    du, du_next, flux, work = (np.empty(shape) for _ in range(4))
    flux_flat, work_flat = flux.ravel(), work.ravel()

    def gradient(w, out):
        w_flat = w.ravel()
        np.subtract(w_flat[1:], w_flat[:-1], out=out.ravel()[:-1])
        np.subtract(w[:, 0], w[:, -1], out=out[:, -1])

    def update_term():
        np.multiply(a_full, du, out=flux)
        np.subtract(flux_flat[1:], flux_flat[:-1], out=work_flat[1:])
        np.subtract(flux[:, 0], flux[:, -1], out=work[:, 0])
        np.multiply(work, step_coef, out=work)

    gradient(u, du)
    update_term()
    v *= dt
    v -= 0.5 * work

    frames = np.empty((len(frame_steps),) + shape)
    frames[0] = u
    energies = np.empty(len(frame_steps))
    e_ref = None
    drift = 0.0
    next_frame = 1
    for step in range(1, n_steps + 1):
        update_term()
        v += work
        u += v
        gradient(u, du_next)
        np.multiply(kin_w, v, out=work)
        kinetic = np.vdot(work, v)
        np.multiply(el_w, du_next, out=work)
        e = kinetic + np.vdot(work, du)
        if e_ref is None:
            e_ref = e
            if not (np.isfinite(e_ref) and e_ref != 0.0):
                raise ValidationError(f"initial energy {e_ref:.3e} is zero or not finite; "
                                      "the drift gate needs a finite nonzero reference")
        drift = max(drift, abs(e - e_ref) / abs(e_ref))
        du, du_next = du_next, du
        if next_frame < len(frame_steps) and step == frame_steps[next_frame]:
            frames[next_frame] = u
            energies[next_frame] = e
            next_frame += 1
    energies[0] = e_ref
    stable = bool(drift <= simulate.ENERGY_DRIFT_LIMIT and np.isfinite(energies).all())
    return simulate.SimulationRecord(ic, dt, cfl, frame_steps * dt, frames[:, 0] + 1j * frames[:, 1],
                                     energies, float(drift), stable)


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
    ic = simulate.build_wavepacket_ic(mode, eps, env, GridSpec(6.0, 33))
    t_final = 1.0
    new = simulate.run_fdtd_1d(ic, t_final)
    ref = _reference_run_fdtd_1d(med, ic, t_final)

    velocity = oracle_fdtd(med, ic, t_final)
    assert new.dt == velocity.dt and new.stable == velocity.stable
    np.testing.assert_array_equal(new.times, velocity.times)
    assert np.max(np.abs(new.fields - velocity.fields)) <= 1e-12 * np.max(np.abs(velocity.fields))
    assert np.max(np.abs(new.energies - velocity.energies)) <= 1e-13 * np.max(np.abs(velocity.energies))
    # the audit reads the frame states, so the drift is the largest frame-energy deviation
    assert new.energy_drift == np.max(np.abs(new.energies - new.energies[0])) / abs(new.energies[0])
    assert new.energy_drift <= 1e-12

    assert new.dt == ref.dt
    np.testing.assert_array_equal(new.times, ref.times)
    field_scale = np.max(np.abs(ref.fields))
    assert np.max(np.abs(new.fields - ref.fields)) <= 1e-10 * field_scale
    assert np.max(np.abs(new.energies - ref.energies)) <= 1e-12 * np.max(np.abs(ref.energies))
    assert new.energy_drift < 1e-6 and ref.energy_drift < 1e-6

    speeds = [simulate.measure_packet_velocity(simulate.extract_envelope(rec)).speed
              for rec in (new, ref)]
    assert abs(speeds[0] - speeds[1]) <= 1e-10 * abs(speeds[1])


# 47 cells: an odd count, so no block sits at theta = pi.  192 cells over t_final 16: 7,065
# steps and 212 rad of carrier phase; frequencies taken from eigh's eigenvalues (absolute
# error eps * largest eigenvalue) put the frames 1e-11 off here and 2.5e-12 off at t_final 4
@pytest.mark.parametrize("n_cells, turns, t_final", [(47, 12, 1.0), (192, 48, 16.0)])
def test_block_evaluation_matches_loop(random_three_phase, n_cells, turns, t_final):
    eps = 1 / 8
    mode = bloch.solve_at(random_three_phase, [2 * np.pi * turns / n_cells], 16, 1)[0]
    env = GaussianEnvelope(center=2.0, sigma=0.4)
    ic = simulate.build_wavepacket_ic(mode, eps, env, GridSpec(n_cells * eps, 33))
    new = simulate.run_fdtd_1d(ic, t_final)
    loop = oracle_fdtd(random_three_phase, ic, t_final)
    assert new.dt == loop.dt and new.stable and loop.stable
    np.testing.assert_array_equal(new.times, loop.times)
    assert np.max(np.abs(new.fields - loop.fields)) <= 1e-12 * np.max(np.abs(loop.fields))
    # at 212 rad the states sit about 1e-13 from the loop's, and an energy formed from the
    # change over one step moves by about as much relative to E, so it is held to 1e-12
    assert np.max(np.abs(new.energies - loop.energies)) <= 1e-12 * np.max(np.abs(loop.energies))
    assert new.energy_drift <= 1e-12


def test_scheme_speed_converges_at_second_order(cell1d):
    # smooth medium: the cutoff-16 carrier is exact to roundoff, so v_scheme - v is the
    # scheme's own error, O(dx^2), and opposite for the mirrored carrier -k
    smooth = medium.build_scalar_medium(medium.cosine(2.0, [((1,), 0.5)]),
                                        medium.cosine(1.0, [((1,), 0.2)]), cell1d, 4)
    env = GaussianEnvelope(center=2.0, sigma=0.25)
    errors = {}
    for k in (np.pi / 2, -np.pi / 2):
        mode = bloch.solve_at(smooth, [k], 16, 1)[0]
        for ppc in (33, 65, 129, 257):
            ic = simulate.build_wavepacket_ic(mode, 1 / 8, env, GridSpec(4.0, ppc))
            rec = simulate.run_fdtd_1d(ic, 0.05, n_frames=2)
            errors[k, ppc] = rec.scheme_speed - ic.group_velocity
    for k, sign in ((np.pi / 2, -1), (-np.pi / 2, 1)):
        err = np.array([errors[k, ppc] for ppc in (33, 65, 129, 257)])
        assert np.all(np.sign(err) == sign)
        assert np.all((3.5 < err[:-1] / err[1:]) & (err[:-1] / err[1:] < 4.5))


@pytest.mark.parametrize("ppc", [16, 33])
def test_scheme_speed_constant_medium(const_medium, const_mode, ppc):
    # a = b = 1: sin(phi / 2) = (dt / dx) sin(kappa dx / 2), so v = cos(kappa dx / 2) / cos(phi / 2)
    ic = simulate.build_wavepacket_ic(const_mode, 1 / 8, GaussianEnvelope(2.0, 0.25), GridSpec(4.0, ppc))
    rec = simulate.run_fdtd_1d(ic, 0.05, n_frames=2)
    half = float(const_mode.k[0]) / ic.epsilon * ic.dx / 2
    phi = 2 * np.arcsin(rec.dt / ic.dx * np.sin(half))
    assert abs(rec.scheme_speed - np.cos(half) / np.cos(phi / 2)) <= 1e-12


@pytest.mark.parametrize("eps", [1 / 8, 1 / 10])
def test_profiles_sampled_on_one_cell(random_three_phase, eps):
    # 1/10: neither dx / eps nor the cell offsets c * lambda * eps are dyadic
    mode = bloch.solve_at(random_three_phase, [np.pi / 2], 16, 1)[0]
    env = GaussianEnvelope(center=3.0, sigma=0.5)
    ic = simulate.build_wavepacket_ic(mode, eps, env, GridSpec(6.0, 33))
    tiled = simulate._medium_profiles(random_three_phase, ic.x, ic.dx, eps)
    v0 = mode.amplitude_field(0)
    pairs = list(zip(tiled, oracle_profiles(random_three_phase, ic)))
    pairs.append((simulate._on_grid(v0, eps, ic.dx, len(ic.x)), v0.sample_points_1d(ic.x / eps)))
    carrier = env.values(ic.x) * np.exp(-1j * float(mode.k[0]) * ic.x / eps)
    pairs.append((ic.u0, pairs[-1][1] * carrier))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_one_cell_sampling_guards(cell1d):
    one = FourierField.constant(cell1d, 1.0)
    eps, dx = 1 / 8, 1 / 128  # 16 points per epsilon-cell
    x = np.arange(64) * dx
    neg = medium.Medium("scalar-wave", cell1d, 1, 1, {(0, 0, 0, 0): one, (0, 1, 0, 1): one})  # b = -1
    with pytest.raises(ValidationError, match="positivity"):
        simulate._medium_profiles(neg, x, dx, eps)
    for grid_dx, n in ((dx, 65), (0.01, 60)):
        with pytest.raises(ValidationError, match="whole number of epsilon-cells"):
            simulate._on_grid(one, eps, grid_dx, n)
