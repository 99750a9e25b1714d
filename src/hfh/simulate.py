"""Direct fine-grid time-domain validation of the envelope transport law.

A Bloch mode of the scalar wave family is modulated by a slow Gaussian
profile, evolved with a staggered-flux leapfrog scheme at small epsilon, and
demodulated by the conjugate carrier; the measured envelope centroid speed is
compared against the predicted group velocity.

The leapfrog u_next = 2u - u_prev + dt^2/b * flux_div(u) runs in u and
q = v / step_coef, with v = u_next - u, du the undivided forward difference,
flux = a du and step_coef = dt^2 / (dx^2 b): a step is q += div(flux),
v = step_coef q, u += v, du = grad(u), flux = a du.  The recorded energy is
the compatible half-step functional E = dx sum(b u_t^2 + a u_x^(n+1) u_x^(n)) / 2
with u_t at half steps, which the update conserves to roundoff, so the drift
gate is sharp.  As step_coef b dx / (2 dt^2) = 0.5 / dx, E = (0.5 / dx)
(q.v + flux.du) with flux still the previous step's: two dot products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import BlochMode, check_nondegenerate
from .effective import effective_coefficients
from .effective import effective_coefficients as effective_coefficients_scalar  # noqa: F401  (bench/tracing.py)
from .errors import NumericalError, ValidationError
from .fourier import FourierField
from .medium import Medium

ENERGY_DRIFT_LIMIT = 1e-6
T_FINAL = 4.0  # run length when none is given and the packet stays inside the domain
MIN_POINTS_PER_CELL = 16
MASK_LEVEL = 0.1


@dataclass(frozen=True)
class GaussianEnvelope:
    """Slow modulation profile h(x) = exp(-(x - center)^2 / (2 sigma^2))."""

    center: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValidationError(f"envelope center must be finite, got {self.center}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValidationError(f"envelope sigma must be positive and finite, got {self.sigma}")

    def values(self, x):
        return np.exp(-((x - self.center) ** 2) / (2.0 * self.sigma ** 2))

    def slope(self, x):
        return -(x - self.center) / self.sigma ** 2 * self.values(x)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: domain [0, length) with points_per_cell per epsilon-cell."""

    length: float
    points_per_cell: int = MIN_POINTS_PER_CELL


@dataclass(frozen=True)
class WavePacketIC:
    """Initial data u(x, 0), du/dt(x, 0) for a packet on the Bloch carrier ``mode``.

    The time derivative carries the first-order transport correction
    -v_g h'(x) V0 e^{-ikx/eps} beyond the carrier term i omega/eps u; without
    it the packet splits into counter-propagating halves.
    """

    epsilon: float
    mode: BlochMode
    envelope: GaussianEnvelope
    x: np.ndarray
    dx: float
    u0: np.ndarray
    ut0: np.ndarray
    group_velocity: float  # the predicted packet speed
    init_correction_fraction: float = 0.0  # |v_g h' V0| relative to the carrier term


@dataclass(frozen=True)
class SimulationRecord:
    """Frames and energy diagnostics of one fine-grid run from ``ic``."""

    ic: WavePacketIC
    dt: float
    cfl: float
    times: np.ndarray
    fields: np.ndarray  # (n_frames, n_points) complex
    energies: np.ndarray
    energy_drift: float
    stable: bool

    @property
    def x(self) -> np.ndarray:
        """Grid points of the run (``ic.x``)."""
        return self.ic.x


def _on_grid(f: FourierField, epsilon: float, dx: float, n: int, shift: float = 0.0) -> np.ndarray:
    """f(x/eps) at the n grid points x = (i + shift) dx: one epsilon-cell sampled and tiled."""
    cell = epsilon * f.cell.lengths[0]
    ppc = int(round(cell / dx))
    if n % ppc or abs(ppc * dx - cell) > 1e-9 * cell:
        raise ValidationError("grid is not a whole number of epsilon-cells")
    return np.tile(f.sample_points_1d((np.arange(ppc) + shift) * dx / epsilon), n // ppc)


def _medium_profiles(medium: Medium, x: np.ndarray, dx: float, epsilon: float):
    a_stag = np.real(_on_grid(medium.C[(0, 1, 0, 1)], epsilon, dx, len(x), 0.5))
    b_vals = np.real(_on_grid(-medium.C[(0, 0, 0, 0)], epsilon, dx, len(x)))  # C_0000 = -b
    if a_stag.min() <= 0 or b_vals.min() <= 0:
        raise ValidationError("medium loses positivity on the simulation grid")
    return a_stag, b_vals


def build_wavepacket_ic(mode: BlochMode, medium: Medium, epsilon: float,
                        envelope: GaussianEnvelope, grid: GridSpec) -> WavePacketIC:
    """Sample u(x,0) = h(x) V0(x/eps) e^{-ikx/eps} and its transport-corrected du/dt."""
    if mode.family != "scalar-wave" or medium.cell.dims != 1:
        raise ValidationError("wave packets are built for 1D scalar-wave modes")
    if mode.medium_key != medium.fingerprint:
        raise ValidationError("mode was solved on a different medium")
    if not check_nondegenerate(mode):
        raise ValidationError("wave packet needs a non-degenerate carrier mode")
    if not 0 < epsilon <= 0.125:
        raise ValidationError("epsilon must satisfy 0 < epsilon <= 1/8")
    if not (np.isfinite(grid.length) and grid.length > 0):
        raise ValidationError(f"domain length must be positive and finite, got {grid.length}")
    lam = medium.cell.lengths[0]
    cell_len = epsilon * lam
    n_cells = grid.length / cell_len
    if abs(n_cells - round(n_cells)) > 1e-9:
        raise ValidationError("domain length must be an integer number of epsilon-cells")
    n_cells = int(round(n_cells))
    if grid.points_per_cell < MIN_POINTS_PER_CELL:
        raise ValidationError(
            f"grid too coarse: need at least {MIN_POINTS_PER_CELL} points per epsilon-cell "
            f"(spacing <= eps*lambda/{MIN_POINTS_PER_CELL})"
        )
    needed = 2 * max(mode.cutoff, medium.cutoff) + 1
    if grid.points_per_cell < needed:
        warnings.warn(f"{grid.points_per_cell} points per epsilon-cell under-resolve a cutoff-"
                      f"{needed // 2} carrier, which needs {needed}; the scheme's speed error grows")
    k = float(mode.k[0])
    phase_turns = k / epsilon * grid.length / (2.0 * np.pi)
    if abs(phase_turns - round(phase_turns)) > 1e-9:
        raise ValidationError("carrier is not periodic on the domain; adjust length or k")
    if envelope.center - 4 * envelope.sigma < 0 or envelope.center + 4 * envelope.sigma > grid.length:
        raise ValidationError("envelope must start at least 4 sigma inside the domain")

    n = n_cells * grid.points_per_cell
    dx = grid.length / n
    x = np.arange(n) * dx
    v0 = _on_grid(mode.amplitude_field(0), epsilon, dx, n)
    carrier = np.exp(-1j * k * x / epsilon)
    h = envelope.values(x)
    vg = float(effective_coefficients(mode, medium).v[0])
    u0 = h * v0 * carrier
    carrier_term = 1j * mode.omega / epsilon * u0
    correction = -vg * envelope.slope(x) * v0 * carrier
    ut0 = carrier_term + correction
    frac = float(np.linalg.norm(correction) / np.linalg.norm(carrier_term))
    return WavePacketIC(float(epsilon), mode, envelope, x, dx, u0, ut0, vg, frac)


def run_fdtd_1d(medium: Medium, ic: WavePacketIC, t_final: float,
                cfl: float = 0.9, n_frames: int = 9) -> SimulationRecord:
    """Leapfrog d/dx(a(x/eps) du/dx) = b(x/eps) d2u/dt2 on a staggered flux grid.

    Periodic boundary; the real and imaginary quadratures of the complex
    initial data evolve as two independent real fields and are recombined
    into complex frames.  Raises on CFL violation, on a t_final that is not
    positive and finite, and on a zero or non-finite initial energy; a run
    whose compatible-energy drift exceeds ENERGY_DRIFT_LIMIT (1e-6), or whose
    energy turns non-finite, is flagged unstable.
    """
    if ic.mode.medium_key != medium.fingerprint:
        raise ValidationError("initial condition was built on a different medium")
    if not 0 < cfl <= 0.9:
        raise ValidationError(f"not 0 < cfl <= 0.9: cfl = {cfl}")
    if not (np.isfinite(t_final) and t_final > 0):
        raise ValidationError(f"t_final must be positive and finite, got {t_final}")
    if n_frames < 2:
        raise ValidationError("need at least 2 frames")
    reach = ic.envelope.center + ic.group_velocity * t_final
    if reach - 4 * ic.envelope.sigma < 0 or reach + 4 * ic.envelope.sigma > ic.x[-1] + ic.dx:
        raise ValidationError("packet would reach the domain boundary before t_final")

    a_stag, b_vals = _medium_profiles(medium, ic.x, ic.dx, ic.epsilon)
    dt_max = cfl * ic.dx / np.sqrt(a_stag.max() / b_vals.min())
    n_steps = max(int(np.ceil(t_final / dt_max)), n_frames - 1)
    dt = t_final / n_steps
    frame_steps = np.unique(np.round(np.linspace(0, n_steps, n_frames)).astype(int))

    # The (q, u) update of the module docstring.  Rows are the real and
    # imaginary quadratures; every array is stored at that (2, N) shape so
    # each operation runs over one contiguous array without allocating.
    shape = (2, len(ic.x))
    a_full = np.broadcast_to(a_stag, shape).copy()
    step_coef = np.broadcast_to(dt ** 2 / (ic.dx ** 2 * b_vals), shape).copy()

    u = np.stack([np.real(ic.u0), np.imag(ic.u0)])
    v = np.stack([np.real(ic.ut0), np.imag(ic.ut0)])
    du, flux, div = (np.empty(shape) for _ in range(3))

    # A call writing w[i + 1] - w[i] into out at i (at=0) or i + 1 (at=1).
    # It runs over the flattened rows, then overwrites the entry straddling
    # them with each row's periodic wrap; w and out only change in place.
    def difference(w, out, at):
        hi, lo, body = w.ravel()[1:], w.ravel()[:-1], out.ravel()[at:out.size - 1 + at]
        first, last, wrap = w[:, 0], w[:, -1], out[:, at - 1]
        return lambda: (np.subtract(hi, lo, out=body), np.subtract(first, last, out=wrap))

    gradient, divergence = difference(u, du, 0), difference(flux, div, 1)

    # first half step: v = u - u_prev with u_prev = u - dt ut0 + step_coef div / 2
    gradient()
    np.multiply(a_full, du, out=flux)
    divergence()
    q = dt * v / step_coef - 0.5 * div

    frames = np.empty((len(frame_steps),) + shape)
    frames[0] = u
    frame_slot = {s: i for i, s in enumerate(frame_steps.tolist())}
    energy = np.empty(n_steps)  # energy[s - 1] is E after step s
    for step in range(1, n_steps + 1):
        q += div
        np.multiply(step_coef, q, out=v)
        u += v
        gradient()
        energy[step - 1] = (0.5 / ic.dx) * (np.vdot(q, v) + np.vdot(flux, du))
        if step == 1 and not (np.isfinite(energy[0]) and energy[0] != 0.0):
            raise ValidationError(f"initial energy {energy[0]:.3e} is zero or not finite; "
                                  "the drift gate needs a finite nonzero reference")
        np.multiply(a_full, du, out=flux)
        divergence()
        if step in frame_slot:
            frames[frame_slot[step]] = u
    energies = energy[np.maximum(frame_steps, 1) - 1]  # frame 0 gets the reference E after step 1
    times = frame_steps * dt
    fields = frames[:, 0] + 1j * frames[:, 1]

    # fmax skips a NaN drift as a running max() would, so non-finite
    # energies are caught by the finiteness test instead
    drift = np.fmax.reduce(np.abs(energy - energy[0]) / abs(energy[0]), initial=0.0)
    stable = bool(drift <= ENERGY_DRIFT_LIMIT and np.isfinite(energy).all())
    return SimulationRecord(ic, dt, cfl, times, fields, energies, float(drift), stable)


@dataclass(frozen=True)
class EnvelopeFrames:
    """Cell-averaged |f0| per frame after carrier demodulation."""

    times: np.ndarray
    x: np.ndarray  # epsilon-cell centers
    frames: np.ndarray  # (n_frames, n_cells), real
    masked_cells: int
    domain_length: float


def extract_envelope(record: SimulationRecord) -> EnvelopeFrames:
    """Demodulate by the conjugate of the run's carrier, divide by V0 away from
    its nodes, and average over each epsilon-cell to remove residual cell
    oscillation."""
    ic = record.ic
    mode, epsilon, x = ic.mode, ic.epsilon, ic.x
    k = float(mode.k[0])
    lam_cell = epsilon * mode.cell.lengths[0]
    ppc = int(round(lam_cell / ic.dx))
    n_cells = len(x) // ppc
    v0 = _on_grid(mode.amplitude_field(0), epsilon, ic.dx, len(x))
    good = np.abs(v0) > MASK_LEVEL * np.abs(v0).max()
    carrier_conj = np.exp(+1j * k * x / epsilon)

    weight = good.reshape(n_cells, ppc).sum(axis=1)
    masked = int(np.sum(weight == 0))
    demod = record.fields * carrier_conj * np.exp(-1j * mode.omega * record.times / epsilon)[:, None]
    ratio = np.where(good, demod / np.where(good, v0, 1.0), 0.0)
    with np.errstate(invalid="ignore"):
        cell_means = ratio.reshape(len(ratio), n_cells, ppc).sum(axis=2) / np.maximum(weight, 1)
    frames = np.where(weight > 0, np.abs(cell_means), 0.0)
    centers = (np.arange(n_cells) + 0.5) * lam_cell
    return EnvelopeFrames(record.times, centers, frames, masked, float(len(x) * ic.dx))


@dataclass(frozen=True)
class SpeedFit:
    """Least-squares centroid drift of the envelope."""

    speed: float
    residual: float  # rms deviation of the centroid from the fitted line
    centroids: np.ndarray  # per frame of the fitted EnvelopeFrames


def measure_packet_velocity(env: EnvelopeFrames) -> SpeedFit:
    """Slope of the least-squares line through the per-frame envelope centroids."""
    if len(env.times) < 5:
        raise ValidationError("speed measurement needs at least 5 frames")
    centroids = []
    for f0 in env.frames:
        w = f0 ** 2
        mass = w.sum()
        if mass <= 0:
            raise ValidationError("envelope has no mass in a frame")
        centroids.append(float(np.dot(env.x, w) / mass))
    centroids = np.asarray(centroids)
    if np.any(np.abs(np.diff(centroids)) > env.domain_length / 2):
        raise NumericalError("centroid leaves the measurement window (wraps the periodic domain)")
    coeffs = np.polyfit(env.times, centroids, 1)
    fit = np.polyval(coeffs, env.times)
    residual = float(np.sqrt(np.mean((centroids - fit) ** 2)))
    return SpeedFit(float(coeffs[0]), residual, centroids)


def packet_speed_experiment(medium: Medium, mode: BlochMode, epsilon: float,
                            envelope: GaussianEnvelope, grid: GridSpec, t_final: float | None = None,
                            cfl: float = 0.9, n_frames: int = 9) -> tuple:
    """Full loop: build the IC, evolve, demodulate and fit the envelope speed.

    Without ``t_final`` the run lasts T_FINAL, or 0.9 of the time the
    packet's 4-sigma band takes to reach the domain boundary at the predicted
    speed if that is shorter.  Returns (record, frames, fit); the prediction
    it tests is ``record.ic.group_velocity``.
    """
    ic = build_wavepacket_ic(mode, medium, epsilon, envelope, grid)
    if t_final is None:
        speed, env = abs(ic.group_velocity), ic.envelope
        room = (ic.x[-1] + ic.dx - env.center if ic.group_velocity > 0 else env.center) - 4 * env.sigma
        t_final = T_FINAL if speed * T_FINAL <= room else 0.9 * room / speed
    record = run_fdtd_1d(medium, ic, t_final, cfl=cfl, n_frames=n_frames)
    frames = extract_envelope(record)
    return record, frames, measure_packet_velocity(frames)
