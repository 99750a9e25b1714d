"""Direct fine-grid time-domain validation of the envelope transport law.

A Bloch mode of the scalar wave family is modulated by a slow Gaussian
profile, evolved with a staggered-flux leapfrog scheme at small epsilon, and
demodulated by the conjugate carrier; the measured envelope centroid speed is
compared against the predicted group velocity.  The medium is the one the
carrier mode was solved on (``mode.medium``); no function here takes another.

The leapfrog u^(n+1) = 2u^n - u^(n-1) - dt^2 K u^n, K = B^-1 D^T A D / dx^2 with D the
forward difference, is evaluated, not stepped.  In w = B^(1/2) u, K is G^T G,
G = A^(1/2) D B^(-1/2) / dx, and a transform over the epsilon-cells (P points
each) splits it into Hermitian P x P blocks G_j^H G_j at theta_j = 2 pi j / n_cells,
G_j's wrap entry carrying e^(i theta_j).  The quadratures are real, so blocks
j <= n_cells / 2 suffice: one batched eigh, then each eigen-coordinate is
c^n = c^0 cos(n phi) + dt c'^0 sin(n phi) / sin(phi), sin(phi / 2) = dt sigma / 2,
from the first half step u^1 = u^0 + dt u_t - dt^2 K u^0 / 2.  sigma is |G v|, whose
error is relative to sigma; eigh's eigenvalues err by eps * max(eigenvalue),
which moved the frames by 1e-12 of max |u| per 15 rad of carrier phase.
The compatible energy E = dx sum(b u_t^2 + a u_x^(n+1) u_x^(n)) / 2, u_t at half
steps, is conserved exactly by the scheme and is audited by the direct stencil
at each frame state and the state before it, the only states formed.  Cost:
O(n_cells P^3 / 2 + n_frames n_cells P^2) at any t_final, against
O(n_steps n_cells P) for stepping, n_steps ~ 1 / eps.  The scheme's own group
velocity at the carrier's theta = -k lambda is -(eps lambda / dt) dphi/dtheta.
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
    """Uniform periodic grid: domain [0, length) with points_per_cell per epsilon-cell.

    None resolves every harmonic of the carrier and its medium: :func:`build_wavepacket_ic`
    takes max(MIN_POINTS_PER_CELL, 2 * max(mode cutoff, medium cutoff) + 1).
    """

    length: float
    points_per_cell: int | None = None


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
    scheme_speed: float = float("nan")  # the scheme's own group velocity at the carrier

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


def build_wavepacket_ic(mode: BlochMode, epsilon: float, envelope: GaussianEnvelope,
                        grid: GridSpec) -> WavePacketIC:
    """Sample u(x,0) = h(x) V0(x/eps) e^{-ikx/eps} and its transport-corrected du/dt.

    A given ``grid.points_per_cell`` below MIN_POINTS_PER_CELL raises; one
    below the resolving count of :class:`GridSpec` warns.
    """
    medium = mode.medium
    if medium.family != "scalar-wave" or medium.cell.dims != 1:
        raise ValidationError("wave packets are built for 1D scalar-wave modes")
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
    needed = 2 * max(mode.cutoff, medium.cutoff) + 1
    ppc = max(MIN_POINTS_PER_CELL, needed) if grid.points_per_cell is None else grid.points_per_cell
    if ppc < MIN_POINTS_PER_CELL:
        raise ValidationError(
            f"grid too coarse: need at least {MIN_POINTS_PER_CELL} points per epsilon-cell "
            f"(spacing <= eps*lambda/{MIN_POINTS_PER_CELL})"
        )
    if ppc < needed:
        warnings.warn(f"{ppc} points per epsilon-cell under-resolve a cutoff-{needed // 2} carrier, "
                      f"which needs {needed}; the scheme's speed error grows")
    k = float(mode.k[0])
    phase_turns = k / epsilon * grid.length / (2.0 * np.pi)
    if abs(phase_turns - round(phase_turns)) > 1e-9:
        raise ValidationError("carrier is not periodic on the domain; adjust length or k")
    if envelope.center - 4 * envelope.sigma < 0 or envelope.center + 4 * envelope.sigma > grid.length:
        raise ValidationError("envelope must start at least 4 sigma inside the domain")

    n = n_cells * ppc
    dx = grid.length / n
    x = np.arange(n) * dx
    v0 = _on_grid(mode.amplitude_field(0), epsilon, dx, n)
    carrier = np.exp(-1j * k * x / epsilon)
    h = envelope.values(x)
    vg = float(effective_coefficients(mode).v[0])
    u0 = h * v0 * carrier
    carrier_term = 1j * mode.omega / epsilon * u0
    correction = -vg * envelope.slope(x) * v0 * carrier
    ut0 = carrier_term + correction
    frac = float(np.linalg.norm(correction) / np.linalg.norm(carrier_term))
    return WavePacketIC(float(epsilon), mode, envelope, x, dx, u0, ut0, vg, frac)


def run_fdtd_1d(ic: WavePacketIC, t_final: float, cfl: float = 0.9, n_frames: int = 9) -> SimulationRecord:
    """Frames of the leapfrog d/dx(a(x/eps) du/dx) = b(x/eps) d2u/dt2 on a staggered flux grid.

    a and b are those of the carrier's medium, ``ic.mode.medium``.  Periodic
    boundary; each frame is the scheme's state at its step, from the Bloch
    blocks of the module docstring.  Raises on CFL violation, on a
    t_final that is not positive and finite, and on a zero or non-finite
    initial energy; a run whose compatible-energy drift at the frames exceeds
    ENERGY_DRIFT_LIMIT (1e-6), or whose energy turns non-finite, is flagged unstable.
    """
    medium = ic.mode.medium
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

    # H_j = G_j^H G_j for j = 0..n_cells // 2; the blocks past pi are their conjugates
    lam = medium.cell.lengths[0]
    ppc = int(round(ic.epsilon * lam / ic.dx))
    n_cells, p = len(ic.x) // ppc, np.arange(ppc)
    wrap = np.exp(2j * np.pi * np.arange(n_cells // 2 + 1) / n_cells)  # G_j's wrap phase
    root_a, inv_root_b = np.sqrt(a_stag[:ppc]) / ic.dx, 1 / np.sqrt(b_vals[:ppc])
    link = root_a ** 2 * inv_root_b * np.roll(inv_root_b, -1)  # -H[p, p + 1], through a_p
    blocks = np.zeros((len(wrap), ppc, ppc), complex)
    blocks[:, p, p] = (root_a ** 2 + np.roll(root_a, 1) ** 2) * inv_root_b ** 2
    blocks[:, p[1:], p[:-1]] = blocks[:, p[:-1], p[1:]] = -link[:-1]
    blocks[:, -1, 0] -= link[-1] * wrap
    blocks[:, 0, -1] -= link[-1] * wrap.conj()
    vecs = np.linalg.eigh(blocks)[1]
    # G_j vecs, row p: root_a_p (r_p+1 v_p+1 - r_p v_p) with r = b^-1/2 and the wrap phase on
    # the last row, by the two-diagonal stencil in the blocks' buffer
    gv = blocks
    np.multiply(vecs[:, 1:], (inv_root_b[1:] / inv_root_b[:-1])[:, None], out=gv[:, :-1])
    np.multiply(vecs[:, :1], wrap[:, None, None] * inv_root_b[0] / inv_root_b[-1], out=gv[:, -1:])
    gv -= vecs
    gv *= (root_a * inv_root_b)[:, None]
    parts = gv.view(float).reshape(gv.shape + (2,))  # real and imaginary parts
    sigma = np.sqrt(np.einsum("jpqc,jpqc->jq", parts, parts))  # |G v|, not eigh's eigenvalues
    phi = 2 * np.arcsin(dt * sigma / 2)

    def coefficients(f):  # eigen-coordinates of the real and imaginary quadratures of f
        w = np.fft.rfft(np.stack([np.real(f), np.imag(f)]).reshape(2, n_cells, ppc) / inv_root_b, axis=1)
        return np.conj(np.conj(w)[:, :, None, :] @ vecs)[:, :, 0]  # V^H w, V not copied

    c0, c_dot = coefficients(ic.u0), dt * coefficients(ic.ut0) / np.sinc(phi / np.pi)

    def state(n):  # u after n steps: c0 cos(n phi) + dt c0' sin(n phi) / sin(phi)
        c = c0 * np.cos(n * phi) + c_dot * n * np.sinc(n * phi / np.pi)
        w = np.fft.irfft((vecs @ c[..., None])[..., 0], n_cells, axis=1) * inv_root_b
        return (w[0] + 1j * w[1]).ravel()

    def energy(old, new):  # the compatible E between consecutive states
        du_old, du_new = np.roll(old, -1) - old, np.roll(new, -1) - new
        return (0.5 * ic.dx / dt ** 2 * np.vdot(b_vals * (new - old), new - old).real
                + 0.5 / ic.dx * np.vdot(a_stag * du_new, du_old).real)

    fields = np.empty((len(frame_steps), len(ic.x)), complex)
    energies = np.empty(len(frame_steps))
    fields[0], energies[0] = ic.u0, energy(ic.u0, state(1))  # E after step 1 is the reference
    if not (np.isfinite(energies[0]) and energies[0] != 0.0):
        raise ValidationError(f"initial energy {energies[0]:.3e} is zero or not finite; "
                              "the drift gate needs a finite nonzero reference")
    for i, step in enumerate(frame_steps[1:], 1):
        fields[i] = state(step)
        energies[i] = energy(state(step - 1), fields[i])
    # fmax skips a NaN drift, so non-finite energies are caught by the finiteness test instead
    drift = np.fmax.reduce(np.abs(energies - energies[0]) / abs(energies[0]), initial=0.0)
    stable = bool(drift <= ENERGY_DRIFT_LIMIT and np.isfinite(energies).all())

    # the carrier's theta = -k lambda; past pi it is the mirror of block n_cells - j, where
    # d sigma^2 / d theta flips sign.  Hellmann-Feynman on G's one theta-dependent entry
    j = round(-float(ic.mode.k[0]) * lam * n_cells / (2 * np.pi)) % n_cells
    side, j, band = (1 if 2 * j <= n_cells else -1), min(j, n_cells - j), ic.mode.band - 1
    ds2 = 2 * side * np.real(np.conj(gv[j, -1, band]) * 1j * root_a[-1] * wrap[j] * inv_root_b[0]
                             * vecs[j, 0, band])
    s = sigma[j, band]
    speed = -ic.epsilon * lam * ds2 / (2 * s * np.sqrt(1 - (dt * s / 2) ** 2))
    return SimulationRecord(ic, dt, cfl, frame_steps * dt, fields, energies, float(drift), stable,
                            float(speed))


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
    lam_cell = epsilon * mode.medium.cell.lengths[0]
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


def packet_speed_experiment(mode: BlochMode, epsilon: float, envelope: GaussianEnvelope, grid: GridSpec,
                            t_final: float | None = None, cfl: float = 0.9, n_frames: int = 9) -> tuple:
    """Full loop: build the IC, evolve, demodulate and fit the envelope speed.

    Without ``t_final`` the run lasts T_FINAL, or 0.9 of the time the
    packet's 4-sigma band takes to reach the domain boundary at the predicted
    speed if that is shorter.  Returns (record, frames, fit); the prediction
    it tests is ``record.ic.group_velocity``.
    """
    ic = build_wavepacket_ic(mode, epsilon, envelope, grid)
    if t_final is None:
        speed, env = abs(ic.group_velocity), ic.envelope
        room = (ic.x[-1] + ic.dx - env.center if ic.group_velocity > 0 else env.center) - 4 * env.sigma
        t_final = T_FINAL if speed * T_FINAL <= room else 0.9 * room / speed
    record = run_fdtd_1d(ic, t_final, cfl=cfl, n_frames=n_frames)
    frames = extract_envelope(record)
    return record, frames, measure_packet_velocity(frames)
