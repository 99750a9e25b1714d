"""Built-in invariant suite behind ``hfh check``.

Every check is deterministic (fixed seeds, fixed fixtures) and fast; the
suite exercises one invariant per module so a broken install fails loudly.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import numpy as np

from . import bands, bloch, effective, ergodic, medium, simulate
from .fourier import Cell, FourierField

_RNG_SEED = 20240601


def _random_wave_medium(rng, cell, cutoff=4):
    def jiggle(base):
        harmonics = [((n,) if cell.dims == 1 else (n, 0),
                      0.12 * rng.uniform(0.3, 1.0), rng.uniform(0, 2 * np.pi))
                     for n in (1, 2, 3)]
        return medium.cosine(base, harmonics)

    return medium.build_scalar_medium(jiggle(1.0), jiggle(1.2), cell, cutoff)


def _two_phase_medium(cutoff=16):
    cell = Cell((1.0,))
    return medium.build_scalar_medium(medium.piecewise([0.0, 0.5], [1.0, 4.0]),
                                      1.0, cell, cutoff)


def _mathieu_blocks(cutoff=16):
    cell = Cell((1.0,))
    return medium.build_schrodinger_blocks(0.5, 1.0, medium.cosine(0.0, [((1,), 2.0)]),
                                           None, cell, cutoff)


def check_medium_roundtrip():
    cell = Cell((1.0,))
    rng = np.random.default_rng(_RNG_SEED)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[::-1]))  # real field
    f = FourierField(cell, coeffs)
    grid = f.sample_grid(32)
    back = np.fft.fftn(grid) / grid.size
    recovered = np.array([back[n % 32] for n in f.index_grid(0)])
    err = np.max(np.abs(recovered - f.coeffs))
    return err < 1e-12, f"round-trip coefficient error {err:.3e}"


def check_two_phase_coefficients():
    med = _two_phase_medium()
    a = med.C[(0, 1, 0, 1)]
    err = max(abs(a.coeff([0]) - 2.5), abs(a.coeff([1]) - 3j / np.pi))
    return err < 1e-14, f"closed-form coefficient error {err:.3e}"


def check_hermiticity():
    rng = np.random.default_rng(_RNG_SEED)
    worst = 0.0
    med1 = _random_wave_medium(rng, Cell((1.0,)), cutoff=8)
    worst = max(worst, bloch.assemble_operator(med1, [0.7], 8).hermiticity_defect())
    med2 = _random_wave_medium(rng, Cell((1.0, 1.3)), cutoff=4)
    worst = max(worst, bloch.assemble_operator(med2, [0.7, -0.4], 4).hermiticity_defect())
    blocks = _mathieu_blocks(8)
    worst = max(worst, bloch.assemble_operator(blocks, [0.9], 8).hermiticity_defect())
    return worst < 1e-12, f"max Hermiticity defect {worst:.3e}"


def check_constant_dispersion():
    cell = Cell((1.0,))
    med = medium.build_scalar_medium(1.0, 1.0, cell, 1)
    worst = 0.0
    for k in (0.3, 1.1, 2.7):
        mode = bloch.solve_at(med, [k], 4, 1)[0]
        worst = max(worst, abs(mode.omega - k))
    return worst < 1e-10, f"max |omega(k) - k| = {worst:.3e}"


def check_time_reversal():
    med = _two_phase_medium()
    blocks = _mathieu_blocks()
    worst = 0.0
    for k in (0.6, 1.9):
        wp = bloch.solve_at(med, [k], 16, 2)
        wm = bloch.solve_at(med, [-k], 16, 2)
        worst = max(worst, max(abs(a.omega - b.omega) for a, b in zip(wp, wm)))
        sp = bloch.solve_at(blocks, [k], 16, 2)
        sm = bloch.solve_at(blocks, [-k], 16, 2)
        worst = max(worst, max(abs(a.omega - b.omega) for a, b in zip(sp, sm)))
    return worst < 1e-10, f"max |omega(k) - omega(-k)| = {worst:.3e}"


def check_d0_normalization():
    med = _two_phase_medium()
    mode = bloch.solve_at(med, [np.pi / 2], 16, 1)[0]
    co = effective.effective_coefficients(mode)
    err = abs(co.d[0] + 2j * mode.omega)
    blocks = _mathieu_blocks()
    smode = bloch.solve_at(blocks, [np.pi / 2], 16, 1)[0]
    sco = effective.effective_coefficients(smode)
    err = max(err, abs(sco.d[0] + 1j))
    return err < 1e-9, f"max |d_0 - convention| = {err:.3e}"


def check_transport_identity():
    med = _two_phase_medium()
    mode = bloch.solve_at(med, [np.pi / 2], 16, 1)[0]
    v = effective.effective_coefficients(mode).v[0]
    v_fd = bands.group_velocity_fd(med, [np.pi / 2], 1, 16)[0]
    err = abs(v - v_fd)
    blocks = _mathieu_blocks()
    smode = bloch.solve_at(blocks, [np.pi / 2], 16, 1)[0]
    sv = effective.effective_coefficients(smode).v[0]
    sv_fd = bands.group_velocity_fd(blocks, [np.pi / 2], 1, 16)[0]
    err = max(err, abs(sv - sv_fd))
    return err < 1e-6, f"max |v - grad g| = {err:.3e}"


def check_maxwell_symmetry():
    cell = Cell((1.0, 1.0, 1.0))
    tensor = medium.maxwell_tensor_from_permeability(1.0, cell, 1)
    zero = FourierField.zeros(cell, 0)  # an absent entry is zero
    worst = 0.0
    for (i, j, k, l), f in tensor.items():
        diff = f.coeffs - tensor.get((k, l, i, j), zero).coeffs
        worst = max(worst, float(np.max(np.abs(diff))))
    spot = max(abs(tensor[(0, 1, 0, 1)].mean() + 1.0), abs(tensor.get((0, 0, 1, 1), zero).mean()))
    ok = worst == 0.0 and spot < 1e-15
    return ok, f"major-symmetry defect {worst:.3e}, spot-value error {spot:.3e}"


def check_phase_invariance():
    med = _two_phase_medium()
    mode = bloch.solve_at(med, [np.pi / 2], 16, 1)[0]
    base = effective.effective_coefficients(mode)
    ratios = base.d[1:] / base.d[0]
    rng = np.random.default_rng(_RNG_SEED)
    worst = 0.0
    for _ in range(10):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        co = effective.effective_coefficients(dataclasses.replace(mode, v0=mode.v0 * phase))
        worst = max(worst, float(np.max(np.abs(co.d[1:] / co.d[0] - ratios))))
    return worst < 1e-12, f"max ratio change under unit phase {worst:.3e}"


def check_supercell_collapse():
    med = _two_phase_medium()
    mode = bloch.solve_at(med, [np.pi / 2], 16, 1)[0]
    co = effective.effective_coefficients(mode)
    report = effective.coupling_coefficients(mode, mode, [4, 8, 16])
    worst = 0.0
    for j in range(2):
        vals = report.averages[(j, 1, 1)]
        worst = max(worst, float(np.max(np.abs(vals - co.d[j]))))
    # the folded solve needs a basis margin beyond the medium content for the
    # two symmetric bases to agree at the 1e-9 equivalence tolerance
    base = bloch.solve_at(med, [np.pi / 2], 96, 1)[0]
    shifted = bloch.solve_at(med, [np.pi / 2 + 2 * np.pi], 96, 1)[0]
    equiv = effective.are_equivalent(base, shifted)
    ok = worst < 1e-10 and equiv
    return ok, f"self-coupling collapse error {worst:.3e}; shifted-k equivalence {equiv}"


def check_ergodic_lemmas():
    cell = Cell((1.0,))
    f = FourierField.from_terms(cell, 1, {-1: 1.0})
    res = ergodic.avg_modulated_dd(f, [2 * np.pi], [10.0, 20.0, 40.0])
    exact = max(abs(v - 1.0) for v in res.values)  # integer windows hit the limit exactly
    res2 = ergodic.avg_modulated_dd(FourierField.constant(cell, 1.0), [1.0], [10.0, 20.0, 40.0, 80.0])
    held_out = abs(ergodic.window_factor(1.0, 160.0))  # the constant's only harmonic
    bound_ok = held_out <= res2.decay_constant / 160.0 + 1e-15
    ok = exact < 1e-12 and res2.analytic_limit == 0 and bound_ok
    return ok, f"resonant exactness {exact:.3e}; held-out bound holds: {bound_ok}"


def check_fdtd_translation():
    cell = Cell((1.0,))
    med = medium.build_scalar_medium(1.0, 1.0, cell, 1)
    mode = bloch.solve_at(med, [np.pi / 2], 4, 1)[0]
    eps = 1 / 8
    env = simulate.GaussianEnvelope(center=2.0, sigma=0.4)
    grid = simulate.GridSpec(length=6.0, points_per_cell=32)
    ic = simulate.build_wavepacket_ic(mode, eps, env, grid)
    rec = simulate.run_fdtd_1d(ic, 1.0, cfl=0.5, n_frames=6)
    ok = rec.stable and rec.energy_drift < 1e-6
    return ok, f"energy drift {rec.energy_drift:.3e}"


ALL_CHECKS = [
    ("medium round-trip", check_medium_roundtrip),
    ("two-phase Fourier coefficients", check_two_phase_coefficients),
    ("operator Hermiticity", check_hermiticity),
    ("constant-medium dispersion", check_constant_dispersion),
    ("time-reversal symmetry", check_time_reversal),
    ("d0 normalization identity", check_d0_normalization),
    ("transport-coefficient identity", check_transport_identity),
    ("Maxwell tensor symmetry", check_maxwell_symmetry),
    ("phase-convention invariance", check_phase_invariance),
    ("supercell collapse and equivalence", check_supercell_collapse),
    ("averaging lemmas", check_ergodic_lemmas),
    ("fdtd energy conservation", check_fdtd_translation),
]


def run_all(write=print) -> bool:
    """Run every check; returns True iff all pass.  Each check's wall time goes to stderr."""
    all_ok = True
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        ok, detail = fn()
        all_ok &= ok
        write(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        print(f"{name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return all_ok
