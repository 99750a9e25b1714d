"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline).
"""

import contextlib
import dataclasses
import functools
import io
import json
import time

import numpy as np
import pytest

from conftest import COS, SIN, signal
from hfh import bands, bloch, checks, cli, effective, ergodic, medium, simulate
from hfh.fourier import Cell, FourierField


def criterion(number, name, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{name}]: FAIL")
                raise
            elapsed = time.monotonic() - start
            assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
            print(f"criterion {number} [{name}]: PASS ({elapsed:.2f}s)")
        return run
    return wrap


# ---------------------------------------------------------------------------


@criterion(1, "constant-medium exactness", 1.0)
def test_criterion_1(const_medium):
    table = bands.sweep_path(const_medium, [0.1], [3.0], 30, 1, 4)
    assert np.max(np.abs(table.omegas - table.path[:, 0])) < 1e-10
    for k in (0.4, 1.3, 2.6):
        v = bands.group_velocity_fd(const_medium, [k], 1, 4)
        assert abs(v[0] - 1.0) < 1e-8


@criterion(2, "transport-coefficient identity vs FD dispersion", 30.0)
def test_criterion_2(two_phase, mathieu_blocks, vector_medium):
    ks = [0.3 * np.pi, 0.5 * np.pi, 0.7 * np.pi]
    for k in ks:
        for band in (1, 2):
            mode = bloch.solve_at(two_phase, [k], 16, band)[band - 1]
            co = effective.effective_coefficients(mode)
            v_fd = bands.group_velocity_fd(two_phase, [k], band, 16)
            assert abs(co.v[0] - v_fd[0]) < 1e-6

            smode = bloch.solve_at(mathieu_blocks, [k], 16, band)[band - 1]
            sco = effective.effective_coefficients(smode)
            sv_fd = bands.group_velocity_fd(mathieu_blocks, [k], band, 16)
            assert abs(sco.v[0] - sv_fd[0]) < 1e-6

            vmode = bloch.solve_at(vector_medium, [k], 8, band)[band - 1]
            vco = effective.effective_coefficients(vmode)
            vv_fd = bands.group_velocity_fd(vector_medium, [k], band, 8)
            assert abs(vco.v[0] - vv_fd[0]) < 1e-6


@criterion(3, "non-coupling of non-resonant pairs", 60.0)
def test_criterion_3(two_phase):
    counts = [4, 8, 16, 32]
    pairs = []
    m1, m2 = bloch.solve_at(two_phase, [0.5 * np.pi], 16, 2)
    pairs.append((m1, m2))  # different omega, same k
    pa = bloch.solve_at(two_phase, [1.0], 16, 1)[0]
    pb = bloch.solve_at(two_phase, [-1.0], 16, 1)[0]
    pairs.append((pa, pb))  # same omega, incommensurate dk
    t = bloch.solve_at(two_phase, [0.3 * np.pi], 16, 3)
    pairs.append((t[0], t[2]))  # different band, same k

    for a, b in pairs:
        report = effective.coupling_coefficients(a, b, counts)
        assert not report.resonant
        for (j, p, l), slope in report.slopes.items():
            if p != l:
                assert slope <= -0.9, f"slope {slope} at {(j, p, l)}"
        assert report.max_cross_limit() < 1e-6

    base = bloch.solve_at(two_phase, [0.5 * np.pi], 96, 1)[0]
    shifted = bloch.solve_at(two_phase, [0.5 * np.pi + 2 * np.pi], 96, 1)[0]
    rep = effective.coupling_coefficients(base, shifted, [4, 8])
    assert rep.resonant
    assert effective.are_equivalent(base, shifted) == rep.resonant


@criterion(4, "supercell collapse of self-coupling", 10.0)
def test_criterion_4(two_phase):
    for band in (1, 2):
        mode = bloch.solve_at(two_phase, [0.5 * np.pi], 16, band)[band - 1]
        co = effective.effective_coefficients(mode)
        report = effective.coupling_coefficients(mode, mode, [4, 8, 16, 32])
        for j in range(2):
            assert np.max(np.abs(report.averages[(j, 1, 1)] - co.d[j])) < 1e-10


# ---------------------------------------------------------------------------
# criterion 5: averaging-lemma fixtures

WINDOWS = [7.3, 13.7, 29.1, 61.7]
SQ2 = np.sqrt(2.0)


def _fixtures_1d():
    one = signal(1.0, {0: 1.0})
    cexp = signal(1.0, {-1: 1.0})
    cos1 = signal(1.0, COS)
    sin1 = signal(1.0, SIN)
    half = 0.5 * np.exp(1j * np.pi / 3)
    return [
        ("mod resonant zero-overlap", lambda w: ergodic.avg_modulated_dd(one, [2 * np.pi], w), [5.0, 12.0]),
        ("mod resonant full-overlap", lambda w: ergodic.avg_modulated_dd(cexp, [2 * np.pi], w), [7.0, 31.0]),
        ("mod non-resonant", lambda w: ergodic.avg_modulated_dd(one, [1.0], w), None),
        ("mod incommensurate", lambda w: ergodic.avg_modulated_dd(cos1, [SQ2 * np.pi], w), None),
        ("mod rational non-integer", lambda w: ergodic.avg_modulated_dd(cos1, [3 * np.pi], w), [4.0, 10.0]),
        ("prod incommensurate", lambda w: ergodic.avg_product_periodic(cos1, signal(SQ2, COS), w), None),
        ("prod resonant self", lambda w: ergodic.avg_product_periodic(cos1, cos1, w), [4.0, 9.0]),
        ("prod rational orthogonal", lambda w: ergodic.avg_product_periodic(cos1, signal(2.0, COS), w), [6.0, 14.0]),
        ("prod rational phased", lambda w: ergodic.avg_product_periodic(cos1, signal(1.0, {1: half, -1: np.conj(half)}), w), [5.0, 11.0]),
        ("deriv incommensurate", lambda w: ergodic.avg_derivative_product(sin1, signal(SQ2, COS), w), None),
        ("deriv resonant orthogonal", lambda w: ergodic.avg_derivative_product(sin1, sin1, w), [3.0, 8.0]),
    ]


def _fixtures_2d():
    cell = Cell((1.0, 1.0))
    one2 = FourierField.constant(cell, 1.0)
    mix = FourierField.from_terms(cell, 1, {(0, 0): 1.7, (1, 0): 0.2, (-1, 0): 0.2})
    cphase = FourierField.from_terms(cell, 1, {(-1, 0): 1.0})
    return [
        ("dd resonant zero-overlap", lambda w: ergodic.avg_modulated_dd(one2, [2 * np.pi, 0.0], w), [3.0, 7.0]),
        ("dd identity mean", lambda w: ergodic.avg_modulated_dd(mix, [0.0, 0.0], w), [4.0, 9.0]),
        ("dd mixed non-resonant axis", lambda w: ergodic.avg_modulated_dd(cphase, [2 * np.pi, 1.0], w), None),
    ]


@criterion(5, "averaging lemmas with certified decay", 20.0)
def test_criterion_5():
    fixtures = _fixtures_1d() + _fixtures_2d()
    assert len(fixtures) >= 12
    for name, run, integer_windows in fixtures:
        res = run(WINDOWS)
        # C/a bound on the fitted windows
        for a, err in zip(res.windows, res.errors()):
            assert err <= res.decay_constant / a + 1e-13, name
        # held-out window twice as large
        a_big = 2.0 * max(res.windows)
        held = run([a_big])
        assert abs(held.values[0] - res.analytic_limit) <= res.decay_constant / a_big + 1e-13, name
        # resonant integer-period windows agree with the limit exactly
        if integer_windows is not None:
            exact = run(integer_windows)
            assert np.max(exact.errors()) < 1e-12, name


@criterion(6, "envelope transport validation by fine-grid FDTD", 120.0)
def test_criterion_6(two_phase_coarse):
    mode = bloch.solve_at(two_phase_coarse, [np.pi / 2], 16, 1)[0]
    env = simulate.GaussianEnvelope(center=2.5, sigma=0.5)
    errors = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        rec, _, fit = simulate.packet_speed_experiment(mode, eps, env, simulate.GridSpec(12.0, 33), 4.0)
        assert rec.stable and rec.energy_drift < 1e-6
        errors.append(abs(fit.speed - rec.ic.group_velocity) / abs(rec.ic.group_velocity))
    assert errors[-1] < 0.02
    assert errors[0] > errors[1] > errors[2], f"speed error not monotone in epsilon: {errors}"


@criterion(7, "structural invariants", 30.0)
def test_criterion_7(two_phase, vector_medium, mathieu_blocks, rng):
    # Hermiticity of assembled operators on randomized media
    worst = 0.0
    for _ in range(3):
        harm = [((n,), 0.1 * rng.uniform(0.2, 1.0), rng.uniform(0, 2 * np.pi)) for n in (1, 2)]
        med = medium.build_scalar_medium(medium.cosine(1.0, harm), medium.cosine(1.1, harm),
                                         Cell((1.0,)), 4)
        worst = max(worst, bloch.assemble_operator(med, [rng.uniform(-3, 3)], 6).hermiticity_defect())
    worst = max(worst, bloch.assemble_operator(two_phase, [0.7], 16).hermiticity_defect())
    worst = max(worst, bloch.assemble_operator(vector_medium, [0.7], 8).hermiticity_defect())
    worst = max(worst, bloch.assemble_operator(mathieu_blocks, [0.7], 16).hermiticity_defect())
    assert worst < 1e-12

    # b-weighted normalization identity d0 = -2 i omega
    mode = bloch.solve_at(two_phase, [0.6 * np.pi], 16, 1)[0]
    co = effective.effective_coefficients(mode)
    assert abs(co.d[0] + 2j * mode.omega) < 1e-9
    vmode = bloch.solve_at(vector_medium, [0.6 * np.pi], 8, 1)[0]
    vco = effective.effective_coefficients(vmode)
    assert abs(vco.d[0] + 2j * vmode.omega) < 1e-9

    # Maxwell tensor major symmetry, exact
    tensor = medium.maxwell_tensor_from_permeability(1.0, Cell((1.0, 1.0, 1.0)), 1)
    for (i, j, k, l), f in tensor.items():
        assert np.array_equal(f.coeffs, tensor[(k, l, i, j)].coeffs)

    # phase-convention invariance of the transport ratios, 100 random phases
    ratios = co.d[1:] / co.d[0]
    for _ in range(100):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rco = effective.effective_coefficients(dataclasses.replace(mode, v0=mode.v0 * phase))
        assert np.max(np.abs(rco.d[1:] / rco.d[0] - ratios)) < 1e-12


@criterion(8, "deterministic artifacts", 60.0)
def test_criterion_8(tmp_path):
    config = tmp_path / "medium.json"
    config.write_text(json.dumps({
        "cell": [1.0], "kind": "scalar", "cutoff": 16,
        "a": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [1.0, 4.0]},
        "b": {"type": "constant", "value": 1.0},
    }))

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == 0
        return buf.getvalue()

    # `hfh check` is deterministic end to end
    assert run(["check"]) == run(["check"])

    commands = [
        ["bands", "--config", str(config), "--k-start", "0.1", "--k-end", "3.04",
         "--samples", "25", "--band", "1"],
        ["effective", "--config", str(config), "--k", "1.5707963267948966", "--band", "1"],
        ["couple", "--config", str(config), "--k", "1.5707963267948966", "--m", "1.0",
         "--bands", "1,1", "--supercells", "4,8,16,32"],
    ]
    for idx, argv in enumerate(commands):
        artifacts = []
        for rerun in (0, 1):
            base = tmp_path / f"cmd{idx}_{rerun}"
            if argv[0] == "effective":
                full = argv + ["--out-prefix", str(base)]
                run(full)
                artifacts.append((base.with_suffix(".csv").read_bytes(),
                                  base.with_suffix(".json").read_bytes()))
            else:
                out = base.with_suffix(".csv")
                run(argv + ["--out", str(out)])
                artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1], f"non-deterministic output from {argv[0]}"
