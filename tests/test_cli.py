import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import elastic_terms
from hfh import bloch, checks, cli, medium
from test_golden import CONFIGS as GOLDEN_CONFIGS
from test_golden import FINGERPRINTS

ROOT = Path(__file__).resolve().parents[1]
MEDIUM = {
    "cell": [1.0],
    "kind": "scalar",
    "cutoff": 16,
    "a": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [1.0, 4.0]},
    "b": {"type": "constant", "value": 1.0},
}


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "medium.json"
    path.write_text(json.dumps(MEDIUM))
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_bands_command_writes_csv(config, tmp_path):
    out = tmp_path / "bands.csv"
    code, _ = run_cli(["bands", "--config", config, "--k-start", "0.1", "--k-end", "3.04",
                       "--samples", "50", "--band", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_at] == "k_1,omega,band,gap"
    assert len(lines) - header_at - 1 == 50


def test_bands_zero_length_path_rejected(config, tmp_path):
    # k_start == k_end leaves no slope for the recorded Lipschitz bound: a validation error,
    # exit 1, no artifact and no warning
    out = tmp_path / "bands.csv"
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code, _ = run_cli(["bands", "--config", config, "--k-start", "0.5", "--k-end", "0.5",
                           "--samples", "3", "--band", "1", "--out", str(out)])
    assert code == 1
    assert "nonzero length" in err.getvalue()
    assert not out.exists()


def test_effective_refuses_the_zero_mode(tmp_path):
    # at k = 0 band 1 is the constant mode, omega = 0; roundoff leaves 1.4e-6 here, above
    # the old 1e-8 floor, and the floor sqrt|EIG_CLAMP| = 1e-5 refuses it while band 2 solves
    config = tmp_path / "medium.json"
    config.write_text(json.dumps(dict(MEDIUM, cutoff=4, a=dict(MEDIUM["a"], values=[1.0, 9.0]))))
    argv = ["effective", "--config", str(config), "--k", "0", "--cutoff", "8"]
    med = medium.medium_from_descriptor(json.loads(config.read_text()))
    assert 1e-8 < bloch.solve_at(med, [0.0], 8, 1)[0].omega < 1e-5
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(argv + ["--band", "1", "--out-prefix", str(tmp_path / "one")])
    assert code == 1 and "omega ~ 0" in err.getvalue()
    assert not list(tmp_path.glob("one*"))
    assert run_cli(argv + ["--band", "2", "--out-prefix", str(tmp_path / "two")])[0] == 0
    assert abs(json.loads((tmp_path / "two.json").read_text())["group_velocity"][0]) < 1e-10


def test_effective_matches_groupvel(config, tmp_path):
    prefix = str(tmp_path / "eff")
    gv_out = tmp_path / "gv.csv"
    code, _ = run_cli(["effective", "--config", config, "--k", "1.5707963267948966",
                       "--band", "1", "--out-prefix", prefix])
    assert code == 0
    code, _ = run_cli(["groupvel", "--config", config, "--k", "1.5707963267948966",
                       "--band", "1", "--out", str(gv_out)])
    assert code == 0
    eff = json.loads((tmp_path / "eff.json").read_text())
    gv_line = [ln for ln in gv_out.read_text().splitlines() if not ln.startswith("#")][1]
    v_fd = float(gv_line.split(",")[1])
    assert abs(eff["group_velocity"][0] - v_fd) < 1e-6


def test_3d_vector_effective_matches_groupvel(tmp_path):
    # a 3D elastic-type vector medium solves like any other: at cutoff 2 (375 plane waves, on the
    # band) effective's velocity and groupvel's FD one agree within the bench checker's 1e-6
    terms = elastic_terms((1.0, [((1, 0, 0), 0.3, 0.2), ((0, 1, 1), 0.2, 1.0)]),
                          (1.5, [((0, 1, 0), 0.4, 0.5), ((1, 0, -1), 0.3, 2.0)]))
    config = tmp_path / "elastic.json"
    config.write_text(json.dumps({
        "cell": [1.0, 1.0, 1.0], "kind": "vector", "n": 3, "cutoff": 1, "b": 1.0,
        "a": {"type": "tensor4", "terms": [{"ijkl": ijkl, "field": spec} for ijkl, spec in terms.items()]},
    }))
    at = ["--config", str(config), "--k=0.4,-0.7,0.9", "--cutoff", "2"]
    assert run_cli(["effective", *at, "--out-prefix", str(tmp_path / "eff")])[0] == 0
    assert run_cli(["groupvel", *at, "--out", str(tmp_path / "gv.csv")])[0] == 0
    v = json.loads((tmp_path / "eff.json").read_text())["group_velocity"]
    rows = [ln for ln in (tmp_path / "gv.csv").read_text().splitlines() if not ln.startswith("#")][1:]
    v_fd = [float(row.split(",")[1]) for row in rows]
    assert len(v) == len(v_fd) == 3 and max(abs(a - b) for a, b in zip(v, v_fd)) <= 1e-6


def test_couple_command(config, tmp_path):
    out = tmp_path / "decay.csv"
    code, msg = run_cli(["couple", "--config", config, "--k", "1.5707963267948966",
                         "--m", "1.0", "--bands", "1,1",
                         "--supercells", "4,8,16,32", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# resonant=False" in text
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows[0] == "n,j,p,l,re_avg,im_avg,abs_avg"
    assert len(rows) - 1 == 4 * 2 * 2 * 2  # n x j x p x l


def test_ergodic_command(tmp_path):
    spec = {
        "op": "modulated_1d",
        "f": {"period": 1.0, "harmonics": [{"n": -1, "re": 1.0}]},
        "b": 2 * np.pi,
        "windows": [10.0, 20.0, 40.0],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "erg.csv"
    code, _ = run_cli(["ergodic", "--spec", str(spec_path), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# limit_re=1" in text
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert rows[0] == "window,re_avg,im_avg,abs_err_vs_limit"


def test_ergodic_command_prints_drift_rate(tmp_path):
    # b misses the lattice point 2 pi by 3e-9, inside RESONANCE_TOL: the harmonic counts as
    # resonant and its window factor drifts, so C alone does not bound the errors, C + D L does
    spec = {"op": "modulated_1d", "b": 2 * np.pi + 3e-9, "windows": [100.0, 1e4, 1e6],
            "f": {"period": 1.0, "harmonics": [{"n": -1, "re": 1.0}]}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "erg.csv"
    assert run_cli(["ergodic", "--spec", str(spec_path), "--out", str(out)])[0] == 0
    lines = out.read_text().splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    c, d = float(meta["decay_constant"]), float(meta["drift_rate"])
    assert d == pytest.approx(1.5e-9, rel=1e-6)
    rows = [[float(v) for v in ln.split(",")] for ln in lines if not ln.startswith(("#", "window"))]
    assert len(rows) == 3
    for window, _, _, err in rows:
        assert err <= c / window + d * window + 1e-12


def test_ergodic_repeated_harmonic_last_wins(tmp_path):
    # a signal spec that repeats n keeps its last coefficient, not the sum
    spec = {"op": "modulated_1d", "b": 2 * np.pi, "windows": [10.0, 20.0],
            "f": {"period": 1.0, "harmonics": [{"n": -1, "re": 5.0}, {"n": -1, "re": 1.0}]}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "erg.csv"
    assert run_cli(["ergodic", "--spec", str(spec_path), "--out", str(out)])[0] == 0
    assert "# limit_re=1\n" in out.read_text()


def test_simulate_command(tmp_path):
    coarse = dict(MEDIUM, cutoff=8)
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps(coarse))
    prefix = str(tmp_path / "run")
    code, _ = run_cli(["simulate", "--config", str(config), "--k", "1.5707963267948966",
                       "--band", "1", "--epsilon", "0.125", "--sigma", "0.4",
                       "--center", "2.0", "--length", "8.0", "--points-per-cell", "33",
                       "--t-final", "2.0", "--out-prefix", prefix])
    assert code == 0
    meta = json.loads((tmp_path / "run_run.json").read_text())
    assert meta["stable"] is True
    assert meta["relative_error"] < 0.05
    frames = (tmp_path / "run_frames.csv").read_text().splitlines()
    header_at = next(i for i, ln in enumerate(frames) if not ln.startswith("#"))
    assert frames[header_at] == "t,centroid,mass,peak"


def test_simulate_rejects_a_schrodinger_medium(tmp_path):
    config = tmp_path / "schrodinger.json"
    config.write_text(json.dumps({"cell": [1.0], "kind": "schrodinger", "cutoff": 4,
                                  "mass": 0.5, "charge": 1.0, "potential": 0.0}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["simulate", "--config", str(config), "--k", "1.0",
                           "--out-prefix", str(tmp_path / "run")])
    assert code == 1
    assert "simulate supports the 1D scalar wave family" in err.getvalue()
    assert not list(tmp_path.glob("run*"))


def test_simulate_writes_one_envelope_file_per_frame(tmp_path):
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps(dict(MEDIUM, cutoff=8)))
    prefix = tmp_path / "run"
    code, _ = run_cli(["simulate", "--config", str(config), "--k", "1.5707963267948966",
                       "--cutoff", "8", "--epsilon", "0.125", "--sigma", "0.5", "--center", "2.0",
                       "--length", "5.0", "--points-per-cell", "17", "--t-final", "0.5",
                       "--frames", "5", "--write-envelope", "--out-prefix", str(prefix)])
    assert code == 0
    frames = json.loads((tmp_path / "run_run.json").read_text())["frames"]
    written = sorted(tmp_path.glob("run_envelope_*.csv"))
    assert [p.name for p in written] == sorted(f"run_envelope_{i}.csv" for i in range(frames))
    for path in written:
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "x,abs_f0"
        assert len(lines) - 1 == round(5.0 / 0.125)  # one row per epsilon-cell


MEDIUM_2D = {
    "cell": [1.0, 1.0],
    "kind": "scalar",
    "cutoff": 2,
    "a": {"type": "cosine", "mean": 2.0,
          "harmonics": [{"n": [1, 0], "amp": 0.4}, {"n": [0, 1], "amp": 0.3}]},
    "b": 1.0,
}


@pytest.mark.parametrize("flag, argv", [
    ("--k-start", ["bands", "--k-end", "0.7,0.5", "--samples", "5", "--cutoff", "3"]),
    ("--k", ["groupvel", "--cutoff", "3"]),
    ("--m", ["couple", "--k", "1.0,0.5", "--supercells", "4,8", "--cutoff", "3"]),
])
def test_negative_vector_after_flag(flag, argv, tmp_path):
    # "--k -0.7,0.5" must parse like "--k=-0.7,0.5", not as an unknown option
    config = tmp_path / "medium2d.json"
    config.write_text(json.dumps(MEDIUM_2D))
    outs = []
    for form, value in (("spaced", [flag, "-0.7,0.5"]), ("joined", [f"{flag}=-0.7,0.5"])):
        out = tmp_path / f"{form}.csv"
        code, _ = run_cli(argv + value + ["--config", str(config), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_exit_codes(config, tmp_path):
    code, _ = run_cli(["nonsense"])
    assert code == 64

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run_cli(["bands", "--config", str(broken), "--k-start", "0",
                       "--k-end", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cell": [1.0], "kind": "fluid", "cutoff": 4}))
    code, _ = run_cli(["bands", "--config", str(bad), "--k-start", "0",
                       "--k-end", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 1

    # degenerate stencil point -> numerical failure
    const = tmp_path / "const.json"
    const.write_text(json.dumps({"cell": [1.0], "kind": "scalar", "cutoff": 1,
                                 "a": 1.0, "b": 1.0}))
    code, _ = run_cli(["groupvel", "--config", str(const), "--k", "0.0", "--band", "2",
                       "--cutoff", "4", "--out", str(tmp_path / "gv.csv")])
    assert code == 2


_GROUPVEL = ["groupvel", "--k", "0.5", "--out", "{out}"]
_SCHRODINGER = {"kind": "schrodinger", "mass": 0.5, "charge": 1.0, "potential": 0.0}
# malformed descriptor values: (medium keys replaced, key the error names)
_BAD_MEDIA = [
    ({"cell": ["x"]}, "cell"),
    ({"cutoff": "four"}, "cutoff"),
    (dict(_SCHRODINGER, mass="heavy"), "mass"),
    ({"b": {"type": "cosine", "mean": 1.0, "harmonics": [{"n": [1], "amp": "big"}]}}, "b"),
    ({"b": {"type": "fourier", "terms": [{"n": [0], "re": "one"}]}}, "b"),
    ({"a": {"type": "matrix", "entries": [[{"type": "constant", "value": "x"}]]}}, "a[0][0]"),
    (dict(_SCHRODINGER, potential={"type": "constant", "value": "deep"}), "potential"),
    ({"cutoff": 4.7}, "cutoff"),
    ({"cutoff": True}, "cutoff"),
    ({"cutoff": 10 ** 400}, "cutoff"),
    ({"kind": "vector", "n": 2.5, "a": {"type": "tensor4", "terms": [{"ijkl": [0, 0, 0, 0], "field": 1.0}]},
      "b": 1.0}, "n"),
]


@pytest.mark.parametrize("argv, changes, key", [(argv, {}, "") for argv in [
    ["groupvel", "--k", "nan", "--out", "{out}"],
    ["effective", "--k", "inf", "--out-prefix", "{out}"],
    ["bands", "--k-start", "0.1", "--k-end", "nan", "--out", "{out}"],
    ["groupvel", "--k", "1.0", "--step", "0", "--out", "{out}"],
    ["groupvel", "--k", "1.0", "--step", "nan", "--out", "{out}"],
    ["couple", "--k", "1.2", "--m", "0.5", "--time-window", "0", "--out", "{out}"],
    ["couple", "--k", "1.2", "--m", "0.5", "--time-window", "-3", "--out", "{out}"],
    ["couple", "--k", "1.2", "--m", "0.5", "--time-window", "nan", "--out", "{out}"],
    ["simulate", "--k", "1.5707963267948966", "--length", "nan", "--out-prefix", "{out}"],
    ["simulate", "--k", "1.5707963267948966", "--length", "inf", "--out-prefix", "{out}"],
    ["simulate", "--k", "1.5707963267948966", "--t-final", "nan", "--out-prefix", "{out}"],
    ["simulate", "--k", "1.5707963267948966", "--t-final", "0", "--out-prefix", "{out}"],
    ["simulate", "--k", "1.5707963267948966", "--t-final", "0.5", "--cfl", "nan",
     "--out-prefix", "{out}"],
    ["simulate", "--k", "1.5707963267948966", "--t-final", "0.5", "--sigma", "nan",
     "--out-prefix", "{out}"],
    ["simulate", "--k", "1.5707963267948966", "--t-final", "0.5", "--center", "nan",
     "--out-prefix", "{out}"],
]] + [(_GROUPVEL, changes, key) for changes, key in _BAD_MEDIA],
    ids=["k-nan", "k-inf", "k-end-nan", "step-0", "step-nan", "window-0", "window-neg",
         "window-nan", "length-nan", "length-inf", "t-final-nan", "t-final-0", "cfl-nan",
         "sigma-nan", "center-nan", "cell-word", "cutoff-word", "mass-word", "amp-word",
         "re-word", "matrix-entry-word", "constant-word", "cutoff-fraction", "cutoff-bool",
         "cutoff-huge", "n-fraction"])
def test_bad_numbers_rejected(argv, changes, key, tmp_path):
    # a non-finite k, FD step, time window or simulate parameter, a zero t_final, or a
    # malformed descriptor value, is a validation error naming its key: exit 1, no artifact
    config = tmp_path / "medium.json"
    config.write_text(json.dumps(dict(MEDIUM, **changes)))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli([a.replace("{out}", str(out)) for a in argv] + ["--config", str(config)])
    assert code == 1
    assert err.getvalue().startswith(f"error: {key}")
    assert not list(tmp_path.glob("out*"))


# the argv each subcommand requires, and every other option's parsed default
_REQUIRED_ARGV = {
    "bands": ["--config", "c.json", "--k-start", "0", "--k-end", "1", "--out", "o.csv"],
    "groupvel": ["--config", "c.json", "--k", "1", "--out", "o.csv"],
    "effective": ["--config", "c.json", "--k", "1"],
    "couple": ["--config", "c.json", "--k", "1", "--m", "2", "--out", "o.csv"],
    "ergodic": ["--spec", "s.json", "--out", "o.csv"],
    "simulate": ["--config", "c.json", "--k", "1"],
    "check": [],
}
_DEFAULTS = {
    "bands": {"samples": 50, "band": 1, "cutoff": 16},
    "groupvel": {"band": 1, "cutoff": 16, "step": None},
    "effective": {"band": 1, "cutoff": 16, "out_prefix": "effective"},
    "couple": {"bands": "1,1", "supercells": "4,8,16,32", "time_window": None, "cutoff": 16},
    "ergodic": {},
    "simulate": {"band": 1, "cutoff": 16, "epsilon": 1 / 32, "sigma": 0.5, "center": 2.5,
                 "length": 8.0, "points_per_cell": None, "t_final": None, "cfl": 0.9, "frames": 9,
                 "write_envelope": False, "out_prefix": "simulate"},
    "check": {},
}


@pytest.mark.parametrize("name", list(_DEFAULTS))
def test_parsed_defaults(name):
    assert set(_DEFAULTS) == set(cli.COMMANDS)
    argv = _REQUIRED_ARGV[name]
    args = vars(cli._build_parser().parse_args([name] + argv))
    given = {flag[2:].replace("-", "_"): value for flag, value in zip(argv[::2], argv[1::2])}
    assert args == dict(_DEFAULTS[name], command=name, **given)


def test_simulate_default_grid_resolves_the_carrier(tmp_path):
    # without --points-per-cell the grid has 2 * cutoff + 1 points per epsilon-cell, the
    # least that resolves every retained harmonic, so the under-resolution warning stays off
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps(dict(MEDIUM, cutoff=8)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(["simulate", "--config", str(config), "--k", "1.5707963267948966",
                           "--cutoff", "8", "--epsilon", "0.125", "--sigma", "0.5", "--center", "2",
                           "--length", "5", "--t-final", "0.5", "--frames", "5",
                           "--out-prefix", str(tmp_path / "sim")])
    assert code == 0
    assert not [w for w in caught if "under-resolve" in str(w.message)]
    assert json.loads((tmp_path / "sim_run.json").read_text())["grid_points"] == 40 * 17


@pytest.mark.parametrize("k, fits", [(1.5707963267948966, False), (3.043417883165112, True)],
                         ids=["fast", "slow"])
def test_simulate_default_t_final_keeps_the_packet_inside(k, fits, tmp_path):
    # without --t-final the README medium runs 4 time units if its packet's 4-sigma band
    # stays inside the default domain (|v_g| = 0.21 near the zone edge), and otherwise
    # 0.9 of the time that band takes to reach the boundary (|v_g| = 1.21 at k = pi/2)
    config = tmp_path / "medium.json"
    config.write_text(json.dumps(MEDIUM))
    prefix = tmp_path / "sim"
    code, _ = run_cli(["simulate", "--config", str(config), "--k", str(k), "--epsilon", "0.125",
                       "--out-prefix", str(prefix)])
    assert code == 0
    speed = json.loads((tmp_path / "sim_run.json").read_text())["predicted_speed"]
    frames = (tmp_path / "sim_frames.csv").read_text().splitlines()
    t_last = float(frames[-1].split(",")[0])
    assert t_last == pytest.approx(4.0 if fits else 0.9 * (8.0 - 2.5 - 4 * 0.5) / speed, rel=1e-12)
    assert (speed * 4.0 <= 8.0 - 2.5 - 4 * 0.5) == fits


def test_ragged_matrix_rejected(tmp_path):
    # a lower-only off-diagonal entry is an error, not a diagonal matrix
    ragged = dict(MEDIUM, cell=[1.0, 1.0], cutoff=2, a={"type": "matrix", "entries": [[1.0], [0.3, 1.0]]})
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(ragged))
    out = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["groupvel", "--config", str(path), "--k", "0.5,0.2", "--out", str(out)])
    assert code == 1
    assert err.getvalue().startswith("error: ")
    assert not out.exists()


_SIGNAL = {"period": 1.0, "harmonics": [{"n": 1, "re": 0.5}, {"n": -1, "re": 0.5}]}
_FIELD = {"terms": [{"n": [0, 0], "re": 0.5}, {"n": [1, -1], "re": 0.3}]}
_NAN, _INF = float("nan"), float("inf")


# malformed spec values: (spec, key the error names)
_BAD_SPECS = [
    ({"op": "modulated_1d", "f": _SIGNAL, "b": "x", "windows": [4.0, 8.0]}, "b"),
    ({"op": "modulated_1d", "f": dict(_SIGNAL, harmonics=[{"n": 1, "re": "one"}]), "b": 1.0,
      "windows": [4.0, 8.0]}, "f"),
    ({"op": "modulated_dd", "cell": ["x"], "f": _FIELD, "lambda": [0.5, 0.7], "boxes": [4.0, 8.0]},
     "cell"),
    ({"op": "modulated_dd", "cell": [1.0, 1.0], "f": {"terms": [{"n": [0, 0], "re": "one"}]},
      "lambda": [0.5, 0.7], "boxes": [4.0, 8.0]}, "f"),
    ({"op": "modulated_dd", "cell": [1.0, 1.0], "f": _FIELD, "lambda": ["a", 0.2],
      "boxes": [4.0, 8.0]}, "lambda"),
]


@pytest.mark.parametrize("spec, key", [(spec, "") for spec in [
    {"op": "modulated_1d", "f": _SIGNAL, "b": 1.0, "windows": [4.0, _NAN]},
    {"op": "modulated_1d", "f": _SIGNAL, "b": 1.0, "windows": [4.0, _INF]},
    {"op": "modulated_1d", "f": _SIGNAL, "b": _NAN, "windows": [4.0, 8.0]},
    {"op": "modulated_1d", "f": _SIGNAL, "b": -_INF, "windows": [4.0, 8.0]},
    {"op": "modulated_1d", "f": dict(_SIGNAL, period=_NAN), "b": 1.0, "windows": [4.0, 8.0]},
    {"op": "product", "f": _SIGNAL, "g": dict(_SIGNAL, period=_INF), "windows": [4.0, 8.0]},
    {"op": "product", "f": _SIGNAL, "g": _SIGNAL, "windows": [_NAN]},
    {"op": "product", "f": _SIGNAL, "g": _SIGNAL},
    {"op": "modulated_dd", "cell": [1.0, 1.0], "f": _FIELD, "lambda": [0.5, _NAN],
     "boxes": [4.0, 8.0]},
    {"op": "modulated_dd", "cell": [1.0, 1.0], "f": _FIELD, "lambda": [0.5, 0.7],
     "boxes": [[4.0, 4.0], [8.0, _INF]]},
    {"op": "modulated_dd", "cell": [1.0, 1.0], "f": _FIELD, "lambda": [0.5, 0.7],
     "boxes": [_NAN]},
    {"op": "modulated_1d", "f": dict(_SIGNAL, harmonics=[{"n": 1, "re": _NAN}]), "b": 1.0,
     "windows": [4.0, 8.0]},
    {"op": "product", "f": _SIGNAL, "g": dict(_SIGNAL, harmonics=[{"n": -2, "im": _INF}]),
     "windows": [4.0, 8.0]},
    {"op": "modulated_1d", "f": _SIGNAL, "b": 1.0},
]] + _BAD_SPECS, ids=["window-nan", "window-inf", "b-nan", "b-inf", "period-nan", "period-inf",
                      "product-window-nan", "windows-missing", "lambda-nan", "box-inf", "box-nan",
                      "harmonic-nan", "product-harmonic-inf", "modulated-windows-missing", "b-word",
                      "harmonic-word", "cell-word", "term-word", "lambda-word"])
def test_bad_ergodic_numbers_rejected(spec, key, tmp_path):
    # a non-finite window, box, lambda, b, period or harmonic, no windows at all, or a
    # malformed value, is a validation error naming its key: exit 1, no artifact
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["ergodic", "--spec", str(spec_path), "--out", str(out)])
    assert code == 1
    assert err.getvalue().startswith(f"error: {key}")
    assert not out.exists()


def test_outputs_are_deterministic(config, tmp_path):
    args = ["bands", "--config", config, "--k-start", "0.1", "--k-end", "3.0",
            "--samples", "20", "--band", "1"]
    outs = []
    for i in (0, 1):
        out = tmp_path / f"bands{i}.csv"
        code, _ = run_cli(args + ["--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_matrix_spec_without_type_rejected(tmp_path):
    # a dict with no "type" whose keys are not (i, j) pairs names the coefficient
    path = tmp_path / "untyped.json"
    path.write_text(json.dumps(dict(MEDIUM, a={"value": 1.0})))
    out = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["groupvel", "--config", str(path), "--k", "0.5", "--out", str(out)])
    assert code == 1
    assert err.getvalue().startswith("error: a: ")
    assert not out.exists()


_WINDOWS = [4.0, 8.0]


@pytest.mark.parametrize("spec, key", [
    ([1.0, 2.0], "JSON object"),
    ({"op": "modulated_1d", "b": 1.0, "windows": _WINDOWS}, "'f'"),
    ({"op": "product", "f": _SIGNAL, "windows": _WINDOWS}, "'g'"),
    ({"op": "modulated_1d", "f": _SIGNAL, "windows": _WINDOWS}, "'b'"),
    ({"op": "modulated_dd", "f": _FIELD, "lambda": [0.5, 0.7], "boxes": _WINDOWS}, "'cell'"),
    ({"op": "modulated_dd", "cell": [1.0, 1.0], "f": _FIELD, "boxes": _WINDOWS}, "'lambda'"),
    ({"op": "modulated_dd", "cell": [1.0, 1.0], "f": _FIELD, "lambda": [0.5, 0.7]}, "'boxes'"),
    ({"op": "modulated_dd", "cell": [1.0, 1.0], "f": {}, "lambda": [0.5, 0.7], "boxes": _WINDOWS},
     "'terms'"),
    ({"op": "modulated_dd", "cell": [1.0, 1.0], "f": {"terms": [{"n": [0, 0], "re": 1.0}, {"re": 0.5}]},
      "lambda": [0.5, 0.7], "boxes": _WINDOWS}, "f.terms[1]: missing required key 'n'"),
], ids=["not-object", "no-f", "no-g", "no-b", "no-cell", "no-lambda", "no-boxes", "no-terms",
        "no-term-n"])
def test_incomplete_ergodic_spec_rejected(spec, key, tmp_path):
    # a spec that is not an object or lacks a required key is a validation error naming it
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["ergodic", "--spec", str(spec_path), "--out", str(out)])
    assert code == 1
    assert err.getvalue().startswith("error: ")
    assert key in err.getvalue()
    assert not out.exists()


def _fresh_interpreter(script, *args, cwd):
    """Run ``script`` in a new Python process that imports hfh from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


_MAIN = "import sys\nfrom hfh import cli\nsys.exit(cli.main(sys.argv[1:]))"


def _session_commands(config, spec):
    return [
        ["bands", "--config", config, "--k-start", "0.1", "--k-end", "3.0", "--samples", "6",
         "--cutoff", "6", "--out", "bands.csv"],
        ["couple", "--config", config, "--k", "1.2", "--m", "0.5", "--cutoff", "6",
         "--supercells", "4,8", "--out", "couple.csv"],
        ["effective", "--config", config, "--k", "1.2", "--cutoff", "6", "--out-prefix", "eff"],
        ["ergodic", "--spec", spec, "--out", "ergodic.csv"],
    ]


def test_one_process_matches_fresh_interpreters(tmp_path, monkeypatch):
    # the parser is built once per process and the Galerkin parts of the last (medium, cutoff)
    # are kept: commands on two configs (1D, dense solves; 2D at cutoff 8, band solves) run
    # alternately in one process, with a usage error among them, so the kept parts are both
    # reused and replaced, and write the same bytes as each command run alone
    config = tmp_path / "medium.json"
    config.write_text(json.dumps(dict(MEDIUM, cutoff=6)))
    config2d = tmp_path / "medium2d.json"
    config2d.write_text(json.dumps(MEDIUM_2D))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"op": "product", "f": _SIGNAL, "g": _SIGNAL, "windows": _WINDOWS}))
    bands, couple, effective, ergodic = _session_commands(str(config), str(spec))
    in2d = ["--config", str(config2d), "--cutoff", "8"]
    commands = [bands, ["bands", *in2d, "--k-start=0.6,-0.4", "--k-end=2.1,-1.9", "--samples", "4",
                        "--out", "bands2d.csv"],
                couple, effective, ["effective", *in2d, "--k=1.2,0.3", "--out-prefix", "eff2d"],
                ["groupvel", *in2d, "--k=1.2,0.3", "--out", "groupvel2d.csv"], ergodic]
    together, alone = tmp_path / "together", tmp_path / "alone"
    together.mkdir()
    alone.mkdir()
    monkeypatch.chdir(together)
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [run_cli(argv)[0] for argv in commands[:1] + [["bands", "--bogus"]] + commands[1:]]
    assert codes == [0, 64, 0, 0, 0, 0, 0, 0]
    kept = bloch._galerkin.cache_info()
    assert kept.misses == 4 and kept.hits > 0  # one build per change of config
    assert "band" in vars(bloch._galerkin(medium.medium_from_descriptor(MEDIUM_2D), 8))  # kept: a hit
    assert bloch._galerkin.cache_info().hits == kept.hits + 1
    for argv in commands:
        proc = _fresh_interpreter(_MAIN, *argv, cwd=alone)
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in alone.iterdir())
    assert names == sorted(p.name for p in together.iterdir())
    assert len(names) == 9
    for name in names:
        assert (together / name).read_bytes() == (alone / name).read_bytes(), name


# scipy.signal and the rest: field products use numpy's FFT.  scipy.linalg._decomp and what the
# scipy.linalg package imports at start-up (its array-API shim, numpy.f2py): bloch loads scipy's
# LAPACK and BLAS wrappers without the package
_HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize",
          "scipy.linalg._decomp", "scipy._lib._array_api", "numpy.f2py")


# loaded by `check` (its fixtures draw from numpy.random) but by no solve command
_CHECK_ONLY = ("numpy.random", "hashlib", "_hashlib", "hfh.checks")


def test_commands_import_no_heavy_scipy(tmp_path):
    # no command pulls in a module of _HEAVY, and the solve commands, a 2D band-path sweep
    # among them, pull in none of _CHECK_ONLY either
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(dict(MEDIUM, cutoff=8)))
    config = tmp_path / "medium.json"
    config.write_text(json.dumps(dict(MEDIUM, cutoff=6)))
    config2d = tmp_path / "medium2d.json"
    config2d.write_text(json.dumps(MEDIUM_2D))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"op": "modulated_dd", "cell": [1.0, 1.0], "f": _FIELD,
                                "lambda": [0.5, 0.7], "boxes": _WINDOWS}))
    solves = _session_commands(str(config), str(spec)) + [
        ["groupvel", "--config", str(config), "--k", "1.2", "--cutoff", "6", "--out", "gv.csv"],
        ["simulate", "--config", str(coarse), "--k", "1.5707963267948966", "--epsilon", "0.125",
         "--sigma", "0.4", "--center", "2.0", "--length", "8.0", "--points-per-cell", "16",
         "--t-final", "0.5", "--frames", "5", "--out-prefix", "sim"],
        ["bands", "--config", str(config2d), "--cutoff", "8", "--k-start=0.6,-0.4",
         "--k-end=2.1,-1.9", "--samples", "4", "--out", "bands2d.csv"]]
    script = ("import json, sys\nimport hfh.cli\n"
              "def loaded(names):\n"
              "    print('loaded:', json.dumps(sorted(m for m in names if m in sys.modules)))\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert hfh.cli.main(argv) == 0, argv\n"
              f"loaded({_HEAVY + _CHECK_ONLY!r})\n"
              "assert hfh.cli.main(['check']) == 0\n"
              f"loaded({_HEAVY!r})\n")
    proc = _fresh_interpreter(script, json.dumps(solves), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded: ")]
    assert loaded == ["loaded: []", "loaded: []"]
    assert (tmp_path / "sim_run.json").is_file() and (tmp_path / "eff.json").is_file()
    assert (tmp_path / "bands.csv").is_file() and (tmp_path / "gv.csv").is_file()
    assert (tmp_path / "bands2d.csv").is_file()


def test_digests_do_not_depend_on_the_sha256_module(tmp_path):
    # media fingerprints and config digests come from CPython's builtin SHA-256 module, which
    # spares loading OpenSSL; where that module is missing, hashlib's SHA-256 gives the same
    # fingerprints and an effective run writes the same bytes
    config = tmp_path / "medium.json"
    config.write_text(json.dumps(MEDIUM))
    script = ("import json, sys\n"
              "if sys.argv[1] == 'hashlib':\n"
              "    sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
              "import hfh.cli\n"
              "from hfh.medium import medium_from_descriptor\n"
              "assert ('hashlib' in sys.modules) == (sys.argv[1] == 'hashlib')\n"
              "print(json.dumps({name: medium_from_descriptor(desc).fingerprint\n"
              "                  for name, desc in json.loads(sys.argv[2]).items()}))\n"
              "assert hfh.cli.main(json.loads(sys.argv[3])) == 0\n")
    argv = ["effective", "--config", str(config), "--k", "1.2", "--cutoff", "8",
            "--out-prefix", "eff"]
    written = {}
    for sha in ("builtin", "hashlib"):
        (tmp_path / sha).mkdir()
        proc = _fresh_interpreter(script, sha, json.dumps(GOLDEN_CONFIGS), json.dumps(argv),
                                  cwd=tmp_path / sha)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[0]) == FINGERPRINTS
        written[sha] = {p.name: p.read_bytes() for p in (tmp_path / sha).iterdir()}
    assert sorted(written["builtin"]) == ["eff.csv", "eff.json"]
    assert written["hashlib"] == written["builtin"]


def test_artifacts_do_not_depend_on_scipy_linalg_being_imported(tmp_path):
    # bloch loads scipy's LAPACK and BLAS wrappers without the scipy.linalg package; an import
    # of the package before or after hfh shares them, and without the wrapper files bloch
    # imports them through the package: a 2D band-path sweep and a schrodinger effective write
    # the same bytes every way
    config2d = tmp_path / "medium2d.json"
    config2d.write_text(json.dumps(MEDIUM_2D))
    schrodinger = tmp_path / "schrodinger.json"
    schrodinger.write_text(json.dumps(dict(
        _SCHRODINGER, cell=[1.0], cutoff=6,
        potential={"type": "cosine", "mean": 0.0, "harmonics": [{"n": [1], "amp": 2.0}]})))
    commands = [["bands", "--config", str(config2d), "--cutoff", "8", "--k-start=0.6,-0.4",
                 "--k-end=2.1,-1.9", "--samples", "4", "--out", "bands2d.csv"],
                ["effective", "--config", str(schrodinger), "--k", "1.2", "--cutoff", "8",
                 "--out-prefix", "eff"]]
    script = ("import importlib.machinery, json, sys\n"
              "if sys.argv[1] == 'before':\n"
              "    import scipy.linalg\n"
              "if sys.argv[1] == 'missing':\n"
              "    importlib.machinery.EXTENSION_SUFFIXES = ['.missing']\n"
              "import hfh.cli\n"
              "from hfh import bloch\n"
              "assert ('scipy.linalg._decomp' in sys.modules) == (sys.argv[1] in ('before', 'missing'))\n"
              "if sys.argv[1] != 'never':\n"
              "    import scipy.linalg\n"
              "    assert scipy.linalg.lapack.zheevr is bloch.lapack.zheevr\n"
              "    assert scipy.linalg.blas.zhbmv is bloch.blas.zhbmv\n"
              "else:\n"
              "    assert 'scipy.linalg' not in sys.modules\n"
              "for argv in json.loads(sys.argv[2]):\n"
              "    assert hfh.cli.main(argv) == 0, argv\n")
    written = {}
    for order in ("never", "before", "after", "missing"):
        (tmp_path / order).mkdir()
        proc = _fresh_interpreter(script, order, json.dumps(commands), cwd=tmp_path / order)
        assert proc.returncode == 0, proc.stderr
        written[order] = {p.name: p.read_bytes() for p in (tmp_path / order).iterdir()}
    assert sorted(written["never"]) == ["bands2d.csv", "eff.csv", "eff.json"]
    assert all(written[order] == written["never"] for order in ("before", "after", "missing"))


def test_check_stdout_unchanged_times_on_stderr():
    # stdout carries the check lines alone; each check's wall time goes to stderr
    lines = []
    assert checks.run_all(write=lines.append)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["check"]) == 0
    names = [name for name, _ in checks.ALL_CHECKS]
    assert out.getvalue().splitlines() == lines
    assert [line[5:].split(": ")[0] for line in lines] == names
    assert all(line.startswith("ok   ") for line in lines)
    timing = [line.rsplit(": ", 1) for line in err.getvalue().splitlines()]
    assert [name for name, _ in timing] == names
    assert all(re.fullmatch(r"\d+\.\d{3} s", seconds) for _, seconds in timing)


def _bench_tracing():
    """``bench/tracing.py``, imported by path (``bench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracing_reaches_every_alias(tmp_path):
    # the benchmark's tracer wraps hfh functions under the names in its ALIASES list and
    # refuses to install when one is missing, so renaming one of them breaks `--trace 1`
    tracing = _bench_tracing()
    originals = {path: tracing._resolve(path) for path in tracing.ALIASES + ("hfh.cli.main",)}
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps(dict(MEDIUM, cutoff=8)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        assert run_cli(["effective", "--config", str(config), "--k", "1.2", "--cutoff", "8",
                        "--out-prefix", str(tmp_path / "eff")])[0] == 0
        assert run_cli(["simulate", "--config", str(config), "--k", "1.5707963267948966",
                        "--cutoff", "8", "--epsilon", "0.125", "--sigma", "0.5", "--center", "2",
                        "--length", "5", "--points-per-cell", "17", "--t-final", "0.5",
                        "--frames", "5", "--out-prefix", str(tmp_path / "sim")])[0] == 0
        metrics = tracer.metrics(since)
    finally:
        tracer.uninstall()
    assert {"effective.coeffs", "simulate.fdtd"} <= set(metrics["self_s"])
    assert metrics["fdtd_points"]
    assert all(tracing._resolve(path) is fn for path, fn in originals.items())


def test_bench_tracing_counts_one_span_per_ergodic_call(tmp_path):
    # one modulated_1d spec through the traced CLI records one ergodic.avg span, since the
    # op calls avg_modulated_dd directly, with no pass-through wrapper spanned around it
    tracing = _bench_tracing()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"op": "modulated_1d", "f": _SIGNAL, "b": 1.0, "windows": _WINDOWS}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        since = tracer.mark()
        assert run_cli(["ergodic", "--spec", str(spec), "--out", str(tmp_path / "erg.csv")])[0] == 0
        groups = [span[tracing.GROUP] for span in tracer.spans[since[0]:]]
    finally:
        tracer.uninstall()
    assert groups.count("ergodic.avg") == 1
    assert groups.count("cli") == 1


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(block, namespace)
    assert abs(namespace["co"].v[0] - namespace["v_fd"][0]) < 1e-6
