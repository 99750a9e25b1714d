"""Golden CLI artifacts: a fixed set of configs keeps writing the same numbers.

Each case runs one CLI command on a config defined here and compares every
file it writes with the copy under ``tests/golden/``.  Comment and header
lines, JSON keys and strings must match byte for byte, except the value of
a ``# key=value`` line printed as a float; every number must match within
1e-12 * max(|x|, 1) of the stored value x.  In a CSV row, a stored number
within 1e-11 * S of zero, where S is the largest |x| among the row's
measured values (integer fields such as ``n`` are labels), only has to
match within 1e-11 * S: its digits move with the BLAS thread count.  It is
either roundoff left by a cancellation among terms of size S, or the drift
of a resonant pair's cross averages in ``resonant2d_couple``: their real
parts grow as D n T0 (about 3.5e-13, 7.0e-13 and 1.4e-12 at n = 2, 4, 8 at
one BLAS thread), D the printed ``# drift_rate=``, which is proportional to
the pair's frequency difference, itself eigensolver roundoff.  The set
covers the three equation families (1D and anisotropic 2D scalar, 2D
vector, 1D and magnetic 2D Schrodinger) through ``bands``, ``groupvel`` and
``effective``, plus ``couple`` in 1D and 2D (one 2D pair resonant, its
wavevectors one reciprocal step apart on one axis and equal on the other),
one ``ergodic`` spec each for ``modulated_dd``, ``modulated_1d`` and
``product``, and one short ``simulate``.

A change meant to keep results leaves these files alone.  Rewrite them only
for a change meant to move numbers, and say so in the change log; name cases
to write only those (a new case is written this way):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_golden.py [case ...]

Every rewrite also records in ``MANIFEST.json`` the sha256 of each stored
file, the numpy and scipy versions and the BLAS thread count.  With
``--check`` in place of case names, every case is written to a temporary
directory and each file whose bytes differ from the stored copy is named
(exit 1), so a tree that no longer writes its goldens exactly is seen
before a change rewrites them.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hfh import cli
from hfh.medium import medium_from_descriptor

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"
REL_TOL = 1e-12
ROUNDOFF_TOL = 1e-11  # against the largest measured |x| in the same CSV row


def _cos(mean, *harmonics):
    return {"type": "cosine", "mean": mean,
            "harmonics": [{"n": list(n), "amp": amp, "phase": phase}
                          for n, amp, phase in harmonics]}


CONFIGS = {
    "scalar1d": {
        "cell": [1.0], "kind": "scalar", "cutoff": 8,
        "a": {"type": "piecewise", "breaks": [0.0, 0.5], "values": [1.0, 4.0]},
        "b": _cos(1.2, ((1,), 0.3, 0.4)),
    },
    "scalar2d": {
        "cell": [1.0, 1.3], "kind": "scalar", "cutoff": 2,
        "a": {"type": "matrix", "entries": [
            [_cos(2.0, ((1, 0), 0.4, 0.3), ((1, 1), 0.2, 1.1)), _cos(0.3, ((0, 1), 0.1, 0.0))],
            [_cos(0.3, ((0, 1), 0.1, 0.0)), _cos(1.5, ((0, 1), 0.3, 2.0))]]},
        "b": _cos(1.0, ((1, -1), 0.2, 0.7)),
    },
    "vector2d": {
        "cell": [1.0, 1.0], "kind": "vector", "n": 2, "cutoff": 2,
        "a": {"type": "tensor4", "terms": [
            {"ijkl": [0, 0, 0, 0], "field": _cos(2.0, ((1, 0), 0.4, 0.0))},
            {"ijkl": [0, 1, 0, 1], "field": 1.0},
            {"ijkl": [1, 0, 1, 0], "field": _cos(1.0, ((0, 1), 0.2, 0.5))},
            {"ijkl": [1, 1, 1, 1], "field": 2.0},
            {"ijkl": [0, 0, 1, 1], "field": 0.3},
            {"ijkl": [0, 1, 1, 0], "field": _cos(0.2, ((1, 1), 0.05, 0.0))}]},
        "b": {"type": "matrix", "entries": [[1.0, 0.15], [0.15, _cos(1.1, ((1, 0), 0.2, 0.0))]]},
    },
    "schrodinger1d": {
        "cell": [1.0], "kind": "schrodinger", "cutoff": 8, "mass": 0.5, "charge": 1.0,
        "potential": _cos(0.0, ((1,), 2.0, 0.0), ((2,), 0.7, 1.3)),
    },
    "schrodinger2d": {
        "cell": [1.0, 1.0], "kind": "schrodinger", "cutoff": 2, "mass": 0.7, "charge": 1.0,
        "potential": _cos(0.2, ((1, 0), 0.8, 0.0), ((0, 1), 0.5, 0.9), ((1, 1), 0.3, 0.0)),
        "magnetic": [_cos(0.3, ((0, 1), 0.4, 0.2)), _cos(-0.2, ((1, 0), 0.25, 1.0))],
    },
    # smooth enough that band 1 at k and at k + (2 pi, 0) agree to ~1e-13 at cutoff 6
    "resonant2d": {
        "cell": [1.0, 1.3], "kind": "scalar", "cutoff": 1,
        "a": {"type": "matrix", "entries": [[_cos(2.0, ((1, 0), 0.3, 0.3)), 0.2],
                                            [0.2, _cos(1.5, ((0, 1), 0.2, 2.0))]]},
        "b": _cos(1.0, ((1, 0), 0.1, 0.7)),
    },
}

ERGODIC_SPECS = {
    "ergodic_dd": {
        "op": "modulated_dd", "cell": [1.0, 1.2],
        "f": {"terms": [{"n": [0, 0], "re": 0.5}, {"n": [1, -2], "re": 0.3, "im": -0.2},
                        {"n": [-3, 1], "re": -0.7, "im": 0.4}, {"n": [2, 2], "im": 0.9}]},
        "lambda": [0.9, -1.7],
        "boxes": [[4.0, 3.0], [8.0, 6.0], [16.0, 12.0], [32.0, 24.0]],
    },
    # b = -2 pi: resonant, and harmonic 1 meets b at exactly q = 0
    "ergodic_1d": {
        "op": "modulated_1d", "b": -6.283185307179586, "windows": [3.7, 7.9, 15.3, 31.1],
        "f": {"period": 1.0, "harmonics": [
            {"n": 0, "re": 0.4}, {"n": 1, "re": 0.3, "im": -0.1}, {"n": -1, "re": 0.3, "im": 0.1},
            {"n": 2, "im": 0.25}, {"n": -3, "re": -0.6, "im": 0.2}]},
    },
    # T1/T2 = 2/3: harmonics 2 of f and -3 of g meet at exactly q = 0
    "ergodic_product": {
        "op": "product", "windows": [2.9, 6.1, 12.7, 25.3],
        "f": {"period": 1.0, "harmonics": [
            {"n": 1, "re": 0.5}, {"n": -1, "re": 0.5}, {"n": 2, "re": 0.2, "im": 0.3},
            {"n": -2, "re": 0.2, "im": -0.3}]},
        "g": {"period": 1.5, "harmonics": [
            {"n": 0, "re": 0.4}, {"n": 3, "re": -0.35, "im": 0.1}, {"n": -3, "re": -0.35, "im": -0.1},
            {"n": 1, "im": 0.7}]},
    },
}

# per medium: band sweep start and end, the mode's k, the operator cutoff
_MODE_POINTS = {
    "scalar1d": ("0.9", "2.6", "1.2", "8"),
    "scalar2d": ("0.3,0.2", "1.9,1.4", "0.9,0.4", "3"),
    "vector2d": ("0.3,0.2", "1.6,1.1", "0.9,0.4", "3"),
    "schrodinger1d": ("0.4", "2.8", "1.3", "8"),
    "schrodinger2d": ("0.2,0.3", "1.5,2.2", "0.8,0.5", "3"),
}

# (name, name in CONFIGS or ERGODIC_SPECS, argv with an {out} placeholder,
#  suffixes of the files written)
CASES = []
for _name, (_k0, _k1, _k, _cut) in _MODE_POINTS.items():
    CASES += [
        (f"{_name}_bands", _name, ["bands", "--k-start=" + _k0, "--k-end=" + _k1,
                                   "--samples", "4", "--cutoff", _cut, "--out", "{out}.csv"],
         (".csv",)),
        (f"{_name}_groupvel", _name, ["groupvel", "--k=" + _k, "--cutoff", _cut,
                                      "--out", "{out}.csv"], (".csv",)),
        (f"{_name}_effective", _name, ["effective", "--k=" + _k, "--cutoff", _cut,
                                       "--out-prefix", "{out}"], (".csv", ".json")),
    ]
CASES += [
    ("scalar1d_couple", "scalar1d", ["couple", "--k=1.2", "--m=-0.5", "--bands", "1,2",
                                     "--supercells", "4,8,16", "--cutoff", "8",
                                     "--out", "{out}.csv"], (".csv",)),
    ("scalar2d_couple", "scalar2d", ["couple", "--k=0.9,0.4", "--m=-0.6,1.1",
                                     "--supercells", "2,4,8", "--cutoff", "3",
                                     "--out", "{out}.csv"], (".csv",)),
    ("resonant2d_couple", "resonant2d", ["couple", "--k=0.9,0.4", "--m=7.183185307179587,0.4",
                                         "--supercells", "2,4,8", "--cutoff", "6",
                                         "--out", "{out}.csv"], (".csv",)),
    ("ergodic_dd", "ergodic_dd", ["ergodic", "--out", "{out}.csv"], (".csv",)),
    ("ergodic_1d", "ergodic_1d", ["ergodic", "--out", "{out}.csv"], (".csv",)),
    ("ergodic_product", "ergodic_product", ["ergodic", "--out", "{out}.csv"], (".csv",)),
    ("scalar1d_simulate", "scalar1d", ["simulate", "--k=1.5707963267948966", "--cutoff", "8",
                                       "--epsilon", "0.125", "--sigma", "0.5", "--center", "2",
                                       "--length", "5", "--points-per-cell", "17",
                                       "--t-final", "0.5", "--frames", "5",
                                       "--out-prefix", "{out}"],
     ("_frames.csv", "_run.json")),
]


def _run(case, workdir: Path) -> dict:
    """Run one case in ``workdir``; return {file name: text} of what it wrote."""
    name, config, argv, suffixes = case
    if config in ERGODIC_SPECS:
        spec = workdir / "spec.json"
        spec.write_text(json.dumps(ERGODIC_SPECS[config]), encoding="utf-8")
        argv = argv[:1] + ["--spec", str(spec)] + argv[1:]
    else:
        cfg = workdir / f"{config}.json"
        cfg.write_text(json.dumps(CONFIGS[config]), encoding="utf-8")
        argv = argv[:1] + ["--config", str(cfg)] + argv[1:]
    argv = [a.replace("{out}", str(workdir / name)) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, f"{name}: exit {code}"
    return {name + s: (workdir / (name + s)).read_text(encoding="utf-8") for s in suffixes}


def _close(got: float, want: float, scale: float = 0.0) -> bool:
    """``got`` matches the stored ``want``; ``scale`` is S of the module docstring (0 in JSON)."""
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    roundoff = ROUNDOFF_TOL * scale
    return (abs(got - want) <= REL_TOL * max(abs(want), 1.0)
            or abs(want) <= roundoff and abs(got - want) <= roundoff)


def _measured(text: str) -> float:
    """|x| of a finite, non-integer field (a measured value), else 0: what sets a row's S."""
    try:
        x = float(text)
    except ValueError:
        return 0.0
    return abs(x) if math.isfinite(x) and not text.lstrip("-").isdigit() else 0.0


def _printed_float(text: str) -> bool:
    """``text`` is a float as the CLI prints it (17 significant digits), not a label or digest."""
    try:
        return format(float(text), ".17g") == text and not text.lstrip("-").isdigit()
    except ValueError:
        return False


def _compare_csv(got: str, want: str, where: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), f"{where}: line count"
    header_seen = False
    for n, (g, w) in enumerate(zip(got_lines, want_lines)):
        if w.startswith("#") or not header_seen:
            header_seen |= not w.startswith("#")
            (gk, _, gv), (wk, _, wv) = g.partition("="), w.partition("=")
            if w.startswith("#") and _printed_float(wv):
                assert gk == wk and _printed_float(gv) and _close(float(gv), float(wv)), \
                    f"{where}:{n + 1}: {g!r} != {w!r}"
            else:
                assert g == w, f"{where}:{n + 1}: {g!r} != {w!r}"
            continue
        gf, wf = g.split(","), w.split(",")
        assert len(gf) == len(wf), f"{where}:{n + 1}: field count"
        scale = max(map(_measured, wf))
        for gv, wv in zip(gf, wf):
            try:
                want_num = float(wv)
            except ValueError:
                assert gv == wv, f"{where}:{n + 1}: {gv!r} != {wv!r}"
                continue
            assert _close(float(gv), want_num, scale), f"{where}:{n + 1}: {gv} != {wv}"


def _compare_json(got, want, where: str):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys"
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and _close(float(got), want), f"{where}: {got} != {want}"
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_golden_artifact(case, tmp_path):
    for fname, text in _run(case, tmp_path).items():
        want = (GOLDEN / fname).read_text(encoding="utf-8")
        if fname.endswith(".json"):
            _compare_json(json.loads(text), json.loads(want), fname)
        else:
            _compare_csv(text, want, fname)


# the digest hashes every coefficient table byte for byte, so these pin the
# media themselves, not only the artifacts computed from them
FINGERPRINTS = {
    "scalar1d": "605e62257af6e51b",
    "scalar2d": "07a32505c01bbddd",
    "vector2d": "c67df319d31ea4b2",
    "schrodinger1d": "a9519adad433d848",
    "schrodinger2d": "e059c54dd2de5a86",
    "resonant2d": "90986c0e2051e0a3",
}


def test_medium_fingerprints():
    got = {name: medium_from_descriptor(desc).fingerprint for name, desc in CONFIGS.items()}
    assert got == FINGERPRINTS


def _stored_digests() -> dict:
    """sha256 of every stored golden file but the manifest, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(GOLDEN.iterdir()) if p != MANIFEST}


def test_manifest_lists_stored_files():
    assert json.loads(MANIFEST.read_text(encoding="utf-8"))["files"] == _stored_digests()


def _write_manifest():
    import numpy
    import scipy

    files = _stored_digests()
    MANIFEST.write_text(json.dumps({"files": files, "numpy": numpy.__version__, "scipy": scipy.__version__,
                                    "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")},
                                   indent=2) + "\n", encoding="utf-8", newline="\n")


def _regenerate(names):
    unknown = set(names) - {c[0] for c in CASES}
    if unknown:
        raise SystemExit(f"unknown cases: {sorted(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            if names and case[0] not in names:
                continue
            for fname, text in _run(case, Path(tmp)).items():
                (GOLDEN / fname).write_text(text, encoding="utf-8", newline="\n")
                print(f"wrote {GOLDEN / fname}")
    _write_manifest()


def _check() -> int:
    """Write every case to a temporary directory; name each file whose bytes differ from the stored one."""
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for fname, text in _run(case, Path(tmp)).items():
                stored = GOLDEN / fname
                if not stored.exists() or stored.read_bytes() != text.encode("utf-8"):
                    differ.append(fname)
    for fname in differ:
        print(f"differs: {fname}")
    print(f"{len(differ)} of the written files differ from tests/golden/")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(_check() if sys.argv[1:] == ["--check"] else _regenerate(sys.argv[1:]))
