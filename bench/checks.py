"""Per-task checks on the artifacts each CLI call writes.

A check raises ``CheckFailed`` with a reason; the client counts the task as
failed.  ``Checker`` keeps what one task tells about the next: the
finite-difference group velocity of a mode is compared with the transport
ratio of the same mode, whichever of the two tasks runs second.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GROUP_VELOCITY_TOL = 1e-6  # |Re(d_j/d_0) - FD slope|
D0_TOL = 1e-9  # d_0 = -2i*omega (wave) or -i (schrodinger), scaled by max(1, |omega|)
ENERGY_DRIFT_GATE = 1e-6  # README and test gate for simulate


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _read_csv(path):
    """(meta dict, header list, rows of floats) from a CLI CSV artifact."""
    meta, header, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    _require(header is not None, f"{path}: no header row")
    _require(all(len(r) == len(header) for r in rows), f"{path}: ragged rows")
    _require(all(math.isfinite(v) for r in rows for v in r), f"{path}: non-finite value")
    return meta, header, rows


class Checker:
    """Checks the artifacts of one pass of tasks; create one per pass."""

    def __init__(self):
        self._velocity = {}  # mode -> (source command, velocity vector)
        self.rel_errors = []  # simulate: |measured - predicted| / predicted
        self.point_steps = 0  # simulate: grid points x time steps

    def check(self, task):
        for path in task.outputs:
            _require(Path(path).is_file(), f"{task.command}: missing artifact {path}")
        getattr(self, "_" + task.command)(task)

    def _compare_velocity(self, task, v):
        _require(all(math.isfinite(x) for x in v), f"{task.command}: non-finite velocity")
        seen = self._velocity.get(task.mode)
        if seen is None:
            self._velocity[task.mode] = (task.command, v)
            return
        other, w = seen
        _require(other != task.command and len(v) == len(w), f"{task.command}: mode reused")
        err = max(abs(a - b) for a, b in zip(v, w))
        _require(err <= GROUP_VELOCITY_TOL,
                 f"effective vs groupvel at {task.mode[1:]}: |dv| = {err:.3e}")

    def _bands(self, task):
        dims = task.info["dims"]
        _, header, rows = _read_csv(task.outputs[0])
        _require(header == [f"k_{i + 1}" for i in range(dims)] + ["omega", "band", "gap"],
                 f"bands: header {header}")
        _require(len(rows) == task.info["samples"], f"bands: {len(rows)} rows")
        _require(all(r[dims] >= 0.0 and r[dims + 2] > 0.0 for r in rows),
                 "bands: negative omega or non-positive gap")

    def _groupvel(self, task):
        _, header, rows = _read_csv(task.outputs[0])
        _require(header == ["j", "v"] and len(rows) == len(task.mode[1]), "groupvel: shape")
        self._compare_velocity(task, [r[1] for r in rows])

    def _effective(self, task):
        _, header, rows = _read_csv(task.outputs[0])
        dims = len(task.mode[1])
        _require(header == ["j", "re_d", "im_d", "v"] and len(rows) == dims + 1, "effective: shape")
        out = json.loads(Path(task.outputs[1]).read_text(encoding="utf-8"))
        omega = out["omega"]
        _require(out["family"] == task.info["family"], f"effective: family {out['family']}")
        d0 = complex(out["d_re"][0], out["d_im"][0])
        want = -1j if out["family"] == "schrodinger" else -2j * omega
        _require(abs(d0 - want) <= D0_TOL * max(1.0, abs(omega)),
                 f"effective: d_0 = {d0} but expected {want}")
        self._compare_velocity(task, out["group_velocity"])

    def _couple(self, task):
        meta, header, rows = _read_csv(task.outputs[0])
        _require(header == ["n", "j", "p", "l", "re_avg", "im_avg", "abs_avg"], "couple: header")
        _require(meta.get("resonant") == "False", "couple: pair should be non-resonant")
        cross = {}
        for n, _, p, l, _, _, mag in rows:
            if p != l:
                cross[n] = max(cross.get(n, 0.0), mag)
        counts = task.info["supercells"]
        _require(sorted(cross) == list(counts), "couple: supercell counts")
        seq = [cross[n] for n in counts]
        _require(all(b < a for a, b in zip(seq, seq[1:])),
                 f"couple: max |cross average| does not fall with n: {seq}")

    def _ergodic(self, task):
        meta, header, rows = _read_csv(task.outputs[0])
        _require(header == ["window", "re_avg", "im_avg", "abs_err_vs_limit"] and rows,
                 "ergodic: shape")
        c = float(meta["decay_constant"])
        for window, _, _, err in rows:
            _require(err <= c / window * (1.0 + 1e-9) + 1e-12,
                     f"ergodic: error {err:.3e} above {c:.3e}/{window}")

    def _simulate(self, task):
        _, header, rows = _read_csv(task.outputs[0])
        run = json.loads(Path(task.outputs[1]).read_text(encoding="utf-8"))
        _require(header == ["t", "centroid", "mass", "peak"] and len(rows) == run["frames"],
                 "simulate: frames shape")
        _require(run["stable"] is True, "simulate: run not stable")
        _require(run["energy_drift"] < ENERGY_DRIFT_GATE,
                 f"simulate: energy drift {run['energy_drift']:.3e}")
        predicted, measured = run["predicted_speed"], run["measured_speed"]
        _require(math.isfinite(measured) and predicted != 0.0, "simulate: speed not measured")
        self.rel_errors.append(abs(measured - predicted) / abs(predicted))
        self.point_steps += run["grid_points"] * round(task.info["t_final"] / run["dt"])
