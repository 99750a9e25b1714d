"""Batch front end: `hfh <command>` reads JSON configs and writes CSV/JSON artifacts.

Subcommands map one-to-one onto the computational capabilities: ``bands``
(dispersion sweep), ``groupvel`` (finite-difference group velocity),
``effective`` (transport coefficients), ``couple`` (supercell coupling
averages), ``ergodic`` (window averages), ``simulate`` (fine-grid envelope
validation), ``check`` (built-in invariant suite).

Medium descriptor schema (JSON)::

    {
      "cell": [1.0],            # cell side lengths
      "kind": "scalar",         # scalar | vector | schrodinger
      "cutoff": 16,             # Fourier cutoff of the stored medium
      "a": <field spec>,        # scalar kind; isotropic spec or
                                #   {"type": "matrix", "entries": [[...]]}
      "b": <field spec>,
      # vector kind adds:  "n": 2,
      #   "a": {"type": "tensor4", "terms": [{"ijkl": [i,j,k,l], "field": spec}]}
      # schrodinger kind:  "mass": 0.5, "charge": 1.0,
      #   "potential": spec, "magnetic": [spec per axis] (optional)
    }

Field specs: a number, {"type": "constant", "value": v},
{"type": "piecewise", "breaks": [...], "values": [...]},
{"type": "cosine", "mean": m, "harmonics": [{"n": [...], "amp": a, "phase": p}]},
{"type": "fourier", "terms": [{"n": [...], "re": x, "im": y}]}.

All floating-point output is printed with 17 significant digits, rows in a
fixed deterministic order, LF line endings, UTF-8; repeated runs with the
same config produce byte-identical artifacts.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, bands, bloch, effective, ergodic, medium, simulate
from .errors import NumericalError, ValidationError, need, reading
from .fourier import Cell, FourierField


class UsageError(Exception):
    pass


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


class _Parser(argparse.ArgumentParser):
    """Reads a comma-separated number list starting with '-', such as
    ``--k -0.7,0.5``, as a value; argparse's own matcher only accepts a
    single negative number and would take the list for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(rf"^-{_NUMBER}(?:,[-+]?{_NUMBER})*$")

    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _config_digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return medium.sha256(payload).hexdigest()[:12]


def _write_csv(path, header, rows, meta):
    lines = [f"# {k}={meta[k]}" for k in sorted(meta)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8", newline="\n")


def _load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _parse_k(text, dims, flag):
    try:
        parts = [float(v) for v in str(text).split(",")]
    except ValueError as exc:
        raise ValidationError(f"{flag}: expected comma-separated floats, got {text!r}") from exc
    if len(parts) != dims:
        raise ValidationError(f"{flag}: expected {dims} component(s), got {len(parts)}")
    return np.asarray(parts)


def _load_medium(args, *k_flags):
    """Load ``--config``, build its medium, and parse each named k option in its dimension."""
    desc = _load_config(args.config)
    med = medium.medium_from_descriptor(desc)
    ks = [_parse_k(getattr(args, flag[2:].replace("-", "_")), med.cell.dims, flag) for flag in k_flags]
    return desc, med, ks


def _meta(args, desc) -> dict:
    return {"tool": f"hfh {__version__}", "config": _config_digest(desc), "command": args.command}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bands(args):
    desc, med, (k0, k1) = _load_medium(args, "--k-start", "--k-end")
    table = bands.sweep_path(med, k0, k1, args.samples, args.band, args.cutoff)
    header = [f"k_{i + 1}" for i in range(med.cell.dims)] + ["omega", "band", "gap"]
    meta = _meta(args, desc)
    meta["lipschitz"] = _fmt(table.lipschitz)
    _write_csv(args.out, header, bands.table_rows(table), meta)
    print(f"wrote {args.out} ({len(table)} rows)")
    return 0


def _cmd_groupvel(args):
    desc, med, (k,) = _load_medium(args, "--k")
    v = bands.group_velocity_fd(med, k, args.band, args.cutoff, step=args.step)
    rows = [[j + 1, v[j]] for j in range(len(v))]
    _write_csv(args.out, ["j", "v"], rows, _meta(args, desc))
    print(f"wrote {args.out}; v = ({', '.join(_fmt(x) for x in v)})")
    return 0


def _cmd_effective(args):
    desc, med, (k,) = _load_medium(args, "--k")
    mode = bloch.solve_at(med, k, args.cutoff, args.band)[args.band - 1]
    co = effective.effective_coefficients(mode)
    rows = []
    for j in range(len(co.d)):
        ratio = co.d[j] / co.d[0]
        rows.append([j, co.d[j].real, co.d[j].imag, ratio.real])
    meta = _meta(args, desc)
    _write_csv(args.out_prefix + ".csv", ["j", "re_d", "im_d", "v"], rows, meta)
    _write_json(args.out_prefix + ".json", {
        "meta": meta,
        "family": med.family,
        "k": [float(x) for x in mode.k],
        "band": mode.band,
        "omega": mode.omega,
        "d_re": [float(x.real) for x in co.d],
        "d_im": [float(x.imag) for x in co.d],
        "group_velocity": [float(x) for x in co.v],
        "packet_speed": co.packet_speed,
        "imag_defect": co.imag_defect,
    })
    print(f"wrote {args.out_prefix}.csv and .json; "
          f"v = ({', '.join(_fmt(x) for x in co.v)})")
    return 0


def _cmd_couple(args):
    desc, med, (k, m) = _load_medium(args, "--k", "--m")
    try:
        b1, b2 = (int(v) for v in args.bands.split(","))
        counts = [int(v) for v in args.supercells.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse --bands/--supercells: {exc}") from exc
    mode1 = bloch.solve_at(med, k, args.cutoff, b1)[b1 - 1]
    mode2 = bloch.solve_at(med, m, args.cutoff, b2)[b2 - 1]
    report = effective.coupling_coefficients(mode1, mode2, counts, args.time_window)
    rows = []
    for (j, p, l) in sorted(report.averages):
        for n, val in zip(report.supercells, report.averages[(j, p, l)]):
            rows.append([n, j, p, l, val.real, val.imag, abs(val)])
    meta = _meta(args, desc)
    meta["resonant"] = report.resonant
    meta["equivalent"] = report.resonant  # resonant pairs are exactly the equivalent carriers
    meta["time_window"] = _fmt(report.time_window)
    meta["drift_rate"] = _fmt(max(report.drift_rates.values()))
    _write_csv(args.out, ["n", "j", "p", "l", "re_avg", "im_avg", "abs_avg"], rows, meta)
    cross = report.max_cross_limit()
    cross_slopes = [report.slopes[key] for key in report.slopes if key[1] != key[2]]
    slope = max(cross_slopes) if cross_slopes else float("-inf")
    print(f"wrote {args.out}; resonant={report.resonant} equivalent={report.resonant} "
          f"max|cross limit|={_fmt(cross)} worst cross slope={_fmt(slope)}")
    return 0


def _signal_from_json(obj, where):
    try:
        period = float(obj["period"])
        harmonics = {int(t["n"]): complex(t.get("re", 0.0), t.get("im", 0.0))
                     for t in obj["harmonics"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: bad signal spec: {exc}") from exc
    return FourierField.from_terms(Cell((period,)), max(map(abs, harmonics), default=0), harmonics)


def _cmd_ergodic(args):
    spec = _load_config(args.spec)
    if not isinstance(spec, dict):
        raise ValidationError(f"spec: expected a JSON object, got {type(spec).__name__}")
    op = spec.get("op")
    windows = spec.get("windows")
    if op in ("modulated_1d", "product", "derivative_product"):
        f = _signal_from_json(need("spec", spec, "f"), "f")
        if op == "modulated_1d":
            result = ergodic.avg_modulated_dd(f, [need("spec", spec, "b", float)], windows)
        else:
            g = _signal_from_json(need("spec", spec, "g"), "g")
            fn = ergodic.avg_product_periodic if op == "product" else ergodic.avg_derivative_product
            result = fn(f, g, windows)
    elif op == "modulated_dd":
        cell = need("spec", spec, "cell", lambda v: Cell(tuple(v)))
        with reading("f"):
            terms = {tuple(int(v) for v in need(f"f.terms[{i}]", t, "n")):
                     complex(t.get("re", 0.0), t.get("im", 0.0))
                     for i, t in enumerate(need("f", need("spec", spec, "f"), "terms"))}
        cutoff = max((max(abs(v) for v in n) for n in terms), default=1) or 1
        f = FourierField.from_terms(cell, cutoff, terms)
        lam = need("spec", spec, "lambda", lambda v: np.asarray(v, dtype=float))
        result = ergodic.avg_modulated_dd(f, lam, need("spec", spec, "boxes"))
    else:
        raise ValidationError(f"op: unknown ergodic op {op!r}")
    rows = [[w, v.real, v.imag, e]
            for w, v, e in zip(result.windows, result.values, result.errors())]
    meta = _meta(args, spec)
    meta["limit_re"] = _fmt(result.analytic_limit.real)
    meta["limit_im"] = _fmt(result.analytic_limit.imag)
    meta["resonant"] = result.resonant
    meta["decay_constant"] = _fmt(result.decay_constant)
    meta["drift_rate"] = _fmt(result.drift_rate)
    _write_csv(args.out, ["window", "re_avg", "im_avg", "abs_err_vs_limit"], rows, meta)
    print(f"wrote {args.out}; limit={result.analytic_limit:.12g} resonant={result.resonant}")
    return 0


def _cmd_simulate(args):
    desc, med, _ = _load_medium(args)
    if med.cell.dims != 1 or med.family != "scalar-wave":
        raise ValidationError("simulate supports the 1D scalar wave family")
    k = _parse_k(args.k, 1, "--k")
    mode = bloch.solve_at(med, k, args.cutoff, args.band)[args.band - 1]
    env = simulate.GaussianEnvelope(args.center, args.sigma)
    grid = simulate.GridSpec(args.length, args.points_per_cell)
    record, frames, fit = simulate.packet_speed_experiment(mode, args.epsilon, env, grid, args.t_final,
                                                           cfl=args.cfl, n_frames=args.frames)
    ic = record.ic
    rel_err = abs(fit.speed - ic.group_velocity) / abs(ic.group_velocity)
    rows = []
    for t, f0, centroid in zip(record.times, frames.frames, fit.centroids):
        rows.append([t, centroid, float(np.sum(f0 ** 2)), float(f0.max())])
    meta = _meta(args, desc)
    _write_csv(args.out_prefix + "_frames.csv", ["t", "centroid", "mass", "peak"], rows, meta)
    if args.write_envelope:
        for i, f0 in enumerate(frames.frames):
            env_rows = [[x, f] for x, f in zip(frames.x, f0)]
            _write_csv(f"{args.out_prefix}_envelope_{i}.csv", ["x", "abs_f0"], env_rows, meta)
    _write_json(args.out_prefix + "_run.json", {
        "meta": meta,
        "epsilon": float(ic.epsilon),
        "grid_points": int(len(ic.x)),
        "dx": float(ic.dx),
        "dt": float(record.dt),
        "cfl": float(record.cfl),
        "frames": int(len(record.times)),
        "energy_drift": float(record.energy_drift),
        "stable": bool(record.stable),
        "masked_cells": int(frames.masked_cells),
        "predicted_speed": float(ic.group_velocity),
        "measured_speed": float(fit.speed),
        "relative_error": float(rel_err),
        "scheme_speed": float(record.scheme_speed),
        "centroid_fit_residual": float(fit.residual),
        "initialization": "transport-corrected du/dt (carrier term plus -v_g h' V0 carrier)",
        "init_correction_fraction": float(ic.init_correction_fraction),
    })
    print(f"wrote {args.out_prefix}_frames.csv and _run.json; "
          f"measured={_fmt(fit.speed)} predicted={_fmt(ic.group_velocity)} "
          f"rel_err={_fmt(rel_err)}")
    return 0


def _cmd_check(args):
    from . import checks  # only this command needs it; other commands skip compiling it
    ok = checks.run_all(write=print)
    return 0 if ok else 2


# ---------------------------------------------------------------------------


_REQUIRED = object()  # default of a flag that must be given
_MODE = {"--band": (int, 1), "--cutoff": (int, 16)}

# name -> (help, handler, {flag: (type, default)}); a bool flag is a switch
COMMANDS = {
    "bands": ("sweep one band along a straight k path", _cmd_bands, {
        "--config": (str, _REQUIRED), "--k-start": (str, _REQUIRED), "--k-end": (str, _REQUIRED),
        "--samples": (int, 50), **_MODE, "--out": (str, _REQUIRED)}),
    "groupvel": ("finite-difference group velocity at one k", _cmd_groupvel, {
        "--config": (str, _REQUIRED), "--k": (str, _REQUIRED), **_MODE,
        "--step": (float, None), "--out": (str, _REQUIRED)}),
    "effective": ("homogenized transport coefficients at one mode", _cmd_effective, {
        "--config": (str, _REQUIRED), "--k": (str, _REQUIRED), **_MODE,
        "--out-prefix": (str, "effective")}),
    "couple": ("supercell coupling averages for a mode pair", _cmd_couple, {
        "--config": (str, _REQUIRED), "--k": (str, _REQUIRED), "--m": (str, _REQUIRED),
        "--bands": (str, "1,1"), "--supercells": (str, "4,8,16,32"), "--time-window": (float, None),
        "--cutoff": (int, 16), "--out": (str, _REQUIRED)}),
    "ergodic": ("finite-window averages of periodic signals", _cmd_ergodic, {
        "--spec": (str, _REQUIRED), "--out": (str, _REQUIRED)}),
    "simulate": ("fine-grid envelope transport validation", _cmd_simulate, {
        "--config": (str, _REQUIRED), "--k": (str, _REQUIRED), **_MODE,
        "--epsilon": (float, 1 / 32), "--sigma": (float, 0.5), "--center": (float, 2.5),
        "--length": (float, 8.0), "--points-per-cell": (int, None), "--t-final": (float, None),
        "--cfl": (float, 0.9), "--frames": (int, 9), "--write-envelope": (bool, False),
        "--out-prefix": (str, "simulate")}),
    "check": ("run the built-in invariant suite", _cmd_check, {}),
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused by every later ``main``."""
    parser = _Parser(prog="hfh", description="Bloch bands, homogenized transport, and coupling diagnostics")
    parser.add_argument("--version", action="version", version=f"hfh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, (kind, default) in flags.items():
            if kind is bool:
                p.add_argument(flag, action="store_true")
            elif default is _REQUIRED:
                p.add_argument(flag, type=kind, required=True)
            else:
                p.add_argument(flag, type=kind, default=default)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 64
    try:
        return COMMANDS[args.command][1](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
