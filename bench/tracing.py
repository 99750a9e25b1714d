"""Layer tracing installed from outside the program.

``Tracer.install()`` wraps the public functions of each traced ``hfh``
module and rebinds every name under which another ``hfh`` module holds the
same function object (``hfh.bands.solve_at``, ``hfh.effective.product_mean``,
the globals ``solve_at`` looks up in ``hfh.bloch``, ...).  Each call of a
wrapped function records a span (group, start, end, parent, task); spans stay
in memory until ``metrics()`` reads them.  The leaf kernels of ``fourier``
run thousands of times per task, so they only add to a call count and a busy
time, which is also charged to ``fourier`` instead of the enclosing span.

``uninstall()`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "medium", "bloch", "bands", "effective", "ergodic", "fourier", "simulate")

# functions whose spans are reported under a shared name; others use module.function
GROUPS = {
    "bloch.assemble_operator": "bloch.assemble",
    "bloch.assemble_wave_operator": "bloch.assemble",
    "bloch.assemble_vector_operator": "bloch.assemble",
    "bloch.assemble_schrodinger_operator": "bloch.assemble",
    "bloch.solve_bands": "bloch.solve",
    "bands.sweep_path": "bands.sweep",
    "bands.group_velocity_fd": "bands.groupvel",
    "effective.effective_coefficients": "effective.coeffs",
    "effective.effective_coefficients_scalar": "effective.coeffs",
    "effective.effective_coefficients_vector": "effective.coeffs",
    "effective.effective_coefficients_schrodinger": "effective.coeffs",
    "effective.coupling_coefficients": "effective.couple",
    "ergodic.avg_modulated_1d": "ergodic.avg",
    "ergodic.avg_product_periodic": "ergodic.avg",
    "ergodic.avg_derivative_product": "ergodic.avg",
    "ergodic.avg_modulated_dd": "ergodic.avg",
    "cli.main": "cli",
    "simulate.run_fdtd_1d": "simulate.fdtd",
    "simulate.build_wavepacket_ic": "simulate.ic",
    "simulate.extract_envelope": "simulate.extract",
}
for _name in ("build_field", "build_scalar_medium", "build_vector_medium",
              "build_schrodinger_blocks", "medium_from_descriptor",
              "maxwell_tensor_from_permeability"):
    GROUPS[f"medium.{_name}"] = "medium.build"

# leaf kernels: counted, not spanned
COUNTERS = ("fourier.product_mean", "fourier.window_factor")

# names one module imports from another; each must end up wrapped
ALIASES = ("hfh.bands.solve_at", "hfh.effective.product_mean", "hfh.effective.window_factor",
           "hfh.ergodic.window_factor", "hfh.simulate.effective_coefficients_scalar",
           "hfh.bloch.assemble_operator", "hfh.bloch.solve_bands")

# span record fields
GROUP, START, END, PARENT, TASK, LEAF, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: [0, 0.0])  # name -> [calls, busy seconds]
        self.task = None  # set by the client before each task
        self._stack = []
        self._restore = []  # (owner, attribute name, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, group, fn, note=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [group, clock(), 0.0, stack[-1] if stack else -1, self.task, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn, counts=None):
        cell = self.counters[name]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            if counts is None or counts(args):
                busy = clock() - t0
                cell[0] += 1
                cell[1] += busy
                if stack:
                    spans[stack[-1]][LEAF] += busy
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        modules = {layer: importlib.import_module(f"hfh.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                key = f"{layer}.{name}"
                if key in COUNTERS:
                    wrapper = self._counter(key, obj)
                else:
                    wrapper = self._span(GROUPS.get(key, key), obj, NOTES.get(key))
                wrapped[id(obj)] = wrapper
        # rebind every name any hfh module holds for a wrapped function
        for modname, mod in list(sys.modules.items()):
            if modname != "hfh" and not modname.startswith("hfh."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, name, wrapped[id(obj)])
        field_cls = modules["fourier"].FourierField
        self._set(field_cls, "__mul__",
                  self._counter("fourier.convolve", field_cls.__mul__,
                                counts=lambda args: isinstance(args[1], field_cls)))
        missing = [path for path in ALIASES if not _is_wrapper(_resolve(path), wrapped)]
        if missing:
            self.uninstall()
            raise RuntimeError(f"tracing did not reach {missing}")

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- read-out ---------------------------------------------------------

    def dump(self, path):
        """Write every span and counter recorded so far to ``path`` as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["group", "start", "end", "parent", "task", "leaf_s", "note"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans,
                                    "counters": self.counters}), encoding="utf-8")

    def mark(self):
        """Position to pass to ``metrics`` for the spans and counts recorded from now on."""
        return len(self.spans), {k: tuple(v) for k, v in self.counters.items()}

    def metrics(self, since):
        """Per-layer figures for the spans and counts recorded after ``since``."""
        first, counts0 = since
        spans = self.spans[first:]
        children = defaultdict(float)
        for rec in spans:
            if rec[PARENT] >= first:
                children[rec[PARENT] - first] += rec[END] - rec[START]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, rec in enumerate(spans):
            g = rec[GROUP]
            self_s[g] += rec[END] - rec[START] - children[i] - rec[LEAF]
            parent = rec[PARENT] - first
            if parent < 0 or spans[parent][GROUP] != g:
                calls[g] += 1
        out = {"self_s": dict(self_s), "calls": dict(calls)}

        leaf = {}
        for name, (n, busy) in self.counters.items():
            n0, busy0 = counts0.get(name, (0, 0.0))
            leaf[name] = (n - n0, busy - busy0)
        out["leaf"] = leaf

        # bloch.solve notes: (medium key, k, cutoff, basis size); a call that raised has none
        solves = [(r[TASK],) + r[NOTE] for r in spans if r[GROUP] == "bloch.solve" and r[NOTE]]
        seen, repeats = set(), 0
        for key in solves:
            repeats += key[:4] in seen
            seen.add(key[:4])
        out["solve_sizes"] = [key[4] for key in solves]
        out["solve_repeats"] = repeats

        under_groupvel = 0
        for rec in spans:
            if rec[GROUP] == "bloch.solve" and _has_ancestor(spans, rec, first, "bands.groupvel"):
                under_groupvel += 1
        out["groupvel_solves"] = under_groupvel

        fdtd = [r[NOTE] for r in spans if r[GROUP] == "simulate.fdtd" and r[NOTE]]
        out["fdtd_points"] = [n for n, _ in fdtd]
        out["fdtd_point_steps"] = sum(n * steps for n, steps in fdtd)
        return out


def _has_ancestor(spans, rec, first, group):
    parent = rec[PARENT]
    while parent >= first:
        up = spans[parent - first]
        if up[GROUP] == group:
            return True
        parent = up[PARENT]
    return False


def _note_solve(args, kwargs, modes):
    op = args[0]
    return (op.medium_key, tuple(float(v) for v in op.k), op.cutoff, op.size)


def _note_fdtd(args, kwargs, record):
    steps = round(float(record.times[-1]) / record.dt)
    return (len(record.x), steps)


NOTES = {"bloch.solve_bands": _note_solve, "simulate.run_fdtd_1d": _note_fdtd}


def _resolve(path):
    modname, _, name = path.rpartition(".")
    return getattr(sys.modules[modname], name)


def _is_wrapper(obj, wrapped):
    return any(obj is w for w in wrapped.values())

