"""Closed-loop benchmark of the hfh command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep2d --seed 1 --seconds 30 --trace 0

One client in one process, BLAS pinned to one thread, runs the seeded tasks
of one workload back to back through ``hfh.cli.main(argv)`` for
``--seconds`` seconds (whole passes over the task list), checks every
artifact, and prints one line per metric followed by a JSON summary as the
last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced passes with passes under the layer wrappers of
``tracing.py`` and reports the per-layer metrics and the tracing overhead.
See README.md in this directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before anything imports numpy

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 60


def _percentile(values, p):
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_passes(tail_p, tasks_per_pass):
    """Fewest passes that leave at least 10 task latencies beyond the tail percentile."""
    return math.ceil(10.0 / (1.0 - tail_p / 100.0) / tasks_per_pass)


# ---------------------------------------------------------------------------
# environment


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def environment():
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        caches[f"L{_read(index / 'level')}{kind[0].lower() if kind != 'Unified' else ''}"] = \
            _read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": model,
            "caches": caches, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _cache_bytes(text):
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text and text[-1] in units else 0


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload, seed, scratch):
    """Median set-up time and median ``import hfh`` time over fresh interpreters."""
    setups, imports = [], []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed),
                str(scratch / f"probe{i}")]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        setups.append(elapsed)
        imports.append(json.loads(line)["import_s"])
    return statistics.median(setups), statistics.median(imports)


# ---------------------------------------------------------------------------
# the client


class Client:
    """Runs tasks through ``hfh.cli.main`` in-process and checks their artifacts."""

    def __init__(self, cli, tasks):
        self.cli = cli
        self.tasks = tasks
        self.tracer = None
        self.attempted = 0
        self.failures = []

    def run_task(self, task, checker, index):
        for path in task.outputs:
            Path(path).unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.task = index
        sink = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(list(task.argv))
        except Exception as exc:  # a crash is a failed task, not a failed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        self.attempted += 1
        if code != 0:
            error = error or f"exit code {code}: {sink.getvalue().strip()[-300:]}"
        else:
            try:
                checker.check(task)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                error = f"check: {exc}"
        if error:
            self.failures.append(f"{task.command} #{index}: {error}")
        size = sum(Path(p).stat().st_size for p in task.outputs if Path(p).is_file())
        return latency, size

    def warm_up(self):
        """Run the first task of each command once, untimed, so lazy set-up is done."""
        checker = checks.Checker()
        seen = set()
        for i, task in enumerate(self.tasks):
            if task.command not in seen:
                seen.add(task.command)
                self.run_task(task, checker, -1 - i)

    def run_pass(self, pass_no):
        checker = checks.Checker()
        mark = self.tracer.mark() if self.tracer else None
        latencies, artifact_bytes = [], 0
        for i, task in enumerate(self.tasks):
            latency, size = self.run_task(task, checker, pass_no * len(self.tasks) + i)
            latencies.append(latency)
            artifact_bytes += size
        layers = self.tracer.metrics(mark) if self.tracer else None
        return {"latencies": latencies, "wall": sum(latencies), "checker": checker,
                "artifact_bytes": artifact_bytes, "layers": layers}

    def run_passes(self, seconds, floor, tracer=None):
        """Whole passes, as many as end closest to ``seconds`` from now, and at least ``floor``.

        With a tracer every second pass runs traced (odd pass numbers), so
        traced and untraced passes see the same machine conditions; the
        caller then asks for at least two.
        """
        passes = []
        t_end = time.perf_counter() + seconds
        while (len(passes) < floor
               or time.perf_counter() + passes[-1]["wall"] / 2 < t_end):
            self.tracer = tracer if len(passes) % 2 else None
            if self.tracer:
                self.tracer.install()
            try:
                passes.append(self.run_pass(len(passes)))
            finally:
                if self.tracer:
                    self.tracer.uninstall()
        self.tracer = None
        return passes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes, tasks, setup_s, tail_p):
    # The machine's speed switches between phases lasting seconds, so every
    # figure is an average over the passes of the timed loop, which follows
    # the share of time spent in each phase.  Throughput is work over the
    # whole loop; latency percentiles are taken within each pass (the same
    # task list every time) and averaged.  A percentile of all the loop's
    # latencies at once would jump from one phase's speed to the next as the
    # share of fast tasks crosses it.
    latencies = [x for p in passes for x in p["latencies"]]
    wall = statistics.fmean(p["wall"] for p in passes)
    n = len(latencies)
    solves = sum(t.solves for t in tasks)

    def pass_percentile(q):
        return 1e3 * statistics.fmean(_percentile(p["latencies"], q) for p in passes)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "tasks_per_s": (len(tasks) / wall, "1/s"),
        "task_p50_ms": (pass_percentile(50.0), "ms"),
        "task_tail_ms": (pass_percentile(tail_p), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "kpoints_per_s": (solves / wall, "1/s"),
    }
    notes = {"tail_percentile": tail_p, "tail_samples": n,
             "tail_beyond": sum(x > _percentile(latencies, tail_p) for x in latencies),
             "pooled_p50_ms": 1e3 * _percentile(latencies, 50.0),
             "pooled_tail_ms": 1e3 * _percentile(latencies, tail_p),
             "tasks_per_pass": len(tasks), "solves_per_pass": solves,
             "pass_wall_s": [round(p["wall"], 4) for p in passes]}
    sim = [i for i, t in enumerate(tasks) if t.command == "simulate"]
    if sim:
        sim_s = sum(p["latencies"][i] for p in passes for i in sim)
        point_steps = sum(p["checker"].point_steps for p in passes)
        errors = [e for p in passes for e in p["checker"].rel_errors]
        metrics["mpoint_steps_per_s"] = (point_steps / sim_s / 1e6, "1/s")
        metrics["speed_rel_err"] = (statistics.median(errors), "ratio")
    return metrics, notes


def per_layer(untraced, traced, import_s, l2_bytes):
    def per_pass(fn):
        return statistics.fmean(fn(p["layers"]) for p in traced)

    def self_s(group):
        return per_pass(lambda m: m["self_s"].get(group, 0.0))

    def calls(group):
        return per_pass(lambda m: m["calls"].get(group, 0))

    def leaf(name, i):
        return per_pass(lambda m: m["leaf"].get(name, (0, 0.0))[i])

    def ratio(num, den):
        return num / den if den else 0.0

    wall = statistics.fmean(p["wall"] for p in traced)
    base = statistics.fmean(p["wall"] for p in untraced)
    solve_calls = calls("bloch.solve")
    sizes = traced[0]["layers"]["solve_sizes"]
    point_steps = per_pass(lambda m: m["fdtd_point_steps"])
    fdtd_s = self_s("simulate.fdtd")
    fdtd_points = traced[0]["layers"]["fdtd_points"]

    modules = {}
    for group in traced[0]["layers"]["self_s"]:
        module = group.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s(group)
    modules["fourier"] = sum(leaf(n, 1) for n in
                             ("fourier.convolve", "fourier.product_mean", "fourier.window_factor"))
    top = max(modules, key=modules.get)

    metrics = {
        "bloch.solve.calls": (solve_calls, "count"),
        "bloch.solve.self_s": (self_s("bloch.solve"), "s"),
        "bloch.solve.basis_n": (ratio(sum(sizes), len(sizes)), "count"),
        "bloch.solve.n3_sum": (sum(n ** 3 for n in sizes), "count"),
        "bloch.solve.repeat_frac": (
            ratio(per_pass(lambda m: m["solve_repeats"]), solve_calls), "ratio"),
        "bloch.assemble.calls": (calls("bloch.assemble"), "count"),
        "bloch.assemble.self_s": (self_s("bloch.assemble"), "s"),
        "bands.sweep.self_s": (self_s("bands.sweep"), "s"),
        "bands.groupvel.self_s": (self_s("bands.groupvel"), "s"),
        "bands.groupvel.solves_per_call": (
            ratio(per_pass(lambda m: m["groupvel_solves"]), calls("bands.groupvel")), "count"),
        "effective.coeffs.self_s": (self_s("effective.coeffs"), "s"),
        "effective.couple.calls": (calls("effective.couple"), "count"),
        "effective.couple.self_s": (self_s("effective.couple"), "s"),
        "fourier.convolve.calls": (leaf("fourier.convolve", 0), "count"),
        "fourier.convolve.busy_s": (leaf("fourier.convolve", 1), "s"),
        "fourier.product_mean.calls": (leaf("fourier.product_mean", 0), "count"),
        "fourier.product_mean.busy_s": (leaf("fourier.product_mean", 1), "s"),
        "fourier.window_factor.calls": (leaf("fourier.window_factor", 0), "count"),
        "fourier.window_factor.busy_s": (leaf("fourier.window_factor", 1), "s"),
        "ergodic.avg.calls": (calls("ergodic.avg"), "count"),
        "ergodic.avg.self_s": (self_s("ergodic.avg"), "s"),
        "medium.build.calls": (calls("medium.build"), "count"),
        "medium.build.self_s": (self_s("medium.build"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.artifact_bytes": (statistics.fmean(p["artifact_bytes"] for p in traced), "B"),
        "simulate.fdtd.self_s": (fdtd_s, "s"),
        "simulate.fdtd.ns_per_point_step": (1e9 * ratio(fdtd_s, point_steps), "ns"),
        "simulate.fdtd.point_steps": (point_steps, "count"),
        "simulate.fdtd.field_bytes": (16 * max(fdtd_points, default=0), "B"),
        "simulate.ic.self_s": (self_s("simulate.ic"), "s"),
        "simulate.extract.self_s": (self_s("simulate.extract"), "s"),
        "setup.import_s": (import_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - base, "s"),
        "trace.overhead_frac": (ratio(wall - base, base), "ratio"),
        "bloch.self_share": (
            ratio(self_s("bloch.solve") + self_s("bloch.assemble"), wall), "ratio"),
        "simulate.fdtd.self_share": (ratio(fdtd_s, wall), "ratio"),
        "layer.max_share": (ratio(modules[top], wall), "ratio"),
    }
    shares = {m: round(ratio(s, wall), 4)
              for m, s in sorted(modules.items(), key=lambda kv: -kv[1])}
    notes = {"top_layer": top, "layer_shares": shares, "untraced_wall_s": base,
             "traced_passes": len(traced), "untraced_passes": len(untraced),
             "l2_bytes": l2_bytes}
    return metrics, notes


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, scratch):
    setup_s, import_s = measure_setup(args.workload, args.seed, scratch)

    import hfh
    from hfh import cli

    if Path(hfh.__file__).resolve().parent != (SRC / "hfh").resolve():
        raise SystemExit(f"imported hfh from {hfh.__file__}, not from {SRC}")
    env = environment()
    tasks = workloads.generate(args.workload, args.seed, scratch / "run")
    client = Client(cli, tasks)
    client.warm_up()
    tail_p = workloads.TAIL_PERCENTILE[args.workload]
    if args.trace:
        tracer = tracing.Tracer()
        passes = client.run_passes(args.seconds, 2, tracer)
        metrics, notes = per_layer(passes[0::2], passes[1::2], import_s,
                                   _cache_bytes(env["caches"].get("L2", "")))
        spans_file = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_file)
        notes["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        passes = client.run_passes(args.seconds, min_passes(tail_p, len(tasks)))
        metrics, notes = end_to_end(passes, tasks, setup_s, tail_p)
    metrics["failed_frac"] = (len(client.failures) / client.attempted, "ratio")
    return env, metrics, notes, client


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hfh" / "__init__.py").is_file():
        print(f"error: no hfh sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        env, metrics, notes, client = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {json.dumps(notes, sort_keys=True)}")
    for failure in client.failures[:20]:
        print(f"failed {failure}")
    for name, (value, unit) in metrics.items():
        beside = ""
        if name == "task_tail_ms":
            beside = (f" (p{notes['tail_percentile']:g} of each pass, mean over "
                      f"{len(notes['pass_wall_s'])} passes; {notes['tail_samples']} tasks, "
                      f"{notes['tail_beyond']} beyond the p{notes['tail_percentile']:g} of all)")
        print(f"metric {name} = {value!r} {unit}{beside}")
    names = bench_metric_names(args.trace)
    result = {"correct": not client.failures, "attempted": client.attempted,
              "failed": len(client.failures),
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}}
    print(json.dumps(result))
    return 0


def bench_metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
