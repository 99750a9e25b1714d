"""Seeded task generators, one per workload.

Each generator takes the seed and a working directory, writes the JSON
configs the program reads, and returns one *pass*: the list of tasks the
closed-loop client runs back to back.  The program sees only those configs
and the argv of each task.

Only values (media coefficients, wavevectors, windows) depend on the seed.
The shape of a pass (task counts, cutoffs, sample counts, supercell lists,
grid sizes) is fixed per workload, so every seed asks for the same amount of
work and runs on different seeds are comparable.

Every wavevector is passed as ``--k=<value>`` / ``--m=<value>``: argparse
reads ``--k -0.7`` as an unknown option and the CLI exits with code 64.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Task:
    """One CLI invocation and what the checks need to know about it."""

    command: str
    argv: tuple
    outputs: tuple  # artifact paths the task must write
    solves: int  # Bloch solves implied by the arguments
    mode: tuple = ()  # (config, k, band, cutoff): tasks sharing it must agree
    info: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _kflag(flag: str, k) -> str:
    return f"{flag}={','.join(_fmt(v) for v in k)}"


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _cosine_2d(rng: random.Random, mean: float, n_harmonics: int, reach: int) -> dict:
    """A 2D cosine field whose harmonic amplitudes sum to 60% of its mean (so it stays positive)."""
    half_plane = [(i, j) for i in range(0, reach + 1) for j in range(-reach, reach + 1)
                  if (i, j) > (0, 0)]
    picks = rng.sample(half_plane, n_harmonics)
    weights = [rng.uniform(0.5, 1.0) for _ in picks]
    scale = 0.6 * mean / sum(weights)
    return {"type": "cosine", "mean": mean,
            "harmonics": [{"n": list(n), "amp": w * scale, "phase": rng.uniform(0.0, TWO_PI)}
                          for n, w in zip(picks, weights)]}


def _scalar_2d(rng: random.Random, cutoff: int) -> dict:
    return {"cell": [1.0, 1.0], "kind": "scalar", "cutoff": cutoff,
            "a": _cosine_2d(rng, rng.uniform(1.5, 3.0), 3, 2),
            "b": _cosine_2d(rng, rng.uniform(1.0, 1.5), 2, 1)}


def _breaks(rng: random.Random, phases: int) -> list:
    """Sorted phase boundaries in [0, 1) starting at 0, at least 0.1 apart."""
    while True:
        inner = sorted(rng.uniform(0.1, 0.9) for _ in range(phases - 1))
        edges = [0.0] + inner + [1.0]
        if all(b - a >= 0.1 for a, b in zip(edges, edges[1:])):
            return [0.0] + inner


def _piecewise_1d(rng: random.Random, phases: int, cutoff: int, a_range, b_range,
                  pin: bool = False) -> dict:
    """A multi-phase 1D scalar medium.

    With ``pin`` the stiffest phase has a = a_range[1] and the lightest
    b = b_range[0], so the fastest wave speed, and with it the FDTD step
    count, does not depend on the seed.
    """
    breaks = _breaks(rng, phases)
    a = [rng.uniform(*a_range) for _ in range(phases)]
    b = [rng.uniform(*b_range) for _ in range(phases)]
    if pin:
        a[rng.randrange(phases)] = a_range[1]
        b[rng.randrange(phases)] = b_range[0]
    return {"cell": [1.0], "kind": "scalar", "cutoff": cutoff,
            "a": {"type": "piecewise", "breaks": breaks, "values": a},
            "b": {"type": "piecewise", "breaks": breaks, "values": b}}


def _schrodinger_1d(rng: random.Random, cutoff: int) -> dict:
    return {"cell": [1.0], "kind": "schrodinger", "cutoff": cutoff,
            "mass": rng.uniform(0.5, 1.0), "charge": 1.0,
            "potential": {"type": "cosine", "mean": 0.0,
                          "harmonics": [{"n": [n], "amp": rng.uniform(0.5, 2.0),
                                         "phase": rng.uniform(0.0, TWO_PI)}
                                        for n in (1, 2, 3)]}}


# ---------------------------------------------------------------------------
# task builders


def _bands(cfg, tag, workdir, k0, k1, samples, band, cutoff):
    out = str(workdir / f"{tag}.csv")
    argv = ("bands", "--config", cfg, _kflag("--k-start", k0), _kflag("--k-end", k1),
            "--samples", str(samples), "--band", str(band), "--cutoff", str(cutoff), "--out", out)
    return Task("bands", argv, (out,), samples, info={"samples": samples, "dims": len(k0)})


def _groupvel(cfg, tag, workdir, k, band, cutoff):
    out = str(workdir / f"{tag}.csv")
    argv = ("groupvel", "--config", cfg, _kflag("--k", k), "--band", str(band),
            "--cutoff", str(cutoff), "--out", out)
    return Task("groupvel", argv, (out,), 1 + 4 * len(k), mode=(cfg, tuple(k), band, cutoff))


def _effective(cfg, tag, workdir, k, band, cutoff, family):
    prefix = str(workdir / tag)
    argv = ("effective", "--config", cfg, _kflag("--k", k), "--band", str(band),
            "--cutoff", str(cutoff), "--out-prefix", prefix)
    return Task("effective", argv, (prefix + ".csv", prefix + ".json"), 1,
                mode=(cfg, tuple(k), band, cutoff), info={"family": family})


def _couple(cfg, tag, workdir, k, m, bands, supercells, cutoff):
    out = str(workdir / f"{tag}.csv")
    argv = ("couple", "--config", cfg, _kflag("--k", k), _kflag("--m", m),
            "--bands", ",".join(str(b) for b in bands),
            "--supercells", ",".join(str(n) for n in supercells),
            "--cutoff", str(cutoff), "--out", out)
    return Task("couple", argv, (out,), 2, info={"supercells": tuple(supercells)})


def _ergodic(spec_path, tag, workdir):
    out = str(workdir / f"{tag}.csv")
    return Task("ergodic", ("ergodic", "--spec", spec_path, "--out", out), (out,), 0)


# ---------------------------------------------------------------------------
# workloads


def _sweep2d(rng: random.Random, workdir: Path) -> list:
    """2D scalar cosine media at operator cutoff 8 (289 plane waves).

    Per medium: three 9-point band sweeps along different paths, a group
    velocity (9 solves) and the transport coefficients at the same mode
    (1 solve).  Four of every five tasks cost 9 solves, so the median and
    the p75 tail both fall inside that block of like tasks, not on a
    boundary between two kinds of task or low in the block, where they
    would follow the spread of a few fast tasks.
    """
    cutoff = 8
    tasks = []
    for i in range(2):
        cfg = _write(workdir, f"sweep2d_medium{i}.json", _scalar_2d(rng, 2))
        for j in range(3):
            k0 = [_signed(rng, 0.3, 1.0), _signed(rng, 0.3, 1.0)]
            k1 = [math.copysign(rng.uniform(1.5, 2.4), v) for v in k0]
            tasks.append(_bands(cfg, f"sweep2d_bands{i}_{j}", workdir, k0, k1, 9, 1, cutoff))
        k = [_signed(rng, 0.4, 2.2), _signed(rng, 0.4, 2.2)]
        tasks.append(_groupvel(cfg, f"sweep2d_gv{i}", workdir, k, 1, cutoff))
        tasks.append(_effective(cfg, f"sweep2d_eff{i}", workdir, k, 1, cutoff, "scalar-wave"))
    return tasks


def _ergodic_spec(rng: random.Random) -> dict:
    """A 2D modulated average with a non-resonant lambda on a rectangular cell."""
    cell = [1.0, rng.uniform(0.7, 1.4)]
    terms = []
    for n in rng.sample([(i, j) for i in range(-4, 5) for j in range(-4, 5)], 12):
        terms.append({"n": list(n), "re": rng.uniform(-1.0, 1.0), "im": rng.uniform(-1.0, 1.0)})
    lam = [_signed(rng, 0.5, 2.5) + TWO_PI * rng.randint(-1, 1) / cell[0],
           _signed(rng, 0.5, 2.5)]
    boxes = [[4.0 * 2 ** s, 3.0 * 2 ** s] for s in range(6)]
    return {"op": "modulated_dd", "cell": cell, "f": {"terms": terms}, "lambda": lam,
            "boxes": boxes}


def _transport(rng: random.Random, workdir: Path) -> list:
    """1D media at cutoff 16 (33 plane waves) plus small 2D coupling and ergodic specs."""
    cutoff = 16
    supercells = (4, 8, 16, 32, 64)
    tasks = []
    for i in range(4):
        desc = _piecewise_1d(rng, 2 + i % 3, cutoff, (1.0, 4.0), (1.0, 2.0))
        cfg = _write(workdir, f"transport_scalar{i}.json", desc)
        band = 1 + i % 2
        k = [_signed(rng, 0.5, 2.6)]
        tasks.append(_groupvel(cfg, f"transport_gv{i}", workdir, k, band, cutoff))
        tasks.append(_effective(cfg, f"transport_eff{i}", workdir, k, band, cutoff, "scalar-wave"))
        # keep |m| away from |k|: omega(-k) = omega(k), so m near -k would pair
        # two carriers of almost the same frequency
        m = [_signed(rng, 0.3, 2.8)]
        while abs(abs(m[0]) - abs(k[0])) < 0.2:
            m = [_signed(rng, 0.3, 2.8)]
        tasks.append(_couple(cfg, f"transport_couple{i}", workdir, k, m, (1, band),
                             supercells, cutoff))
    for i in range(2):
        cfg = _write(workdir, f"transport_schrodinger{i}.json", _schrodinger_1d(rng, cutoff))
        k = [_signed(rng, 0.5, 2.6)]
        tasks.append(_groupvel(cfg, f"transport_sgv{i}", workdir, k, 1, cutoff))
        tasks.append(_effective(cfg, f"transport_seff{i}", workdir, k, 1, cutoff, "schrodinger"))
    for i in range(2):
        cfg = _write(workdir, f"transport_2d{i}.json", _scalar_2d(rng, 2))
        k = [_signed(rng, 0.4, 2.2), _signed(rng, 0.4, 2.2)]
        m = [_signed(rng, 0.4, 2.2), _signed(rng, 0.4, 2.2)]
        tasks.append(_couple(cfg, f"transport_couple2d{i}", workdir, k, m, (1, 1),
                             supercells, 6))
    for i in range(3):
        spec = _write(workdir, f"transport_ergodic{i}.json", _ergodic_spec(rng))
        tasks.append(_ergodic(spec, f"transport_ergodic{i}", workdir))
    return tasks


def _fdtd(rng: random.Random, workdir: Path) -> list:
    """Envelope-speed runs: eps = 1/8, 32 points per cell, length 12, t_final 4.

    Four runs per pass on 2- and 3-phase media, all on the same grid and
    step count, so the latencies form one block of like tasks and a 30 s
    run holds enough of them for a p75 tail.  The carrier k is a whole
    number of turns over the domain; a negative k sends the packet left
    from a start near the right end.
    """
    inv_eps, length, t_final, sigma = 8, 12.0, 4.0, 0.5
    tasks = []
    for i in range(4):
        desc = _piecewise_1d(rng, 2 + i % 2, 8, (1.0, 2.5), (1.0, 1.5), pin=True)
        cfg = _write(workdir, f"fdtd_medium{i}.json", desc)
        turns_per_unit_k = inv_eps * length / TWO_PI  # k = j / turns_per_unit_k
        j = rng.randint(math.ceil(0.25 * math.pi * turns_per_unit_k),
                        math.floor(0.75 * math.pi * turns_per_unit_k))
        k = j / turns_per_unit_k
        center = 2.5
        if rng.random() < 0.5:
            k, center = -k, length - 2.5
        prefix = str(workdir / f"fdtd_run{i}")
        argv = ("simulate", "--config", cfg, _kflag("--k", [k]), "--band", "1",
                "--cutoff", "8", "--epsilon", _fmt(1.0 / inv_eps), "--sigma", _fmt(sigma),
                "--center", _fmt(center), "--length", _fmt(length), "--points-per-cell", "32",
                "--t-final", _fmt(t_final), "--out-prefix", prefix)
        tasks.append(Task("simulate", argv, (prefix + "_frames.csv", prefix + "_run.json"), 1,
                          info={"t_final": t_final}))
    return tasks


_GENERATORS = {"sweep2d": _sweep2d, "transport": _transport, "fdtd": _fdtd}
WORKLOADS = tuple(_GENERATORS)

# The tail percentile of each workload: the highest of p75, p90, p99 with at
# least 10 of a run's task latencies beyond it at the designed pass count
# (sweep2d ~60 tasks, fdtd ~50, transport ~2000 in 30 s).  It is fixed, not
# chosen from the count a run happens to reach, so a run on a slow machine
# does not report a different percentile; the client runs enough passes to
# keep 10 samples beyond it.
TAIL_PERCENTILE = {"sweep2d": 75.0, "transport": 99.0, "fdtd": 75.0}


def generate(workload: str, seed: int, workdir) -> list:
    """Write the configs of one pass of ``workload`` under ``workdir`` and return its tasks."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, workdir)
