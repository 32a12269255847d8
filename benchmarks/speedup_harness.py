"""Timed harness: figure experiments across engine/cache generations.

Two modes, each timing full experiments in fresh subprocesses (cold
session cache, cold imports):

* **seed-vs-new** (default) — the seed path (current tree pinned to the
  scalar engine with caching disabled, or ``--baseline-repo PATH`` for
  a genuine seed checkout) against the batched engine + memoizing
  session + runner defaults of the current tree.
* **store** (``--store``) — a *cold* run of one experiment populating
  the on-disk artifact store, then a *warm* run in a new process served
  from it: the cross-process caching the store tier exists for.
* **fig7-sweep** (``--fig7-sweep``) — the config-parallel sweep engine:
  the full fig7 sampling grid in one cold grouped invocation (trace,
  native columns, and STMS metadata classification shared per trace by
  ``repro.sim.sweep``) against the same cells run as independent cold
  per-cell invocations, each re-deriving everything.  Both legs are
  wall-clock including interpreter startup — the per-cell leg *is* N
  separate process launches; that symmetry is the point.
* **fig7-par** (``--fig7-par``) — the two-level scheduler + shared-
  memory trace plane: one workload's whole sampling ladder (a single
  trace group, the worst case for level-1 scheduling) cold through the
  serial grouped path, then cold again through a two-worker runner
  that splits the group into cell shards attached over ``repro.sim.shm``.
  Records ``cpus`` alongside the ratio: on a single-CPU machine the
  parallel leg cannot win and the ratio gate is informational only
  (``check_bench`` skips it there).

Every invocation appends a human-readable line to
``benchmarks/output/speedup.txt`` **and** writes a machine-readable
``benchmarks/output/BENCH_<stamp>.json`` (per-figure wall-clock plus
cache hit counters) so the performance trajectory is trackable across
PRs and CI uploads it as a workflow artifact.

Examples::

    python benchmarks/speedup_harness.py --experiment fig9
    python benchmarks/speedup_harness.py --suite   # every figure once
    python benchmarks/speedup_harness.py --store --experiment fig4
    python benchmarks/speedup_harness.py --fig7-sweep --scale test
    python benchmarks/speedup_harness.py --experiment fig4 \
        --baseline-repo /path/to/seed/checkout
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The session-stats print is guarded: the seed checkout predates the
# session layer (and older trees its newer counters).
_STATS_TAIL = """
try:
    import dataclasses, json
    from repro.sim.session import get_session
    print("STATS " + json.dumps(dataclasses.asdict(get_session().stats)))
except Exception:
    pass
"""

_RUN_ONE = """
import time
from repro.experiments import EXPERIMENTS
t0 = time.perf_counter()
EXPERIMENTS[{name!r}](scale={scale!r})
print("ELAPSED", time.perf_counter() - t0)
""" + _STATS_TAIL

_RUN_SUITE = """
import time
from repro.experiments import EXPERIMENTS
t0 = time.perf_counter()
for name in sorted(EXPERIMENTS):
    t1 = time.perf_counter()
    EXPERIMENTS[name](scale={scale!r})
    print("PER", name, time.perf_counter() - t1)
print("ELAPSED", time.perf_counter() - t0)
""" + _STATS_TAIL


# The fig7-sweep mode builds its cell list from the experiment module
# itself so the bench can never drift out of sync with the figure.
_LIST_FIG7_CELLS = """
import json
from repro.experiments.fig7_traffic import SAMPLING_POINTS
from repro.workloads.suite import FIGURE_ORDER
print("CELLS " + json.dumps(
    [[name, probability]
     for name in FIGURE_ORDER
     for probability in SAMPLING_POINTS]
))
"""

# Grouped leg: the whole grid through the runner, whose grouping hands
# same-trace jobs to repro.sim.sweep.run_sweep.  Job parameters mirror
# repro.experiments.fig7_traffic.run defaults (cores=4, seed=7).
_RUN_FIG7_GROUPED = """
import time
from repro.experiments.fig7_traffic import SAMPLING_POINTS
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    job_options,
)
from repro.workloads.suite import FIGURE_ORDER
jobs = [
    SimJob(
        name, PrefetcherKind.STMS, scale={scale!r}, cores=4, seed=7,
        stms_overrides=job_options(sampling_probability=probability),
        tag=probability,
    )
    for name in FIGURE_ORDER
    for probability in SAMPLING_POINTS
]
t0 = time.perf_counter()
ExperimentRunner(max_workers=1, parallel=False).map(jobs)
print("ELAPSED", time.perf_counter() - t0)
""" + _STATS_TAIL

# fig7-par legs: one workload's sampling ladder is a single trace
# group, so the serial leg is one sweep invocation and the parallel leg
# exercises level-2 cell sharding + the shm trace plane.  The ladder
# extends the figure's sampling axis to four points so the group is
# actually splittable at test scale.
_FIG7_PAR_LADDER = (1.0, 0.5, 0.25, 0.125)

_LIST_FIG7_WORKLOAD = """
from repro.workloads.suite import FIGURE_ORDER
print("WORKLOAD " + FIGURE_ORDER[0])
"""

_RUN_FIG7_PAR = """
import time
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    job_options,
)
jobs = [
    SimJob(
        {name!r}, PrefetcherKind.STMS, scale={scale!r}, cores=4, seed=7,
        stms_overrides=job_options(sampling_probability=probability),
        tag=probability,
    )
    for probability in {ladder!r}
]
t0 = time.perf_counter()
ExperimentRunner(max_workers={workers}, parallel={parallel}).map(jobs)
print("ELAPSED", time.perf_counter() - t0)
""" + _STATS_TAIL


# Per-cell leg: one fresh process per cell, nothing shared.
_RUN_FIG7_CELL = """
import time
from repro.sim.runner import PrefetcherKind, SimJob, job_options, run_job
t0 = time.perf_counter()
run_job(SimJob(
    {name!r}, PrefetcherKind.STMS, scale={scale!r}, cores=4, seed=7,
    stms_overrides=job_options(sampling_probability={probability!r}),
))
print("ELAPSED", time.perf_counter() - t0)
"""


def _measure(
    code: str, src: str, env_overrides: dict
) -> "tuple[float, dict[str, float], dict]":
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(env_overrides)
    output = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    elapsed = None
    per: "dict[str, float]" = {}
    stats: dict = {}
    for line in output.splitlines():
        if line.startswith("ELAPSED"):
            elapsed = float(line.split()[1])
        elif line.startswith("PER"):
            _, name, value = line.split()
            per[name] = float(value)
        elif line.startswith("STATS "):
            stats = json.loads(line[len("STATS "):])
    if elapsed is None:
        raise RuntimeError(f"no ELAPSED line in output:\n{output}")
    return elapsed, per, stats


def _hit_rate(stats: dict) -> "float | None":
    """Fraction of simulations served from either cache tier."""
    hits = stats.get("sim_hits", 0) + stats.get("sim_store_hits", 0)
    total = hits + stats.get("sim_misses", 0)
    if total == 0:
        return None
    return hits / total


def _output_dir() -> str:
    path = os.path.join(HERE, "output")
    os.makedirs(path, exist_ok=True)
    return path


def _record(lines: "list[str]", payload: dict) -> str:
    """Append the text log and write the BENCH_<stamp>.json record."""
    output_dir = _output_dir()
    with open(os.path.join(output_dir, "speedup.txt"), "a") as handle:
        handle.write("\n".join(lines) + "\n")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    payload["stamp"] = stamp
    bench_path = os.path.join(output_dir, f"BENCH_{stamp}.json")
    with open(bench_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {bench_path}")
    return bench_path


def _run_store_mode(args: argparse.Namespace, code: str, label: str) -> int:
    """Cold-vs-warm measurement of the persistent artifact store."""
    store_dir = args.store_dir or os.path.join(
        _output_dir(), "store-bench"
    )
    # The first run must be genuinely cold — but never delete a
    # directory that isn't recognizably an artifact store (a typo'd
    # --store-dir must not wipe arbitrary data).
    if os.path.isdir(store_dir) and os.listdir(store_dir):
        if not os.path.exists(os.path.join(store_dir, "schema.json")):
            raise SystemExit(
                f"--store-dir {store_dir} exists, is not empty, and has "
                "no schema.json stamp; refusing to clear it"
            )
        shutil.rmtree(store_dir)
    src = os.path.join(ROOT, "src")
    # Pin the cache environment: an inherited REPRO_SIM_CACHE=0 would
    # quietly disable the very tier being measured.
    env = {"REPRO_STORE_DIR": store_dir, "REPRO_SIM_CACHE": "1"}

    print(f"store tier, {label} at scale={args.scale} ...")
    cold, cold_per, cold_stats = _measure(code, src, env)
    print(f"  cold (empty store): {cold:.1f}s")
    warm, warm_per, warm_stats = _measure(code, src, env)
    ratio = cold / warm if warm > 0 else float("inf")
    print(
        f"  warm (new process, same store): {warm:.2f}s ({ratio:.1f}x)"
    )
    print(
        f"  warm served from disk: "
        f"{warm_stats.get('sim_store_hits', 0)} results, "
        f"{warm_stats.get('trace_store_hits', 0)} traces, "
        f"{warm_stats.get('sim_misses', 0)} simulated"
    )

    lines = [
        f"store tier, {label} @ {args.scale}: cold {cold:.1f}s -> "
        f"warm {warm:.2f}s ({ratio:.1f}x, "
        f"{warm_stats.get('sim_store_hits', 0)} store hits, "
        f"{warm_stats.get('sim_misses', 0)} simulated)"
    ]
    _record(
        lines,
        {
            "mode": "store",
            "experiment": label,
            "scale": args.scale,
            "store_dir": store_dir,
            "cold_s": cold,
            "warm_s": warm,
            "speedup": ratio,
            "cold_per_figure": cold_per,
            "warm_per_figure": warm_per,
            "cold_stats": cold_stats,
            "warm_stats": warm_stats,
            "cold_hit_rate": _hit_rate(cold_stats),
            "warm_hit_rate": _hit_rate(warm_stats),
        },
    )
    return 0


def _measure_wall(
    code: str, src: str, env_overrides: dict
) -> "tuple[float, dict]":
    """Like :func:`_measure`, but wall-clock including process startup."""
    t0 = time.perf_counter()
    _, _, stats = _measure(code, src, env_overrides)
    return time.perf_counter() - t0, stats


def _run_fig7_sweep(args: argparse.Namespace) -> int:
    """Grouped sweep invocation vs independent per-cell invocations."""
    src = os.path.join(ROOT, "src")
    # Memory session only, cold in every process: the store would let
    # the second leg ride on the first leg's results.  The grouped leg
    # runs the grid through the runner's sweep grouping; the per-cell
    # leg runs each cell through ``run_job`` in a fresh process, so
    # every cell re-pays startup, trace generation and classification.
    env = {
        "REPRO_SIM_CACHE": "1",
        "REPRO_STORE_DIR": "",
        "REPRO_JOBS": "1",
    }
    probe_env = dict(os.environ)
    probe_env["PYTHONPATH"] = src + (
        os.pathsep + probe_env["PYTHONPATH"]
        if probe_env.get("PYTHONPATH")
        else ""
    )
    cells: "list[list]" = []
    for line in subprocess.run(
        [sys.executable, "-c", _LIST_FIG7_CELLS],
        env=probe_env, capture_output=True, text=True, check=True,
    ).stdout.splitlines():
        if line.startswith("CELLS "):
            cells = json.loads(line[len("CELLS "):])
    if not cells:
        raise RuntimeError("could not enumerate fig7 cells")

    print(
        f"fig7 sweep at scale={args.scale}: {len(cells)} per-cell "
        f"invocations vs one grouped invocation ..."
    )
    # Baseline leg first, like seed-vs-new mode.
    per_cell: "dict[str, float]" = {}
    per_cell_total = 0.0
    for name, probability in cells:
        wall, _ = _measure_wall(
            _RUN_FIG7_CELL.format(
                name=name, scale=args.scale, probability=probability
            ),
            src,
            env,
        )
        per_cell[f"{name}@{probability}"] = wall
        per_cell_total += wall
    print(f"  per-cell (fresh process each): {per_cell_total:.1f}s total")
    grouped, grouped_stats = _measure_wall(
        _RUN_FIG7_GROUPED.format(scale=args.scale), src, env
    )
    print(
        f"  grouped (one process, sweep engine): {grouped:.1f}s "
        f"({grouped_stats.get('sweep_invocations', 0)} sweep "
        f"invocations, {grouped_stats.get('sweep_cells', 0)} cells "
        f"grouped, {grouped_stats.get('sweep_fallbacks', 0)} fallbacks)"
    )
    ratio = grouped / per_cell_total if per_cell_total > 0 else float("inf")
    speedup = per_cell_total / grouped if grouped > 0 else float("inf")
    print(
        f"  grouped / per-cell ratio: {ratio:.2f} ({speedup:.2f}x faster)"
    )

    lines = [
        f"fig7 sweep @ {args.scale}: per-cell {per_cell_total:.1f}s -> "
        f"grouped {grouped:.1f}s (ratio {ratio:.2f}, "
        f"{grouped_stats.get('sweep_cells', 0)} cells grouped, "
        f"{grouped_stats.get('sweep_fallbacks', 0)} fallbacks)"
    ]
    _record(
        lines,
        {
            "mode": "fig7-sweep",
            "experiment": "fig7",
            "scale": args.scale,
            "cells": len(cells),
            "cold_s": grouped,
            "per_cell_s": per_cell_total,
            "ratio": ratio,
            "speedup": speedup,
            "per_cell_walls": per_cell,
            "grouped_stats": grouped_stats,
        },
    )
    return 0


def _run_fig7_par(args: argparse.Namespace) -> int:
    """Serial grouped sweep vs two-worker cell-parallel shm plane."""
    src = os.path.join(ROOT, "src")
    # Memory session only, cold in both processes; the shm plane is
    # pinned on for BOTH legs so the only variable is the scheduler
    # (serial grouped vs cell shards over the plane).
    serial_env = {
        "REPRO_SIM_CACHE": "1",
        "REPRO_STORE_DIR": "",
        "REPRO_SHM": "on",
    }
    probe_env = dict(os.environ)
    probe_env["PYTHONPATH"] = src + (
        os.pathsep + probe_env["PYTHONPATH"]
        if probe_env.get("PYTHONPATH")
        else ""
    )
    workload = None
    for line in subprocess.run(
        [sys.executable, "-c", _LIST_FIG7_WORKLOAD],
        env=probe_env, capture_output=True, text=True, check=True,
    ).stdout.splitlines():
        if line.startswith("WORKLOAD "):
            workload = line[len("WORKLOAD "):].strip()
    if not workload:
        raise RuntimeError("could not resolve the fig7-par workload")
    cpus = os.cpu_count() or 1

    print(
        f"fig7 parallel plane at scale={args.scale}: {workload} x "
        f"{len(_FIG7_PAR_LADDER)} sampling cells, one trace group, "
        f"{cpus} cpus ..."
    )
    serial, serial_stats = _measure_wall(
        _RUN_FIG7_PAR.format(
            name=workload, scale=args.scale, ladder=_FIG7_PAR_LADDER,
            workers=1, parallel=False,
        ),
        src,
        serial_env,
    )
    print(f"  serial grouped (one sweep invocation): {serial:.1f}s")
    parallel, parallel_stats = _measure_wall(
        _RUN_FIG7_PAR.format(
            name=workload, scale=args.scale, ladder=_FIG7_PAR_LADDER,
            workers=2, parallel=True,
        ),
        src,
        serial_env,
    )
    print(
        f"  2-worker cell shards (shm plane): {parallel:.1f}s "
        f"({parallel_stats.get('shm_exports', 0)} segments exported, "
        f"{parallel_stats.get('shm_attaches', 0)} attaches, "
        f"{parallel_stats.get('shm_bytes_zero_copy', 0)} bytes "
        f"zero-copy)"
    )
    ratio = parallel / serial if serial > 0 else float("inf")
    note = "" if cpus >= 2 else " (1 cpu: informational only)"
    print(f"  parallel / serial ratio: {ratio:.2f}{note}")

    lines = [
        f"fig7 par @ {args.scale}: serial {serial:.1f}s -> 2-worker "
        f"{parallel:.1f}s (ratio {ratio:.2f}, {cpus} cpus, "
        f"{parallel_stats.get('shm_attaches', 0)} shm attaches)"
    ]
    _record(
        lines,
        {
            "mode": "fig7-par",
            "experiment": "fig7",
            "scale": args.scale,
            "workload": workload,
            "cells": len(_FIG7_PAR_LADDER),
            "cpus": cpus,
            "cold_s": parallel,
            "serial_s": serial,
            "ratio": ratio,
            "serial_stats": serial_stats,
            "parallel_stats": parallel_stats,
        },
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", default="fig9")
    parser.add_argument("--scale", default="bench")
    parser.add_argument(
        "--suite", action="store_true",
        help="time every figure experiment once instead of one figure",
    )
    parser.add_argument(
        "--baseline-repo",
        help="path to a seed checkout; its code becomes the seed path",
    )
    parser.add_argument(
        "--store", action="store_true",
        help="measure the artifact store: cold run, then a warm run in "
        "a new process served from disk",
    )
    parser.add_argument(
        "--store-dir", default=None,
        help="store directory for --store (cleared before the cold "
        "run; default: benchmarks/output/store-bench)",
    )
    parser.add_argument(
        "--fig7-sweep", action="store_true",
        help="measure the config-parallel sweep engine: the full fig7 "
        "grid grouped in one cold invocation vs one cold invocation "
        "per cell",
    )
    parser.add_argument(
        "--fig7-par", action="store_true",
        help="measure the two-level scheduler + shm trace plane: one "
        "workload's sampling ladder serial-grouped vs split across two "
        "workers attaching the trace over shared memory",
    )
    args = parser.parse_args(argv)

    if args.fig7_sweep:
        return _run_fig7_sweep(args)

    if args.fig7_par:
        return _run_fig7_par(args)

    if args.suite:
        code = _RUN_SUITE.format(scale=args.scale)
        label = "all experiments"
    else:
        code = _RUN_ONE.format(name=args.experiment, scale=args.scale)
        label = args.experiment

    if args.store:
        return _run_store_mode(args, code, label)

    # Both legs pin the cache environment: an inherited warm
    # REPRO_STORE_DIR (or REPRO_SIM_CACHE=0) would silently serve one
    # side from disk and record a bogus speedup as permanent evidence.
    if args.baseline_repo:
        seed_src = os.path.join(args.baseline_repo, "src")
        seed_env: dict = {"REPRO_STORE_DIR": ""}
        seed_label = f"seed checkout ({args.baseline_repo})"
    else:
        seed_src = os.path.join(ROOT, "src")
        seed_env = {
            "REPRO_SIM_ENGINE": "scalar",
            "REPRO_SIM_CACHE": "0",
            "REPRO_STORE_DIR": "",
            "REPRO_JOBS": "1",
        }
        seed_label = "current tree, scalar engine, no cache, serial"

    print(f"timing {label} at scale={args.scale} ...")
    seed_elapsed, seed_per, _ = _measure(code, seed_src, seed_env)
    print(f"  seed path [{seed_label}]: {seed_elapsed:.1f}s")
    new_elapsed, new_per, new_stats = _measure(
        code,
        os.path.join(ROOT, "src"),
        {"REPRO_SIM_CACHE": "1", "REPRO_STORE_DIR": ""},
    )
    print(f"  new stack [batched engine + session + runner]: "
          f"{new_elapsed:.1f}s")
    ratio = seed_elapsed / new_elapsed if new_elapsed > 0 else float("inf")
    print(f"  wall-clock reduction: {ratio:.2f}x")

    lines = [
        f"{label} @ {args.scale}: seed [{seed_label}] "
        f"{seed_elapsed:.1f}s -> new {new_elapsed:.1f}s ({ratio:.2f}x)"
    ]
    per_figure: "dict[str, dict[str, float]]" = {}
    for name in seed_per:
        if name in new_per and new_per[name] > 0:
            per_ratio = seed_per[name] / new_per[name]
            per_figure[name] = {
                "seed_s": seed_per[name],
                "new_s": new_per[name],
                "speedup": per_ratio,
            }
            line = (
                f"    {name}: {seed_per[name]:.1f}s -> "
                f"{new_per[name]:.1f}s ({per_ratio:.2f}x)"
            )
            print(line)
            lines.append(line)

    _record(
        lines,
        {
            "mode": "seed-vs-new",
            "experiment": label,
            "scale": args.scale,
            "seed_label": seed_label,
            "seed_s": seed_elapsed,
            "new_s": new_elapsed,
            "speedup": ratio,
            "per_figure": per_figure,
            "new_stats": new_stats,
            "new_hit_rate": _hit_rate(new_stats),
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
