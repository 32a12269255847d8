"""Command-line interface: run workloads, comparisons, and experiments.

Examples::

    python -m repro list-workloads
    python -m repro run --workload oltp-db2 --prefetcher stms --scale demo
    python -m repro compare --workload sci-em3d --scale demo
    python -m repro experiment fig9 --scale bench --output fig9.txt
    python -m repro sweep-sampling --workload web-apache --scale demo
    python -m repro cache warm fig4 --scale bench
    python -m repro cache stats

Every simulation command works through the persistent artifact store
(``--store-dir``, default ``$REPRO_STORE_DIR`` or ``~/.cache/
repro-stms``), so a figure regenerated twice — even across separate
invocations — is served from disk the second time.  ``--no-cache``
forces full recomputation.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import dataclasses
import functools
import gc
import math
import os
import sys
import time
from typing import Sequence

from repro.analysis.report import format_percent, format_table
from repro.experiments import (
    EXPERIMENTS,
    SAMPLED_EXPERIMENTS,
    run_experiment,
)
from repro.obs import SessionStats, long_lived
from repro.sim.results import SimResult
from repro.sim.runner import (
    PrefetcherKind,
    compare_prefetchers,
    make_stms_config,
    run_workload,
)
from repro.sim.session import SimSession, set_session
from repro.sim.store import (
    ArtifactStore,
    default_store_dir,
    read_trace_header,
)
from repro.workloads.scales import (
    FIGURE_ORDER,
    MIX_PRESETS,
    SCALES,
    WORKLOAD_INFO,
    is_mix,
)


def _bounded(kind: type, holds, expected: str):
    """An argparse ``type``: ``kind(value)``, if ``holds`` accepts it."""

    def parse(value: str):
        with contextlib.suppress(ValueError):
            if holds(number := kind(value)):
                return number
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")

    return parse


_positive_int = _bounded(int, lambda n: n > 0, "a positive integer")
_seed = _bounded(int, lambda n: n >= 0, "a non-negative integer")
_probability = _bounded(
    float, lambda p: 0 <= p <= 1, "a probability in [0, 1]"
)
_megabytes = _bounded(float, lambda mb: 0 < mb < math.inf, "a size > 0 MiB")
_confidence = _bounded(float, lambda c: 0 < c < 1, "a level in (0, 1)")
_width = _bounded(float, lambda w: 0 < w < math.inf, "a finite width > 0")


def _workload_arg(value: str) -> str:
    """Validate a workload argument: suite name, mix preset, or spec.

    Mixes are accepted everywhere a homogeneous workload is (``run``,
    ``compare``, ``cache warm``): ``mix:2xoltp-db2+2xdss-db2`` assigns
    components to cores round-robin.  Components may carry asymmetric
    scheduling decorations — ``*S`` time-sliced instances, ``@R`` rate
    weight, ``!low`` demand-priority class — e.g.
    ``mix:oltp-db2*2+web-apache@0.5!low``.
    """
    if value in FIGURE_ORDER:
        return value
    if is_mix(value):
        from repro.workloads.mix import MixRecipe

        try:
            MixRecipe.parse(value)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        return value
    raise argparse.ArgumentTypeError(
        f"unknown workload {value!r}; choose a suite workload "
        f"({', '.join(sorted(FIGURE_ORDER))}), a mix preset "
        f"({', '.join(sorted(MIX_PRESETS))}), or a "
        "'mix:<w>[*S][@rate][!prio]+<w>...' spec"
    )


def _store_session(store_dir: str) -> SimSession:
    """An enabled session on the store at ``store_dir``, counting the
    store's events from its opening (schema check) on."""
    session = SimSession(enabled=True, store=None)
    session.attach_store(ArtifactStore(store_dir, stats=session.stats))
    return session


@contextlib.contextmanager
def _session_scope(args: argparse.Namespace):
    """Install the CLI-selected session (store + enabled) globally.

    ``--no-cache`` (or ``REPRO_SIM_CACHE=0``) disables both cache tiers;
    otherwise the artifact store at ``--store-dir`` backs the session.
    Pool workers of the parallel runner run on this same session.  On
    exit the session persists its remaining counts and the previous
    global session is restored.
    """
    no_cache = (
        getattr(args, "no_cache", False)
        or os.environ.get("REPRO_SIM_CACHE", "1") == "0"
    )
    if no_cache:
        session = SimSession(enabled=False)
    else:
        session = _store_session(
            getattr(args, "store_dir", None) or default_store_dir()
        )
    previous = set_session(session)
    try:
        yield session
    finally:
        set_session(previous)
        session.persist_counters()


def _result_rows(results: "dict[PrefetcherKind, SimResult]") -> list:
    baseline = results.get(PrefetcherKind.BASELINE)
    rows = []
    for kind, result in results.items():
        speedup = (
            f"{result.speedup_over(baseline):.3f}x"
            if baseline is not None
            else "-"
        )
        rows.append(
            [
                kind.value,
                format_percent(result.coverage.coverage),
                format_percent(result.coverage.partial_coverage),
                speedup,
                f"{result.overhead_per_useful_byte:.3f}",
                f"{result.mlp:.2f}",
            ]
        )
    return rows


def _print_results(
    workload: str, results: "dict[PrefetcherKind, SimResult]"
) -> None:
    print(
        format_table(
            ["prefetcher", "coverage", "partial", "speedup",
             "overhead/byte", "mlp"],
            _result_rows(results),
            title=f"{workload}",
        )
    )
    mix_rows = []
    for kind, result in results.items():
        if result.core_workloads is None:
            continue
        from repro.sim.results import per_workload_breakdown

        for name, piece in sorted(per_workload_breakdown(result).items()):
            mix_rows.append(
                [
                    kind.value,
                    name,
                    len(piece.cores),
                    format_percent(piece.coverage.coverage),
                    f"{piece.throughput:.4f}",
                    f"{piece.mlp:.2f}",
                ]
            )
    if mix_rows:
        print(
            format_table(
                ["prefetcher", "workload", "cores", "coverage",
                 "throughput", "mlp"],
                mix_rows,
                title="Per-workload split (multiprogrammed mix)",
            )
        )


def cmd_list_workloads(_: argparse.Namespace) -> int:
    rows = [
        [
            name,
            info.category,
            info.display,
            info.paper_mlp,
            format_percent(info.paper_ideal_coverage),
        ]
        for name, info in WORKLOAD_INFO.items()
    ]
    print(
        format_table(
            ["name", "category", "display", "paper MLP",
             "paper ideal coverage"],
            rows,
            title="Paper workload suite (scaled synthetic analogues)",
        )
    )
    return 0


def cmd_list_experiments(_: argparse.Namespace) -> int:
    rows = [[name] for name in sorted(EXPERIMENTS)]
    print(format_table(["experiment"], rows, title="Available experiments"))
    return 0


def cmd_list_mixes(_: argparse.Namespace) -> int:
    from repro.workloads.mix import MixRecipe

    rows = [
        [name, spec, " ".join(MixRecipe.parse(spec).assign(4))]
        for name, spec in sorted(MIX_PRESETS.items())
    ]
    print(
        format_table(
            ["preset", "spec", "4-core assignment"],
            rows,
            title="Multiprogrammed mix presets (or give any "
            "'mix:<w>+<w>...' spec; components take *S time slices, "
            "@R rate, !low priority — e.g. "
            "mix:oltp-db2*2+web-apache@0.5!low)",
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    kind = PrefetcherKind(args.prefetcher)
    stms_config = None
    if kind is PrefetcherKind.STMS:
        stms_config = make_stms_config(
            args.scale,
            cores=args.cores,
            sampling_probability=args.sampling,
        )
    with _session_scope(args) as session:
        result = run_workload(
            args.workload,
            kind,
            scale=args.scale,
            cores=args.cores,
            seed=args.seed,
            stms_config=stms_config,
            session=session,
        )
    _print_results(args.workload, {kind: result})
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    with _session_scope(args) as session:
        results = compare_prefetchers(
            args.workload, scale=args.scale, cores=args.cores,
            seed=args.seed, session=session,
        )
    _print_results(args.workload, results)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    options: dict = {"scale": args.scale}
    sampled = args.budget is not None or args.ci_width is not None
    if args.confidence is not None and not sampled:
        print(
            "error: --confidence sets the sampled sweep's interval level; "
            "it needs --budget or --ci-width",
            file=sys.stderr,
        )
        return 2
    if sampled:
        if args.name not in SAMPLED_EXPERIMENTS:
            print(
                f"error: --budget/--ci-width need a sampled-capable "
                f"experiment ({', '.join(sorted(SAMPLED_EXPERIMENTS))}), "
                f"not {args.name}",
                file=sys.stderr,
            )
            return 2
        options.update(budget=args.budget, ci_width=args.ci_width)
        if args.confidence is not None:
            options["confidence"] = args.confidence
    if args.jobs is not None:
        from repro.sim.runner import ExperimentRunner

        options["runner"] = ExperimentRunner(
            max_workers=args.jobs, parallel=args.jobs > 1
        )
    with _session_scope(args) as session:
        result = run_experiment(args.name, session=session, **options)
    rendered = result.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0 if result.passed else 1


def cmd_sweep_sampling(args: argparse.Namespace) -> int:
    from repro.experiments import fig8_sampling

    with _session_scope(args) as session:
        result = fig8_sampling.run(
            scale=args.scale, cores=args.cores, seed=args.seed,
            workloads=(args.workload,), session=session,
        )
    print(result.render())
    return 0 if result.passed else 1


# ----------------------------------------------------------------------
# The `cache` subcommand group: ls / stats / gc / warm.
# ----------------------------------------------------------------------


def _open_store(args: argparse.Namespace) -> ArtifactStore:
    return ArtifactStore(args.store_dir or default_store_dir())


def _format_size(count: int) -> str:
    if count >= 1024 * 1024:
        return f"{count / (1024 * 1024):.1f}M"
    if count >= 1024:
        return f"{count / 1024:.1f}K"
    return f"{count}B"


def _entry_label(entry) -> str:
    """Human tag for one store entry (best-effort, never raises)."""
    try:
        if entry.kind == "result":
            import json

            with open(entry.path, "rb") as handle:
                record = json.load(handle)
            return (
                f"{record.get('workload', '?')} / "
                f"{record.get('prefetcher', '?')}"
            )
        if entry.kind == "estimate":
            import json

            with open(entry.path, "rb") as handle:
                payload = json.load(handle).get("payload", {})
            return (
                f"{payload.get('experiment', '?')} sampled "
                f"{payload.get('budget', '?')}/{payload.get('total', '?')}"
            )
        return read_trace_header(entry.path)["trace"]["name"]
    except Exception:
        return "(unreadable)"


def cmd_cache_ls(args: argparse.Namespace) -> int:
    store = _open_store(args)
    entries = store.entries()
    now = time.time()
    rows = [
        [
            entry.kind,
            entry.digest[:12],
            _format_size(entry.size_bytes),
            f"{max(0.0, now - entry.mtime):.0f}s",
            _entry_label(entry),
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["kind", "digest", "size", "age", "artifact"],
            rows,
            title=f"{store.root} ({len(entries)} entries, LRU first)",
        )
    )
    return 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _open_store(args)
    info = store.describe()
    cap = (
        _format_size(info["max_bytes"])
        if info["max_bytes"] is not None
        else "unbounded"
    )
    rows = [
        ["store", info["root"]],
        ["schema", str(info["schema"])],
        ["traces", f"{info['traces']} ({_format_size(info['trace_bytes'])})"],
        [
            "results",
            f"{info['results']} ({_format_size(info['result_bytes'])})",
        ],
        [
            "estimates",
            f"{info['estimates']} ({_format_size(info['estimate_bytes'])})",
        ],
        ["total", _format_size(info["total_bytes"])],
        ["size cap", cap],
    ]
    # One row per declared counter; the derived rows below index the
    # same names, so they cannot read a key nothing writes.
    counters = {
        field.name: info["counters"].get(field.name, 0)
        for field in dataclasses.fields(SessionStats)
    }
    for name, value in counters.items():
        rows.append([name.replace("_", " "), str(value)])
    # Grid-grouping effectiveness: average cells served per sweep
    # invocation (versus per-cell fallbacks, reported above) makes
    # silent de-vectorization of sweep grids visible.
    invocations = counters["sweep_invocations"]
    if invocations:
        cells = counters["sweep_cells"]
        rows.append(["cells per sweep", f"{cells / invocations:.1f}"])
    # Data-plane effectiveness: how much of the bytes shipped to pool
    # workers travelled as zero-copy shared-memory views versus the
    # TraceRef fallback path.
    zero_copy = counters["shm_bytes_zero_copy"]
    pickled = counters["shm_bytes_pickled"]
    if zero_copy or pickled:
        rows.append([
            "shm zero-copy share",
            f"{zero_copy / (zero_copy + pickled):.0%} "
            f"({_format_size(zero_copy)} shm vs "
            f"{_format_size(pickled)} pickled)",
        ])
    # Sampling effectiveness: what share of sweep cells ran under a
    # budget (with bootstrap intervals) versus the exact full grid, and
    # how much refinement re-runs reused instead of re-simulating.
    sampled = counters["sampling_sampled_cells"]
    exact = counters["sampling_exact_cells"]
    if sampled or exact:
        rows.append([
            "sampled cell share",
            f"{sampled / (sampled + exact):.0%} "
            f"({sampled} sampled vs {exact} exact)",
        ])
    reused = counters["sampling_reused_cells"]
    if reused:
        rows.append([
            "refinement reuse",
            f"{reused} cells answered by the store across re-runs",
        ])
    print(format_table(["field", "value"], rows, title="Artifact store"))
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    session = _store_session(args.store_dir or default_store_dir())
    store = session.store
    max_bytes = (
        int(args.max_mb * 1024 * 1024) if args.max_mb is not None else None
    )
    if args.clear:
        report = f"cleared {store.clear()} entries from {store.root}"
    elif max_bytes is None and store.max_bytes is None:
        print(
            "no size cap given: pass --max-mb N (or --clear, or set "
            "REPRO_STORE_MAX_MB)"
        )
        return 1
    else:
        evicted = store.gc(max_bytes)
        report = (
            f"evicted {evicted} entries; "
            f"{_format_size(store.total_bytes())} remain in {store.root}"
        )
    session.persist_counters()
    print(report)
    return 0


def cmd_cache_warm(args: argparse.Namespace) -> int:
    """Populate the store by running a figure or workload once."""
    started = time.perf_counter()
    with _session_scope(args) as session:
        if args.target in EXPERIMENTS:
            options: dict = {
                "scale": args.scale,
                "cores": args.cores,
                "seed": args.seed,
                "session": session,
            }
            if args.jobs is not None:
                from repro.sim.runner import ExperimentRunner

                options["runner"] = ExperimentRunner(
                    max_workers=args.jobs, parallel=args.jobs > 1
                )
            run_experiment(args.target, **options)
        else:
            compare_prefetchers(
                args.target,
                scale=args.scale,
                cores=args.cores,
                seed=args.seed,
                session=session,
            )
        elapsed = time.perf_counter() - started
        stats = session.stats
        store = session.store
    print(
        f"warmed {args.target} @ {args.scale} in {elapsed:.1f}s: "
        f"{stats.sim_misses} simulated, {stats.sim_hits} memory hits, "
        f"{stats.sim_store_hits} store hits "
        f"({stats.trace_store_hits} trace store hits, "
        f"{stats.bundle_skips} bundles skipped, "
        f"{stats.shm_attaches} shm attaches)"
    )
    if store is not None:
        print(
            f"store {store.root}: {stats.store_writes} writes, "
            f"{_format_size(store.total_bytes())} total"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STMS (HPCA 2009) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale", default="demo", choices=sorted(SCALES),
            help="scale preset (default: demo)",
        )
        sub.add_argument("--cores", type=_positive_int, default=4)
        sub.add_argument("--seed", type=_seed, default=7)
        add_cache_options(sub)

    def add_cache_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--no-cache", action="store_true",
            help="bypass the session memo and the artifact store "
            "(forces full recomputation)",
        )
        add_store_dir(sub)

    def add_store_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store-dir", default=None, metavar="DIR",
            help="artifact-store directory (default: $REPRO_STORE_DIR "
            "or ~/.cache/repro-stms)",
        )

    sub = subparsers.add_parser(
        "list-workloads", help="show the workload suite"
    )
    sub.set_defaults(entry=cmd_list_workloads)

    sub = subparsers.add_parser(
        "list-experiments", help="show available experiments"
    )
    sub.set_defaults(entry=cmd_list_experiments)

    sub = subparsers.add_parser(
        "list-mixes", help="show multiprogrammed mix presets"
    )
    sub.set_defaults(entry=cmd_list_mixes)

    sub = subparsers.add_parser("run", help="simulate one prefetcher")
    sub.add_argument(
        "--workload", required=True, type=_workload_arg,
        metavar="WORKLOAD|MIX",
        help="suite workload, mix preset, or 'mix:<w>+<w>...' spec",
    )
    sub.add_argument(
        "--prefetcher",
        default="stms",
        choices=[kind.value for kind in PrefetcherKind],
    )
    sub.add_argument(
        "--sampling", type=_probability, default=0.125,
        help="STMS index-update sampling probability",
    )
    add_common(sub)
    sub.set_defaults(entry=cmd_run)

    sub = subparsers.add_parser(
        "compare", help="baseline vs ideal vs STMS on one workload"
    )
    sub.add_argument(
        "--workload", required=True, type=_workload_arg,
        metavar="WORKLOAD|MIX",
        help="suite workload, mix preset, or 'mix:<w>+<w>...' spec",
    )
    add_common(sub)
    sub.set_defaults(entry=cmd_compare)

    sub = subparsers.add_parser(
        "experiment", help="regenerate one paper figure/table"
    )
    sub.add_argument("name", choices=sorted(EXPERIMENTS))
    sub.add_argument("--output", help="write the rendered figure here")
    sub.add_argument(
        "--scale", default="bench", choices=sorted(SCALES),
        help="scale preset (default: bench)",
    )
    sub.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes for the simulation grid "
        "(default: REPRO_JOBS or the CPU count)",
    )
    sub.add_argument(
        "--budget", type=_positive_int, default=None, metavar="N",
        help="run a budgeted stratified sample of N grid cells instead "
        "of the exact full grid (reported with bootstrap confidence "
        "intervals; supported by mix-contention and fig8)",
    )
    sub.add_argument(
        "--confidence", type=_confidence, default=None, metavar="C",
        help="confidence level for sampled-sweep intervals, with "
        "--budget or --ci-width (default: 0.95)",
    )
    sub.add_argument(
        "--ci-width", type=_width, default=None, metavar="W",
        help="refine the sampled sweep (doubling the budget, reusing "
        "the store) until every stratum's CI is at most this wide",
    )
    add_cache_options(sub)
    sub.set_defaults(entry=cmd_experiment)

    sub = subparsers.add_parser(
        "sweep-sampling", help="Fig. 8 sweep on one workload"
    )
    sub.add_argument("--workload", required=True,
                     choices=sorted(FIGURE_ORDER))
    add_common(sub)
    sub.set_defaults(entry=cmd_sweep_sampling)

    cache = subparsers.add_parser(
        "cache", help="inspect and manage the persistent artifact store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    sub = cache_sub.add_parser(
        "ls", help="list persisted artifacts (least recently used first)"
    )
    add_store_dir(sub)
    sub.set_defaults(entry=cmd_cache_ls)

    sub = cache_sub.add_parser(
        "stats", help="entry counts and sizes of the store"
    )
    add_store_dir(sub)
    sub.set_defaults(entry=cmd_cache_stats)

    sub = cache_sub.add_parser(
        "gc", help="evict least-recently-used entries past a size cap"
    )
    sub.add_argument(
        "--max-mb", type=_megabytes, default=None,
        help="target size in MiB, above 0 (default: REPRO_STORE_MAX_MB; "
        "--clear empties the store)",
    )
    sub.add_argument(
        "--clear", action="store_true", help="remove every entry"
    )
    add_store_dir(sub)
    sub.set_defaults(entry=cmd_cache_gc)

    sub = cache_sub.add_parser(
        "warm", help="populate the store by running a figure or workload"
    )
    def _warm_target(value: str) -> str:
        if value in EXPERIMENTS:
            return value
        if is_mix(value):
            # A mix spec with a bad component gets the specific
            # diagnosis, not the generic target list.
            return _workload_arg(value)
        try:
            return _workload_arg(value)
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(
                f"unknown warm target {value!r}; choose an experiment "
                f"({', '.join(sorted(EXPERIMENTS))}), a suite workload, "
                "a mix preset, or a 'mix:<w>+<w>' spec"
            ) from None

    sub.add_argument(
        "target",
        type=_warm_target,
        metavar="EXPERIMENT|WORKLOAD|MIX",
        help="experiment id (all its simulations) or workload/mix name "
        "(baseline/ideal/STMS comparison)",
    )
    sub.add_argument(
        "--scale", default="bench", choices=sorted(SCALES),
        help="scale preset (default: bench)",
    )
    sub.add_argument("--cores", type=_positive_int, default=4)
    sub.add_argument("--seed", type=_seed, default=7)
    sub.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes for experiment targets",
    )
    add_store_dir(sub)
    sub.set_defaults(entry=cmd_cache_warm)

    return parser


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Once per process: freeze the heap as the interpreter exits.

    The final collections of interpreter teardown then skip every
    object left instead of walking all the imports and the run built.
    ``atexit`` runs its handlers last in, first out, so handlers the
    run registers later (the process pool's) still run first.
    """
    atexit.register(gc.freeze)


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _freeze_heap_at_exit()
    try:
        # The parsed command and the control plane's import graph live
        # to the end of the run.
        with long_lived():
            status = args.entry(args)
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``| head -1``); what is
        # still buffered goes to the null device at exit, not a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
