"""High-level experiment runners.

Three layers sit above the engine:

* Convenience functions (:func:`run_workload`, :func:`run_trace`,
  :func:`compare_prefetchers`) that wire a suite workload, a scaled
  machine configuration, and a prefetcher choice into one call — all
  routed through the process-wide :class:`~repro.sim.session.SimSession`
  so repeated simulations are free.
* :class:`SimJob` — a picklable description of one simulation over the
  (workload x config x prefetcher) grid.
* :class:`ExperimentRunner` — maps job lists onto a process pool with
  a two-level decomposition: trace groups first (each worker acquires
  a trace once), then strided *cell* shards of the larger groups when
  workers would otherwise idle — split groups travel over the
  zero-copy shared-memory trace plane (:mod:`repro.sim.shm`) instead
  of being re-read per worker.  Falls back to in-process execution on
  single-CPU machines or when the platform refuses subprocesses.

>>> from repro.sim.runner import run_workload, PrefetcherKind
>>> result = run_workload("web-apache", PrefetcherKind.STMS, scale="test")
>>> 0.0 <= result.coverage.coverage <= 1.0
True

The module imports no NumPy, process machinery or simulator model: a
run served from the store needs none of them, so they load only on
the paths that simulate or fan out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from repro.core.config import StmsConfig, StmsFactory
from repro.envknobs import env_positive_int
from repro.memory.config import CmpConfig, DramConfig
from repro.obs import long_lived
from repro.sim.config import SimConfig, kernel_cell, resolve_engine
from repro.sim.results import SimResult
from repro.sim.session import (
    SimSession,
    _freeze,
    get_session,
    set_session,
    trace_recipe_key,
)
from repro.sim.store import TraceRef, trace_digest
from repro.workloads.scales import ScalePreset, get_scale

if TYPE_CHECKING:
    from repro.sim.engine import TemporalFactory
    from repro.sim.shm import TracePayload
    from repro.workloads.trace import Trace


class PrefetcherKind(Enum):
    """Prefetcher configurations the experiments compare."""

    #: Stride prefetcher only (the paper's base system).
    BASELINE = "baseline"
    #: Idealized TMS: magic on-chip meta-data (Section 5.2).
    IDEAL_TMS = "ideal-tms"
    #: The practical design: off-chip meta-data with hash-based lookup
    #: and probabilistic update.
    STMS = "stms"
    #: Single-table fixed-prefetch-depth design (Section 5.4 contrast).
    FIXED_DEPTH = "fixed-depth"
    #: Pair-wise Markov prefetcher (background baseline).
    MARKOV = "markov"


def make_sim_config(
    scale: "str | ScalePreset" = "bench",
    use_stride: bool = True,
    cmp_overrides: "tuple[tuple[str, object], ...]" = (),
    dram_overrides: "tuple[tuple[str, object], ...]" = (),
) -> SimConfig:
    """Machine configuration scaled consistently with the workloads.

    ``cmp_overrides`` / ``dram_overrides`` replace individual fields of
    the scaled :class:`CmpConfig` / :class:`DramConfig` (absolute
    values, applied *after* preset scaling) — the contention sweeps use
    them to vary shared-L2 capacity and DRAM bandwidth per job.
    """
    preset = get_scale(scale)
    cmp = CmpConfig().scaled(preset.cache_scale)
    if cmp_overrides:
        cmp = replace(cmp, **dict(cmp_overrides))
    dram = DramConfig()
    if dram_overrides:
        dram = replace(dram, **dict(dram_overrides))
    return SimConfig(cmp=cmp, dram=dram, use_stride=use_stride)


def make_stms_config(
    scale: "str | ScalePreset" = "bench",
    cores: int = 4,
    **overrides: object,
) -> StmsConfig:
    """STMS configuration with meta-data capacities from the preset."""
    preset = get_scale(scale)
    parameters: dict[str, object] = {
        "cores": cores,
        "history_entries": preset.history_entries,
        "index_buckets": preset.index_buckets,
    }
    parameters.update(overrides)
    return StmsConfig(**parameters)  # type: ignore[arg-type]


def make_factory(
    kind: PrefetcherKind,
    stms_config: "StmsConfig | None" = None,
    depth: int = 4,
    lookup_rounds: int = 1,
    max_index_entries: "int | None" = None,
) -> "TemporalFactory | None":
    """Build the engine factory for a prefetcher kind.

    Each branch imports only the prefetcher it builds.
    """
    if kind is PrefetcherKind.BASELINE:
        return None
    if kind is PrefetcherKind.IDEAL_TMS:
        from repro.prefetchers.ideal_tms import IdealTmsPrefetcher

        return lambda cores, dram, traffic, resident: IdealTmsPrefetcher(
            cores,
            dram,
            traffic,
            residency_filter=resident,
            max_index_entries=max_index_entries,
        )
    if kind is PrefetcherKind.STMS:
        return StmsFactory(
            stms_config if stms_config is not None else StmsConfig()
        )
    if kind is PrefetcherKind.FIXED_DEPTH:
        from repro.prefetchers.fixed_depth import FixedDepthPrefetcher

        return lambda cores, dram, traffic, resident: FixedDepthPrefetcher(
            cores,
            dram,
            traffic,
            depth=depth,
            residency_filter=resident,
            lookup_rounds=lookup_rounds,
        )
    if kind is PrefetcherKind.MARKOV:
        from repro.prefetchers.markov import MarkovPrefetcher

        return lambda cores, dram, traffic, resident: MarkovPrefetcher(
            cores, dram, traffic, residency_filter=resident
        )
    raise ValueError(f"unhandled prefetcher kind {kind!r}")


def temporal_key(
    kind: PrefetcherKind,
    stms_config: "StmsConfig | None",
    factory_options: "dict[str, object] | tuple[tuple[str, object], ...]",
) -> tuple:
    """The temporal-prefetcher part of a session/store result key.

    The one place this key is spelled: :func:`run_trace` caches under
    it, and :func:`job_result_key` (the store-aware probe) and
    :func:`repro.sim.sweep.run_sweep` must look up the very same key —
    if the probe's key ever diverged from the run's, every warm hit
    would silently become a miss.
    """
    return (
        kind.value,
        _freeze(stms_config),
        tuple(sorted(dict(factory_options).items())),
    )


def run_trace(
    trace: Trace,
    kind: PrefetcherKind,
    scale: "str | ScalePreset" = "bench",
    stms_config: "StmsConfig | None" = None,
    sim_config: "SimConfig | None" = None,
    session: "SimSession | None" = None,
    **factory_options: object,
) -> SimResult:
    """Simulate an already-generated trace with one prefetcher kind.

    Routed through the session layer: an identical (trace, machine,
    prefetcher) combination simulates once per process.
    """
    if sim_config is None:
        sim_config = make_sim_config(scale)
    if kind is PrefetcherKind.STMS and stms_config is None:
        stms_config = make_stms_config(scale, cores=trace.cores)
    factory = make_factory(kind, stms_config, **factory_options)  # type: ignore[arg-type]
    if session is None:
        session = get_session()
    return session.simulate(
        trace,
        sim_config,
        temporal_key(kind, stms_config, factory_options),
        factory,
        label=kind.value,
    )


def run_workload(
    workload: str,
    kind: PrefetcherKind,
    scale: "str | ScalePreset" = "bench",
    cores: int = 4,
    seed: int = 7,
    records_per_core: "int | None" = None,
    stms_config: "StmsConfig | None" = None,
    sim_config: "SimConfig | None" = None,
    trace: "Trace | None" = None,
    session: "SimSession | None" = None,
    **factory_options: object,
) -> SimResult:
    """Generate (or reuse) a suite workload and simulate it."""
    if session is None:
        session = get_session()
    if trace is None:
        trace = session.trace(
            workload,
            scale=scale,
            cores=cores,
            seed=seed,
            records_per_core=records_per_core,
        )
    return run_trace(
        trace,
        kind,
        scale=scale,
        stms_config=stms_config,
        sim_config=sim_config,
        session=session,
        **factory_options,
    )


def compare_prefetchers(
    workload: str,
    kinds: "list[PrefetcherKind] | None" = None,
    scale: "str | ScalePreset" = "bench",
    cores: int = 4,
    seed: int = 7,
    stms_config: "StmsConfig | None" = None,
    session: "SimSession | None" = None,
) -> dict[PrefetcherKind, SimResult]:
    """Run several prefetchers over the *same* generated trace."""
    if kinds is None:
        kinds = [
            PrefetcherKind.BASELINE,
            PrefetcherKind.IDEAL_TMS,
            PrefetcherKind.STMS,
        ]
    if session is None:
        session = get_session()
    trace = session.trace(workload, scale=scale, cores=cores, seed=seed)
    results: dict[PrefetcherKind, SimResult] = {}
    for kind in kinds:
        results[kind] = run_trace(
            trace,
            kind,
            scale=scale,
            stms_config=stms_config,
            session=session,
        )
    return results


# ----------------------------------------------------------------------
# The fan-out layer: job descriptions and the parallel runner.
# ----------------------------------------------------------------------


def job_options(**options: object) -> "tuple[tuple[str, object], ...]":
    """Normalize keyword options into a hashable, picklable tuple."""
    return tuple(sorted(options.items()))


@dataclass(frozen=True)
class SimJob:
    """One cell of the (workload x config x prefetcher) grid.

    Jobs are picklable value objects: the parallel runner ships them to
    worker processes, and their fields feed the session cache keys, so
    equal jobs never simulate twice in one process.
    """

    workload: str
    kind: PrefetcherKind
    scale: "str | ScalePreset" = "bench"
    cores: int = 4
    seed: int = 7
    records_per_core: "int | None" = None
    use_stride: bool = True
    collect_miss_log: bool = False
    #: Overrides applied to ``make_stms_config`` (STMS jobs only).
    stms_overrides: "tuple[tuple[str, object], ...]" = ()
    #: Extra ``make_factory`` options (depth, lookup_rounds, ...).
    factory_options: "tuple[tuple[str, object], ...]" = ()
    #: Machine-geometry overrides (absolute ``CmpConfig`` field values,
    #: e.g. ``(("l2_size_bytes", 131072),)`` for a contention sweep).
    cmp_overrides: "tuple[tuple[str, object], ...]" = ()
    #: DRAM-channel overrides (absolute ``DramConfig`` field values).
    dram_overrides: "tuple[tuple[str, object], ...]" = ()
    #: Caller correlation tag (ignored by execution and caching).
    tag: "object | None" = field(default=None, compare=False)

    def trace_key(self) -> tuple:
        """Grouping key: jobs sharing it simulate the same trace."""
        return trace_recipe_key(
            self.workload,
            get_scale(self.scale),
            self.cores,
            self.seed,
            self.records_per_core,
        )


def _job_configs(
    job: SimJob, cores: int
) -> "tuple[SimConfig, StmsConfig | None]":
    """The machine and (for STMS) prefetcher configuration of one job.

    Factored out of :func:`run_job` so the store-aware scheduler can
    compute a job's exact cache key without executing it.
    """
    sim_config = make_sim_config(
        job.scale,
        use_stride=job.use_stride,
        cmp_overrides=job.cmp_overrides,
        dram_overrides=job.dram_overrides,
    )
    if job.collect_miss_log:
        sim_config = replace(sim_config, collect_miss_log=True)
    stms_config = None
    if job.kind is PrefetcherKind.STMS:
        stms_config = make_stms_config(
            job.scale, cores=cores, **dict(job.stms_overrides)
        )
    return sim_config, stms_config


def job_result_key(
    job: SimJob,
    fingerprint: str,
    cores: int,
    configs: "tuple[SimConfig, StmsConfig | None] | None" = None,
) -> tuple:
    """The session/store content key ``run_job`` would cache under,
    given the fingerprint and core count of the job's trace (and its
    :func:`_job_configs`, when the caller has built them)."""
    sim_config, stms_config = configs or _job_configs(job, cores)
    return SimSession.result_key(
        fingerprint,
        sim_config,
        temporal_key(job.kind, stms_config, job.factory_options),
        job.kind.value,
    )


def run_job(job: SimJob, session: "SimSession | None" = None) -> SimResult:
    """Execute one job through the (process-local) session."""
    if session is None:
        session = get_session()
    trace = session.trace(
        job.workload,
        scale=job.scale,
        cores=job.cores,
        seed=job.seed,
        records_per_core=job.records_per_core,
    )
    sim_config, stms_config = _job_configs(job, trace.cores)
    return run_trace(
        trace,
        job.kind,
        scale=job.scale,
        stms_config=stms_config,
        sim_config=sim_config,
        session=session,
        **dict(job.factory_options),
    )


def _run_bundle(
    jobs: "list[SimJob]",
    trace_ref: "TraceRef | None" = None,
    plane_payload: "TracePayload | None" = None,
) -> "tuple[list[SimResult], dict, dict]":
    """Worker entry point: run a bundle of jobs sharing one trace.

    The worker runs on the caller's session, which the pool's
    initializer installed as this process's session: a forked worker
    inherits its memory tier, enabled flag and store (a disabled session
    recomputes everything here too), and a non-fork worker rebuilds its
    enabled flag and store (``SimSession.__reduce__``).  ``trace_ref``
    — hash and path of the bundle's persisted trace — seeds the session
    directly when the file exists.

    ``plane_payload`` (set for the cell shards of a split trace group)
    points at the parent's shared-memory trace plane
    (:mod:`repro.sim.shm`): this worker attaches the segment read-only
    and seeds its session's memory tier with the zero-copy trace, where
    :func:`~repro.sim.sweep.run_sweep` finds it — no trace-file re-read
    and no re-generation per shard.  A failed attach (or a disabled
    session) falls back to the TraceRef path.

    Besides the ordered results, the worker ships back the result-cache
    entries this bundle added to its session (so the parent can adopt
    them — without this, cross-``map()`` memoization would only exist
    on the serial path; earlier bundles of the same worker shipped
    theirs already) and the bundle's counter deltas, which the parent
    folds into its own stats so they describe the whole fan-out.
    """
    from repro.sim.shm import attach as shm_attach
    from repro.sim.sweep import run_sweep

    session = get_session()
    before = replace(session.stats)
    known = set(session.export_results())
    attached = False
    if plane_payload is not None and session.enabled and jobs:
        shm_trace = shm_attach(plane_payload)
        if shm_trace is not None:
            first = jobs[0]
            attached = session.adopt_shm_trace(
                first.workload,
                first.scale,
                first.cores,
                first.seed,
                first.records_per_core,
                shm_trace,
                plane_payload.total_bytes,
            )
    if not attached and trace_ref is not None and jobs:
        first = jobs[0]
        session.prime_trace(
            first.workload,
            first.scale,
            first.cores,
            first.seed,
            first.records_per_core,
            trace_ref,
        )
    results = run_sweep(jobs, session)
    added = {
        key: result for key, result in session.export_results().items()
        if key not in known
    }
    return results, added, session.stats.since(before)


def _default_workers() -> "tuple[int, bool]":
    """(max_workers, parallel) from REPRO_JOBS or the CPU count.

    An empty ``REPRO_JOBS`` means unset; a malformed or non-positive
    one warns once per process and runs on 1 worker.
    """
    workers = env_positive_int(
        "REPRO_JOBS", os.cpu_count() or 1, invalid=1
    )
    return workers, workers > 1


def _ref_bytes(ref: "TraceRef | None") -> int:
    """On-disk size of a shipped TraceRef (0 when absent/unreadable).

    This is what a worker re-reads on the TraceRef fallback path —
    the denominator of the zero-copy-vs-pickled contrast in
    ``cache stats``.
    """
    if ref is None:
        return 0
    try:
        return os.stat(ref.path).st_size
    except OSError:
        return 0


def _shard_groups(
    groups: "dict[tuple, list[int]]", workers: int
) -> "list[tuple[tuple, list[int]]]":
    """Two-level decomposition of trace groups into worker shards.

    Level 1 is the existing unit — one shard per trace group.  When
    that leaves workers idle (fewer groups than workers), level 2
    repeatedly halves the largest splittable shard until the pool is
    over-decomposed (two shards per worker): the surplus lets the
    executor steal work when cells cost unevenly, and the strided
    ``[0::2]``/``[1::2]`` halving spreads each shard across the grid's
    cost gradient instead of handing one worker the expensive end.
    A shard of one pending cell never splits.
    """
    shards = [(key, list(indices)) for key, indices in groups.items()]
    if workers <= len(shards):
        return shards
    target = workers * 2
    while len(shards) < target:
        largest = max(
            range(len(shards)), key=lambda i: len(shards[i][1])
        )
        key, indices = shards[largest]
        if len(indices) < 2:
            break
        shards[largest:largest + 1] = [
            (key, indices[0::2]),
            (key, indices[1::2]),
        ]
    return shards


def _uses_library(jobs: "list[SimJob]", generates: bool) -> bool:
    """Whether the workers of ``jobs`` use the compiled library.

    They do when one may generate a trace (``generates``: the compiled
    emitters run wherever the library loads, on every engine) or run a
    baseline or STMS cell, which the compiled kernel steps unless the
    engine is the scalar reference.
    """
    return generates or (
        resolve_engine("auto") != "scalar"
        and any(
            job.kind in (PrefetcherKind.BASELINE, PrefetcherKind.STMS)
            for job in jobs
        )
    )


def _preload_kernel(jobs: "list[SimJob]", generates: bool) -> bool:
    """Load the compiled library before forking workers for ``jobs``.

    Loading it here, once, lets every forked worker that uses it
    (:func:`_uses_library`) inherit the mapped library instead of each
    one checking and hashing it itself.  A fan-out that uses it nowhere
    never touches it.  Returns whether the library loaded.
    """
    if _uses_library(jobs, generates):
        from repro.sim.library import load

        return load() is not None
    return False


def _preload_workers(
    jobs: "list[SimJob]", generates: bool, attaches: bool
) -> None:
    """Import what the workers of ``jobs`` run before the pool forks.

    A forked worker inherits every module the parent has imported; any
    other module each worker would import, and compile, again.  So the
    parent imports the sweep, the trace generators and the jobs'
    prefetchers, loads the library (:func:`_preload_kernel`;
    ``generates``: a worker may generate its trace), and imports the
    engine each cell runs in: the kernel's driver for the cells the
    loaded library steps, the Python batch engine for the rest, and
    the scalar reference for every cell when it is selected.  Of the
    trace paths only the Python emitters and a shared trace's attach
    (``attaches``) use NumPy.
    """
    from repro.sim import sweep  # noqa: F401
    from repro.workloads import suite  # noqa: F401

    loaded = _preload_kernel(jobs, generates)
    if generates and not loaded:
        from repro.workloads import reference  # noqa: F401
    elif attaches:
        import numpy  # noqa: F401
    engine = resolve_engine("auto")
    for kind in {job.kind for job in jobs}:
        # make_factory imports the kind's prefetcher model; an STMS
        # factory imports its model only when a Python engine builds it.
        factory = make_factory(kind)
        if engine == "batch" and loaded and kernel_cell(factory):
            from repro.sim import native  # noqa: F401

            continue
        if engine == "scalar":
            from repro.sim import scalar  # noqa: F401
        else:
            from repro.sim import batch  # noqa: F401
        if kind is PrefetcherKind.STMS:
            from repro.core import stms  # noqa: F401


class ExperimentRunner:
    """Maps simulation jobs over worker processes, two levels deep.

    Every worker runs on the caller's session.  Jobs are grouped by
    trace recipe so each worker acquires every trace exactly once and
    shares baselines across its bundle; when the groups are fewer than
    the workers, the larger groups additionally split into strided
    *cell* shards (``_shard_groups``) so a single big grid still
    saturates the pool.
    Split groups ship over the zero-copy shared-memory trace plane
    (:mod:`repro.sim.shm`, ``REPRO_SHM=off`` to disable): the parent
    exports the trace columns once, and every shard attaches read-only
    views.  On a single-CPU machine (or with ``REPRO_JOBS=1``) everything
    runs in-process — strictly better for cache reuse, just not concurrent.
    Subprocess failures of the platform kind (sandboxes without fork,
    missing semaphores) degrade to the serial path; segment cleanup is
    guaranteed on that path too.
    """

    def __init__(
        self,
        max_workers: "int | None" = None,
        parallel: "bool | None" = None,
    ) -> None:
        default_workers, default_parallel = _default_workers()
        self.max_workers = (
            max(1, max_workers) if max_workers is not None
            else default_workers
        )
        self.parallel = (
            parallel if parallel is not None else default_parallel
        ) and self.max_workers > 1

    def map(
        self,
        jobs: "Sequence[SimJob]",
        session: "SimSession | None" = None,
    ) -> "list[SimResult]":
        """Run all jobs, preserving order; duplicates are free.

        ``session`` (default: the process-global one) provides both
        cache tiers, and every worker process runs on it.  When it
        carries an artifact store, workers receive trace references
        instead of regenerating traces, and the session's new counts
        are persisted to it as ``map`` returns.
        """
        if session is None:
            session = get_session()
        results = self._map(list(jobs), session)
        session.persist_counters()
        return results

    def _map(
        self, jobs: "list[SimJob]", session: SimSession
    ) -> "list[SimResult]":
        if not jobs:
            return []
        groups: "dict[tuple, list[int]]" = {}
        for index, job in enumerate(jobs):
            groups.setdefault(job.trace_key(), []).append(index)
        results: "list[SimResult | None]" = [None] * len(jobs)
        store = session.store
        # Store-aware scheduling: persisted results are served straight
        # from the store; a bundle that hits entirely is skipped (no
        # worker, no trace regeneration), a partial hit shrinks to its
        # missing jobs so nothing persisted is ever computed — or read
        # from disk — twice.
        if store is not None:
            for trace_key in list(groups):
                indices = groups[trace_key]
                probe = self._probe_bundle(
                    session, trace_key, [jobs[i] for i in indices]
                )
                if probe is None:
                    continue
                missing = []
                for i, result in zip(indices, probe):
                    if result is None:
                        missing.append(i)
                    else:
                        results[i] = result
                if missing:
                    groups[trace_key] = missing
                else:
                    del groups[trace_key]
                    session.stats.bundle_skips += 1
        if not groups:
            return results  # type: ignore[return-value]
        # Two-level decomposition: shards are the scheduling unit — one
        # per trace group while groups outnumber workers, and strided
        # *cell* partitions of the larger groups when workers would
        # otherwise idle (a single big grid then uses every core).
        shards = (
            _shard_groups(groups, self.max_workers)
            if self.parallel
            else []
        )
        if len(shards) < 2:
            # Serial path: each trace group becomes one sweep
            # invocation (config-independent work shared across cells).
            self._run_serial(jobs, groups, session, results)
            return results  # type: ignore[return-value]
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.shm import TracePlane, shm_enabled

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
        shard_counts: "dict[tuple, int]" = {}
        for trace_key, _ in shards:
            shard_counts[trace_key] = shard_counts.get(trace_key, 0) + 1
        exports = 0
        pickled_bytes = 0
        with TracePlane() as plane:
            # Zero-copy data plane: each *split* group's trace is
            # materialized once here and exported to shared memory, so
            # its cell shards attach instead of re-reading it per
            # process.
            # Unsplit groups keep the cheap TraceRef path — exporting
            # them would serialize trace generation in the parent that
            # the workers do in parallel today.
            payloads: "dict[tuple, TracePayload]" = {}
            if shm_enabled() and session.enabled:
                for trace_key, count in shard_counts.items():
                    if count < 2:
                        continue
                    first = jobs[groups[trace_key][0]]
                    trace = session.trace(
                        first.workload,
                        scale=first.scale,
                        cores=first.cores,
                        seed=first.seed,
                        records_per_core=first.records_per_core,
                    )
                    payload = plane.export(trace)
                    if payload is not None:
                        payloads[trace_key] = payload
                        exports += 1
            # A shard with no exported trace acquires its own: from the
            # store when it holds the trace, else by generating it.
            generating = [
                trace_key not in payloads
                and (
                    store is None
                    or not os.path.exists(
                        store.trace_path(trace_digest(trace_key))
                    )
                )
                for trace_key, _ in shards
            ]
            _preload_workers(
                [jobs[i] for _, indices in shards for i in indices],
                generates=any(generating),
                attaches=bool(payloads),
            )
            try:
                # Every worker runs on the caller's session: the
                # initializer installs it as the worker's process
                # session (forked workers inherit it whole).  The heap
                # is frozen before the pool forks, so workers neither
                # walk the parent's objects nor copy its pages when
                # they collect.
                with long_lived(), ProcessPoolExecutor(
                    min(self.max_workers, len(shards)),
                    mp_context=context,
                    initializer=set_session,
                    initargs=(session,),
                ) as pool:
                    futures = []
                    for trace_key, indices in shards:
                        payload = payloads.get(trace_key)
                        ref = (
                            store.trace_ref(trace_digest(trace_key))
                            if store is not None
                            else None
                        )
                        if payload is None:
                            pickled_bytes += _ref_bytes(ref)
                        futures.append((indices, pool.submit(
                            _run_bundle,
                            [jobs[i] for i in indices],
                            ref,
                            payload,
                        )))
                    outcomes = [
                        (indices, future.result())
                        for indices, future in futures
                    ]
            except (OSError, PermissionError, RuntimeError, ImportError):
                # Platform refused subprocesses; run everything here.
                # Nothing of the fan-out is counted yet, so the serial
                # pass tallies every job exactly once.  The plane's
                # segments are unlinked by the enclosing context manager
                # on this path too.
                self._run_serial(jobs, groups, session, results)
                return results  # type: ignore[return-value]
        for indices, (bundle_results, cache_entries, deltas) in outcomes:
            # Adopt the workers' memo entries so later serial runs (and
            # later map() calls) reuse this work, and fold their
            # counters in so this session's stats describe the whole
            # fan-out.
            session.adopt_results(cache_entries)
            session.stats.add(deltas)
            for i, result in zip(indices, bundle_results):
                results[i] = result
        session.stats.shm_exports += exports
        session.stats.shm_bytes_pickled += pickled_bytes
        return results  # type: ignore[return-value]

    @staticmethod
    def _run_serial(
        jobs: "list[SimJob]",
        groups: "dict[tuple, list[int]]",
        session: SimSession,
        results: "list[SimResult | None]",
    ) -> None:
        """Run every trace group in-process as one sweep invocation."""
        from repro.sim.sweep import run_sweep

        for indices in groups.values():
            group_results = run_sweep([jobs[i] for i in indices], session)
            for i, result in zip(indices, group_results):
                results[i] = result

    @staticmethod
    def _probe_bundle(
        session: SimSession, trace_key: tuple, bundle_jobs: "list[SimJob]"
    ) -> "list[SimResult | None] | None":
        """Per-job cache probe of one bundle (None entries = misses).

        Result keys need only the trace's fingerprint, which comes from
        the memory tier or from the header of the persisted trace file,
        so the probe never reads trace columns: a fully warm bundle
        reads its results and nothing else, and a bundle with a miss
        loads its trace when it runs.  Returns None outright when
        the trace is in neither tier, and the bundle runs normally.
        """
        store = session.store
        if store is None:
            return None
        trace = session.cached_trace(trace_key)
        fingerprint = (
            trace.fingerprint()
            if trace is not None
            else store.load_trace_fingerprint(trace_digest(trace_key))
        )
        if fingerprint is None:
            return None
        return [
            session.lookup_result(
                job_result_key(job, fingerprint, job.cores)
            )
            for job in bundle_jobs
        ]

    def run_grid(
        self,
        workloads: "Sequence[str]",
        kinds: "Sequence[PrefetcherKind]",
        scale: "str | ScalePreset" = "bench",
        cores: int = 4,
        seed: int = 7,
        session: "SimSession | None" = None,
        **job_fields: object,
    ) -> "dict[tuple[str, PrefetcherKind], SimResult]":
        """Fan the (workload x kind) grid out and collect results."""
        jobs = [
            SimJob(
                workload=workload,
                kind=kind,
                scale=scale,
                cores=cores,
                seed=seed,
                **job_fields,  # type: ignore[arg-type]
            )
            for workload in workloads
            for kind in kinds
        ]
        results = self.map(jobs, session=session)
        return {
            (job.workload, job.kind): result
            for job, result in zip(jobs, results)
        }
