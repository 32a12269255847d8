"""Config-parallel sweep engine: one shared pass over a whole grid.

Every sweep experiment (fig7's sampling sweep, the mix-contention
L2 x DRAM grid, fig5's metadata sweeps) simulates many configurations of
the *same trace*.  Run cell-by-cell, each cell re-derives work that does
not depend on the configuration at all:

* the trace itself (a cold generation costs ~2.5 s per recipe at bench
  scale),
* the native-typed trace columns the batched engine reads
  (``_native_columns``),
* the STMS metadata classification — every record's index bucket and
  tag, a full vectorized pass per cell.

:func:`run_sweep` hoists all of it.  A sweep invocation materializes the
trace once, then classifies the metadata for *every distinct index
geometry in the grid* in one stacked pass: the hash product is computed
once per trace column and masked against a config axis of bucket masks
(:func:`repro.core.index_table.stacked_metadata_columns`), so adding
cells that share a geometry is free and adding a new geometry costs one
cheap mask over the precomputed hash, not a new pass.  Each cell then
runs through the existing batched engine with the shared columns
injected (``BatchRunState`` pulls them from :class:`SweepShared` keyed
by the prefetcher's ``metadata_geometry()``).

What is *not* shared is the simulated machine state: the cells of a
sweep observe genuinely different cache, stream-engine, and DRAM
histories (a different sampling probability changes index contents,
hence streams, hence timing), so per-cell dynamic state cannot be
merged without changing results.  The shared pass therefore covers
exactly the config-independent precomputation, and every cell remains
bit-identical to the scalar reference engine — pinned by the sweep
cases in ``tests/sim/test_engine_differential.py``.

Fallback semantics: a cell the shared path cannot express — the scalar
engine was requested, or the temporal prefetcher exposes no geometry —
is handed back to :func:`repro.sim.runner.run_job` unchanged and
counted in ``SessionStats.sweep_fallbacks``, so coverage is never
silently reduced and de-vectorization is observable (``repro cache
stats``).  Results land in the session/store under the existing
per-cell keys: warm hits and single-cell fetches keep working
unchanged.  The runner sends every trace group through here, a
one-cell group included (a sweep of one).
"""

from __future__ import annotations

import numpy as np

from repro.core.index_table import stacked_metadata_columns
from repro.sim.engine import resolve_engine
from repro.sim.metrics import SimResult
from repro.sim.session import SimSession, get_session
from repro.workloads.trace import Trace


class SweepShared:
    """Config-independent precomputation shared by one sweep invocation.

    Holds the trace and the per-geometry metadata columns.  The batched
    engine asks for columns via :meth:`metadata_columns` keyed by the
    prefetcher's ``metadata_geometry()``; geometries registered up
    front via :meth:`precompute` are classified together in one stacked
    pass, and an unregistered geometry is computed (and cached) on
    first request, so handing the object to any cell is always safe.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._blocks_arrays = [np.asarray(b) for b in trace.blocks]
        self._columns: "dict[tuple, tuple[list, list | None]]" = {}

    def precompute(self, geometries: "list[tuple]") -> None:
        """Classify all missing geometries in one stacked pass."""
        missing = [
            g for g in dict.fromkeys(geometries) if g not in self._columns
        ]
        if missing:
            self._columns.update(
                stacked_metadata_columns(self._blocks_arrays, missing)
            )

    def adopt_arrays(
        self,
        arrays_by_geometry: "dict[tuple, tuple[list, list | None]]",
    ) -> None:
        """Seed geometries from attached shared-memory array columns.

        ``arrays_by_geometry`` maps geometries to per-core ndarray
        columns (:func:`repro.sim.shm.attach`'s second return value) —
        the classification already ran once in the parent, so adopting
        costs only the native-list conversion the engine consumes.
        Geometries already present are kept.
        """
        converted: "dict[int, list]" = {}

        def _tolist(columns: "list") -> list:
            key = id(columns)
            if key not in converted:
                converted[key] = [np.asarray(c).tolist() for c in columns]
            return converted[key]

        for geometry, (buckets, tags) in arrays_by_geometry.items():
            if geometry in self._columns:
                continue
            self._columns[geometry] = (
                _tolist(buckets),
                None if tags is None else _tolist(tags),
            )

    def metadata_columns(
        self, geometry: "tuple"
    ) -> "tuple[list, list | None]":
        """Bucket/tag columns for one index geometry (cached)."""
        columns = self._columns.get(geometry)
        if columns is None:
            self.precompute([geometry])
            columns = self._columns[geometry]
        return columns


def job_geometries(jobs: "list", cores: int) -> "list[tuple]":
    """Index geometries of a job list's vectorizable STMS cells.

    :func:`run_sweep` classifies these in one stacked pass; the
    two-level scheduler classifies them once in the parent
    (:func:`repro.core.index_table.stacked_metadata_arrays`) and exports
    the columns through the shared-memory trace plane, so cell shards
    never re-derive them.
    """
    from repro.sim.runner import _job_configs

    geometries: "list[tuple]" = []
    for job in jobs:
        sim_config, stms_config = _job_configs(job, cores)
        if stms_config is not None and (
            resolve_engine(sim_config.engine) != "scalar"
        ):
            geometries.append(
                (stms_config.index_buckets, stms_config.tag_bits)
            )
    return geometries


def run_sweep(
    jobs: "list",
    session: "SimSession | None" = None,
    shared: "SweepShared | None" = None,
) -> "list[SimResult]":
    """Run a group of jobs sharing one trace as one sweep invocation.

    All ``jobs`` must share a ``trace_key()`` (the runner groups them
    before calling).  Cached cells are served from the session tiers
    exactly as :func:`repro.sim.runner.run_job` would serve them; only
    the cells that actually need simulating enter the shared pass, so a
    warm grid costs no precomputation at all.

    ``shared`` (a prebuilt :class:`SweepShared`, e.g. around a
    shared-memory-attached trace with adopted metadata columns) short-
    circuits the trace acquisition and any classification it already
    carries; it is a pure compute shortcut — cache keys and results are
    identical with or without it.
    """
    from repro.sim.runner import (
        _job_configs,
        job_result_key,
        make_factory,
        run_job,
        temporal_key,
    )

    if session is None:
        session = get_session()
    if not jobs:
        return []
    first = jobs[0]
    if shared is not None:
        trace = shared.trace
    else:
        trace = session.trace(
            first.workload,
            scale=first.scale,
            cores=first.cores,
            seed=first.seed,
            records_per_core=first.records_per_core,
        )
    results: "list[SimResult | None]" = [None] * len(jobs)
    # Cache probe first: a sweep invocation only precomputes for cells
    # it will actually simulate.
    pending: "list[int]" = []
    for index, job in enumerate(jobs):
        cached = session.lookup_result(job_result_key(job, trace))
        if cached is not None:
            results[index] = cached
        else:
            pending.append(index)
    if not pending:
        return results  # type: ignore[return-value]

    if shared is None:
        shared = SweepShared(trace)
    shared.precompute(
        job_geometries([jobs[index] for index in pending], trace.cores)
    )

    cells = 0
    fallbacks = 0
    for index in pending:
        job = jobs[index]
        sim_config, stms_config = _job_configs(job, trace.cores)
        if resolve_engine(sim_config.engine) == "scalar":
            # Scalar engine requested: per-cell reference path, never
            # silently skipped.
            results[index] = run_job(job, session)
            fallbacks += 1
            continue
        results[index] = session.simulate(
            trace,
            sim_config,
            temporal_key(job.kind, stms_config, job.factory_options),
            make_factory(job.kind, stms_config, **dict(job.factory_options)),
            label=job.kind.value,
            shared=shared,
        )
        cells += 1

    session.stats.sweep_invocations += 1
    session.stats.sweep_cells += cells
    session.stats.sweep_fallbacks += fallbacks
    if session.store is not None:
        session.store.bump_counter("sweep_invocations", 1)
        if cells:
            session.store.bump_counter("sweep_grouped_cells", cells)
        if fallbacks:
            session.store.bump_counter("sweep_fallbacks", fallbacks)
    return results  # type: ignore[return-value]
