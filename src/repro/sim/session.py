"""Simulation session: two-tier (memory -> disk) caching of artifacts.

Every figure experiment re-simulates baselines and regenerates traces
that other experiments already produced.  A :class:`SimSession` makes
that repetition free: traces are keyed by their generation recipe,
simulation results by the content hash of the trace plus the full
machine/prefetcher configuration.  Simulations are deterministic
functions of those keys (generators and samplers are seeded), so
memoization is semantics-preserving.

Two tiers back the session:

* **memory** — the process-local dictionaries (optionally LRU-capped
  via ``max_memory_results``); hits return the *same objects* handed to
  earlier callers, so treat :class:`~repro.sim.results.SimResult` as
  immutable (every in-repo consumer only reads it).
* **disk** — an optional :class:`~repro.sim.store.ArtifactStore`
  shared across processes: pool workers, successive CLI runs, and CI
  jobs all read and write the same content-addressed entries.  The
  store attaches automatically when ``REPRO_STORE_DIR`` is set.

The module-level session (:func:`get_session`) is shared by
:mod:`repro.sim.runner` and therefore by every experiment driver, the
CLI, and the benchmarks.  The worker processes of the parallel
:class:`~repro.sim.runner.ExperimentRunner` run on the session the
caller passed to ``map`` — its memory tier, enabled flag and store —
and their counters fold back into its :attr:`SimSession.stats`.

Set ``REPRO_SIM_CACHE=0`` (or construct ``SimSession(enabled=False)``)
to force every run to generate and simulate from scratch — both tiers
are bypassed, and the results are bit-identical to the cached path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass, replace
from typing import TYPE_CHECKING

from repro.envknobs import sim_cache_enabled
from repro.obs import SessionStats
from repro.sim.config import SimConfig, resolve_engine
from repro.sim.results import SimResult
from repro.sim.store import (
    ArtifactStore,
    TraceRef,
    load_trace_ref,
    result_digest,
    trace_digest,
)
from repro.workloads.scales import ScalePreset, get_scale, is_mix

if TYPE_CHECKING:
    from repro.workloads.trace import Trace


def _freeze(value):
    """Recursively convert a value into a hashable cache-key component."""
    if is_dataclass(value) and not isinstance(value, type):
        return tuple(
            (f.name, _freeze(getattr(value, f.name)))
            for f in fields(value)
        )
    if isinstance(value, dict):
        return tuple(
            sorted((k, _freeze(v)) for k, v in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def trace_fingerprint(trace: Trace) -> str:
    """:meth:`Trace.fingerprint`, under the name ``perfbench/tests``
    imports."""
    return trace.fingerprint()


def trace_recipe_key(
    workload: str,
    preset: ScalePreset,
    cores: int,
    seed: int,
    records_per_core: "int | None",
) -> tuple:
    """The canonical trace cache key; equals ``SimJob.trace_key()``.

    Mix workloads are canonicalized first, so every spelling of the
    same recipe (``mix:a+a``, ``mix:2xa``, a preset name) addresses one
    store entry.
    """
    if is_mix(workload):
        from repro.workloads.mix import MixRecipe

        workload = MixRecipe.parse(workload).name
    return (workload, _freeze(preset), cores, seed, records_per_core)


class SimSession:
    """Two-tier (memory -> disk) memo of traces and simulation results.

    Memo-tier accesses are guarded by a reentrant lock so one session
    can be shared across threads.  The lock scopes to cache bookkeeping
    only: trace generation and simulation proper run outside it, so two
    *distinct* keys still compute concurrently (two threads asking for
    the same key may at worst compute it twice, never corrupt state).

    :attr:`stats` holds the run's counters: every layer, the attached
    store's handle and (folded back) pool workers count into it.
    """

    def __init__(
        self,
        enabled: "bool | None" = None,
        store: "ArtifactStore | None | str" = "auto",
        max_memory_results: "int | None" = None,
    ) -> None:
        if enabled is None:
            enabled = sim_cache_enabled()
        self.enabled = enabled
        self.max_memory_results = max_memory_results
        self.stats = SessionStats()
        #: The counts :meth:`persist_counters` has already written.
        self._persisted = SessionStats()
        if store == "auto":
            store = ArtifactStore.from_env() if enabled else None
        self.attach_store(store)
        #: Reentrant: ``simulate`` -> ``lookup_result`` nests, and the
        #: guarded sections are all short (no generation/simulation).
        self._lock = threading.RLock()
        self._traces: "dict[tuple, Trace]" = {}
        #: Keys seeded into the memory tier from a disk entry that has
        #: not been *looked up* yet.  The disk read is attributed as a
        #: store hit on the first lookup, not at priming time —
        #: otherwise one acquisition would be double-counted (a store
        #: hit when primed plus a memory hit when first used, which is
        #: exactly what happens when the memory tier shadows a disk
        #: entry warmed by another process in the same run).
        self._primed: "set[tuple]" = set()
        self._results: "OrderedDict[tuple, SimResult]" = OrderedDict()

    def attach_store(self, store: "ArtifactStore | None") -> None:
        """Set the disk tier, whose handle then counts into
        :attr:`stats`; None keeps the session process-local, and a
        disabled session never touches a store (full recompute)."""
        self.store: "ArtifactStore | None" = (
            store if self.enabled else None
        )
        if self.store is not None:
            self.store.stats = self.stats

    def __reduce__(self):
        # What a non-fork pool ships its workers: the configuration,
        # with an empty memory tier (forked workers inherit it whole).
        return (
            SimSession, (self.enabled, self.store, self.max_memory_results)
        )

    def persist_counters(self) -> None:
        """Add the counts not yet persisted to ``counters.json`` in one
        locked ``bump_counters`` keyed by the ``SessionStats`` fields.

        Top-level operations call it as they return (``map``, CLI
        commands); pool workers never do.
        """
        if self.store is None:
            return
        with self._lock:
            deltas = self.stats.since(self._persisted)
            self._persisted = replace(self.stats)
        self.store.bump_counters(deltas)

    # ------------------------------------------------------------------
    # Trace generation.
    # ------------------------------------------------------------------

    def trace(
        self,
        workload: str,
        scale: "str | ScalePreset" = "bench",
        cores: int = 4,
        seed: int = 7,
        records_per_core: "int | None" = None,
    ) -> Trace:
        """Generate (or reuse, from either tier) a suite workload trace."""
        preset = get_scale(scale)
        key = trace_recipe_key(
            workload, preset, cores, seed, records_per_core
        )
        if self.enabled:
            with self._lock:
                cached = self._traces.get(key)
                if cached is not None:
                    if key in self._primed:
                        # First lookup of a primed entry: this is the
                        # disk read's attribution (exactly once per
                        # acquisition).
                        self._primed.discard(key)
                        self.stats.trace_store_hits += 1
                    else:
                        self.stats.trace_hits += 1
                    return cached
            if self.store is not None:
                # Disk read outside the lock: a slow trace load must not
                # stall other threads' memo hits.
                loaded = self.store.load_trace(trace_digest(key))
                if loaded is not None:
                    with self._lock:
                        self.stats.trace_store_hits += 1
                        self._traces[key] = loaded
                    return loaded
        from repro.workloads.suite import generate

        with self._lock:
            self.stats.trace_misses += 1
        trace = generate(
            workload,
            scale=preset,
            cores=cores,
            seed=seed,
            records_per_core=records_per_core,
        )
        if self.enabled:
            with self._lock:
                self._traces[key] = trace
            if self.store is not None:
                self.store.save_trace(trace_digest(key), trace)
        return trace

    def prime_trace(
        self,
        workload: str,
        scale: "str | ScalePreset",
        cores: int,
        seed: int,
        records_per_core: "int | None",
        ref: TraceRef,
    ) -> bool:
        """Seed the memory tier from a shipped :class:`TraceRef`.

        Workers of the parallel runner receive (hash, path) references
        instead of regenerating their bundle's trace; a missing or
        unreadable file simply leaves the normal lookup path in charge.
        """
        if not self.enabled:
            return False
        key = trace_recipe_key(
            workload, get_scale(scale), cores, seed, records_per_core
        )
        with self._lock:
            if key in self._traces:
                return True
        trace = load_trace_ref(ref)
        if trace is None:
            return False
        # No counter here: the store hit is attributed on first lookup
        # (see ``trace``), so priming + use counts one acquisition once.
        with self._lock:
            self._traces[key] = trace
            self._primed.add(key)
        return True

    def cached_trace(self, key: tuple) -> "Trace | None":
        """Memory-tier trace lookup (no generation, no counters)."""
        if not self.enabled:
            return None
        with self._lock:
            return self._traces.get(key)

    def adopt_shm_trace(
        self,
        workload: str,
        scale: "str | ScalePreset",
        cores: int,
        seed: int,
        records_per_core: "int | None",
        trace: Trace,
        nbytes: int = 0,
    ) -> bool:
        """Seed the memory tier with a shared-memory-attached trace.

        Pool workers call this after attaching the parent's trace-plane
        segment (:mod:`repro.sim.shm`): the zero-copy trace serves every
        later lookup in this process, so the worker neither re-reads the
        trace file nor regenerates.  The attach is counted regardless of
        whether the memory tier already held the trace (the segment was
        mapped either way); a disabled session refuses the seed — it
        must force full recomputation.
        """
        with self._lock:
            self.stats.shm_attaches += 1
            self.stats.shm_bytes_zero_copy += nbytes
            if not self.enabled:
                return False
            key = trace_recipe_key(
                workload, get_scale(scale), cores, seed, records_per_core
            )
            if key not in self._traces:
                # Not marked primed: later lookups count as plain
                # memory hits (the bytes never touched the disk tier
                # here); the shm_* counters carry the provenance.
                self._traces[key] = trace
            return True

    # ------------------------------------------------------------------
    # Simulation.
    # ------------------------------------------------------------------

    def simulate(
        self,
        trace: Trace,
        sim_config: SimConfig,
        temporal_key,
        temporal_factory,
        label: str,
        key: "tuple | None" = None,
    ) -> SimResult:
        """Run (or reuse, from either tier) one simulation.

        ``temporal_key`` must uniquely describe the temporal-prefetcher
        configuration that ``temporal_factory`` builds (the runner
        passes the prefetcher kind plus its full parameterization); two
        calls with equal keys must request equivalent simulations.  A
        caller that has built the :meth:`result_key` and probed both
        tiers with it (:func:`~repro.sim.sweep.run_sweep`) passes it as
        ``key`` instead: only the memory tier is probed again, where an
        equal cell simulated since then left its result.
        """
        from repro.sim.engine import Simulator

        if not self.enabled:
            key = None
        elif key is None:
            key = self.result_key(
                trace.fingerprint(), sim_config, temporal_key, label
            )
            cached = self.lookup_result(key)
            if cached is not None:
                return cached
        else:
            cached = self._recall(key)
            if cached is not None:
                return cached
        with self._lock:
            self.stats.sim_misses += 1
            self.stats.sim_records += trace.records
        result = Simulator(sim_config).run(
            trace, temporal_factory, label=label
        )
        if key is not None:
            self._remember(key, result)
            if self.store is not None:
                self.store.save_result(result_digest(key), result)
        return result

    @staticmethod
    def result_key(
        fingerprint: str, sim_config: SimConfig, temporal_key, label: str
    ) -> tuple:
        """The content key one simulation of the trace with
        ``fingerprint`` is cached under (both tiers)."""
        return (
            fingerprint,
            _freeze(sim_config),
            resolve_engine(sim_config.engine),
            _freeze(temporal_key),
            label,
        )

    def lookup_result(self, key: tuple) -> "SimResult | None":
        """Probe both tiers for a result key without simulating.

        The store-aware runner uses this to decide whether a whole job
        bundle can be served without spawning a worker.  Hits count in
        :attr:`stats` exactly as :meth:`simulate` hits do; a miss
        counts nothing (the caller decides what happens next).
        """
        if not self.enabled:
            return None
        cached = self._recall(key)
        if cached is not None:
            return cached
        if self.store is not None:
            loaded = self.store.load_result(result_digest(key))
            if loaded is not None:
                with self._lock:
                    self.stats.sim_store_hits += 1
                    self._remember(key, loaded)
                return loaded
        return None

    def _recall(self, key: tuple) -> "SimResult | None":
        """The memory tier's result for ``key`` (a hit counts)."""
        with self._lock:
            cached = self._results.get(key)
            if cached is not None:
                self.stats.sim_hits += 1
                self._results.move_to_end(key)
            return cached

    def _remember(self, key: tuple, result: SimResult) -> None:
        """Admit a result to the memory tier, evicting LRU past the cap."""
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            if self.max_memory_results is not None:
                while len(self._results) > self.max_memory_results:
                    self._results.popitem(last=False)
                    self.stats.memory_evictions += 1

    def export_results(self) -> "dict[tuple, SimResult]":
        """Snapshot of the result cache (for cross-process adoption)."""
        with self._lock:
            return dict(self._results)

    def adopt_results(
        self, entries: "dict[tuple, SimResult]"
    ) -> None:
        """Merge result-cache entries computed by another session.

        Keys are content-based (trace fingerprint + full configuration),
        so entries from a worker process are valid here verbatim.
        """
        if self.enabled:
            with self._lock:
                for key, result in entries.items():
                    self._remember(key, result)

    def clear(self) -> None:
        """Drop all memory-tier entries (the disk store is untouched)."""
        with self._lock:
            self._traces.clear()
            self._primed.clear()
            self._results.clear()


#: The process-wide session used by the runner layer.
_SESSION: SimSession | None = None


def get_session() -> SimSession:
    """The process-global session (created lazily)."""
    global _SESSION
    if _SESSION is None:
        _SESSION = SimSession()
    return _SESSION


def set_session(session: "SimSession | None") -> "SimSession | None":
    """Swap the process-global session; returns the previous one.

    Pass ``None`` to reset (a fresh session is created on next use).
    Benchmarks use this to measure cold paths.
    """
    global _SESSION
    previous = _SESSION
    _SESSION = session
    return previous
