"""Run counters, declared once, and the heap a run keeps.

Every layer counts into one :class:`SessionStats`; worker folding,
``counters.json`` persistence (``SimSession.persist_counters``) and the
``cache stats`` table are generic over its fields, so adding a counter
takes one field and one increment.  :func:`long_lived` keeps the
cyclic garbage collector off the objects a run holds to its end.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator


@contextmanager
def long_lived() -> Iterator[None]:
    """Treat every object that exists on entry as permanent.

    ``gc.freeze()`` moves them (the imported modules, a parsed command,
    a parent's heap before its pool forks) to the permanent generation:
    collections inside the block walk only what the block allocates,
    and forked workers neither walk nor copy-on-write the parent's
    pages.  Only the outermost block unfreezes on exit, so an
    in-process caller gets its heap back as it was.
    """
    outermost = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        yield
    finally:
        if outermost:
            gc.unfreeze()


@dataclass
class SessionStats:
    """Counters of one run (observability for tests and tuning).

    ``*_hits`` count memory-tier hits, ``*_store_hits`` disk-tier hits,
    and ``*_misses`` actual generations/simulations.
    """

    trace_hits: int = 0
    #: Traces loaded from the store.  A fully warm bundle loads none:
    #: its result keys come from the fingerprint stored in the trace
    #: file, so a run served wholly from the store counts zero here.
    trace_store_hits: int = 0
    trace_misses: int = 0
    sim_hits: int = 0
    sim_store_hits: int = 0
    sim_misses: int = 0
    #: Trace records the simulated cells stepped (warm-up plus
    #: measured): simulation seconds over this give µs per record.
    sim_records: int = 0
    memory_evictions: int = 0
    #: Whole job bundles the runner served from the store without
    #: spawning a worker (store-aware scheduling).
    bundle_skips: int = 0
    #: Sweep invocations: grid-job groups the runner pushed through the
    #: config-parallel engine (``sim/sweep.py``) as one shared pass.
    sweep_invocations: int = 0
    #: Grid cells simulated inside a sweep invocation on the shared
    #: (config-parallel) path.
    sweep_cells: int = 0
    #: Grid cells a sweep invocation had to hand back to the per-cell
    #: engine (scalar engine requested, or no vectorizable form) —
    #: nonzero values flag silent de-vectorization.
    sweep_fallbacks: int = 0
    #: Shared-memory trace-plane segments the runner exported for cell
    #: shards (parent side of the zero-copy plane).
    shm_exports: int = 0
    #: Trace-plane segments attached by workers.
    shm_attaches: int = 0
    #: Bytes served to workers as zero-copy shared-memory views.
    shm_bytes_zero_copy: int = 0
    #: Bytes workers re-read on the TraceRef fallback path (the
    #: referenced trace files' sizes) — the plane's savings are the contrast
    #: between this and :attr:`shm_bytes_zero_copy`.
    shm_bytes_pickled: int = 0
    #: Budgeted-sampling layer (``sim/sampling.py`` via the
    #: ``run_sampled_sweep`` helper): grid cells selected under a
    #: budget, cells run through the same helper at full budget (the
    #: exact contrast for ``cache stats``), and sampled cells served
    #: warm from the cache tiers instead of simulated — nonzero reuse
    #: on a re-run is the store-backed refinement property.
    sampling_sampled_cells: int = 0
    sampling_exact_cells: int = 0
    sampling_reused_cells: int = 0
    #: Artifact-store handle events: entries written, failed writes
    #: (``counters.json`` rewrites included), unreadable entries
    #: dropped, entries or whole stores invalidated by a schema
    #: mismatch, entries evicted by the size cap, and crashed writers'
    #: temp files swept.
    store_writes: int = 0
    store_write_errors: int = 0
    store_corrupt_drops: int = 0
    store_schema_invalidations: int = 0
    store_evictions: int = 0
    stale_temps_swept: int = 0

    def since(self, before: "SessionStats") -> "dict[str, int]":
        """Per-counter increase over an earlier snapshot."""
        return {
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in fields(self)
        }

    def add(self, deltas: "dict[str, int]") -> None:
        """Fold counter increases (another process's :meth:`since`)."""
        for name, delta in deltas.items():
            setattr(self, name, getattr(self, name) + delta)
