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
    #: Whole job bundles the runner served from the store without
    #: spawning a worker (store-aware scheduling).
    bundle_skips: int = 0
    #: Sweep invocations: trace groups the runner pushed through
    #: ``sim/sweep.py``, each on one acquisition of its trace.
    sweep_invocations: int = 0
    #: Grid cells a sweep invocation simulated on the fast engines.
    sweep_cells: int = 0
    #: Grid cells a sweep invocation simulated on the scalar reference
    #: engine (``REPRO_SIM_ENGINE=scalar``) — nonzero values show a run
    #: that left the fast engines.
    sweep_fallbacks: int = 0
    #: Shared-memory trace-plane segments exported and attached
    #: (:mod:`repro.sim.shm`).  Nothing in ``src/`` counts them since
    #: the runner's shards inherit their traces by fork; they stay
    #: because the benchmark harness (``perfbench/run.py``) reads them.
    shm_exports: int = 0
    shm_attaches: int = 0
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
