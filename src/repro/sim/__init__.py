"""Trace-driven simulation engine, timing model, metrics, and runners.

The engine replays per-core traces through the CMP hierarchy with a
limited-overlap timing model: cores advance local clocks, dependent
off-chip misses stall, independent ones overlap, and all DRAM traffic —
demand, write-back, prefetch fills, and STMS meta-data — shares one
bandwidth-regulated channel with demand priority.
"""

from repro.sim.engine import SimConfig, Simulator
from repro.sim.metrics import CoverageCounts, SimResult
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    compare_prefetchers,
    job_options,
    run_job,
    run_workload,
)
from repro.sim.session import SimSession, get_session, set_session
from repro.sim.store import ArtifactStore, TraceRef
from repro.sim.timing import TimingModel

__all__ = [
    "SimConfig",
    "Simulator",
    "CoverageCounts",
    "SimResult",
    "PrefetcherKind",
    "SimJob",
    "ExperimentRunner",
    "SimSession",
    "ArtifactStore",
    "TraceRef",
    "compare_prefetchers",
    "get_session",
    "set_session",
    "job_options",
    "run_job",
    "run_workload",
    "TimingModel",
]
