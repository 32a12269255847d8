"""Reproduction of *Practical Off-chip Meta-data for Temporal Memory
Streaming* (Wenisch et al., HPCA 2009).

The package implements Sampled Temporal Memory Streaming (STMS) — an
address-correlating prefetcher whose meta-data lives in main memory —
together with the full substrate the paper evaluates it on: a four-core
CMP memory hierarchy, a bandwidth-regulated DRAM channel, the base
system's stride prefetcher, idealized/fixed-depth/Markov baselines, and
a synthetic workload suite standing in for the paper's server traces.

Quickstart::

    from repro import PrefetcherKind, run_workload

    result = run_workload("oltp-db2", PrefetcherKind.STMS, scale="demo")
    print(f"coverage = {result.coverage.coverage:.1%}")

See README.md for the architecture map and for how each of the paper's
figures and tables regenerates, with the shape checks it must pass.
"""

from repro.core import StmsConfig, StmsPrefetcher
from repro.memory import CmpConfig, DramConfig
from repro.prefetchers import (
    FixedDepthPrefetcher,
    IdealTmsPrefetcher,
    MarkovPrefetcher,
    StridePrefetcher,
)
from repro.sim import (
    PrefetcherKind,
    SimConfig,
    SimResult,
    Simulator,
    TimingModel,
    compare_prefetchers,
    run_workload,
)
from repro.workloads import Trace, WORKLOADS, generate, workload_names

__version__ = "1.0.0"

__all__ = [
    "StmsConfig",
    "StmsPrefetcher",
    "CmpConfig",
    "DramConfig",
    "FixedDepthPrefetcher",
    "IdealTmsPrefetcher",
    "MarkovPrefetcher",
    "StridePrefetcher",
    "PrefetcherKind",
    "SimConfig",
    "SimResult",
    "Simulator",
    "TimingModel",
    "compare_prefetchers",
    "run_workload",
    "Trace",
    "WORKLOADS",
    "generate",
    "workload_names",
    "__version__",
]
