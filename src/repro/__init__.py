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

import importlib
import os

# NumPy's OpenBLAS starts a pool of one thread per extra CPU as NumPy
# loads, and each of those threads spins for a while before it sleeps.
# The package calls no BLAS routine, so one thread is all it needs; a
# value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"

#: Public name -> defining module.  Names resolve on first access
#: (PEP 562), so ``import repro`` loads none of the subpackages.
_EXPORTS = {
    "StmsConfig": "repro.core.config",
    "StmsPrefetcher": "repro.core.stms",
    "CmpConfig": "repro.memory.config",
    "DramConfig": "repro.memory.config",
    "FixedDepthPrefetcher": "repro.prefetchers.fixed_depth",
    "IdealTmsPrefetcher": "repro.prefetchers.ideal_tms",
    "MarkovPrefetcher": "repro.prefetchers.markov",
    "StridePrefetcher": "repro.prefetchers.stride",
    "PrefetcherKind": "repro.sim.runner",
    "SimConfig": "repro.sim.config",
    "SimResult": "repro.sim.results",
    "Simulator": "repro.sim.engine",
    "TimingModel": "repro.sim.timing",
    "compare_prefetchers": "repro.sim.runner",
    "run_workload": "repro.sim.runner",
    "Trace": "repro.workloads.trace",
    "WORKLOADS": "repro.workloads.suite",
    "generate": "repro.workloads.suite",
    "workload_names": "repro.workloads.scales",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(module), name)
