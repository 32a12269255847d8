"""Memory-level-parallelism measurement (paper Table 2).

MLP is the average number of outstanding off-chip demand reads while at
least one is outstanding.  The simulator tracks it online (see
:class:`repro.sim.metrics.MlpTracker`); these helpers run the baseline
configuration and collect the per-workload values the paper tabulates.
"""

from __future__ import annotations

from repro.sim.results import SimResult
from repro.sim.runner import PrefetcherKind, run_workload


def measure_mlp(
    workload: str,
    scale: str = "bench",
    cores: int = 4,
    seed: int = 7,
) -> float:
    """Measured MLP of off-chip reads for one workload (stride-only)."""
    result = run_workload(
        workload, PrefetcherKind.BASELINE, scale=scale, cores=cores, seed=seed
    )
    return result.mlp


def measure_suite_mlp(
    workloads: "tuple[str, ...] | list[str]",
    scale: str = "bench",
    cores: int = 4,
    seed: int = 7,
) -> "dict[str, float]":
    """Table 2: MLP per workload, measured on the baseline system."""
    return {
        workload: measure_mlp(workload, scale=scale, cores=cores, seed=seed)
        for workload in workloads
    }


def mlp_from_result(result: SimResult) -> float:
    """Extract the MLP from an existing baseline run."""
    return result.mlp
