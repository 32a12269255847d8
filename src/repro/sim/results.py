"""Simulation results: coverage, timing, traffic, and MLP.

Definitions follow the paper:

* **Coverage** — fraction of off-chip read misses eliminated by the
  temporal prefetcher, *in excess of* the base system's stride
  prefetcher: stride-covered accesses appear in neither numerator nor
  denominator.
* **Fully covered** — the prefetched block had arrived before the demand
  reached it; **partially covered** — the prefetch was still in flight,
  so only part of the memory latency was hidden (Fig. 9 left splits
  these).
* **MLP** — average number of outstanding off-chip demand reads while at
  least one is outstanding, per core (Table 2).
* **Overhead traffic** — meta-data and erroneous-prefetch bytes per
  useful data byte (Figs. 7 and 8).

The store decodes these types, and drivers read them, with no model loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.memory.config import TrafficBreakdown, TrafficCategory
from repro.prefetchers.stats import PrefetcherStats


@dataclass
class CoverageCounts:
    """Raw coverage tallies collected during the measured phase."""

    fully_covered: int = 0
    partially_covered: int = 0
    uncovered: int = 0
    stride_covered: int = 0

    @property
    def temporal_eligible(self) -> int:
        """Off-chip read misses the temporal prefetcher could target."""
        return self.fully_covered + self.partially_covered + self.uncovered

    @property
    def coverage(self) -> float:
        """Total coverage (full + partial), the paper's headline metric."""
        eligible = self.temporal_eligible
        if eligible == 0:
            return 0.0
        return (self.fully_covered + self.partially_covered) / eligible

    @property
    def full_coverage(self) -> float:
        eligible = self.temporal_eligible
        if eligible == 0:
            return 0.0
        return self.fully_covered / eligible

    @property
    def partial_coverage(self) -> float:
        eligible = self.temporal_eligible
        if eligible == 0:
            return 0.0
        return self.partially_covered / eligible


@dataclass
class SimResult:
    """Everything one simulation run produces."""

    workload: str
    prefetcher: str
    #: Trace records processed in the measured phase.
    measured_records: int
    #: Wall-clock cycles of the measured phase (max over cores).
    elapsed_cycles: float
    coverage: CoverageCounts = field(default_factory=CoverageCounts)
    #: Demand accesses that hit each level during measurement.
    l1_hits: int = 0
    victim_hits: int = 0
    l2_hits: int = 0
    #: Traffic normalization snapshot.
    traffic: "TrafficBreakdown | None" = None
    overhead_per_useful_byte: float = 0.0
    metadata_bytes: int = 0
    useful_bytes: int = 0
    #: Measured MLP of uncovered off-chip reads.
    mlp: float = 0.0
    #: Prefetcher-internal counters (issued/useful/erroneous/...).
    prefetcher_stats: "PrefetcherStats | None" = None
    #: DRAM channel utilization over the measured phase.
    dram_utilization: float = 0.0
    #: Per-core off-chip miss-address sequences (when collected).
    miss_log: "list[list[int]] | None" = None
    #: Per-core workload identity for multiprogrammed mixes (None when
    #: every core ran ``workload``).
    core_workloads: "list[str] | None" = None
    #: Per-core coverage tallies (sum equals :attr:`coverage`).
    core_coverage: "list[CoverageCounts] | None" = None
    #: Records each core committed during the measured phase.
    core_measured_records: "list[int] | None" = None
    #: Measured-phase cycles each core ran for.
    core_elapsed_cycles: "list[float] | None" = None
    #: Per-core MLP of uncovered off-chip reads.
    core_mlp: "list[float] | None" = None
    #: Per-core DRAM traffic attribution: one ``{category: bytes}`` dict
    #: per core (keys are :class:`TrafficCategory` values), charging
    #: every byte — demand fills, stream fetches, history reads/writes,
    #: index probes, write-backs — to the requesting core.  Summing over
    #: cores reproduces the global counters exactly (the conservation
    #: invariant the test suite enforces).
    core_traffic_bytes: "list[dict[str, int]] | None" = None

    def workload_of(self, core: int) -> str:
        """The workload that ran on ``core``."""
        if self.core_workloads is not None:
            return self.core_workloads[core]
        return self.workload

    def core_throughput(self, core: int) -> float:
        """One core's committed records per cycle (requires per-core
        accounting, i.e. a result produced by this repo's engines)."""
        assert self.core_measured_records is not None
        assert self.core_elapsed_cycles is not None
        elapsed = self.core_elapsed_cycles[core]
        if elapsed <= 0:
            return 0.0
        return self.core_measured_records[core] / elapsed

    @property
    def throughput(self) -> float:
        """Committed records per cycle — the paper's user-IPC proxy."""
        if self.elapsed_cycles <= 0:
            return 0.0
        return self.measured_records / self.elapsed_cycles

    def speedup_over(self, baseline: "SimResult") -> float:
        """Relative performance vs. a baseline run of the same trace."""
        if baseline.measured_records != self.measured_records:
            raise ValueError(
                "speedup requires runs over the same measured records"
            )
        if self.elapsed_cycles <= 0:
            return 0.0
        return baseline.elapsed_cycles / self.elapsed_cycles


@dataclass
class WorkloadSlice:
    """One workload's share of a (possibly multiprogrammed) result."""

    workload: str
    cores: "list[int]" = field(default_factory=list)
    coverage: CoverageCounts = field(default_factory=CoverageCounts)
    measured_records: int = 0
    #: Sum over this workload's cores of per-core records/cycle — the
    #: co-run throughput its instances achieved together.
    throughput: float = 0.0
    #: Off-chip-miss-weighted mean MLP across this workload's cores.
    mlp: float = 0.0
    #: DRAM bytes attributed to this workload's cores, per traffic
    #: category (:class:`TrafficCategory` value -> bytes); empty when
    #: the result predates per-core attribution.
    traffic_bytes: "dict[str, int]" = field(default_factory=dict)

    @property
    def metadata_bytes(self) -> int:
        """Meta-data bytes this workload's misses caused (record streams
        + index updates + stream lookups)."""
        return sum(
            self.traffic_bytes.get(category.value, 0)
            for category in TrafficCategory
            if category.is_metadata
        )


def per_workload_breakdown(result: SimResult) -> "dict[str, WorkloadSlice]":
    """Group a result's per-core accounting by per-core workload.

    For a homogeneous trace this returns a single slice keyed by the
    result's workload name; for a mix, one slice per distinct component,
    which is how the contention experiments compare how each co-runner
    fared.  Requires per-core accounting (results simulated before the
    per-core counters existed are dropped by the store's schema stamp).
    """
    assert result.core_coverage is not None, "per-core accounting missing"
    assert result.core_measured_records is not None
    assert result.core_elapsed_cycles is not None
    slices: "dict[str, WorkloadSlice]" = {}
    mlp_weight: "dict[str, float]" = {}
    for core in range(len(result.core_coverage)):
        name = result.workload_of(core)
        piece = slices.get(name)
        if piece is None:
            piece = slices[name] = WorkloadSlice(workload=name)
            mlp_weight[name] = 0.0
        piece.cores.append(core)
        core_cov = result.core_coverage[core]
        for field_ in fields(CoverageCounts):
            setattr(
                piece.coverage,
                field_.name,
                getattr(piece.coverage, field_.name)
                + getattr(core_cov, field_.name),
            )
        piece.measured_records += result.core_measured_records[core]
        piece.throughput += result.core_throughput(core)
        if result.core_traffic_bytes is not None:
            for category, count in result.core_traffic_bytes[core].items():
                piece.traffic_bytes[category] = (
                    piece.traffic_bytes.get(category, 0) + count
                )
        if result.core_mlp is not None and core_cov.uncovered > 0:
            piece.mlp += result.core_mlp[core] * core_cov.uncovered
            mlp_weight[name] += core_cov.uncovered
    for name, piece in slices.items():
        if mlp_weight[name] > 0:
            piece.mlp /= mlp_weight[name]
    return slices
