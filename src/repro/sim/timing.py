"""Per-event cycle costs of the limited-overlap timing model.

The paper uses cycle-accurate out-of-order cores; we approximate the
timing *effects* that matter for its results: on-chip hits are cheap,
dependent off-chip misses stall the core for the full memory round trip,
independent misses overlap (bounded by the dependence structure in the
trace, which yields the Table 2 MLP values), and prefetch-buffer hits
cost roughly an L2 access.

Out-of-order execution partially hides even dependent on-chip latencies;
the ``*_indep`` costs model accesses off the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.config import Priority

#: Per-core demand-priority classes an asymmetric mix may assign
#: (``!high`` / ``!low`` in a mix spec).  ``high`` is the normal demand
#: class; a ``low`` core's demand fetches queue behind *all* outstanding
#: channel work, so equal-priority co-runners (and the prefetcher's
#: meta-data, which is always low priority) are never delayed behind it
#: — the bandwidth-arbitration side of rate-based asymmetric scheduling.
PRIORITY_CLASSES = ("high", "low")


def demand_priority(priority_class: "str | None") -> Priority:
    """Map a core's priority class to its DRAM arbitration priority.

    ``None`` (no class recorded on the trace) means the default demand
    class.  Unknown classes are rejected here — at engine construction —
    rather than surfacing as silent HIGH-priority fallbacks mid-run.
    """
    if priority_class is None or priority_class == "high":
        return Priority.HIGH
    if priority_class == "low":
        return Priority.LOW
    raise ValueError(
        f"unknown priority class {priority_class!r}; "
        f"expected one of {PRIORITY_CLASSES}"
    )


@dataclass(frozen=True)
class TimingModel:
    """Cycle charges by event type (defaults follow paper Table 1)."""

    #: L1 load-to-use (mostly folded into per-record work).
    l1_hit: float = 0.0
    #: Victim-buffer recovery.
    victim_hit: float = 3.0
    #: Shared L2 hit on the dependence chain.
    l2_hit_dep: float = 20.0
    #: Shared L2 hit off the dependence chain (overlapped by OoO core).
    l2_hit_indep: float = 4.0
    #: Consuming a prefetched block from the prefetch buffer (dependent).
    prefetch_hit_dep: float = 8.0
    #: Consuming a prefetched block off the dependence chain.
    prefetch_hit_indep: float = 2.0
    #: Stride-buffer hit (buffer sits at the L2/memory controller).
    stride_hit_dep: float = 20.0
    stride_hit_indep: float = 4.0
    #: Issue overhead of an off-chip miss that does not stall (slot
    #: occupancy in the load-store queue / MSHR allocation).
    miss_issue_overhead: float = 2.0
    #: Maximum off-chip misses one core can have outstanding (the ROB /
    #: LSQ window of the paper's 96-entry out-of-order core).  Dependence
    #: chains usually bound overlap well below this; the window catches
    #: pathological independent bursts.
    core_miss_window: int = 8

    def __post_init__(self) -> None:
        for name in (
            "l1_hit",
            "victim_hit",
            "l2_hit_dep",
            "l2_hit_indep",
            "prefetch_hit_dep",
            "prefetch_hit_indep",
            "stride_hit_dep",
            "stride_hit_indep",
            "miss_issue_overhead",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.core_miss_window <= 0:
            raise ValueError("core_miss_window must be positive")

    def l2_hit(self, dep: bool) -> float:
        return self.l2_hit_dep if dep else self.l2_hit_indep

    def prefetch_hit(self, dep: bool) -> float:
        return self.prefetch_hit_dep if dep else self.prefetch_hit_indep

    def stride_hit(self, dep: bool) -> float:
        return self.stride_hit_dep if dep else self.stride_hit_indep
