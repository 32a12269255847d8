"""Main-memory channel model: latency, bandwidth, and priorities.

The paper's memory system is 45 ns access latency with 28.4 GB/s of peak
bandwidth moving 64-byte transfers, and all prefetcher meta-data traffic is
issued at *low priority* so processor demands are never delayed behind it
(§4.3: "assigning a low priority to predictor memory traffic is essential").

The model is a single-server queue with two priority classes:

* **High** (demand fetches, write-backs) — queues only behind other
  high-priority work, approximating preemption of meta-data transfers.
* **Low** (index lookups/updates, history reads/writes, prefetch fills) —
  queues behind *all* outstanding work.

Each transfer occupies the channel for ``block_bytes / bandwidth`` and the
requester sees ``queue delay + access latency + transfer time``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.config import DramConfig, Priority


def utilization(busy_cycles: float, elapsed_cycles: float) -> float:
    """Fraction of ``elapsed_cycles`` a channel busy for ``busy_cycles``
    spent transferring."""
    if elapsed_cycles <= 0:
        return 0.0
    return min(1.0, busy_cycles / elapsed_cycles)


@dataclass(slots=True)
class DramStats:
    """Aggregate channel behaviour."""

    requests: int = 0
    high_priority_requests: int = 0
    low_priority_requests: int = 0
    busy_cycles: float = 0.0
    queue_cycles: float = 0.0


class DramChannel:
    """Single memory channel shared by all cores and the prefetcher."""

    __slots__ = ('config', 'stats', '_transfer_cycles', '_access_latency_cycles', '_busy_until_high', '_busy_until_all')

    def __init__(self, config: DramConfig | None = None) -> None:
        self.config = config if config is not None else DramConfig()
        self.stats = DramStats()
        # The config is frozen; cache the derived cycle costs so the
        # per-request hot path skips two property computations.
        self._transfer_cycles = self.config.transfer_cycles
        self._access_latency_cycles = self.config.access_latency_cycles
        # Committed channel time for high-priority work only, and for all
        # work.  High priority queues behind the former, low behind the
        # latter; both extend both, so low-priority backlog never delays a
        # later demand request but demand backlog delays everything.
        self._busy_until_high = 0.0
        self._busy_until_all = 0.0

    def request(
        self,
        now: float,
        priority: Priority = Priority.HIGH,
        blocks: int = 1,
    ) -> float:
        """Issue a ``blocks``-transfer request at time ``now``.

        Returns the absolute completion time (when the last byte arrives).
        """
        if blocks <= 0:
            raise ValueError(f"blocks must be positive, got {blocks}")
        service = self._transfer_cycles * blocks

        stats = self.stats
        if priority is Priority.HIGH:
            busy = self._busy_until_high
            start = now if now > busy else busy
            busy = start + service
            self._busy_until_high = busy
            if busy > self._busy_until_all:
                self._busy_until_all = busy
            stats.high_priority_requests += 1
        else:
            busy = self._busy_until_all
            start = now if now > busy else busy
            self._busy_until_all = start + service
            stats.low_priority_requests += 1

        stats.requests += 1
        stats.busy_cycles += service
        stats.queue_cycles += start - now

        return start + self._access_latency_cycles + service

    def request_low(self, now: float) -> float:
        """One-block :meth:`request` at ``Priority.LOW``.

        Branch-free specialization for the metadata paths (bucket
        fetches, history spills/reads), which issue every off-chip
        meta-data access at low priority.
        """
        service = self._transfer_cycles
        busy = self._busy_until_all
        start = now if now > busy else busy
        self._busy_until_all = start + service
        stats = self.stats
        stats.low_priority_requests += 1
        stats.requests += 1
        stats.busy_cycles += service
        stats.queue_cycles += start - now
        return start + self._access_latency_cycles + service

    def latency(
        self,
        now: float,
        priority: Priority = Priority.HIGH,
        blocks: int = 1,
    ) -> float:
        """Convenience: round-trip latency seen by the requester."""
        return self.request(now, priority, blocks) - now

    def peek_completion(
        self,
        now: float,
        priority: Priority = Priority.HIGH,
        blocks: int = 1,
    ) -> float:
        """Completion time a request would see, without issuing it.

        Used to model a demand access *upgrading* an in-flight low-
        priority prefetch for the same block: the data transfer was
        already charged when the prefetch issued, but the requester
        should not wait longer than a fresh demand fetch would take.
        """
        service = self._transfer_cycles * blocks
        start = max(
            now,
            self._busy_until_high
            if priority is Priority.HIGH
            else self._busy_until_all,
        )
        return start + self._access_latency_cycles + service

    def low_backlog(self, now: float) -> float:
        """Cycles of committed work ahead of ``now`` for a LOW request.

        Prefetchers consult this to drop prefetches when the channel is
        saturated — the bounded-queue backpressure real memory systems
        have, and the reason the paper can issue meta-data traffic at low
        priority without strangling demand fetches.
        """
        return max(0.0, self._busy_until_all - now)

    def reset(self) -> None:
        """Clear queues and statistics (between measurement phases)."""
        self.stats = DramStats()
        self._busy_until_high = 0.0
        self._busy_until_all = 0.0
