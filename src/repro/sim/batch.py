"""Batched simulation engine: the reference heap loop, one fused step.

This is the Python engine behind :class:`repro.sim.engine.Simulator`
(``engine="batch"``) for the cells the compiled kernel
(:mod:`repro.sim.native`) does not model: ideal TMS, fixed-depth and
Markov temporal prefetchers, and every cell on a machine without a C
compiler.  It produces **bit-identical** results to the scalar reference
engine (:class:`repro.sim.scalar.ScalarRunState`), enforced by
``tests/sim/test_engine_equivalence.py``.

It inherits the reference's ``(clock, core)`` heap loop unchanged, so it
walks records in exactly the reference's order, and overrides only the
per-record step.  That step is the reference's ``_step`` and
``_off_chip`` fused into one function with every repeated field hoisted
to a local, the timing constants read once per run, and the hierarchy's
fill path inlined.  Trace columns are materialized as Python lists once
per trace, so records read native ints/floats/bools instead of paying
NumPy scalar-extraction costs.

There is no batching of L1 hits.  The suite's traces are L1-filtered:
in an ideal-TMS cell per suite workload (4 cores, seed 7) only 0-0.6%
of records hit in the L1 at test scale and 0-2.3% at bench scale
(web-zeus: 3,708 of 160,039), too few for classifying and committing
hit runs in bulk to pay for itself.

Temporal prefetchers are driven through their generic ``consume`` /
``on_demand_miss`` calls.
"""

from __future__ import annotations

from heapq import heappush

import numpy as np

from repro.memory.config import BLOCK_BYTES, Priority, TrafficCategory
from repro.memory.cache import Eviction
from repro.memory.mshr import MshrEntry
from repro.sim.scalar import ScalarRunState
from repro.workloads.trace import as_numpy

_HIGH = Priority.HIGH
_DEMAND_READ = TrafficCategory.DEMAND_READ
_WRITEBACK = TrafficCategory.WRITEBACK


class BatchRunState(ScalarRunState):
    """Drop-in replacement for the scalar reference run state."""

    __slots__ = ('_blocks_l', '_work_l', '_dep_l', '_write_l', '_t_l1_hit', '_t_victim', '_t_l2_dep', '_t_l2_indep', '_t_stride_dep', '_t_stride_indep', '_t_pf_dep', '_t_pf_indep', '_t_miss_overhead', '_miss_window', '_traffic_bytes', '_core_traffic', '_l2_ways', '_l1_ways', '_victim_capacity', '_mlp_accs', '_scratch_writebacks')

    def __init__(self, config, trace, temporal_factory):
        super().__init__(config, trace, temporal_factory)
        # Native-type columns: Python list indexing returns ready-made
        # ints/floats/bools, ~10x cheaper than NumPy scalar extraction.
        # float32 -> float64 is exact, so clock math is unchanged.
        columns = _native_columns(trace)
        self._blocks_l, self._work_l, self._dep_l, self._write_l = columns
        # Hoisted per-record constants (all from frozen configs).
        timing = config.timing
        self._t_l1_hit = timing.l1_hit
        self._t_victim = timing.victim_hit
        self._t_l2_dep = timing.l2_hit_dep
        self._t_l2_indep = timing.l2_hit_indep
        self._t_stride_dep = timing.stride_hit_dep
        self._t_stride_indep = timing.stride_hit_indep
        self._t_pf_dep = timing.prefetch_hit_dep
        self._t_pf_indep = timing.prefetch_hit_indep
        self._t_miss_overhead = timing.miss_issue_overhead
        self._miss_window = timing.core_miss_window
        self._traffic_bytes = self.traffic._bytes
        self._core_traffic = self.traffic._core_bytes
        self._l2_ways = self.hierarchy._l2_ways
        self._l1_ways = config.cmp.l1_ways
        self._victim_capacity = config.cmp.l1_victim_blocks
        self._mlp_accs = (
            self.mlp._accumulators if self.mlp is not None else None
        )
        self._scratch_writebacks: list = []

    def _step(self, core: int) -> None:
        """One trace record, identical to the scalar ``_step``.

        The scalar reference's ``_step`` + ``_off_chip`` pair merged
        into one function with every repeated ``self`` field hoisted to
        a local.  Any change to the scalar path must be replicated here
        (the equivalence and differential suites catch drift).
        """
        i = self.cursors[core]
        self.cursors[core] = i + 1
        block = self._blocks_l[core][i]
        write = self._write_l[core][i]
        t = self.clocks[core] + self._work_l[core][i]
        measuring = self.measuring
        if measuring:
            self.measured_records += 1

        hier = self.hierarchy
        hier.demand_accesses += 1
        # Inlined Cache.access on the core's L1.
        l1 = hier.l1s[core]
        l1_set = l1._sets[block & l1._set_mask]
        if block in l1_set:
            l1_set[block] = l1_set.pop(block) or write
            l1.stats.hits += 1
            self.clocks[core] = t + self._t_l1_hit
            return
        l1.stats.misses += 1
        dep = self._dep_l[core][i]
        stride = self.stride

        if hier.victims[core].extract(block):
            t += self._t_victim
            for _ in hier._fill_l1(core, block, dirty=write):
                self.dram.request(t, _HIGH)
            self.clocks[core] = t
            return
        # Inlined Cache.access on the L2 (always LRU, read probe).
        l2 = hier.l2
        cache_set = l2._sets[block & l2._set_mask]
        if block in cache_set:
            cache_set[block] = cache_set.pop(block)
            l2.stats.hits += 1
            t += self._t_l2_dep if dep else self._t_l2_indep
            for _ in hier._fill_l1(core, block, dirty=write):
                self.dram.request(t, _HIGH)
            if stride is not None:
                stride.train(core, block, t)
            self.clocks[core] = t
            return
        l2.stats.misses += 1
        hier.off_chip_reads += 1

        # --- Off-chip resolution (the scalar `_off_chip`). ---

        # 1. Stride prefetcher buffer (part of the base system), with
        # PrefetchBuffer.take inlined.
        if stride is not None:
            stride_buffer = stride.buffers[core]
            entry = stride_buffer._entries.pop(block, None)
            if entry is not None:
                stride_buffer._forget(entry)
                stride.stats.useful += 1
                self._traffic_bytes[_DEMAND_READ] += BLOCK_BYTES
                self._core_traffic[core][_DEMAND_READ] += BLOCK_BYTES
                if measuring:
                    self.coverage.stride_covered += 1
                    self.core_coverage[core].stride_covered += 1
                t += self._t_stride_dep if dep else self._t_stride_indep
                self._fill(core, block, write, t)
                stride.train(core, block, t)
                self.clocks[core] = t
                return

        # 2. Temporal prefetcher buffer.
        temporal = self.temporal
        if temporal is not None:
            entry = temporal.consume(core, block, t)
            if entry is not None:
                if entry.arrival <= t:
                    if measuring:
                        self.coverage.fully_covered += 1
                        self.core_coverage[core].fully_covered += 1
                    t += self._t_pf_dep if dep else self._t_pf_indep
                else:
                    if measuring:
                        self.coverage.partially_covered += 1
                        self.core_coverage[core].partially_covered += 1
                    if dep:
                        # A demand hit on an in-flight prefetch upgrades
                        # it to demand urgency (see the reference
                        # engine).
                        arrival = entry.arrival
                        peek = self.dram.peek_completion(
                            t, self.demand_priority[core]
                        )
                        if peek < arrival:
                            arrival = peek
                        t = arrival + self._t_pf_dep
                    else:
                        t += self._t_pf_indep
                self._fill(core, block, write, t)
                if stride is not None:
                    stride.train(core, block, t)
                self.clocks[core] = t
                return

        # 3. Demand fetch from main memory.
        issue = t
        window = self.outstanding[core]
        if window:
            # In-place expiry sweep (a listcomp would build a frame per
            # event on 3.11); same resulting contents as the scalar
            # engine's rebuild.
            keep = 0
            for completion_time in window:
                if completion_time > issue:
                    window[keep] = completion_time
                    keep += 1
            if keep != len(window):
                del window[keep:]
            while len(window) >= self._miss_window:
                issue = min(window)
                window.remove(issue)
        mshrs = self.mshrs
        if mshrs._min_complete <= issue:
            mshrs.retire_complete(issue)
        existing = mshrs._entries.get(block)
        if existing is not None:
            # Another core is already fetching this block: merge.
            existing.waiters += 1
            mshrs.stats.merges += 1
            completion = existing.complete_at
        else:
            if len(mshrs._entries) >= mshrs.capacity:
                earliest = mshrs.earliest_completion()
                if earliest is not None:
                    if earliest > issue:
                        issue = earliest
                    mshrs.retire_complete(issue)
            # Inlined DramChannel.request(issue, priority, blocks=1);
            # the core's demand-priority class picks the queue it waits
            # behind (asymmetric mixes may demote a core to LOW).
            dram = self.dram
            service = dram._transfer_cycles
            dram_stats = dram.stats
            if self.demand_priority[core] is _HIGH:
                busy = dram._busy_until_high
                start = issue if issue > busy else busy
                busy = start + service
                dram._busy_until_high = busy
                if busy > dram._busy_until_all:
                    dram._busy_until_all = busy
                dram_stats.high_priority_requests += 1
            else:
                busy = dram._busy_until_all
                start = issue if issue > busy else busy
                dram._busy_until_all = start + service
                dram_stats.low_priority_requests += 1
            dram_stats.requests += 1
            dram_stats.busy_cycles += service
            dram_stats.queue_cycles += start - issue
            completion = start + dram._access_latency_cycles + service
            self._traffic_bytes[_DEMAND_READ] += BLOCK_BYTES
            self._core_traffic[core][_DEMAND_READ] += BLOCK_BYTES
            # Inlined MshrFile.allocate (capacity was enforced above, and
            # ``existing is None`` rules out a duplicate entry).
            mshr_entries = mshrs._entries
            mshr_entries[block] = MshrEntry(block, completion)
            heappush(mshrs._heap, (completion, block))
            if completion < mshrs._min_complete:
                mshrs._min_complete = completion
            mshr_stats = mshrs.stats
            mshr_stats.allocations += 1
            occupancy = len(mshr_entries)
            if occupancy > mshr_stats.peak_occupancy:
                mshr_stats.peak_occupancy = occupancy
        if measuring:
            self.coverage.uncovered += 1
            self.core_coverage[core].uncovered += 1
            mlp_accs = self._mlp_accs
            if mlp_accs is not None:
                # Inlined _IntervalAccumulator.add (completion > issue:
                # retirement already dropped entries at or before issue).
                acc = mlp_accs[core]
                acc.total += completion - issue
                acc.count += 1
                current_end = acc._current_end
                if current_end < 0:
                    acc._current_start = issue
                    acc._current_end = completion
                elif issue <= current_end:
                    if completion > current_end:
                        acc._current_end = completion
                else:
                    acc.union += current_end - acc._current_start
                    acc._current_start = issue
                    acc._current_end = completion
            if self.miss_log is not None:
                self.miss_log[core].append(block)
        if dep:
            t = completion
            window.clear()
        else:
            t = issue + self._t_miss_overhead
            window.append(completion)
        self._fill(core, block, write, t)
        if temporal is not None:
            temporal.on_demand_miss(core, block, issue)
        if stride is not None:
            stride.train(core, block, t)
        self.clocks[core] = t

    def _fill(self, core, block, write, now):
        # fill_off_chip with the writeback list reused across events and
        # the L2 fill inlined (operation-for-operation
        # ``CmpHierarchy._l2_fill`` with ``dirty=False``; core indices
        # are range-validated at trace admission).
        writebacks = self._scratch_writebacks
        writebacks.clear()
        hier = self.hierarchy
        l2 = hier.l2
        cache_set = l2._sets[block & l2._set_mask]
        if block in cache_set:
            # Refill of a resident block refreshes LRU (dirty unchanged).
            cache_set[block] = cache_set.pop(block)
        else:
            victim_block = None
            if len(cache_set) >= self._l2_ways:
                victim_block = next(iter(cache_set))
                victim_dirty = cache_set.pop(victim_block)
                l2_stats = l2.stats
                l2_stats.evictions += 1
                if victim_dirty:
                    l2_stats.dirty_evictions += 1
            cache_set[block] = False
            l2.stats.fills += 1
            if victim_block is not None:
                # Inlined CmpHierarchy._handle_l2_eviction (the no-L1-copy
                # case is the overwhelmingly common one).
                copies_mask = hier._l1_copies.pop(victim_block, 0)
                if copies_mask:
                    victim_dirty = hier._invalidate_copies(
                        victim_block, copies_mask, victim_dirty
                    )
                if victim_dirty:
                    self._traffic_bytes[_WRITEBACK] += BLOCK_BYTES
                    self._core_traffic[core][_WRITEBACK] += BLOCK_BYTES
                    writebacks.append(Eviction(victim_block, True))
        # Inlined CmpHierarchy._fill_l1_into over the dict-backed L1.
        l1 = hier.l1s[core]
        l1_set = l1._sets[block & l1._set_mask]
        copies = hier._l1_copies
        bit = 1 << core
        l1_victim = None
        if block in l1_set:
            l1_set[block] = l1_set.pop(block) or write
        else:
            if len(l1_set) >= self._l1_ways:
                victim_block = next(iter(l1_set))
                victim_dirty = l1_set.pop(victim_block)
                l1_stats = l1.stats
                l1_stats.evictions += 1
                if victim_dirty:
                    l1_stats.dirty_evictions += 1
                l1_victim = (victim_block, victim_dirty)
            l1_set[block] = write
            l1.stats.fills += 1
        copies[block] = copies.get(block, 0) | bit
        if l1_victim is not None:
            victim_block, victim_dirty = l1_victim
            mask = copies.get(victim_block, 0) & ~bit
            if mask:
                copies[victim_block] = mask
            else:
                copies.pop(victim_block, None)
            # Inlined VictimBuffer.insert (FIFO over evicted L1 blocks).
            capacity = self._victim_capacity
            if capacity <= 0:
                if victim_dirty:
                    hier._l2_fill(victim_block, True, writebacks, core)
            else:
                fifo = hier.victims[core]._fifo
                if victim_block in fifo:
                    fifo[victim_block] = fifo[victim_block] or victim_dirty
                else:
                    if len(fifo) >= capacity:
                        displaced = next(iter(fifo))
                        displaced_dirty = fifo.pop(displaced)
                        if displaced_dirty:
                            hier._l2_fill(
                                displaced, True, writebacks, core
                            )
                    fifo[victim_block] = victim_dirty
        if writebacks:
            dram = self.dram
            for _ in writebacks:
                dram.request(now, _HIGH)


def _native_columns(trace):
    """Python-list trace columns, materialized once and cached."""
    cached = getattr(trace, "_native_columns", None)
    if cached is not None:
        return cached
    columns = (
        [as_numpy(b).tolist() for b in trace.blocks],
        [as_numpy(w).astype(np.float64).tolist() for w in trace.work],
        [as_numpy(d).tolist() for d in trace.dep],
        [as_numpy(w).tolist() for w in trace.write],
    )
    trace._native_columns = columns
    return columns
