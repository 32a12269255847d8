"""Batched simulation engine: vectorized L1 runs, fast scalar events.

This is the production engine behind :class:`repro.sim.engine.Simulator`
(``engine="batch"``).  It produces **bit-identical** results to the
scalar reference engine (:class:`repro.sim.engine._RunState`) — the
equivalence is enforced by ``tests/sim/test_engine_equivalence.py`` —
while removing the per-record Python interpreter loop from everything
that does not touch shared machine state.

How it stays exact
==================

The scalar engine interleaves cores record-by-record through a heap
keyed on ``(clock, core)``.  Observe that an L1 hit touches only the
core's *private* state (its L1 recency/dirty bits and its clock): hits
commute with every other core's records.  The only cross-core couplings
are the shared L2 / MSHRs / DRAM / prefetchers — touched exclusively by
records that miss the L1 ("events") — and inclusive L2 evictions, which
read (``peek_dirty``) and invalidate *other* cores' L1s.

So the engine schedules **events**, not records:

1. Per core, classify the upcoming run of guaranteed L1 hits in one
   NumPy membership pass against the L1's resident-set snapshot
   (residency is invariant under hits, so one test classifies the whole
   run).  Pop keys of every record in the run are precomputed with a
   float64 ``cumsum`` that reproduces the scalar engine's addition
   order bit-for-bit.
2. Each core's *next event* is scheduled at exactly the key the scalar
   heap would pop it at; the dispatcher picks the minimum ``(key,
   core)`` just as the scalar heap tuples order.
3. When an event fires at key ``s`` for core ``a``, every other core's
   pending hits that the scalar engine would have popped earlier —
   pop key ``< s``, or ``== s`` for a lower-numbered core — are
   committed first, so the event observes exactly the L1 dirty bits the
   scalar interleaving would produce.
4. The event record itself runs through the same scalar logic as the
   reference engine (hand-inlined but operation-for-operation
   identical).
5. If the event's L2 evictions invalidated blocks out of another
   core's *classified but uncommitted* run, that run is truncated at
   the first invalidated block — which is exactly where the scalar
   engine would have discovered an L1 miss — and rescheduled.

Trace columns are additionally materialized as Python lists once per
trace: scalar event records then read native ints/floats/bools instead
of paying NumPy scalar-extraction costs per record.

Baseline and STMS cells run in the compiled kernel
(:mod:`repro.sim.native`); this engine serves the other temporal
prefetchers (ideal TMS, fixed-depth, Markov) and is every cell's
fallback on a machine without a C compiler.  Temporal prefetchers are
driven through their generic ``consume`` / ``on_demand_miss`` calls.
"""

from __future__ import annotations

from heapq import heappush

import numpy as np

from repro.memory.address import BLOCK_BYTES
from repro.memory.cache import AccessResult, Eviction
from repro.memory.dram import Priority
from repro.memory.mshr import MshrEntry
from repro.memory.traffic import TrafficCategory
from repro.sim.engine import _RunState

_HIGH = Priority.HIGH
_HIT = AccessResult.HIT
_DEMAND_READ = TrafficCategory.DEMAND_READ
_WRITEBACK = TrafficCategory.WRITEBACK
_INF = float("inf")

#: Records probed scalar-ly before switching to vectorized
#: classification; suite traces are L1-filtered, so most runs are short.
_PROBE = 4
#: First vectorized classification chunk (doubles while it keeps
#: hitting).
_CHUNK = 64


class _Run:
    """One core's classified run of L1 hits (mutable, reused per core).

    ``popkeys[k]`` is the scalar heap key (the core clock before the
    record's ``work``) of the run's ``k``-th record; ``popkeys[n]`` is
    the key of the event record that ends the run (or, for an event-less
    tail, the clock after the run drains).  An empty run (``n == 0``)
    materializes no keys or views at all.
    """

    __slots__ = ("start", "n", "done", "popkeys", "blocks", "writes")

    def __init__(self):
        self.start = 0
        self.n = 0
        self.done = 0
        self.popkeys = None
        self.blocks = None
        self.writes = None


class BatchRunState(_RunState):
    """Drop-in replacement for the scalar reference run state."""

    __slots__ = ('_blocks_l', '_work_l', '_dep_l', '_write_l', '_blocks_a', '_write_a', '_runs', '_event_keys', '_n_pending', '_t_l1_hit', '_t_victim', '_t_l2_dep', '_t_l2_indep', '_t_stride_dep', '_t_stride_indep', '_t_pf_dep', '_t_pf_indep', '_t_miss_overhead', '_miss_window', '_traffic_bytes', '_core_traffic', '_l2_ways', '_l1_ways', '_victim_capacity', '_mlp_accs', '_l1_sets', '_l1_set_mask', '_scratch_writebacks')

    def __init__(self, config, trace, temporal_factory):
        super().__init__(config, trace, temporal_factory)
        self.hierarchy.log_l1_invalidations = True
        # Native-type columns: Python list indexing returns ready-made
        # ints/floats/bools, ~10x cheaper than NumPy scalar extraction.
        # float32 -> float64 is exact, so clock math is unchanged.
        columns = _native_columns(trace)
        self._blocks_l, self._work_l, self._dep_l, self._write_l = columns
        self._blocks_a = [np.asarray(b) for b in trace.blocks]
        self._write_a = [np.asarray(w) for w in trace.write]
        self._runs = [_Run() for _ in range(trace.cores)]
        self._event_keys = [_INF] * trace.cores
        #: Number of runs holding classified-but-uncommitted hits; lets
        #: the dispatcher skip the commit sweep entirely when zero.
        self._n_pending = 0
        # Hoisted per-event constants (all from frozen configs).
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
        self._l1_sets = [l1._sets for l1 in self.hierarchy.l1s]
        self._l1_set_mask = self.hierarchy.l1s[0]._set_mask
        self._scratch_writebacks: list = []

    # ------------------------------------------------------------------
    # Event-granular dispatcher.
    # ------------------------------------------------------------------

    def _run_until(self, limits: "list[int]") -> None:
        cores = self.trace.cores
        runs = self._runs
        keys = self._event_keys
        invalidations = self.hierarchy.l1_invalidations
        core_range = range(cores)
        for core in core_range:
            self._reclassify(core, limits[core])
        while True:
            # Minimum (key, core): identical order to the scalar heap's
            # (clock, core) tuples — strict < keeps the lowest core on
            # ties.
            key = _INF
            core = -1
            for c in core_range:
                if keys[c] < key:
                    key = keys[c]
                    core = c
            if core < 0:
                break
            if self._n_pending:
                # Commit hits the scalar heap would pop before this
                # event: pop key < key, or == key on a lower core.
                for other in core_range:
                    orun = runs[other]
                    done = orun.done
                    if done >= orun.n:
                        continue
                    if other == core:
                        self._apply_hits(core, orun, orun.n)
                        continue
                    popkeys = orun.popkeys
                    n = orun.n
                    if other < core:
                        while done < n and popkeys[done] <= key:
                            done += 1
                    else:
                        while done < n and popkeys[done] < key:
                            done += 1
                    if done > orun.done:
                        self._apply_hits(other, orun, done)
            self._process_event(core)
            if invalidations:
                self._truncate_runs(invalidations)
                invalidations.clear()
            self._reclassify(core, limits[core])
        # Only event-less tails remain: private hits, commute freely.
        for core in core_range:
            run = runs[core]
            if run.done < run.n:
                self._apply_hits(core, run, run.n)

    def _reclassify(self, core: int, limit: int) -> None:
        """Classify the core's next L1-hit run and schedule its event."""
        cursor = self.cursors[core]
        run = self._runs[core]
        run.start = cursor
        run.done = 0
        if cursor >= limit:
            run.n = 0
            self._event_keys[core] = _INF
            return
        clock = self.clocks[core]
        blocks_l = self._blocks_l[core]
        l1 = self.hierarchy.l1s[core]
        # Probe set membership directly (the method call per record
        # dominates on miss-heavy traces).
        sets = self._l1_sets[core]
        set_mask = self._l1_set_mask
        block = blocks_l[cursor]
        if block not in sets[block & set_mask]:
            # Empty run — the next record is immediately an event.
            run.n = 0
            self._event_keys[core] = clock
            return
        window = limit - cursor
        n = 1
        probe = _PROBE if window > _PROBE else window
        while n < probe:
            block = blocks_l[cursor + n]
            if block not in sets[block & set_mask]:
                break
            n += 1
        if n == probe and window > probe:
            arr = self._blocks_a[core]
            base = cursor + n
            chunk = _CHUNK
            while base < limit:
                size = min(chunk, limit - base)
                prefix = l1.resident_prefix(arr[base:base + size])
                base += prefix
                if prefix < size:
                    break
                chunk *= 2
            n = base - cursor
        # Pop keys, replicating the scalar engine's addition order
        # exactly: t = (t + work) then t += l1_hit, one record at a time.
        l1_hit = self._t_l1_hit
        if n <= 16:
            work_l = self._work_l[core]
            popkeys = [clock]
            t = clock
            for k in range(cursor, cursor + n):
                t = t + work_l[k]
                t = t + l1_hit
                popkeys.append(t)
        else:
            interleaved = np.empty(2 * n + 1, dtype=np.float64)
            interleaved[0] = clock
            interleaved[1::2] = self.trace.work[core][cursor:cursor + n]
            interleaved[2::2] = l1_hit
            popkeys = np.cumsum(interleaved)[0::2].tolist()
        run.n = n
        run.popkeys = popkeys
        if n > _PROBE:
            run.blocks = self._blocks_a[core][cursor:cursor + n]
            run.writes = self._write_a[core][cursor:cursor + n]
        else:
            run.blocks = run.writes = None
        self._n_pending += 1
        self._event_keys[core] = popkeys[n] if cursor + n < limit else _INF

    def _apply_hits(self, core: int, run: _Run, upto: int) -> None:
        """Commit run records [done, upto): recency, dirty, stats, clock."""
        k = upto - run.done
        l1 = self.hierarchy.l1s[core]
        if run.blocks is None or k <= _PROBE:
            blocks_l = self._blocks_l[core]
            writes_l = self._write_l[core]
            hit_update = l1.hit_update
            for j in range(run.start + run.done, run.start + upto):
                hit_update(blocks_l[j], writes_l[j])
        else:
            l1.bulk_hit_update(
                run.blocks[run.done:upto], run.writes[run.done:upto]
            )
        l1.stats.hits += k
        self.hierarchy.demand_accesses += k
        if self.measuring:
            self.measured_records += k
        self.cursors[core] += k
        self.clocks[core] = run.popkeys[upto]
        run.done = upto
        if upto == run.n:
            self._n_pending -= 1

    def _process_event(self, core: int) -> None:
        """One L1-missing record, identical to the scalar ``_step``.

        The scalar reference's ``_step`` + ``_off_chip`` pair merged
        into one function with every repeated ``self`` field hoisted to
        a local: this runs once per event, and on miss-dominated traces
        (the STMS sweeps) that is nearly once per record.  Any change to
        the scalar path must be replicated here (the equivalence and
        differential suites catch drift).
        """
        i = self.cursors[core]
        self.cursors[core] = i + 1
        block = self._blocks_l[core][i]
        dep = self._dep_l[core][i]
        write = self._write_l[core][i]
        t = self.clocks[core] + self._work_l[core][i]
        measuring = self.measuring
        if measuring:
            self.measured_records += 1

        hier = self.hierarchy
        hier.demand_accesses += 1
        # Classification guarantees an L1 miss (only this core fills its
        # L1; invalidations truncate runs): count it without re-probing.
        hier.l1s[core].stats.misses += 1
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
            l2._version += 1
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
            l1._version += 1
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

    def _truncate_runs(
        self, invalidations: "list[tuple[int, int]]"
    ) -> None:
        """Shorten classified runs whose blocks an event invalidated.

        The scalar engine would discover the L1 miss when the core's
        clock reached the invalidated record; truncating the run there
        turns that record into the core's next event at exactly the pop
        key the scalar heap would use.
        """
        for core, block in invalidations:
            run = self._runs[core]
            if run.done >= run.n:
                continue
            if run.blocks is not None:
                view = run.blocks[run.done:run.n]
                matches = np.flatnonzero(view == block)
                if not matches.size:
                    continue
                p = run.done + int(matches[0])
            else:
                blocks_l = self._blocks_l[core]
                start = run.start
                for p in range(run.done, run.n):
                    if blocks_l[start + p] == block:
                        break
                else:
                    continue
            run.n = p
            if run.done >= run.n:
                self._n_pending -= 1
            self._event_keys[core] = run.popkeys[p]


def _native_columns(trace):
    """Python-list trace columns, materialized once and cached."""
    cached = getattr(trace, "_native_columns", None)
    if cached is not None:
        return cached
    columns = (
        [np.asarray(b).tolist() for b in trace.blocks],
        [np.asarray(w, dtype=np.float64).tolist() for w in trace.work],
        [np.asarray(d).tolist() for d in trace.dep],
        [np.asarray(w).tolist() for w in trace.write],
    )
    trace._native_columns = columns
    return columns
