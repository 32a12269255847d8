"""The compiled event kernel (``kernel.c``) behind baseline and STMS cells.

Cells without a temporal prefetcher — the stride-only base system of
every baseline and solo-reference run — and STMS cells (a
:class:`~repro.core.stms.StmsFactory`; ``engine.kernel_cell`` decides)
step through
:class:`NativeRunState`: the scalar reference run state with its
per-record loop replaced by one C call per phase.  The kernel is a
direct port of ``_RunState._step`` / ``_off_chip`` and of STMS's
metadata path (``repro.core.stms`` and the index table, history
buffers, bucket buffer, stream engines and prefetch buffers it drives),
and walks records in the same ``(clock, core)`` order, so results are
bit-identical to the reference (``tests/sim/test_engine_differential.py``
pins it).  Other temporal prefetchers stay on the Python batched engine.

State handoff: a cell's ``Machine`` struct and its flat NumPy buffers
(caches, victim FIFOs, MSHRs, DRAM, stride prefetcher, STMS structures,
counters) are built from the configuration when the cell is
constructed, in the state a freshly built Python machine starts in, and
stay with the cell to the end: warm-up, the measurement boundary
(``repro_kernel_reset``), the measured phase and the end-of-run flush
(``repro_kernel_finalize``) all run on them.  Only what results and the
conservation oracle read is copied back: clocks and cursors after every
phase (with the measured phase's miss log), the counters at the
boundary and after the flush.  Cache sets, MSHR entries, prefetcher
tables and the STMS structures stay in C; :meth:`NativeRunState.sync`
unpacks them, in the Python objects' dict/list order, for state
snapshots.  Three more buffers are derived lookup state the kernel
alone keeps, built zeroed: a residency byte per index bucket for the
bucket buffer, and per core the prefetch buffer's current-stream count
and a count of its blocks per bin of ``block & 255``.  They answer in
one step what the hardware (and the reference's dicts) look up
associatively; ``sync`` never reads them.
An STMS cell's per-record index buckets and tags arrive as int64
arrays, zero-copy, from the sweep's shared classification or the
prefetcher's ``metadata_columns``; its sampler's coin flips are drawn in
the sampler's own batches, handed in one batch at a time as the kernel
asks, and the unused ones go back after each phase (:class:`_Coins`),
so the sampler's RNG stream is the Python path's.
The phase entry points (``run_warmup``, ``run_measured``) and result
assembly are the reference code unchanged.

Build and load: :mod:`repro.sim.library` compiles ``kernel.c`` once per
machine, caches it and loads it (:func:`~repro.sim.library.load`); the
same library holds the trace emitters' loops, so a cold run has
usually loaded it while generating its traces.  When it is unavailable
the caller falls back to the Python batched engine.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import fields

import numpy as np

from repro.core.codec import HISTORY_ENTRIES_PER_BLOCK
from repro.core.history_buffer import HistoryPointer
from repro.core.stream_engine import QueuedAddress
from repro.memory.config import Priority, TrafficCategory
from repro.memory.mshr import MshrEntry
from repro.prefetchers.base import PrefetchedBlock
from repro.sim.config import SimConfig
from repro.sim.engine import _RunState, kernel_cell
from repro.sim.library import (
    ENGINE,
    PREFETCHED,
    QUEUED,
    KernelUnavailable,
    Machine,
    load,
)
from repro.workloads.trace import Trace

class NativeRunState(_RunState):
    """The scalar reference run state, stepped by the compiled kernel."""

    __slots__ = (
        "_lib", "_columns", "_work_f64", "_low_priority", "_machine",
        "_buffers",
    )

    def __init__(
        self, config: SimConfig, trace: Trace, temporal_factory=None,
        shared=None,
    ) -> None:
        lib = load()
        if lib is None:
            raise KernelUnavailable("the compiled event kernel is unavailable")
        if not kernel_cell(temporal_factory):
            raise ValueError(
                "the compiled kernel models cells with no temporal "
                "prefetcher or an STMS one built by StmsFactory"
            )
        super().__init__(config, trace, temporal_factory)
        temporal = self.temporal
        self._lib = lib
        # float32 work widens exactly in the kernel; anything else is
        # handed over as float64 (exact for every float32/int value).
        self._work_f64 = any(
            np.asarray(w).dtype != np.float32 for w in trace.work
        )
        columns = {
            "blocks": _columns(trace.blocks, np.int64),
            "work": _columns(
                trace.work, np.float64 if self._work_f64 else np.float32
            ),
            "dep": _columns(trace.dep, np.uint8),
            "write": _columns(trace.write, np.uint8),
        }
        if temporal is not None:
            # Every record's index bucket and tag, classified once: the
            # sweep's shared pass when one covers this geometry, else a
            # per-cell pass.  Full-address tags alias the block column.
            if shared is not None:
                buckets, tags = shared.metadata_columns(
                    temporal.metadata_geometry()
                )
            else:
                buckets, tags = temporal.metadata_columns(columns["blocks"])
            columns["buckets"] = _columns(buckets, np.int64)
            columns["tags"] = (
                columns["blocks"] if tags is None
                else _columns(tags, np.int64)
            )
        #: Per-core column arrays (kept alive while the kernel reads
        #: them) and the pointer tables the kernel indexes by core.
        self._columns = (
            columns,
            {
                name: np.array([a.ctypes.data for a in arrays], np.uintp)
                for name, arrays in columns.items()
            },
        )
        self._low_priority = np.array(
            [p is Priority.LOW for p in self.demand_priority], dtype=np.uint8
        )
        self._buffers: "dict[str, np.ndarray]" = {}
        self._build()

    # ------------------------------------------------------------------
    # Lifecycle: one machine per cell, counters back.
    # ------------------------------------------------------------------

    def _build(self) -> None:
        """Build the cell's kernel machine from the config.

        Its state is a freshly built Python machine's: every structure
        empty and every counter zero, except that no stream engine has a
        source core yet and no MLP accumulator a current interval.
        Counter rows come from the fresh counter objects, in the layout
        :meth:`_restore_counters` reads back.
        """
        config, cores, hier = self.config, self.trace.cores, self.hierarchy
        timing, dram = config.timing, config.dram
        l1, l2 = hier.l1s[0].config, hier.l2.config
        l1_cores, victims = len(hier.l1s), config.cmp.l1_victim_blocks
        mshrs, window = self.mshrs.capacity, timing.core_miss_window
        l1_slots, l2_slots = l1_cores * l1.sets * l1.ways, l2.sets * l2.ways
        victim_slots = l1_cores * max(0, victims)
        b = dict(
            self._columns[1],
            low_priority=self._low_priority,
            limits=np.zeros(cores, np.int64),
            clocks=np.zeros(cores),
            cursors=np.zeros(cores, np.int64),
            l1_tags=np.zeros(l1_slots, np.int64),
            l1_dirty=np.zeros(l1_slots, np.uint8),
            l1_count=np.zeros(l1_cores * l1.sets, np.int64),
            l1_stats=_stats([l1.stats for l1 in hier.l1s]),
            victim_blocks=np.zeros(victim_slots, np.int64),
            victim_dirty=np.zeros(victim_slots, np.uint8),
            victim_count=np.zeros(l1_cores, np.int64),
            victim_hits=np.zeros(l1_cores, np.int64),
            l2_tags=np.zeros(l2_slots, np.int64),
            l2_dirty=np.zeros(l2_slots, np.uint8),
            l2_count=np.zeros(l2.sets, np.int64),
            l2_stats=_stats([hier.l2.stats]),
            mshr_blocks=np.zeros(mshrs, np.int64),
            mshr_complete=np.zeros(mshrs),
            mshr_waiters=np.zeros(mshrs, np.int64),
            mshr_stats=_stats([self.mshrs.stats]),
            window=np.zeros(cores * window),
            window_count=np.zeros(cores, np.int64),
            traffic=np.zeros(len(_CATEGORIES), np.int64),
            core_traffic=np.zeros(cores * len(_CATEGORIES), np.int64),
            coverage=_stats([self.coverage]),
            core_coverage=_stats(self.core_coverage),
        )
        # Disabled structures stay NULL and their fields zero: the kernel
        # never reads them.
        stride, scalars = self.stride, {}
        if stride is not None:
            tracker_width = stride.tracker_entries
            buffer_width = stride.buffers[0].capacity
            b.update(
                tracker=np.zeros(cores * tracker_width * 4, np.int64),
                tracker_count=np.zeros(cores, np.int64),
                sbuf_blocks=np.zeros(cores * buffer_width, np.int64),
                sbuf_times=np.zeros(cores * buffer_width * 2),
                sbuf_count=np.zeros(cores, np.int64),
                stride_stats=_stats([stride.stats]),
            )
            scalars.update(
                use_stride=1,
                tracker_entries=tracker_width,
                stride_buffer_blocks=buffer_width,
                stride_degree=stride.degree,
                confirm_threshold=stride.confirm_threshold,
                region_shift=stride._region_shift,
                stride_backlog_limit=stride._backlog_limit,
            )
        if self.mlp is not None:
            mlp = np.zeros((cores, 4))
            mlp[:, 2:] = -1.0  # no current interval
            b["mlp"] = mlp.reshape(-1)
            b["mlp_count"] = np.zeros(cores, np.int64)
        if self.miss_log is not None:
            # Each phase hands in its own log (_run_until).
            b["miss_log_count"] = np.zeros(cores, np.int64)
        if self.temporal is not None:
            scalars.update(self._build_stms(b))

        self._machine = Machine(
            cores=cores,
            l1_cores=l1_cores,
            l1_sets=l1.sets,
            l1_ways=l1.ways,
            victim_capacity=victims,
            l2_sets=l2.sets,
            l2_ways=l2.ways,
            mshr_capacity=mshrs,
            miss_window=window,
            track_mlp=self.mlp is not None,
            collect_miss_log=self.miss_log is not None,
            work_f64=self._work_f64,
            t_l1_hit=timing.l1_hit,
            t_victim_hit=timing.victim_hit,
            t_l2_dep=timing.l2_hit_dep,
            t_l2_indep=timing.l2_hit_indep,
            t_stride_dep=timing.stride_hit_dep,
            t_stride_indep=timing.stride_hit_indep,
            t_miss_overhead=timing.miss_issue_overhead,
            dram_transfer=dram.transfer_cycles,
            dram_latency=dram.access_latency_cycles,
            t_pf_dep=timing.prefetch_hit_dep,
            t_pf_indep=timing.prefetch_hit_indep,
            **scalars,
        )
        self._hand_over(**b)

    def _build_stms(self, b: dict) -> dict:
        """Add the empty STMS structures to ``b``; returns the machine's
        STMS fields."""
        stms, cores = self.temporal, self.trace.cores
        config = stms.config
        buckets, width = config.index_buckets, config.bucket_entries
        history = stms.histories[0].capacity
        pending = cores * HISTORY_ENTRIES_PER_BLOCK
        residents = config.bucket_buffer_entries
        queue_width = config.address_queue_entries
        buffer_width = config.prefetch_buffer_blocks
        engines = np.zeros(cores, dtype=ENGINE)
        engines["source_core"] = -1
        b.update(
            pf_stats=_stats([stms.stats]),
            stms_counters=_stats([stms.counters]),
            sampler=np.zeros(2, np.int64),
            index_tags=np.zeros(buckets * width, np.int64),
            index_ptrs=np.zeros(buckets * width * 2, np.int64),
            index_count=np.zeros(buckets, np.int64),
            index_stats=_stats([stms.index.stats]),
            hist_blocks=np.zeros(cores * history, np.int64),
            hist_marks=np.zeros(cores * history, np.uint8),
            hist_pend_blocks=np.zeros(pending, np.int64),
            hist_pend_marks=np.zeros(pending, np.uint8),
            hist_pend_count=np.zeros(cores, np.int64),
            hist_head=np.zeros(cores, np.int64),
            hist_stats=_stats([h.stats for h in stms.histories]),
            bb_buckets=np.zeros(residents, np.int64),
            bb_dirty=np.zeros(residents, np.uint8),
            bb_core=np.zeros(residents, np.int64),
            bb_stats=_stats([stms.bucket_buffer.stats]),
            engines=engines,
            queues=np.zeros(cores * queue_width, dtype=QUEUED),
            # Issued maps are unbounded: the kernel stops before a
            # record that could overflow one, and _run_until doubles
            # the room.
            issued=np.zeros(cores * queue_width, dtype=QUEUED),
            pbuf=np.zeros(cores * buffer_width, dtype=PREFETCHED),
            pbuf_count=np.zeros(cores, np.int64),
            # Derived lookup state: the kernel keeps it, sync never reads
            # it.  int32 bin counts hold any prefetch_buffer_blocks.
            bb_member=np.zeros(buckets, np.uint8),
            pbuf_inflight=np.zeros(cores, np.int64),
            pbuf_filter=np.zeros(cores * _PBUF_BINS, np.int32),
        )
        probability = config.sampling_probability
        return dict(
            stms=1,
            history_capacity=history,
            bucket_entries=width,
            bucket_buffer_capacity=residents,
            prefetch_buffer_blocks=buffer_width,
            lookahead=config.lookahead,
            queue_capacity=queue_width,
            refill_threshold=config.queue_refill_threshold,
            annotate=config.annotate_stream_ends,
            sample_mode=(
                1 if probability >= 1.0 else 0 if probability <= 0.0 else 2
            ),
            issued_capacity=queue_width,
            pf_backlog_limit=stms._backlog_limit,
        )

    def _hand_over(self, **arrays: np.ndarray) -> None:
        """Point the machine at new buffers (kept alive in ``_buffers``)."""
        for name, array in arrays.items():
            if not array.flags.c_contiguous:
                raise ValueError(f"kernel buffer {name} is not contiguous")
            self._buffers[name] = array
            setattr(self._machine, name, array.ctypes.data)

    def reset_accounting(self) -> None:
        """The measurement boundary: the reference reset on the Python
        counters (brought up to date first, so the STMS transfer
        counters it snapshots are current), then the same reset in C."""
        self._restore_counters(self._machine, self._buffers)
        super().reset_accounting()
        self._lib.repro_kernel_reset(ctypes.byref(self._machine))

    def _finalize(self, end: float) -> None:
        """The reference flush, in C; its counters come back."""
        self._lib.repro_kernel_finalize(ctypes.byref(self._machine), end)
        self._restore_counters(self._machine, self._buffers)

    def sync(self) -> None:
        """Unpack the whole kernel machine into the Python objects."""
        self._unpack(self._machine, self._buffers)

    def _run_until(self, limits: "list[int]") -> None:
        machine, buffers = self._machine, self._buffers
        buffers["limits"][:] = limits
        log = self.miss_log
        if log is not None:
            # Room for every record of the phase to miss, per core.
            room = np.maximum(buffers["limits"] - buffers["cursors"], 0)
            room *= machine.measuring
            buffers["miss_log_count"][:] = 0
            self._hand_over(
                miss_log=np.zeros(int(room.sum()), dtype=np.int64),
                miss_log_base=np.cumsum(room) - room,
            )
        coins = (
            _Coins(self.temporal.sampler, machine)
            if machine.sample_mode == 2
            else None
        )
        while self._lib.repro_kernel_run(ctypes.byref(machine)):
            if coins is not None and coins.spent():
                # The next record could flip a coin: hand in the
                # sampler's next batch.
                coins.draw()
                continue
            # The next record could outgrow a stream engine's issued
            # map: double its room.
            width = machine.issued_capacity
            grown = np.zeros((self.trace.cores, 2 * width), dtype=QUEUED)
            grown[:, :width] = buffers["issued"].reshape(-1, width)
            self._hand_over(issued=grown.reshape(-1))
            machine.issued_capacity = 2 * width
        if coins is not None:
            coins.settle()
        cores = self.trace.cores
        self.clocks[:] = buffers["clocks"].tolist()[:cores]
        self.cursors[:] = buffers["cursors"].tolist()[:cores]
        if log is not None:
            entries = buffers["miss_log"]
            bases = buffers["miss_log_base"].tolist()
            for core, n in enumerate(buffers["miss_log_count"].tolist()):
                base = bases[core]
                log[core].extend(entries[base:base + n].tolist())

    def _restore_counters(self, m: Machine, b: dict) -> None:
        """Copy the kernel's counters back: what results and
        :func:`~repro.sim.metrics.check_invariants` read."""
        hier, cores = self.hierarchy, self.trace.cores
        self.measured_records = m.measured_records
        hier.demand_accesses = m.demand_accesses
        hier.off_chip_reads = m.off_chip_reads
        for core, l1 in enumerate(hier.l1s):
            _restore(l1.stats, b["l1_stats"], core)
        for victim, hits in zip(hier.victims, b["victim_hits"].tolist()):
            victim.hits = hits
        _restore(hier.l2.stats, b["l2_stats"], 0)
        _restore(self.mshrs.stats, b["mshr_stats"], 0)

        stats = self.dram.stats
        stats.busy_cycles = m.dram_busy_cycles
        stats.queue_cycles = m.dram_queue_cycles
        stats.requests = m.dram_requests
        stats.high_priority_requests = m.dram_high
        stats.low_priority_requests = m.dram_low
        if self.stride is not None:
            _restore(self.stride.stats, b["stride_stats"], 0)

        traffic = self.traffic
        traffic._bytes.update(zip(_CATEGORIES, b["traffic"].tolist()))
        core_traffic = b["core_traffic"].reshape(cores, -1).tolist()
        for core in range(cores):
            traffic._core_bytes[core].update(
                zip(_CATEGORIES, core_traffic[core])
            )
            _restore(self.core_coverage[core], b["core_coverage"], core)
        _restore(self.coverage, b["coverage"], 0)

        if self.mlp is not None:
            mlp = b["mlp"].reshape(-1, 4).tolist()
            counts = b["mlp_count"].tolist()
            for core, acc in enumerate(self.mlp._accumulators):
                acc.total, acc.union, acc._current_start, acc._current_end = (
                    mlp[core]
                )
                acc.count = counts[core]

        stms = self.temporal
        if stms is not None:
            _restore(stms.stats, b["pf_stats"], 0)
            _restore(stms.counters, b["stms_counters"], 0)
            stms.sampler.flips, stms.sampler.accepted = b["sampler"].tolist()
            _restore(stms.index.stats, b["index_stats"], 0)
            for core, history in enumerate(stms.histories):
                _restore(history.stats, b["hist_stats"], core)
            _restore(stms.bucket_buffer.stats, b["bb_stats"], 0)

    def _unpack(self, m: Machine, b: dict) -> None:
        """Rebuild every Python machine object from the kernel's."""
        hier, cores = self.hierarchy, self.trace.cores
        self.clocks[:] = b["clocks"].tolist()[:cores]
        self.cursors[:] = b["cursors"].tolist()[:cores]
        self._restore_counters(m, b)

        _unpack_ordered([s for l1 in hier.l1s for s in l1._sets],
                        b["l1_tags"], b["l1_dirty"].astype(bool),
                        b["l1_count"], hier.l1s[0].config.ways)
        copies = hier._l1_copies
        copies.clear()
        for core, l1 in enumerate(hier.l1s):
            for block in l1.resident_blocks():
                copies[block] = copies.get(block, 0) | (1 << core)
        _unpack_ordered([v._fifo for v in hier.victims], b["victim_blocks"],
                        b["victim_dirty"].astype(bool), b["victim_count"],
                        max(0, hier.victims[0].capacity))
        _unpack_ordered(hier.l2._sets, b["l2_tags"],
                        b["l2_dirty"].astype(bool), b["l2_count"],
                        hier.l2.config.ways)

        mshrs = self.mshrs
        count = m.mshr_count
        mshrs._entries.clear()
        for block, complete, waiters in zip(
            b["mshr_blocks"][:count].tolist(),
            b["mshr_complete"][:count].tolist(),
            b["mshr_waiters"][:count].tolist(),
        ):
            mshrs._entries[block] = MshrEntry(block, complete, False, waiters)
        mshrs._heap = sorted(
            (entry.complete_at, entry.block)
            for entry in mshrs._entries.values()
        )
        mshrs._min_complete = mshrs._heap[0][0] if mshrs._heap else _INF

        width = self.config.timing.core_miss_window
        window = b["window"].tolist()
        for core, n in enumerate(b["window_count"].tolist()[:cores]):
            self.outstanding[core][:] = window[core * width:core * width + n]

        dram = self.dram
        dram._busy_until_high = m.dram_busy_high
        dram._busy_until_all = m.dram_busy_all

        stride = self.stride
        if stride is not None:
            tracker = b["tracker"].reshape(-1, 4)
            _unpack_ordered(stride._trackers, tracker[:, 0], tracker[:, 1:],
                            b["tracker_count"], stride.tracker_entries)
            width = stride.buffers[0].capacity
            times = b["sbuf_times"].reshape(-1, 2)
            for core, buffer in enumerate(stride.buffers):
                n = int(b["sbuf_count"][core])
                rows = slice(core * width, core * width + n)
                buffer._entries.clear()
                for block, (issued, arrival) in zip(
                    b["sbuf_blocks"][rows].tolist(), times[rows].tolist()
                ):
                    buffer._entries[block] = PrefetchedBlock(
                        block, issued, arrival
                    )
                buffer._stream_counts = {-1: n} if n else {}
        if self.temporal is not None:
            self._unpack_stms(m, b)

    def _unpack_stms(self, m: Machine, b: dict) -> None:
        stms = self.temporal
        index = stms.index
        width = index.bucket_entries
        tags = b["index_tags"].tolist()
        pointers = b["index_ptrs"].reshape(-1, 2).tolist()
        for bucket, n in enumerate(b["index_count"].tolist()):
            base = bucket * width
            index._bucket_tags[bucket][:] = tags[base:base + n]
            index._bucket_ptrs[bucket][:] = [
                tuple.__new__(HistoryPointer, p)
                for p in pointers[base:base + n]
            ]

        capacity = stms.histories[0].capacity
        blocks = b["hist_blocks"].reshape(-1, capacity).tolist()
        marks = b["hist_marks"].astype(bool).reshape(-1, capacity).tolist()
        pending = b["hist_pend_blocks"].reshape(
            -1, HISTORY_ENTRIES_PER_BLOCK).tolist()
        pending_marks = b["hist_pend_marks"].astype(bool).reshape(
            -1, HISTORY_ENTRIES_PER_BLOCK).tolist()
        heads = b["hist_head"].tolist()
        for core, history in enumerate(stms.histories):
            n = int(b["hist_pend_count"][core])
            history._blocks = blocks[core]
            history._marks = marks[core]
            history._pend_blocks = pending[core][:n]
            history._pend_marks = pending_marks[core][:n]
            history.head = heads[core]

        bucket_buffer = stms.bucket_buffer
        n = m.bb_count
        resident = zip(b["bb_buckets"][:n].tolist(),
                       b["bb_dirty"][:n].astype(bool).tolist(),
                       b["bb_core"][:n].tolist())
        bucket_buffer._resident.clear()
        bucket_buffer._dirty_core.clear()
        for bucket, dirty, owner in resident:
            bucket_buffer._resident[bucket] = dirty
            if dirty:
                bucket_buffer._dirty_core[bucket] = owner

        queue_width = stms.config.address_queue_entries
        issued_width = m.issued_capacity
        for core, (engine, row) in enumerate(
            zip(stms.engines, b["engines"].tolist())
        ):
            (engine.serial, active, engine.source_core,
             engine.next_fetch_sequence, engine.consumed_count, head, depth,
             issued, has_paused, has_last, paused, last) = row
            engine.active = bool(active)
            engine.paused_at = (
                tuple.__new__(QueuedAddress, paused) if has_paused else None
            )
            engine.last_consumed = (
                tuple.__new__(QueuedAddress, last) if has_last else None
            )
            ring = b["queues"][core * queue_width:(core + 1) * queue_width]
            engine._queue.clear()
            engine._queue.extend(
                tuple.__new__(QueuedAddress, entry)
                for entry in np.roll(ring, -head)[:depth].tolist()
            )
            start = core * issued_width
            engine._issued.clear()
            for entry in b["issued"][start:start + issued].tolist():
                engine._issued[entry[2]] = tuple.__new__(QueuedAddress, entry)

        buffer_width = stms.config.prefetch_buffer_blocks
        for core, buffer in enumerate(stms.buffers):
            n = int(b["pbuf_count"][core])
            start = core * buffer_width
            buffer._entries.clear()
            counts: "dict[int, int]" = {}
            for entry in b["pbuf"][start:start + n].tolist():
                buffer._entries[entry[0]] = tuple.__new__(
                    PrefetchedBlock, entry
                )
                counts[entry[3]] = counts.get(entry[3], 0) + 1
            buffer._stream_counts = counts


class _Coins:
    """A phase's sampler coins, drawn in the sampler's own batches.

    The kernel first flips the sampler's undrawn remainder, then asks
    (status 1 with the coins spent) for one fresh batch at a time.
    :meth:`settle` hands the unused coins back: the sampler ends with
    exactly the RNG stream, batch and cursor the per-flip Python path
    would leave.
    """

    def __init__(self, sampler, machine) -> None:
        self.sampler = sampler
        self.machine = machine
        self.remainder = len(sampler._draws) - sampler._cursor
        self.batches: "list[np.ndarray]" = []
        #: RNG state before the first fresh batch, then after each one.
        self.states = [sampler._rng.bit_generator.state]
        #: Coins flipped from the batches before the current one.
        self.used = 0
        self._hand_in(
            np.asarray(sampler._draws[sampler._cursor:], dtype=np.uint8)
        )

    def _hand_in(self, coins: np.ndarray) -> None:
        self.current = coins  # kept alive while the kernel reads it
        machine = self.machine
        machine.coins = coins.ctypes.data
        machine.coin_count = len(coins)
        machine.coin_cursor = 0

    def spent(self) -> bool:
        return self.machine.coin_cursor == self.machine.coin_count

    def draw(self) -> None:
        sampler = self.sampler
        self.used += self.machine.coin_count
        batch = sampler._rng.random(sampler._BATCH) < sampler.probability
        self.batches.append(batch)
        self.states.append(sampler._rng.bit_generator.state)
        self._hand_in(batch.view(np.uint8))

    def settle(self) -> None:
        sampler = self.sampler
        used = self.used + self.machine.coin_cursor
        if used <= self.remainder:
            sampler._cursor += used
            last = 0
        else:
            fresh = used - self.remainder
            last = (fresh - 1) // sampler._BATCH + 1
            sampler._draws = self.batches[last - 1].tolist()
            sampler._cursor = fresh - (last - 1) * sampler._BATCH
        if self.batches:
            sampler._rng.bit_generator.state = self.states[last]


_INF = float("inf")
#: The kernel's PBUF_BINS: prefetch-buffer filter bins per core.
_PBUF_BINS = 256
_CATEGORIES = tuple(TrafficCategory)


def _columns(arrays, dtype) -> "list[np.ndarray]":
    """Per-core trace arrays in the kernel's dtype: the trace's own
    arrays (no copy) when they already have it."""
    columns = []
    for array in arrays:
        array = np.asarray(array)
        if array.dtype == np.bool_ and dtype == np.uint8:
            array = array.view(np.uint8)
        columns.append(np.ascontiguousarray(array, dtype=dtype))
    return columns


def _unpack_ordered(dicts: list, keys, values, counts, width: int) -> None:
    """Refill ``dicts`` in place from the kernel's key and value rows."""
    for row, n in enumerate(counts.tolist()):
        target = dicts[row]
        target.clear()
        if n:
            base = row * width
            target.update(zip(keys[base:base + n].tolist(),
                              values[base:base + n].tolist()))


@functools.cache
def _field_names(cls) -> "tuple[str, ...]":
    return tuple(f.name for f in fields(cls))


def _stats(objects) -> np.ndarray:
    """Integer counter dataclasses flattened field by field."""
    return np.array(
        [getattr(o, name) for o in objects
         for name in _field_names(type(o))],
        dtype=np.int64,
    )


def _restore(obj, array: np.ndarray, row: int) -> None:
    """Write row ``row`` of a :func:`_stats` array back into ``obj``."""
    names = _field_names(type(obj))
    values = array[row * len(names):(row + 1) * len(names)].tolist()
    for name, value in zip(names, values):
        setattr(obj, name, value)
