"""The compiled event kernel (``kernel.c``) behind baseline and STMS cells.

Cells without a temporal prefetcher — the stride-only base system of
every baseline and solo-reference run — and STMS cells (a
:class:`~repro.core.config.StmsFactory`; ``sim.engine.run_state_class``
picks the class) step through :class:`NativeRunState`, whose whole machine
lives in C: one kernel call per phase.  The kernel is a direct port of
the scalar reference's per-record step (:mod:`repro.sim.scalar`) and of
STMS's metadata path (``repro.core.stms`` and the index table, history
buffers, bucket buffer, stream engines and prefetch buffers it drives),
and walks records in the same ``(clock, core)`` order, so results are
bit-identical to the reference (``tests/sim/test_engine_differential.py``
pins it).  Other temporal prefetchers stay on the Python batched engine.

What is built when: the cell's ``Machine`` struct and its flat ctypes
buffers (caches, victim FIFOs, MSHRs, DRAM, stride prefetcher, STMS
structures, counters) are built at construction from the configuration
alone (the :class:`~repro.sim.config.SimConfig`, the factory's
:class:`~repro.core.config.StmsConfig`, the trace and
:mod:`repro.prefetchers.params`), in the state a fresh Python machine
starts in, and serve warm-up, the measurement boundary
(``repro_kernel_reset``), the measured phase and the flush
(``repro_kernel_finalize``).  Clocks and cursors come back after each
phase (with the measured phase's miss log), the accounting after the
flush, and the result reads the remaining counters from their buffers:
a kernel cell neither builds nor imports a Python machine model, nor
NumPy.  The trace's columns are read in place (a generated trace's
``array.array``/``bytearray`` buffers or NumPy arrays alike).
:meth:`NativeRunState.sync` alone builds a machine
(:func:`repro.sim.scalar.build_machine`, on its first call) and unpacks
the whole kernel machine into it through NumPy views of the buffers, in
the Python objects' dict/list order, for state snapshots and
:func:`~repro.sim.metrics.check_invariants`.  It never reads the derived
lookup state the kernel alone keeps, built zeroed: a residency byte per
index bucket, and per core the prefetch buffer's current-stream count
and its block count per bin of ``block & 255``.

An STMS miss hashes to its index bucket and tag as it happens, from the
masks :meth:`NativeRunState._build_stms` sets.  The kernel flips the
sampler's coins from a PCG64 of its own (``Machine.coin_rng``), seeded
as :class:`~repro.core.sampling.ProbabilisticSampler` seeds the model's
generator; ``sync`` rebuilds the model's sampler from the flip count
(:func:`_sampler_after`).

Build and load: :mod:`repro.sim.library` compiles ``kernel.c`` once per
machine, caches it and loads it (:func:`~repro.sim.library.load`); the
same library holds the trace emitters' loops, so a cold run has
usually loaded it while generating its traces.  When it is unavailable
the caller falls back to the Python batched engine.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import fields
from itertools import accumulate

from repro.core.codec import HISTORY_ENTRIES_PER_BLOCK, history_capacity
from repro.memory.config import Priority, TrafficCategory
from repro.prefetchers.params import (
    STRIDE_BACKLOG_ACCESSES,
    STRIDE_BUFFER_BLOCKS,
    STRIDE_CONFIRM_THRESHOLD,
    STRIDE_DEGREE,
    STRIDE_REGION_SHIFT,
    STRIDE_TRACKER_ENTRIES,
    TEMPORAL_BACKLOG_ACCESSES,
    backlog_limit,
)
from repro.prefetchers.stats import PrefetcherStats
from repro.sim.config import SimConfig, kernel_cell
from repro.sim.engine import _RunState
from repro.sim.library import (
    COUNTERS,
    Engine,
    KernelUnavailable,
    Machine,
    Pcg64,
    Prefetched,
    Queued,
    address,
    load,
)
from repro.sim.metrics import stms_transfer_counts
from repro.sim.results import CoverageCounts
from repro.workloads.trace import Trace


class NativeRunState(_RunState):
    """A run state whose machine is the compiled kernel's."""

    builds_machine = False

    __slots__ = (
        "_lib", "_factory", "_columns", "_work_f64", "_machine", "_buffers",
        "_boundary",
    )

    def __init__(
        self, config: SimConfig, trace: Trace, temporal_factory=None
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
        self._lib = lib
        self._factory = temporal_factory
        # float32 work widens exactly in the kernel; anything else is
        # copied to float64 (exact for every float32/int value).
        self._work_f64 = not all(
            _in_place(w, _KINDS["work"]) for w in trace.work
        )
        kinds = dict(_KINDS, work=_WORK_F64) if self._work_f64 else _KINDS
        columns = {
            name: [_column(c, kind) for c in getattr(trace, name)]
            for name, kind in kinds.items()
        }
        #: Per-core column buffers (kept alive while the kernel reads
        #: them) and the pointer tables the kernel indexes by core.
        self._columns = (
            columns,
            {
                name: (_P * len(arrays))(*map(address, arrays))
                for name, arrays in columns.items()
            },
        )
        self._buffers: "dict[str, ctypes.Array]" = {}
        #: The STMS structures' stats at the measurement boundary.
        self._boundary: "tuple[list, list] | None" = None
        self._build()

    # ------------------------------------------------------------------
    # Lifecycle: one machine per cell, accounting back.
    # ------------------------------------------------------------------

    def _build(self) -> None:
        """Build the cell's kernel machine from the configuration.

        Its state is a freshly built Python machine's: every structure
        empty and every counter zero, except that no stream engine has a
        source core yet and no MLP accumulator a current interval.
        """
        config, cores = self.config, self.trace.cores
        cmp, timing, dram = config.cmp, config.timing, config.dram
        l1, l2 = cmp.l1_config(0), cmp.l2_config()
        l1_cores, victims = cmp.cores, cmp.l1_victim_blocks
        mshrs, window = cmp.l2_mshrs, timing.core_miss_window
        l1_slots, l2_slots = l1_cores * l1.sets * l1.ways, l2.sets * l2.ways
        victim_slots = l1_cores * max(0, victims)
        b = dict(
            self._columns[1],
            low_priority=(_U8 * cores)(
                *[p is Priority.LOW for p in self.demand_priority]
            ),
            limits=_zeros(_I, cores),
            clocks=_zeros(_F, cores),
            cursors=_zeros(_I, cores),
            l1_tags=_zeros(_I, l1_slots),
            l1_dirty=_zeros(_U8, l1_slots),
            l1_count=_zeros(_I, l1_cores * l1.sets),
            l1_stats=_counters("l1_stats", l1_cores),
            victim_blocks=_zeros(_I, victim_slots),
            victim_dirty=_zeros(_U8, victim_slots),
            victim_count=_zeros(_I, l1_cores),
            victim_hits=_zeros(_I, l1_cores),
            l2_tags=_zeros(_I, l2_slots),
            l2_dirty=_zeros(_U8, l2_slots),
            l2_count=_zeros(_I, l2.sets),
            l2_stats=_counters("l2_stats"),
            mshr_blocks=_zeros(_I, mshrs),
            mshr_complete=_zeros(_F, mshrs),
            mshr_waiters=_zeros(_I, mshrs),
            mshr_stats=_counters("mshr_stats"),
            window=_zeros(_F, cores * window),
            window_count=_zeros(_I, cores),
            traffic=_zeros(_I, len(_CATEGORIES)),
            core_traffic=_zeros(_I, cores * len(_CATEGORIES)),
            coverage=_counters("coverage"),
            core_coverage=_counters("core_coverage", cores),
        )
        # Disabled structures stay NULL and their fields zero: the kernel
        # never reads them.
        scalars = {}
        if config.use_stride:
            b.update(
                tracker=_zeros(_I, cores * STRIDE_TRACKER_ENTRIES * 4),
                tracker_count=_zeros(_I, cores),
                sbuf_blocks=_zeros(_I, cores * STRIDE_BUFFER_BLOCKS),
                sbuf_times=_zeros(_F, cores * STRIDE_BUFFER_BLOCKS * 2),
                sbuf_count=_zeros(_I, cores),
                stride_stats=_counters("stride_stats"),
            )
            scalars.update(
                use_stride=1,
                tracker_entries=STRIDE_TRACKER_ENTRIES,
                stride_buffer_blocks=STRIDE_BUFFER_BLOCKS,
                stride_degree=STRIDE_DEGREE,
                confirm_threshold=STRIDE_CONFIRM_THRESHOLD,
                region_shift=STRIDE_REGION_SHIFT,
                stride_backlog_limit=backlog_limit(
                    STRIDE_BACKLOG_ACCESSES, dram
                ),
            )
        if self.mlp is not None:
            mlp = _zeros(_F, cores * 4)
            # No current interval: start and end at -1.
            mlp[2::4] = mlp[3::4] = [-1.0] * cores
            b["mlp"] = mlp
            b["mlp_count"] = _zeros(_I, cores)
        if self.miss_log is not None:
            # Each phase hands in its own log (_run_until).
            b["miss_log_count"] = _zeros(_I, cores)
        if self._factory is not None:
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
        config, cores = self._factory.config, self.trace.cores
        buckets, width = config.index_buckets, config.bucket_entries
        history = history_capacity(config.history_entries)
        pending = cores * HISTORY_ENTRIES_PER_BLOCK
        residents = config.bucket_buffer_entries
        queue_width = config.address_queue_entries
        buffer_width = config.prefetch_buffer_blocks
        engines = _zeros(Engine, cores)
        for engine in engines:
            engine.source_core = -1
        b.update(
            pf_stats=_counters("pf_stats"),
            stms_counters=_counters("stms_counters"),
            sampler=_counters("sampler"),
            index_tags=_zeros(_I, buckets * width),
            index_ptrs=_zeros(_I, buckets * width * 2),
            index_count=_zeros(_I, buckets),
            index_stats=_counters("index_stats"),
            hist_blocks=_zeros(_I, cores * history),
            hist_marks=_zeros(_U8, cores * history),
            hist_pend_blocks=_zeros(_I, pending),
            hist_pend_marks=_zeros(_U8, pending),
            hist_pend_count=_zeros(_I, cores),
            hist_head=_zeros(_I, cores),
            hist_stats=_counters("hist_stats", cores),
            bb_buckets=_zeros(_I, residents),
            bb_dirty=_zeros(_U8, residents),
            bb_core=_zeros(_I, residents),
            bb_stats=_counters("bb_stats"),
            engines=engines,
            queues=_zeros(Queued, cores * queue_width),
            # Issued maps are unbounded: the kernel stops before a
            # record that could overflow one, and _run_until doubles
            # the room.
            issued=_zeros(Queued, cores * queue_width),
            pbuf=_zeros(Prefetched, cores * buffer_width),
            pbuf_count=_zeros(_I, cores),
            # Derived lookup state: the kernel keeps it, sync never reads
            # it.  int32 bin counts hold any prefetch_buffer_blocks.
            bb_member=_zeros(_U8, buckets),
            pbuf_inflight=_zeros(_I, cores),
            pbuf_filter=_zeros(ctypes.c_int32, cores * _PBUF_BINS),
        )
        probability = config.sampling_probability
        sample_mode = (
            1 if probability >= 1.0 else 0 if probability <= 0.0 else 2
        )
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
            sample_mode=sample_mode,
            # The coins ProbabilisticSampler(seed=config.seed) flips.
            coin_rng=Pcg64.seeded(config.seed),
            sample_probability=probability,
            issued_capacity=queue_width,
            pf_backlog_limit=backlog_limit(
                TEMPORAL_BACKLOG_ACCESSES, self.config.dram
            ),
            index_mask=buckets - 1,
            tag_mask=(
                -1 if config.tag_bits is None else (1 << config.tag_bits) - 1
            ),
        )

    def _hand_over(self, **buffers: ctypes.Array) -> None:
        """Point the machine at new buffers (kept alive in ``_buffers``)."""
        for name, buffer in buffers.items():
            self._buffers[name] = buffer
            setattr(self._machine, name, ctypes.addressof(buffer))

    def _reset_machine(self) -> None:
        """The measurement boundary in C; the STMS structures' stats,
        which it keeps, are noted for the conservation oracle."""
        if self._factory is not None:
            b = self._buffers
            self._boundary = (b["bb_stats"][:], b["hist_stats"][:])
        self._lib.repro_kernel_reset(ctypes.byref(self._machine))

    def _finalize(self, end: float) -> None:
        """The reference flush, in C; the run's accounting comes back."""
        self._lib.repro_kernel_finalize(ctypes.byref(self._machine), end)
        self._collect()

    def _machine_counts(self):
        b, m = self._buffers, self._machine
        return (
            sum(b["l1_stats"][_HITS::COUNTERS["l1_stats"]]),
            sum(b["victim_hits"]),
            b["l2_stats"][_HITS],
            m.dram_busy_cycles,
            (
                PrefetcherStats(*b["pf_stats"])
                if self._factory is not None
                else None
            ),
        )

    def _run_until(self, limits: "list[int]") -> None:
        machine, buffers = self._machine, self._buffers
        cores = self.trace.cores
        buffers["limits"][:] = limits
        log = self.miss_log
        if log is not None:
            # Room for every record of the phase to miss, per core.
            room = [
                max(limit - cursor, 0) * machine.measuring
                for limit, cursor in zip(limits, buffers["cursors"])
            ]
            buffers["miss_log_count"][:] = [0] * cores
            self._hand_over(
                miss_log=_zeros(_I, sum(room)),
                miss_log_base=(_I * cores)(*accumulate(room[:-1], initial=0)),
            )
        while self._lib.repro_kernel_run(ctypes.byref(machine)):
            # The next record could outgrow a stream engine's issued
            # map: double its room.
            width = machine.issued_capacity
            row = width * ctypes.sizeof(Queued)
            issued = buffers["issued"]
            grown = _zeros(Queued, cores * 2 * width)
            for core in range(cores):
                ctypes.memmove(
                    ctypes.addressof(grown) + 2 * row * core,
                    ctypes.addressof(issued) + row * core, row,
                )
            self._hand_over(issued=grown)
            machine.issued_capacity = 2 * width
        self.clocks[:] = buffers["clocks"][:cores]
        self.cursors[:] = buffers["cursors"][:cores]
        if log is not None:
            entries = buffers["miss_log"]
            bases = buffers["miss_log_base"]
            for core, n in enumerate(buffers["miss_log_count"]):
                base = bases[core]
                log[core].extend(entries[base:base + n])

    def _collect(self) -> None:
        """Copy the kernel's accounting into the run state's: measured
        records, traffic, coverage and the MLP accumulators."""
        b, cores = self._buffers, self.trace.cores
        self.measured_records = self._machine.measured_records
        traffic = self.traffic
        traffic._bytes.update(zip(_CATEGORIES, b["traffic"]))
        width = len(_CATEGORIES)
        core_traffic = b["core_traffic"]
        for core in range(cores):
            traffic._core_bytes[core].update(zip(
                _CATEGORIES, core_traffic[core * width:(core + 1) * width]
            ))
        self.coverage = CoverageCounts(*b["coverage"])
        self.core_coverage = _rows(CoverageCounts, b["core_coverage"][:])
        if self.mlp is not None:
            mlp, counts = b["mlp"], b["mlp_count"]
            for core, acc in enumerate(self.mlp._accumulators):
                acc.total, acc.union, acc._current_start, acc._current_end = (
                    mlp[4 * core:4 * core + 4]
                )
                acc.count = counts[core]

    # ------------------------------------------------------------------
    # The reference machine, on demand.
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Build the Python machine (first call only) and unpack the
        whole kernel machine into it."""
        if self.hierarchy is None:
            from repro.sim.scalar import build_machine

            build_machine(self, self._factory)
        self._collect()
        self._unpack(self._machine, self._arrays())

    def _arrays(self) -> dict:
        """NumPy views of the machine's buffers, by name."""
        import numpy as np

        return {
            name: np.frombuffer(buffer, np.dtype(buffer._type_))
            for name, buffer in self._buffers.items()
        }

    def _unpack(self, m: Machine, b: dict) -> None:
        """Rebuild every Python machine object from the kernel's, whose
        buffers ``b`` views as NumPy arrays."""
        import numpy as np

        from repro.memory.cache import CacheStats
        from repro.memory.dram import DramStats
        from repro.memory.mshr import MshrEntry, MshrStats
        from repro.prefetchers.base import PrefetchedBlock
        from repro.prefetchers.stride import StrideStats

        hier, cores = self.hierarchy, self.trace.cores
        hier.demand_accesses = m.demand_accesses
        hier.off_chip_reads = m.off_chip_reads
        l1_stats = _rows(CacheStats, b["l1_stats"].tolist())
        for l1, stats in zip(hier.l1s, l1_stats):
            l1.stats = stats
        for victim, hits in zip(hier.victims, b["victim_hits"].tolist()):
            victim.hits = hits
        (hier.l2.stats,) = _rows(CacheStats, b["l2_stats"].tolist())
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
        (mshrs.stats,) = _rows(MshrStats, b["mshr_stats"].tolist())
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
        dram.stats = DramStats(
            requests=m.dram_requests,
            high_priority_requests=m.dram_high,
            low_priority_requests=m.dram_low,
            busy_cycles=m.dram_busy_cycles,
            queue_cycles=m.dram_queue_cycles,
        )
        dram._busy_until_high = m.dram_busy_high
        dram._busy_until_all = m.dram_busy_all

        stride = self.stride
        if stride is not None:
            (stride.stats,) = _rows(StrideStats, b["stride_stats"].tolist())
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
        from repro.core.bucket_buffer import BucketBufferStats
        from repro.core.history_buffer import HistoryPointer, HistoryStats
        from repro.core.index_table import IndexStats
        from repro.core.stms import StmsCounters
        from repro.core.stream_engine import QueuedAddress
        from repro.prefetchers.base import PrefetchedBlock

        stms = self.temporal
        if self._boundary is not None:
            # The transfer counters the reference notes at the boundary.
            bucket_stats, history_stats = self._boundary
            (stms.bucket_buffer.stats,) = _rows(BucketBufferStats, bucket_stats)
            for history, stats in zip(
                stms.histories, _rows(HistoryStats, history_stats)
            ):
                history.stats = stats
            self.measure_counters = stms_transfer_counts(stms)
        (stms.stats,) = _rows(PrefetcherStats, b["pf_stats"].tolist())
        (stms.counters,) = _rows(StmsCounters, b["stms_counters"].tolist())
        (stms.index.stats,) = _rows(IndexStats, b["index_stats"].tolist())
        for history, stats in zip(
            stms.histories, _rows(HistoryStats, b["hist_stats"].tolist())
        ):
            history.stats = stats
        (stms.bucket_buffer.stats,) = _rows(
            BucketBufferStats, b["bb_stats"].tolist()
        )

        stms.sampler = _sampler_after(
            stms.config.sampling_probability, stms.config.seed,
            *b["sampler"].tolist(),
        )

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

        import numpy as np

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


_INF = float("inf")
#: The kernel's PBUF_BINS: prefetch-buffer filter bins per core.
_PBUF_BINS = 256
_CATEGORIES = tuple(TrafficCategory)
#: Where hits sit in a cache-stats row (CacheStats' first field).
_HITS = 0


_I = ctypes.c_int64
_F = ctypes.c_double
_U8 = ctypes.c_uint8
_P = ctypes.c_void_p
#: Per column, the buffer formats (``memoryview.format``) the kernel
#: reads in place, their width in bytes, and the ``array`` typecode it
#: copies any other column to: int64 blocks, float32 work, and byte
#: flags.
_KINDS = {
    "blocks": (("q",), 8, "q"),
    "work": (("f",), 4, "f"),
    "dep": (("B",), 1, "B"),
    "write": (("B",), 1, "B"),
}
#: Work of a trace whose work is not all float32.
_WORK_F64 = (("d",), 8, "d")


def _in_place(column, kind: tuple) -> bool:
    """Whether the kernel can read ``column`` where it is: a contiguous
    buffer of ``kind``'s element type, writable or a read-only view of
    a whole writable buffer (what :func:`address` reads through)."""
    formats, width, _ = kind
    view = memoryview(column)
    base = memoryview(view.obj) if view.readonly else view
    return (
        view.c_contiguous and view.format in formats
        and view.itemsize == width
        and not base.readonly and base.nbytes == view.nbytes
    )


def _column(column, kind: tuple):
    """One core's column as the kernel reads it: the trace's own buffer
    (no copy) when it already has ``kind``'s type, else a copy."""
    if _in_place(column, kind):
        return column
    return array(kind[2], memoryview(column).tolist())


def _zeros(kind, count: int) -> ctypes.Array:
    """A zeroed C array of ``count`` ``kind`` elements."""
    return (kind * count)()


def _counters(name: str, rows: int = 1) -> ctypes.Array:
    """Zeroed rows of the kernel counter array ``name``."""
    return _zeros(_I, rows * COUNTERS[name])


def _rows(cls, values: list) -> list:
    """One ``cls`` counter object per row of a kernel counter array's
    values."""
    width = len(fields(cls))
    return [cls(*values[i:i + width]) for i in range(0, len(values), width)]


def _sampler_after(
    probability: float, seed: int, flips: int, accepted: int
) -> "ProbabilisticSampler":
    """The sampler the per-flip path leaves after ``flips`` flips,
    ``accepted`` of them accepted: its generator has drawn a batch at
    the first flip past each full one, and the cursor sits in the last."""
    from repro.core.sampling import ProbabilisticSampler

    sampler = ProbabilisticSampler(probability, seed=seed)
    sampler.flips, sampler.accepted = flips, accepted
    if 0.0 < probability < 1.0 and flips:
        batches = -(-flips // sampler._BATCH)
        for _ in range(batches):
            draws = sampler.draw()
        sampler._draws = draws.tolist()
        sampler._cursor = flips - (batches - 1) * sampler._BATCH
    return sampler


def _unpack_ordered(dicts: list, keys, values, counts, width: int) -> None:
    """Refill ``dicts`` in place from the kernel's key and value rows."""
    for row, n in enumerate(counts.tolist()):
        target = dicts[row]
        target.clear()
        if n:
            base = row * width
            target.update(zip(keys[base:base + n].tolist(),
                              values[base:base + n].tolist()))
