"""Hand-worked STMS micro-trace oracle.

One core replays a loop of ``N`` distinct blocks ``K`` times, with ``N``
well above the L2's capacity, so every record misses on chip; the stride
prefetcher is off and every index update is applied (p = 1).  The
expected counts follow from the paper's mechanism alone, not from any
engine:

* pass 1 has nothing to find: ``N`` uncovered misses, ``N`` lookups;
* the first record of pass 2 finds ``b0``'s pointer (the only lookup
  hit), and the stream it launches follows the history past the end of
  pass 1 into pass 2's own entries, so every later record is a
  prefetch hit — fully covered, since records are independent and
  spaced far beyond three DRAM round trips;
* every off-chip read is recorded once: ``K * N`` appends, as many
  applied index updates, and ``ceil(K * N / 12)`` packed writes
  (the last one is the end-of-run flush);
* the stream keeps ``lookahead`` prefetches ahead of the core, so the
  run ends with that many unconsumed (erroneous) prefetches.

Every engine must reproduce these numbers exactly.

A second micro-trace pins the end-of-run flush (``finalize``) on its
own: one core misses on ``12 * 5 + K_PENDING`` distinct blocks that
hash to ``D_DIRTY`` index buckets, with every update applied and no
lookup hit (all tags are new).  Before the flush, five packed writes
are done, ``K_PENDING`` entries wait in the pack buffer and the
``D_DIRTY`` buckets sit dirty in the bucket buffer (each was fetched
once by a lookup, then dirtied in place by its update).  The flush
adds exactly one packed write and ``D_DIRTY`` write-backs: one RECORD
block, ``D_DIRTY`` UPDATE blocks and as many low-priority DRAM
requests.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core.config import StmsConfig
from repro.core.index_table import IndexTable
from repro.memory.config import BLOCK_BYTES, TrafficCategory
from repro.memory.hierarchy import CmpConfig
from repro.sim.batch import BatchRunState
from repro.sim.engine import SimConfig
from repro.sim.scalar import ScalarRunState
from repro.sim.metrics import check_invariants
from repro.sim.runner import PrefetcherKind, make_factory
from tests.conftest import make_trace

N = 300
K = 3
LOOKAHEAD = 12

ENGINES = [
    ScalarRunState,
    BatchRunState,
    pytest.param("native", marks=pytest.mark.skipif(
        shutil.which("cc") is None, reason="no C compiler")),
]


def _engine(engine):
    if engine == "native":
        from repro.sim.native import NativeRunState

        return NativeRunState
    return engine


def _machine() -> SimConfig:
    # L2: 128 blocks (32 sets x 4 ways), well under N.
    return SimConfig(
        cmp=CmpConfig(
            cores=1,
            l1_size_bytes=8 * BLOCK_BYTES,
            l1_ways=2,
            l1_victim_blocks=2,
            l2_size_bytes=128 * BLOCK_BYTES,
            l2_ways=4,
            l2_banks=4,
        ),
        use_stride=False,
    )


def _run(engine):
    engine = _engine(engine)
    config = _machine()
    stms = StmsConfig(
        cores=1,
        history_entries=K * N,
        index_buckets=4096,
        sampling_probability=1.0,
        lookahead=LOOKAHEAD,
    )
    trace = make_trace([list(range(N)) * K], work=5000.0, dep=False)
    state = engine(config, trace, make_factory(PrefetcherKind.STMS, stms))
    state.run_warmup()
    state.reset_accounting()
    state.run_measured()
    result = state.result("stms")
    check_invariants(state, result)
    return state, result


@pytest.mark.parametrize("engine", ENGINES)
def test_looped_stream_matches_hand_worked_counts(engine):
    state, result = _run(engine)
    stms = state.temporal
    assert stms.index.stats.replacements == 0  # b0 survives pass 1
    coverage = result.coverage
    assert coverage.stride_covered == 0
    assert coverage.uncovered == N + 1
    assert coverage.fully_covered == K * N - N - 1
    assert coverage.partially_covered == 0
    history = stms.histories[0].stats
    assert history.appends == K * N
    assert history.packed_writes == -(-K * N // 12)
    assert stms.counters.candidate_updates == K * N
    assert stms.counters.applied_updates == K * N
    assert stms.stats.lookups == N + 1
    assert stms.stats.lookup_hits == 1
    assert stms.stats.useful == K * N - N - 1
    assert stms.stats.erroneous == LOOKAHEAD
    assert stms.stats.issued == K * N - N - 1 + LOOKAHEAD


K_PENDING = 7
D_DIRTY = 3
INDEX_BUCKETS = 8


@pytest.mark.parametrize("engine", ENGINES)
def test_finalize_flushes_pending_history_and_dirty_buckets(engine):
    index = IndexTable(INDEX_BUCKETS)
    blocks = [
        block for block in range(1, 10_000)
        if index.bucket_of(block) < D_DIRTY
    ][:12 * 5 + K_PENDING]
    assert {index.bucket_of(block) for block in blocks} == set(
        range(D_DIRTY)
    )
    stms_config = StmsConfig(
        cores=1,
        history_entries=1024,
        index_buckets=INDEX_BUCKETS,
        sampling_probability=1.0,
    )
    state = _engine(engine)(
        _machine(), make_trace([blocks], work=5000.0, dep=False),
        make_factory(PrefetcherKind.STMS, stms_config),
    )
    state.run_warmup()
    state.reset_accounting()
    state._run_until([len(blocks)])
    state.sync()

    stms = state.temporal
    history, buckets = stms.histories[0], stms.bucket_buffer
    traffic, dram = state.traffic._bytes, state.dram.stats
    assert len(history._pend_blocks) == K_PENDING
    assert dict(buckets._resident) == dict.fromkeys(range(D_DIRTY), True)
    assert history.stats.packed_writes == 5
    assert buckets.stats.writebacks == 0
    assert stms.stats.issued == 0
    record = traffic[TrafficCategory.RECORD_STREAMS]
    update = traffic[TrafficCategory.UPDATE_INDEX]
    assert record == 5 * BLOCK_BYTES
    assert traffic[TrafficCategory.LOOKUP_STREAMS] == D_DIRTY * BLOCK_BYTES
    assert update == 0
    low = dram.low_priority_requests
    assert low == D_DIRTY + 5

    state._finalize(max(state.clocks))
    state.sync()
    dram = state.dram.stats
    assert history.stats.packed_writes == 5 + 1
    assert buckets.stats.writebacks == D_DIRTY
    assert traffic[TrafficCategory.RECORD_STREAMS] == record + BLOCK_BYTES
    assert traffic[TrafficCategory.UPDATE_INDEX] == (
        update + D_DIRTY * BLOCK_BYTES
    )
    assert dram.low_priority_requests == low + 1 + D_DIRTY
    assert dram.requests == dram.high_priority_requests + low + 1 + D_DIRTY
    assert stms.stats.erroneous == 0
    assert not history._pend_blocks
    assert not buckets._resident
    check_invariants(state, state.result("stms"))

