"""Equivalence gate: the production engine vs. the scalar reference.

The ``batch`` engine is the production engine — the compiled kernel
(`repro.sim.native`) for cells without a temporal prefetcher, the
batched Python engine (`repro.sim.batch`) for the rest; the scalar
`ScalarRunState` is the executable specification.  These tests prove the
acceptance property: identical `SimResult` coverage and traffic counts
(and, stronger, bit-identical clocks and every other counter) on suite
workloads.
"""

import dataclasses
import shutil

import pytest

from repro.sim.batch import BatchRunState
from repro.sim.engine import Simulator
from repro.sim.native import NativeRunState
from repro.sim.runner import PrefetcherKind, make_factory, make_sim_config
from repro.workloads.suite import generate

#: Two suite workloads with very different structure: commercial
#: (pointer-chasing streams + hot sets) and scientific (sweeps).
WORKLOADS = ("web-apache", "sci-ocean")


#: The baseline state classes the ``batch`` engine may pick (the kernel
#: needs a C compiler; where one exists it must load).
BASELINE_STATES = [
    pytest.param(BatchRunState, id="batch"),
    pytest.param(
        NativeRunState,
        id="native",
        marks=pytest.mark.skipif(
            shutil.which("cc") is None, reason="no C compiler"
        ),
    ),
]


def _run(trace, engine, kind):
    config = dataclasses.replace(make_sim_config("test"), engine=engine)
    return Simulator(config).run(trace, make_factory(kind), kind.value)


def _run_state(state_class, config, trace):
    """One baseline cell through a specific run-state class."""
    state = state_class(config, trace, None)
    state.run_warmup()
    state.reset_accounting()
    state.run_measured()
    return state.result("baseline")


def _assert_identical(reference, candidate):
    assert dataclasses.astuple(candidate.coverage) == dataclasses.astuple(
        reference.coverage
    )
    assert candidate.traffic == reference.traffic
    assert candidate.useful_bytes == reference.useful_bytes
    assert candidate.metadata_bytes == reference.metadata_bytes
    assert candidate.l1_hits == reference.l1_hits
    assert candidate.victim_hits == reference.victim_hits
    assert candidate.l2_hits == reference.l2_hits
    assert candidate.measured_records == reference.measured_records
    # Bit-exact, not approximate: the batched engine replicates the
    # scalar engine's float addition order.
    assert candidate.elapsed_cycles == reference.elapsed_cycles
    assert candidate.mlp == reference.mlp
    assert candidate.dram_utilization == reference.dram_utilization


@pytest.fixture(scope="module")
def traces():
    return {
        name: generate(name, scale="test", cores=4, seed=7)
        for name in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "kind", [PrefetcherKind.BASELINE, PrefetcherKind.STMS]
)
def test_batch_matches_scalar(traces, workload, kind):
    reference = _run(traces[workload], "scalar", kind)
    candidate = _run(traces[workload], "batch", kind)
    _assert_identical(reference, candidate)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("state_class", BASELINE_STATES)
def test_baseline_state_matches_scalar(traces, workload, state_class):
    """Both baseline paths — the kernel and its Python fallback."""
    reference = _run(traces[workload], "scalar", PrefetcherKind.BASELINE)
    candidate = _run_state(
        state_class, make_sim_config("test"), traces[workload]
    )
    _assert_identical(reference, candidate)
    assert candidate.core_traffic_bytes == reference.core_traffic_bytes


@pytest.mark.slow
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "kind",
    [
        PrefetcherKind.IDEAL_TMS,
        PrefetcherKind.FIXED_DEPTH,
        PrefetcherKind.MARKOV,
    ],
)
def test_full_matrix(traces, workload, kind):
    reference = _run(traces[workload], "scalar", kind)
    candidate = _run(traces[workload], "batch", kind)
    _assert_identical(reference, candidate)


def test_miss_log_identical(traces):
    config = dataclasses.replace(
        make_sim_config("test"), collect_miss_log=True
    )
    results = {}
    for engine in ("scalar", "batch"):
        engine_config = dataclasses.replace(config, engine=engine)
        results[engine] = Simulator(engine_config).run(
            traces["web-apache"], None, "baseline"
        )
    assert results["batch"].miss_log == results["scalar"].miss_log


def test_unknown_engine_rejected():
    from repro.sim.engine import resolve_engine

    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("warp-drive")


@pytest.mark.parametrize("state_class", BASELINE_STATES)
def test_cross_core_invalidation_stress(state_class):
    """Force inclusive L2 evictions into cores' L1-hit streaks.

    Four cores loop over per-core hot sets (long runs of L1 hits) while
    also thrashing a shared region through a tiny L2, so evictions
    invalidate blocks other cores were about to hit on — exercising
    every engine's inclusive invalidation.
    """
    import numpy as np

    from repro.memory.hierarchy import CmpConfig
    from repro.sim.engine import SimConfig
    from tests.conftest import make_trace

    rng = np.random.default_rng(42)
    per_core = []
    for core in range(4):
        hot = [1000 * (core + 1) + i for i in range(8)]
        shared = list(range(50, 120))
        seq: "list[int]" = []
        while len(seq) < 2500:
            seq.extend(hot * 3)
            seq.extend(
                int(b) for b in rng.choice(shared, size=6)
            )
            seq.append(int(rng.integers(5000, 9000)))
        per_core.append(seq[:2500])
    trace = make_trace(per_core, write=True, warmup_fraction=0.2)
    config = SimConfig(
        cmp=CmpConfig(
            cores=4,
            l1_size_bytes=1024,
            l1_ways=2,
            l1_victim_blocks=2,
            l2_size_bytes=4096,
            l2_ways=4,
            l2_banks=4,
            l2_mshrs=8,
        )
    )
    reference = Simulator(
        dataclasses.replace(config, engine="scalar")
    ).run(trace, None, "baseline")
    candidate = _run_state(state_class, config, trace)
    _assert_identical(reference, candidate)
    # The scenario must actually produce L1 hits and invalidations,
    # otherwise it is not stressing the invalidation path.
    assert reference.l1_hits > 1000


@pytest.mark.parametrize("state_class", BASELINE_STATES)
def test_inclusive_eviction_turns_next_hit_into_miss(state_class):
    """Another core's fill evicts a block this core holds in its L1.

    One-set L2 with 4 ways, one-set L1s, no victim buffers.  Core 1
    fetches A, hits it once, then computes for 10,000 cycles.  Meanwhile
    core 0 fetches B..F: F's L2 fill evicts A (the LRU line) and the
    inclusive L2 invalidates core 1's copy.  Core 1's next read of A
    must miss in its L1 and go off chip, exactly as in the reference.
    """
    import numpy as np

    from repro.memory.hierarchy import CmpConfig
    from repro.sim.engine import SimConfig
    from repro.sim.scalar import ScalarRunState
    from repro.sim.metrics import snapshot_run_state
    from repro.workloads.trace import Trace

    a = 100
    per_core = [
        ([200, 300, 400, 500, 600], [0.0] * 5),
        ([a, a, a], [0.0, 10_000.0, 0.0]),
    ]
    trace = Trace(
        name="inclusive-eviction",
        blocks=[np.array(b, dtype=np.int64) for b, _ in per_core],
        work=[np.array(w, dtype=np.float32) for _, w in per_core],
        dep=[np.zeros(len(b), dtype=bool) for b, _ in per_core],
        write=[np.zeros(len(b), dtype=bool) for b, _ in per_core],
        working_set_blocks=601,
        warmup_fraction=0.0,
    )
    config = SimConfig(
        cmp=CmpConfig(
            cores=2,
            l1_size_bytes=128,
            l1_ways=2,
            l1_victim_blocks=0,
            l2_size_bytes=256,
            l2_ways=4,
            l2_banks=1,
            l2_mshrs=8,
        ),
        use_stride=False,
    )

    def run(cls):
        state = cls(config, trace, None)
        state.run_warmup()
        state.reset_accounting()
        state.run_measured()
        return state, snapshot_run_state(state)

    reference, expected = run(ScalarRunState)
    candidate, snapshot = run(state_class)
    assert snapshot == expected
    l1 = candidate.hierarchy.l1s[1].stats
    assert (l1.hits, l1.misses, l1.invalidations) == (1, 2, 1)
    assert candidate.coverage.uncovered == 7
