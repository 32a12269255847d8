"""Conservation invariant of per-core DRAM traffic attribution.

Every byte the simulator charges is attributed to exactly one
requesting core, so summing the per-core per-category counters must
reproduce the pre-existing global counters *exactly* — not
approximately, and in every category including the STMS meta-data ones
(record streams, index updates, stream lookups) whose requester can
differ from the buffer owner (cross-core stream follows, lazy bucket
write-backs).

Checked over the golden-fixture configurations (the suite workloads and
mixes the drift gate pins, on both engines and several prefetchers) and
over a seeded random config sweep drawn from the differential harness's
generators.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memory.config import TrafficCategory
from repro.sim.batch import BatchRunState
from repro.sim.scalar import ScalarRunState
from repro.sim.results import SimResult, per_workload_breakdown
from repro.sim.runner import (
    PrefetcherKind,
    make_factory,
    make_sim_config,
    make_stms_config,
)
from repro.sim.session import SimSession
from tests.sim.test_engine_differential import (
    _mix_trace,
    _random_machine,
    _random_prefetcher,
    _random_trace,
)

#: The drift gate's pinned workload arguments (see test_golden_figures).
GOLDEN_WORKLOADS = ("web-apache", "sci-ocean")
GOLDEN_MIXES = (
    "mix:oltp-db2+dss-db2",
    "mix:web-apache+sci-ocean",
    "mix:oltp-db2*2+sci-ocean@0.5!low",
)


def _assert_meter_conserved(meter) -> None:
    """Per-core sums equal the global counters, category by category."""
    for category in TrafficCategory:
        total = meter.bytes_for(category)
        attributed = sum(
            meter.core_bytes_for(core, category)
            for core in range(len(meter._core_bytes))
        )
        assert attributed == total, (
            f"{category.value}: attributed {attributed} != global {total}"
        )


def _assert_result_conserved(result: SimResult) -> None:
    """The result's per-core dicts reproduce its global derived sums."""
    assert result.core_traffic_bytes is not None
    totals: "dict[str, int]" = {}
    for per_core in result.core_traffic_bytes:
        for category, count in per_core.items():
            totals[category] = totals.get(category, 0) + count
    metadata = sum(
        totals.get(category.value, 0)
        for category in TrafficCategory
        if category.is_metadata
    )
    useful = (
        totals.get(TrafficCategory.DEMAND_READ.value, 0)
        + totals.get(TrafficCategory.WRITEBACK.value, 0)
        + totals.get(TrafficCategory.USEFUL_PREFETCH.value, 0)
    )
    assert metadata == result.metadata_bytes
    assert useful == result.useful_bytes


def _run_state(state_class, config, trace, factory):
    state = state_class(config, trace, factory)
    state.run_warmup()
    _assert_meter_conserved(state.traffic)
    state.reset_accounting()
    state.run_measured()
    _assert_meter_conserved(state.traffic)
    return state.result("attribution")


@pytest.mark.parametrize("engine", [ScalarRunState, BatchRunState])
@pytest.mark.parametrize(
    "workload", GOLDEN_WORKLOADS + GOLDEN_MIXES
)
def test_golden_configs_conserve_attribution(engine, workload):
    session = SimSession(enabled=True, store=None)
    trace = session.trace(workload, scale="test", cores=2, seed=7)
    config = make_sim_config("test")
    for kind in (
        PrefetcherKind.BASELINE,
        PrefetcherKind.STMS,
        PrefetcherKind.IDEAL_TMS,
    ):
        stms = (
            make_stms_config("test", cores=2)
            if kind is PrefetcherKind.STMS
            else None
        )
        factory = make_factory(kind, stms)
        result = _run_state(engine, config, trace, factory)
        _assert_result_conserved(result)


@pytest.mark.parametrize("seed", range(200, 212))
def test_random_sweep_conserves_attribution(seed):
    """Seeded random (machine x trace x prefetcher) draws, both engines.

    Reuses the differential harness's generators so the sweep covers
    mixes (including asymmetric ones), every prefetcher kind, tiny MSHR
    files, victim buffers on and off, and all the metadata churn those
    imply.
    """
    rng = np.random.default_rng(seed)
    cores = int(rng.integers(1, 5))
    if rng.random() < 0.5:
        trace = _mix_trace(rng, cores, allow_asymmetric=True)
    else:
        trace = _random_trace(rng, cores)
    config = _random_machine(rng, cores)
    for engine in (ScalarRunState, BatchRunState):
        _, factory = _random_prefetcher(
            np.random.default_rng(seed + 1), cores
        )
        result = _run_state(engine, config, trace, factory)
        _assert_result_conserved(result)


def test_per_workload_breakdown_conserves_attribution():
    """Slicing attribution by mix component loses no bytes either."""
    session = SimSession(enabled=True, store=None)
    trace = session.trace(
        "mix:oltp-db2*2+sci-ocean@0.5!low", scale="test", cores=2, seed=7
    )
    factory = make_factory(
        PrefetcherKind.STMS, make_stms_config("test", cores=2)
    )
    result = _run_state(
        BatchRunState, make_sim_config("test"), trace, factory
    )
    pieces = per_workload_breakdown(result)
    assert set(pieces) == {"oltp-db2*2", "sci-ocean@0.5!low"}
    assert sum(
        piece.metadata_bytes for piece in pieces.values()
    ) == result.metadata_bytes
    per_category: "dict[str, int]" = {}
    for piece in pieces.values():
        for category, count in piece.traffic_bytes.items():
            per_category[category] = (
                per_category.get(category, 0) + count
            )
    totals: "dict[str, int]" = {}
    for per_core in result.core_traffic_bytes:
        for category, count in per_core.items():
            totals[category] = totals.get(category, 0) + count
    assert {k: v for k, v in per_category.items() if v} == {
        k: v for k, v in totals.items() if v
    }
