"""Unit tests for the config-parallel sweep engine (`repro.sim.sweep`).

The deep bit-identity of the config-parallel path is pinned by the
sweep-shaped differential cases; this module covers the orchestration:
grouping, cache probing, fallback accounting, one-cell groups, and the
stacked classification matching the per-cell hook.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import StmsConfig
from repro.core.index_table import IndexTable, stacked_metadata_columns
from repro.core.stms import StmsPrefetcher
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    job_options,
    run_job,
)
from repro.sim.session import SimSession
from repro.sim.sweep import SweepShared, run_sweep


def _grid_jobs() -> "list[SimJob]":
    """A small fig7-shaped grid: one workload, two sampling points."""
    return [
        SimJob(
            "web-apache",
            PrefetcherKind.STMS,
            scale="test",
            cores=2,
            seed=11,
            stms_overrides=job_options(sampling_probability=probability),
            tag=probability,
        )
        for probability in (1.0, 0.125)
    ]


def _result_fields(result):
    return (
        result.elapsed_cycles,
        result.traffic,
        result.coverage.fully_covered,
        result.coverage.partially_covered,
    )


def test_sweep_matches_per_cell_results():
    """The grouped path lands the same results under the same keys."""
    jobs = _grid_jobs()
    plain = SimSession(enabled=True)
    expected = [run_job(job, plain) for job in jobs]

    session = SimSession(enabled=True)
    results = run_sweep(jobs, session)
    assert [_result_fields(r) for r in results] == [
        _result_fields(r) for r in expected
    ]
    assert session.stats.sweep_invocations == 1
    assert session.stats.sweep_cells == len(jobs)
    assert session.stats.sweep_fallbacks == 0


def test_sweep_serves_cached_cells_without_precompute():
    """A warm grid is served entirely from the session tiers."""
    session = SimSession(enabled=True)
    jobs = _grid_jobs()
    first = run_sweep(jobs, session)
    invocations = session.stats.sweep_invocations
    second = run_sweep(jobs, session)
    assert [_result_fields(r) for r in second] == [
        _result_fields(r) for r in first
    ]
    # Fully cached: no new sweep invocation is counted (and nothing is
    # re-precomputed or re-simulated).
    assert session.stats.sweep_invocations == invocations
    assert session.stats.sim_misses == len(jobs)


def test_sweep_falls_back_per_cell_for_scalar_engine(monkeypatch):
    """Cells the vectorized path cannot express run via run_job."""
    monkeypatch.setenv("REPRO_SIM_ENGINE", "scalar")
    jobs = _grid_jobs()
    session = SimSession(enabled=True)
    results = run_sweep(jobs, session)
    assert session.stats.sweep_fallbacks == len(jobs)
    assert session.stats.sweep_cells == 0
    monkeypatch.delenv("REPRO_SIM_ENGINE")
    reference = [
        run_job(job, SimSession(enabled=True)) for job in _grid_jobs()
    ]
    # Scalar fallback cells still produce the engine-identical results.
    assert [_result_fields(r) for r in results] == [
        _result_fields(r) for r in reference
    ]


def test_runner_groups_grid_jobs_through_sweep():
    """ExperimentRunner.map routes same-trace grid jobs into one sweep
    invocation (the fig7 / mix-contention port)."""
    session = SimSession(enabled=True)
    jobs = _grid_jobs()
    runner = ExperimentRunner(max_workers=1, parallel=False)
    results = runner.map(jobs, session=session)
    assert session.stats.sweep_invocations == 1
    assert session.stats.sweep_cells == len(jobs)
    expected = [run_job(job, SimSession(enabled=True)) for job in jobs]
    assert [_result_fields(r) for r in results] == [
        _result_fields(r) for r in expected
    ]


def test_runner_runs_one_cell_group_as_sweep_of_one():
    """Every trace group, a one-cell group included, takes the sweep
    path; its result is the per-cell ``run_job`` result."""
    job = _grid_jobs()[1]
    session = SimSession(enabled=True)
    runner = ExperimentRunner(max_workers=1)
    (result,) = runner.map([job], session=session)
    assert session.stats.sweep_invocations == 1
    assert session.stats.sweep_cells == 1
    assert session.stats.sweep_fallbacks == 0
    expected = run_job(job, SimSession(enabled=True))
    assert _result_fields(result) == _result_fields(expected)


def test_stacked_columns_match_per_cell_hook():
    """The one stacked pass equals each geometry's per-cell columns."""
    rng = np.random.default_rng(5)
    blocks = [
        rng.integers(0, 4096, size=257, dtype=np.int64) for _ in range(2)
    ]
    geometries = [(16, None), (64, 8), (16, 12), (16, None)]
    stacked = stacked_metadata_columns(blocks, geometries)
    assert set(stacked) == {(16, None), (64, 8), (16, 12)}
    for buckets, tag_bits in set(geometries):
        config = StmsConfig(
            cores=2,
            history_entries=24,
            index_buckets=buckets,
            tag_bits=tag_bits,
        )
        prefetcher = StmsPrefetcher(
            config, DramChannel(), TrafficMeter(cores=2)
        )
        expected_buckets, expected_tags = prefetcher.metadata_columns(blocks)
        got_buckets, got_tags = stacked[(buckets, tag_bits)]
        assert got_buckets == [b.tolist() for b in expected_buckets]
        assert got_tags == (
            None if expected_tags is None
            else [t.tolist() for t in expected_tags]
        )
        assert prefetcher.metadata_geometry() == (buckets, tag_bits)


def test_stacked_columns_rejects_bad_bucket_count():
    with pytest.raises(ValueError):
        stacked_metadata_columns(
            [np.arange(4, dtype=np.int64)], [(12, None)]
        )


def test_shared_lazy_computes_unregistered_geometry():
    """A cell whose geometry was not precomputed is still served."""
    rng = np.random.default_rng(9)
    blocks = [rng.integers(0, 512, size=64, dtype=np.int64)]
    trace = _FakeTrace(blocks)
    shared = SweepShared(trace)
    shared.precompute([(16, None)])
    buckets, tags = shared.metadata_columns((64, 8))
    table = IndexTable(buckets=64, bucket_entries=4, tag_bits=8)
    assert buckets[0].tolist() == table.bucket_of_array(blocks[0]).tolist()
    assert tags[0].tolist() == table.tag_of_array(blocks[0]).tolist()


class _FakeTrace:
    """Just enough of a Trace for SweepShared (blocks only)."""

    def __init__(self, blocks):
        self.blocks = blocks


def test_empty_job_list_is_a_noop():
    assert run_sweep([], SimSession(enabled=True)) == []
