"""Unit tests for the sweep engine (`repro.sim.sweep`).

The deep bit-identity of swept cells is pinned by the sweep-shaped
differential cases; this module covers the orchestration: grouping,
cache probing, fallback accounting and one-cell groups.  It also keeps
the unit tests of the stacked metadata classification
(`repro.core.index_table`), which the benchmark's tracing layer still
wraps by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import StmsConfig
from repro.core.index_table import stacked_metadata_columns
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
from repro.sim.sweep import run_sweep


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
    # re-simulated).
    assert session.stats.sweep_invocations == invocations
    assert session.stats.sim_misses == len(jobs)


def test_sweep_falls_back_per_cell_for_scalar_engine(monkeypatch):
    """Scalar-engine cells are counted as fallbacks, not sweep cells."""
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
    # Scalar-engine cells still produce the engine-identical results.
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


def test_stacked_columns_rejects_bad_bucket_count():
    with pytest.raises(ValueError):
        stacked_metadata_columns(
            [np.arange(4, dtype=np.int64)], [(12, None)]
        )


def test_empty_job_list_is_a_noop():
    assert run_sweep([], SimSession(enabled=True)) == []


def test_cold_fig7_reads_each_result_file_once(tmp_path, monkeypatch):
    """A cold sweep probes the store once per cell, as ``run_sweep``
    builds its key; the cell it then simulates probes only the memory
    tier again (no second read of a file that cannot be there)."""
    from repro.experiments import run_experiment
    from repro.sim.store import ArtifactStore

    reads = []
    load_result = ArtifactStore.load_result

    def counted(store, digest):
        reads.append(digest)
        return load_result(store, digest)

    monkeypatch.setattr(ArtifactStore, "load_result", counted)
    session = SimSession(enabled=True, store=ArtifactStore(str(tmp_path)))
    # In process, so every read is counted here.
    run_experiment("fig7", scale="test", cores=2, session=session,
                   runner=ExperimentRunner(max_workers=1))
    assert session.stats.sim_misses == 16
    assert len(reads) == 16
    assert len(set(reads)) == 16


def test_equal_cells_in_one_sweep_simulate_once(tmp_path):
    """Two equal cells in one sweep both miss the probe; the second is
    served by the memory-tier re-probe, from the first's result."""
    from repro.sim.store import ArtifactStore

    job = _grid_jobs()[1]
    session = SimSession(enabled=True, store=ArtifactStore(str(tmp_path)))
    first, second = run_sweep([job, job], session)
    assert first is second
    assert session.stats.sim_misses == 1
    assert session.stats.sim_hits == 1
