"""Shared-memory trace plane and the two-level scheduler.

Covers the plane module (`repro.sim.shm`): export/attach round-trips
(columns, trace fields, fingerprints) and segment cleanup, the atexit
backstop included.  The runner no longer uses the plane — its cell
shards inherit the parent's trace by fork — so the scheduling cases
cover the cell-shard partitioner and the cell-parallel map: results
equal to the serial ones, one trace acquisition per split group,
persisted counters, the platform-degradation serial fallback and a
worker exception.  Deep per-cell bit-identity of the parallel path is
pinned by the differential harness (`test_engine_differential.py`).
"""

from __future__ import annotations

import concurrent.futures
import glob

import numpy as np
import pytest

from repro.sim import runner as runner_module
from repro.sim import shm
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    _shard_groups,
    job_options,
    run_job,
)
from repro.sim.session import SimSession, set_session
from repro.sim.shm import TracePlane, attach
from repro.sim.store import ArtifactStore, encode_result
from repro.workloads.trace import Trace


def _segments() -> "set[str]":
    return set(glob.glob("/dev/shm/psm_*"))


def _mix_trace() -> Trace:
    """A tiny hand-built trace exercising every metadata field."""
    rng = np.random.default_rng(3)
    cores = 2
    return Trace(
        name="mix:a+b",
        blocks=[
            rng.integers(0, 512, size=97, dtype=np.int64)
            for _ in range(cores)
        ],
        work=[
            rng.random(97).astype(np.float32) * 4 for _ in range(cores)
        ],
        dep=[rng.random(97) < 0.5 for _ in range(cores)],
        write=[rng.random(97) < 0.2 for _ in range(cores)],
        working_set_blocks=512,
        warmup_fraction=0.25,
        core_workloads=["a", "b"],
        core_warmup=[0.25, 0.5],
        core_rates=[1.0, 0.5],
        core_priorities=["high", "low"],
    )


def _grid_jobs(points=(1.0, 0.5, 0.25, 0.125)) -> "list[SimJob]":
    """A single-trace sampling ladder (the level-2 sharding shape)."""
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
        for probability in points
    ]


def _result_keys(results):
    return [encode_result(r) for r in results]


# ----------------------------------------------------------------------
# Export / attach round-trip.
# ----------------------------------------------------------------------


def test_export_attach_round_trip():
    trace = _mix_trace()
    before = _segments()
    with TracePlane() as plane:
        payload = plane.export(trace)
        assert payload is not None
        assert payload.total_bytes > 0
        copy = attach(payload)
        assert copy is not None
        assert copy.fingerprint() == trace.fingerprint()
        assert copy.name == trace.name
        assert copy.core_workloads == trace.core_workloads
        assert copy.core_warmup == trace.core_warmup
        assert copy.core_rates == trace.core_rates
        assert copy.core_priorities == trace.core_priorities
        for core in range(trace.cores):
            np.testing.assert_array_equal(
                copy.blocks[core], trace.blocks[core]
            )
            np.testing.assert_array_equal(
                copy.work[core], trace.work[core]
            )
            np.testing.assert_array_equal(copy.dep[core], trace.dep[core])
            np.testing.assert_array_equal(
                copy.write[core], trace.write[core]
            )
            assert copy.blocks[core].dtype == np.asarray(
                trace.blocks[core]
            ).dtype
            # Zero-copy views are read-only.
            with pytest.raises((ValueError, RuntimeError)):
                copy.blocks[core][0] = 1
    # Plane closed: nothing new in /dev/shm, registry empty.
    assert _segments() <= before
    assert shm._OWNED == {}


def test_attach_after_close_degrades_to_none():
    trace = _mix_trace()
    with TracePlane() as plane:
        payload = plane.export(trace)
    assert attach(payload) is None


def test_export_without_shared_memory_module(monkeypatch):
    monkeypatch.setattr(shm, "_shared_memory", None)
    with TracePlane() as plane:
        assert plane.export(_mix_trace()) is None


def test_atexit_sweep_releases_owned_segments():
    plane = TracePlane()
    payload = plane.export(_mix_trace())
    assert payload is not None
    assert payload.segment in shm._OWNED
    shm._sweep_owned()
    assert shm._OWNED == {}
    assert attach(payload) is None
    plane.close()  # idempotent after the sweep


# ----------------------------------------------------------------------
# The two-level shard partitioner.
# ----------------------------------------------------------------------


def test_shard_groups_identity_when_groups_cover_workers():
    groups = {("a",): [0, 1, 2], ("b",): [3, 4]}
    shards = _shard_groups(groups, workers=2)
    assert shards == [(("a",), [0, 1, 2]), (("b",), [3, 4])]


def test_shard_groups_splits_single_group_across_workers():
    groups = {("a",): list(range(8))}
    shards = _shard_groups(groups, workers=2)
    # Over-decomposed to 2 shards per worker, strided partitions.
    assert len(shards) == 4
    recombined = sorted(i for _, indices in shards for i in indices)
    assert recombined == list(range(8))
    # Strided halving: no shard holds a contiguous prefix of the grid
    # (each spreads across the cost gradient).
    assert all(len(indices) == 2 for _, indices in shards)


def test_shard_groups_never_splits_one_cell_groups():
    """The fixed floor: a one-cell group is never split, however many
    workers idle."""
    groups = {("a",): [0], ("b",): [1]}
    assert _shard_groups(groups, workers=8) == [
        (("a",), [0]),
        (("b",), [1]),
    ]


def test_shard_groups_splits_three_cell_group_when_workers_idle():
    groups = {("a",): [0, 1, 2]}
    shards = _shard_groups(groups, workers=4)
    # Halved down to one-cell shards, stopping at the fixed floor.
    assert sorted(indices for _, indices in shards) == [[0], [1], [2]]
    assert all(key == ("a",) for key, _ in shards)


# ----------------------------------------------------------------------
# End-to-end: cell-parallel map (forks a pool).
# ----------------------------------------------------------------------


def test_cell_parallel_map_matches_serial():
    jobs = _grid_jobs()
    serial_session = SimSession(enabled=True, store=None)
    previous = set_session(serial_session)
    try:
        serial = ExperimentRunner(max_workers=1, parallel=False).map(
            jobs, session=serial_session
        )
    finally:
        set_session(previous)

    parallel_session = SimSession(enabled=True, store=None)
    previous = set_session(parallel_session)
    try:
        parallel = ExperimentRunner(max_workers=2, parallel=True).map(
            jobs, session=parallel_session
        )
    finally:
        set_session(previous)
    assert _result_keys(parallel) == _result_keys(serial)
    stats = parallel_session.stats
    # One trace group, split: the parent generates the trace once, and
    # every shard finds it in the memory tier it inherited.
    assert stats.trace_misses == 1
    assert stats.trace_hits >= 2
    assert stats.sweep_invocations >= 2
    assert stats.sweep_cells == len(jobs)


@pytest.mark.slow
def test_cell_parallel_map_persists_store_counters(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    session = SimSession(enabled=True, store=store)
    previous = set_session(session)
    try:
        ExperimentRunner(max_workers=2, parallel=True).map(
            _grid_jobs(), session=session
        )
    finally:
        set_session(previous)
    counters = store.counters()
    assert counters.get("trace_misses", 0) == 1
    assert counters.get("trace_hits", 0) >= 2
    assert counters.get("sweep_cells", 0) == len(_grid_jobs())


def test_platform_degradation_fallback_runs_serially(monkeypatch):
    """A platform that refuses subprocesses runs every job here."""

    class _RefusingPool:
        def __init__(self, *args, **kwargs):
            raise OSError("platform refused subprocesses")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _RefusingPool
    )
    jobs = _grid_jobs()
    session = SimSession(enabled=True, store=None)
    previous = set_session(session)
    try:
        results = ExperimentRunner(max_workers=2, parallel=True).map(
            jobs, session=session
        )
    finally:
        set_session(previous)
    # One sweep over the whole group: the serial path, counted once.
    assert session.stats.sweep_invocations == 1
    assert session.stats.sweep_cells == len(jobs)
    reference = [
        run_job(job, SimSession(enabled=True, store=None))
        for job in _grid_jobs()
    ]
    assert _result_keys(results) == _result_keys(reference)


def _raising_bundle(*args, **kwargs):
    """Module-level (picklable) stand-in for a dying worker."""
    raise ValueError("worker died")


@pytest.mark.slow
def test_worker_exception_propagates(monkeypatch):
    """A worker's error reaches the caller."""
    monkeypatch.setattr(runner_module, "_run_bundle", _raising_bundle)
    session = SimSession(enabled=True, store=None)
    previous = set_session(session)
    try:
        with pytest.raises(ValueError):
            ExperimentRunner(max_workers=2, parallel=True).map(
                _grid_jobs(), session=session
            )
    finally:
        set_session(previous)
