"""Unit tests for the high-level runners and factories, and for the
fan-out's scheduling: the pre-fork preload, the two-level shard
partitioner and the forked map (results equal to the serial ones, one
trace acquisition per group, persisted counters, the platform fallback
and worker errors).  Deep per-cell bit-identity of the parallel path is
pinned by the differential harness (`test_engine_differential.py`)."""

import concurrent.futures
from dataclasses import replace

import pytest

from repro.core.config import StmsConfig
from repro.sim import engine as engine_module
from repro.sim import library
from repro.sim import runner as runner_module
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    _preload_workers,
    _shard_groups,
    compare_prefetchers,
    job_options,
    job_result_key,
    make_factory,
    make_sim_config,
    make_stms_config,
    run_job,
    run_workload,
)
from repro.sim.session import SimSession, set_session
from repro.sim.store import ArtifactStore, encode_result, trace_digest
from repro.sim.sweep import run_sweep
from repro.workloads.suite import SCALES


class TestConfigBuilders:
    def test_sim_config_scales_caches(self):
        config = make_sim_config("test")
        assert config.cmp.l2_size_bytes == int(
            8 * 1024 * 1024 * SCALES["test"].cache_scale
        )

    def test_stms_config_uses_preset_capacities(self):
        config = make_stms_config("test", cores=4)
        assert config.history_entries == SCALES["test"].history_entries
        assert config.index_buckets == SCALES["test"].index_buckets

    def test_stms_config_overrides(self):
        config = make_stms_config(
            "test", cores=2, sampling_probability=0.5, lookahead=6
        )
        assert config.sampling_probability == 0.5
        assert config.lookahead == 6
        assert config.cores == 2


class TestFactories:
    def test_baseline_factory_is_none(self):
        assert make_factory(PrefetcherKind.BASELINE) is None

    def test_each_kind_constructs(self, dram, traffic):
        for kind in (
            PrefetcherKind.IDEAL_TMS,
            PrefetcherKind.STMS,
            PrefetcherKind.FIXED_DEPTH,
            PrefetcherKind.MARKOV,
        ):
            factory = make_factory(
                kind, stms_config=StmsConfig(cores=2, index_buckets=64,
                                             history_entries=256)
            )
            assert factory is not None
            prefetcher = factory(2, dram, traffic, lambda block: False)
            assert prefetcher.cores == 2

    def test_stms_factory_adapts_core_count(self, dram, traffic):
        factory = make_factory(
            PrefetcherKind.STMS,
            stms_config=StmsConfig(cores=4, index_buckets=64,
                                   history_entries=256),
        )
        prefetcher = factory(2, dram, traffic, lambda block: False)
        assert prefetcher.config.cores == 2


class TestRunners:
    def test_run_workload_end_to_end(self):
        result = run_workload(
            "web-apache",
            PrefetcherKind.BASELINE,
            scale="test",
            cores=2,
            seed=1,
        )
        assert result.measured_records > 0
        assert result.prefetcher == "baseline"

    def test_compare_prefetchers_shares_trace(self):
        results = compare_prefetchers(
            "web-apache",
            kinds=[PrefetcherKind.BASELINE, PrefetcherKind.STMS],
            scale="test",
            cores=2,
            seed=1,
        )
        baseline = results[PrefetcherKind.BASELINE]
        stms = results[PrefetcherKind.STMS]
        assert baseline.measured_records == stms.measured_records
        assert stms.speedup_over(baseline) > 0


def _key_job(kind: PrefetcherKind) -> SimJob:
    """A small job carrying the option each kind's key must encode."""
    return SimJob(
        "oltp-db2",
        kind,
        scale="test",
        cores=2,
        seed=5,
        records_per_core=1500,
        stms_overrides=(
            job_options(sampling_probability=0.5)
            if kind is PrefetcherKind.STMS
            else ()
        ),
        factory_options=(
            job_options(depth=2)
            if kind is PrefetcherKind.FIXED_DEPTH
            else ()
        ),
    )


def _other_options(job: SimJob) -> SimJob:
    """The same job with its key-bearing option changed."""
    if job.kind is PrefetcherKind.STMS:
        return replace(
            job, stms_overrides=job_options(sampling_probability=0.25)
        )
    if job.kind is PrefetcherKind.FIXED_DEPTH:
        return replace(job, factory_options=job_options(depth=3))
    return replace(job, use_stride=False)


class TestResultKeyConsistency:
    """The store-aware probe key (``job_result_key``) is the key both
    execution paths cache under: a divergence would turn every warm hit
    into a silent miss."""

    @pytest.mark.parametrize("path", ["run_job", "run_sweep"])
    @pytest.mark.parametrize("kind", list(PrefetcherKind))
    def test_probe_key_hits_after_run(self, kind, path, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        session = SimSession(enabled=True, store=store)
        job = _key_job(kind)
        if path == "run_job":
            result = run_job(job, session)
        else:
            (result,) = run_sweep([job], session)
        trace = session.trace(
            job.workload,
            scale=job.scale,
            cores=job.cores,
            seed=job.seed,
            records_per_core=job.records_per_core,
        )
        # The probe keys by the fingerprint stored in the trace file.
        fingerprint = store.load_trace_fingerprint(
            trace_digest(job.trace_key())
        )
        assert fingerprint == trace.fingerprint()
        key = job_result_key(job, fingerprint, job.cores)
        assert session.lookup_result(key) is result
        # The persisted copy answers the same key in a fresh session.
        fresh = SimSession(enabled=True, store=store)
        assert fresh.lookup_result(key) == result
        # Teeth: the key carries the option, so a changed one misses.
        other = job_result_key(_other_options(job), fingerprint, job.cores)
        assert session.lookup_result(other) is None


class TestWorkerPreload:
    """``_preload_workers`` loads the compiled library before the pool
    forks whenever a worker may generate a trace or step a kernel cell,
    and never otherwise."""

    @staticmethod
    def _jobs(*kinds: PrefetcherKind) -> "list[SimJob]":
        return [SimJob("web-apache", kind, scale="test") for kind in kinds]

    @pytest.fixture
    def loads(self, monkeypatch) -> "list[bool]":
        """One entry per ``library.load`` call, whoever makes it."""
        calls: "list[bool]" = []
        real = library.load

        def counted():
            calls.append(True)
            return real()

        monkeypatch.setattr(library, "load", counted)
        return calls

    @pytest.mark.parametrize(
        "kind", [PrefetcherKind.IDEAL_TMS, PrefetcherKind.MARKOV]
    )
    def test_generating_workers_use_it_for_any_cell(self, kind, loads):
        _preload_workers(self._jobs(kind), generates=False)
        assert not loads
        _preload_workers(self._jobs(kind), generates=True)
        assert loads

    @pytest.mark.parametrize(
        "kind", [PrefetcherKind.BASELINE, PrefetcherKind.STMS]
    )
    def test_kernel_cells_use_it_without_generating(self, kind, loads):
        _preload_workers(
            self._jobs(PrefetcherKind.IDEAL_TMS, kind), generates=False
        )
        assert loads

    def test_scalar_engine_uses_it_only_to_generate(
        self, monkeypatch, loads
    ):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "scalar")
        jobs = self._jobs(PrefetcherKind.BASELINE, PrefetcherKind.STMS)
        _preload_workers(jobs, generates=False)
        assert not loads
        _preload_workers(jobs, generates=True)
        assert loads

    def test_asks_the_engine_dispatch_once_per_kind(self, monkeypatch):
        """The preload picks each cell's run state where
        ``Simulator.run`` does: :func:`run_state_class`."""
        asked = []
        real = engine_module.run_state_class

        def recorded(engine, factory):
            asked.append((engine, factory))
            return real(engine, factory)

        monkeypatch.setattr(engine_module, "run_state_class", recorded)
        kinds = (PrefetcherKind.BASELINE, PrefetcherKind.IDEAL_TMS)
        _preload_workers(
            self._jobs(*kinds, PrefetcherKind.BASELINE), generates=False
        )
        assert len(asked) == len(kinds)
        assert {engine for engine, _ in asked} == {"auto"}
        assert None in {factory for _, factory in asked}


# ----------------------------------------------------------------------
# The two-level shard partitioner.
# ----------------------------------------------------------------------


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
# End-to-end: the fan-out (forks a pool).
# ----------------------------------------------------------------------


def _map(runner: ExperimentRunner, jobs, session: SimSession):
    """``runner.map`` with ``session`` as the process session too."""
    previous = set_session(session)
    try:
        return runner.map(jobs, session=session)
    finally:
        set_session(previous)


def test_cell_parallel_map_matches_serial():
    jobs = _grid_jobs()
    serial = _map(
        ExperimentRunner(max_workers=1, parallel=False),
        jobs,
        SimSession(enabled=True, store=None),
    )
    parallel_session = SimSession(enabled=True, store=None)
    parallel = _map(
        ExperimentRunner(max_workers=2, parallel=True),
        jobs,
        parallel_session,
    )
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
    _map(
        ExperimentRunner(max_workers=2, parallel=True),
        _grid_jobs(),
        SimSession(enabled=True, store=store),
    )
    counters = store.counters()
    assert counters.get("trace_misses", 0) == 1
    assert counters.get("trace_hits", 0) >= 2
    assert counters.get("sweep_cells", 0) == len(_grid_jobs())


def test_workers_get_their_traces_from_the_session(tmp_path):
    """Two unsplit groups on two workers, over a store that holds one
    group's trace: that worker loads it from the store, the other
    generates its own, and each acquisition counts once."""
    store_dir = str(tmp_path / "store")
    seed = 17
    SimSession(enabled=True, store=ArtifactStore(store_dir)).trace(
        "web-apache", scale="test", cores=2, seed=seed
    )
    jobs = [
        SimJob(workload, PrefetcherKind.BASELINE, scale="test", cores=2,
               seed=seed)
        for workload in ("web-apache", "oltp-db2")
    ]
    session = SimSession(enabled=True, store=ArtifactStore(store_dir))
    results = _map(
        ExperimentRunner(max_workers=2, parallel=True), jobs, session
    )
    stats = session.stats
    assert stats.trace_store_hits == 1
    assert stats.trace_misses == 1
    assert stats.trace_hits == 0
    assert stats.sweep_invocations == 2
    serial = [
        run_job(job, SimSession(enabled=True, store=None)) for job in jobs
    ]
    assert _result_keys(results) == _result_keys(serial)


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
    results = _map(ExperimentRunner(max_workers=2, parallel=True), jobs,
                   session)
    # One sweep over the whole group: the serial path, counted once.
    assert session.stats.sweep_invocations == 1
    assert session.stats.sweep_cells == len(jobs)
    reference = [
        run_job(job, SimSession(enabled=True, store=None))
        for job in _grid_jobs()
    ]
    assert _result_keys(results) == _result_keys(reference)


def test_refused_submission_shuts_the_pool_and_runs_serially(monkeypatch):
    """A pool that starts but cannot fork a worker at submission (an
    exhausted process table) is shut down, and every job runs here."""
    shutdowns = []

    class _ForklessPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, *args, **kwargs):
            raise OSError("fork: resource temporarily unavailable")

        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _ForklessPool
    )
    jobs = _grid_jobs()
    session = SimSession(enabled=True, store=None)
    results = _map(ExperimentRunner(max_workers=2, parallel=True), jobs,
                   session)
    assert shutdowns == [True]
    assert session.stats.sweep_invocations == 1
    assert session.stats.sweep_cells == len(jobs)
    assert all(result is not None for result in results)


def _raising_bundle(*args, **kwargs):
    """Module-level (picklable) stand-in for a dying worker."""
    raise ValueError("worker died")


@pytest.mark.slow
def test_worker_exception_propagates(monkeypatch):
    """A worker's error reaches the caller."""
    monkeypatch.setattr(runner_module, "_run_bundle", _raising_bundle)
    with pytest.raises(ValueError):
        _map(
            ExperimentRunner(max_workers=2, parallel=True),
            _grid_jobs(),
            SimSession(enabled=True, store=None),
        )


def _runtime_error_bundle(*args, **kwargs):
    raise RuntimeError("worker failed")


def _kernel_unavailable_bundle(*args, **kwargs):
    raise library.KernelUnavailable("no C compiler ('cc') on PATH")


@pytest.mark.parametrize(
    "bundle, error",
    [
        (_runtime_error_bundle, RuntimeError),
        (_kernel_unavailable_bundle, library.KernelUnavailable),
    ],
    ids=["RuntimeError", "KernelUnavailable"],
)
def test_worker_runtime_error_is_not_a_platform_refusal(
    monkeypatch, bundle, error
):
    """A ``RuntimeError`` a worker raises reaches the caller of ``map``
    instead of rerunning the whole fan-out serially (which would also
    lose the failed workers' counts)."""
    monkeypatch.setattr(runner_module, "_run_bundle", bundle)
    session = SimSession(enabled=True, store=None)
    with pytest.raises(error):
        _map(ExperimentRunner(max_workers=2, parallel=True), _grid_jobs(),
             session)
    assert session.stats.sweep_invocations == 0
    assert session.stats.sim_misses == 0
