"""Unit tests for the high-level runners and factories."""

from dataclasses import replace

import pytest

from repro.core.config import StmsConfig
from repro.sim.runner import (
    PrefetcherKind,
    SimJob,
    compare_prefetchers,
    job_options,
    job_result_key,
    make_factory,
    make_sim_config,
    make_stms_config,
    run_job,
    run_workload,
)
from repro.sim.session import SimSession
from repro.sim.store import ArtifactStore
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
        assert session.lookup_result(job_result_key(job, trace)) is result
        # The persisted copy answers the same key in a fresh session.
        fresh = SimSession(enabled=True, store=store)
        assert fresh.lookup_result(job_result_key(job, trace)) == result
        # Teeth: the key carries the option, so a changed one misses.
        other = job_result_key(_other_options(job), trace)
        assert session.lookup_result(other) is None
