"""Tests for the job grid and the parallel experiment runner."""

import pytest

from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    job_options,
    run_job,
)


def _job(kind=PrefetcherKind.BASELINE, **overrides):
    fields = dict(
        workload="web-apache", kind=kind, scale="test", cores=2, seed=3
    )
    fields.update(overrides)
    return SimJob(**fields)


class TestSimJob:
    def test_trace_key_groups_same_trace(self):
        a = _job(PrefetcherKind.BASELINE)
        b = _job(PrefetcherKind.IDEAL_TMS)
        assert a.trace_key() == b.trace_key()

    def test_trace_key_separates_seeds(self):
        assert _job(seed=1).trace_key() != _job(seed=2).trace_key()

    def test_tag_does_not_affect_equality(self):
        assert _job(tag="x") == _job(tag="y")

    def test_job_options_normalizes_order(self):
        assert job_options(b=2, a=1) == job_options(a=1, b=2)

    def test_run_job_applies_overrides(self):
        result = run_job(
            _job(
                PrefetcherKind.STMS,
                stms_overrides=job_options(sampling_probability=1.0),
            )
        )
        assert result.prefetcher == "stms"
        assert result.measured_records > 0

    def test_run_job_collects_miss_log(self):
        result = run_job(_job(collect_miss_log=True))
        assert result.miss_log is not None


class TestRunnerSerial:
    def test_map_preserves_order_and_dedupes(self):
        runner = ExperimentRunner(parallel=False)
        jobs = [
            _job(PrefetcherKind.BASELINE),
            _job(PrefetcherKind.IDEAL_TMS),
            _job(PrefetcherKind.BASELINE),
        ]
        results = runner.map(jobs)
        assert [r.prefetcher for r in results] == [
            "baseline", "ideal-tms", "baseline",
        ]
        assert results[0] is results[2]

    def test_empty_job_list(self):
        assert ExperimentRunner(parallel=False).map([]) == []

    def test_run_grid_shape(self):
        runner = ExperimentRunner(parallel=False)
        grid = runner.run_grid(
            ["web-apache", "oltp-db2"],
            [PrefetcherKind.BASELINE],
            scale="test",
            cores=2,
            seed=3,
        )
        assert set(grid) == {
            ("web-apache", PrefetcherKind.BASELINE),
            ("oltp-db2", PrefetcherKind.BASELINE),
        }


class TestRunnerParallel:
    @pytest.mark.slow
    def test_parallel_matches_serial(self):
        jobs = [
            SimJob(w, k, scale="test", cores=2, seed=3)
            for w in ("web-apache", "oltp-db2")
            for k in (PrefetcherKind.BASELINE, PrefetcherKind.STMS)
        ]
        serial = ExperimentRunner(parallel=False).map(jobs)
        parallel = ExperimentRunner(max_workers=2, parallel=True).map(jobs)
        for s, p in zip(serial, parallel):
            assert s.prefetcher == p.prefetcher
            assert s.elapsed_cycles == p.elapsed_cycles
            assert s.coverage == p.coverage

    def test_single_bundle_runs_in_process(self):
        # One trace recipe -> no pool spin-up even when parallel.
        runner = ExperimentRunner(max_workers=4, parallel=True)
        results = runner.map(
            [_job(PrefetcherKind.BASELINE), _job(PrefetcherKind.MARKOV)]
        )
        assert len(results) == 2


class TestStoreAwareScheduling:
    """map() must skip bundles whose every result is already persisted."""

    def _jobs(self):
        return [
            SimJob(w, k, scale="test", cores=2, seed=3)
            for w in ("web-apache", "oltp-db2")
            for k in (PrefetcherKind.BASELINE, PrefetcherKind.MARKOV)
        ]

    def test_fully_persisted_bundles_are_skipped(self, tmp_path):
        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        runner = ExperimentRunner(parallel=False)
        first = runner.map(
            self._jobs(), session=SimSession(enabled=True, store=store)
        )

        # A fresh session (fresh process analogue) over the same store:
        # both bundles must be served without generating or simulating.
        session = SimSession(enabled=True, store=ArtifactStore(str(tmp_path)))
        second = runner.map(self._jobs(), session=session)
        assert session.stats.bundle_skips == 2
        assert session.stats.sim_misses == 0
        assert session.stats.trace_misses == 0
        assert session.stats.sim_store_hits == 4
        for a, b in zip(first, second):
            assert a.prefetcher == b.prefetcher
            assert a.elapsed_cycles == b.elapsed_cycles
            assert a.coverage == b.coverage
        assert session.store.counters()["bundle_skips"] == 2

    def test_partial_bundle_is_not_skipped(self, tmp_path):
        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        runner = ExperimentRunner(parallel=False)
        jobs = self._jobs()
        runner.map(jobs[:1], session=SimSession(enabled=True, store=store))

        session = SimSession(
            enabled=True, store=ArtifactStore(str(tmp_path))
        )
        results = runner.map(jobs, session=session)
        # web-apache's bundle gained a MARKOV job that is not persisted;
        # oltp-db2's bundle is entirely absent.  The persisted BASELINE
        # result is still served from the probe (one store read, no
        # recompute) — only the three missing jobs simulate.
        assert session.stats.bundle_skips == 0
        assert session.stats.sim_misses == 3
        assert session.stats.sim_store_hits == 1
        assert len(results) == 4
        assert results[0].prefetcher == "baseline"
        assert results[0].elapsed_cycles > 0

    def test_disabled_session_never_consults_store(self, tmp_path):
        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        runner = ExperimentRunner(parallel=False)
        runner.map(
            self._jobs(), session=SimSession(enabled=True, store=store)
        )
        disabled = SimSession(enabled=False)
        runner.map(self._jobs(), session=disabled)
        assert disabled.stats.bundle_skips == 0
        assert disabled.stats.sim_misses == 4


class TestRunnerStoreSharing:
    def test_serial_map_writes_through_session_store(self, tmp_path):
        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=store)
        runner = ExperimentRunner(parallel=False)
        jobs = [_job(PrefetcherKind.BASELINE), _job(PrefetcherKind.MARKOV)]
        results = runner.map(jobs, session=session)
        assert len(results) == 2
        kinds = {entry.kind for entry in store.entries()}
        assert kinds == {"trace", "result"}
        # A fresh session over the same store serves the whole map()
        # from disk — the cross-process scenario, minus the process.
        fresh = SimSession(enabled=True, store=ArtifactStore(str(tmp_path)))
        again = ExperimentRunner(parallel=False).map(jobs, session=fresh)
        assert fresh.stats.sim_misses == 0
        assert fresh.stats.sim_store_hits == 2
        for before, after in zip(results, again):
            assert before == after

    @pytest.mark.slow
    def test_parallel_workers_share_the_store(self, tmp_path):
        from repro.sim.session import SimSession, set_session
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        previous = set_session(SimSession(enabled=True, store=store))
        try:
            jobs = [
                SimJob(w, PrefetcherKind.BASELINE, scale="test",
                       cores=2, seed=11)
                for w in ("web-apache", "oltp-db2")
            ]
            ExperimentRunner(max_workers=2, parallel=True).map(jobs)
            # Workers persisted their traces and results into the
            # shared store (not just their in-process memo).
            kinds = [entry.kind for entry in store.entries()]
            assert kinds.count("trace") == 2
            assert kinds.count("result") == 2
        finally:
            set_session(previous)

    @pytest.mark.slow
    def test_parallel_disabled_session_recomputes_in_workers(self):
        """map(session=disabled) must force full recomputation even on
        the parallel path: workers may not serve from the fork-inherited
        global session's warm tiers."""
        from repro.sim.session import SimSession, set_session

        jobs = [
            SimJob(w, PrefetcherKind.BASELINE, scale="test",
                   cores=2, seed=13)
            for w in ("web-apache", "oltp-db2")
        ]
        warm_global = SimSession(enabled=True)
        previous = set_session(warm_global)
        try:
            ExperimentRunner(parallel=False).map(jobs)  # warm the memo
            disabled = SimSession(enabled=False)
            results = ExperimentRunner(max_workers=2, parallel=True).map(
                jobs, session=disabled
            )
            assert len(results) == 2
            # Worker stat deltas fold into the disabled session: every
            # job simulated, nothing served from any tier.
            assert disabled.stats.sim_misses == 2
            assert disabled.stats.sim_hits == 0
            assert disabled.stats.sim_store_hits == 0
        finally:
            set_session(previous)

    @pytest.mark.slow
    def test_parallel_enabled_session_overrides_disabled_global(
        self, tmp_path
    ):
        """The mirror case: caller passes an enabled, store-backed
        session while the fork-inherited global one is disabled —
        workers must cache and persist on the caller's behalf."""
        from repro.sim.session import SimSession, set_session
        from repro.sim.store import ArtifactStore

        previous = set_session(SimSession(enabled=False))
        try:
            store = ArtifactStore(str(tmp_path))
            caller = SimSession(enabled=True, store=store)
            jobs = [
                SimJob(w, PrefetcherKind.BASELINE, scale="test",
                       cores=2, seed=14)
                for w in ("web-apache", "oltp-db2")
            ]
            ExperimentRunner(max_workers=2, parallel=True).map(
                jobs, session=caller
            )
            kinds = [entry.kind for entry in store.entries()]
            assert kinds.count("result") == 2  # workers persisted
            assert caller.stats.sim_misses == 2
        finally:
            set_session(previous)

    @pytest.mark.slow
    def test_parallel_warm_run_skips_regeneration(self, tmp_path):
        from repro.sim.session import SimSession, set_session
        from repro.sim.store import ArtifactStore

        jobs = [
            SimJob(w, PrefetcherKind.BASELINE, scale="test",
                   cores=2, seed=12)
            for w in ("web-apache", "oltp-db2")
        ]
        cold = SimSession(
            enabled=True, store=ArtifactStore(str(tmp_path))
        )
        previous = set_session(cold)
        try:
            ExperimentRunner(max_workers=2, parallel=True).map(jobs)
            warm = SimSession(
                enabled=True, store=ArtifactStore(str(tmp_path))
            )
            set_session(warm)
            results = ExperimentRunner(max_workers=2, parallel=True).map(
                jobs
            )
            assert len(results) == 2
            assert warm.stats.sim_misses == 0
            assert warm.stats.trace_misses == 0
        finally:
            set_session(previous)


class TestParallelCacheAdoption:
    def test_parallel_results_adopted_by_global_session(self):
        from repro.sim.session import SimSession, set_session

        previous = set_session(SimSession(enabled=True))
        try:
            from repro.sim.session import get_session

            jobs = [
                SimJob(w, PrefetcherKind.BASELINE, scale="test",
                       cores=2, seed=9)
                for w in ("web-apache", "oltp-db2")
            ]
            runner = ExperimentRunner(max_workers=2, parallel=True)
            runner.map(jobs)
            session = get_session()
            # Worker results were merged: a serial re-run is a pure
            # cache hit (no new simulations).
            before = session.stats.sim_misses
            ExperimentRunner(parallel=False).map(jobs)
            assert session.stats.sim_misses == before
            assert session.stats.sim_hits >= 2
        finally:
            set_session(previous)


class TestWorkersRunOnCallersSession:
    """Pool workers run on the session passed to ``map``, never on the
    global session the process happened to hold when it forked them."""

    MIX = "mix:oltp-db2+dss-db2"

    def _mix_jobs(self):
        from repro.experiments import mix_contention

        return [
            SimJob(self.MIX, kind, scale="test", cores=2, seed=7,
                   cmp_overrides=cmp, dram_overrides=dram)
            for _, cmp, dram in mix_contention._points("test")
            for kind in mix_contention._KINDS
        ]

    def test_fan_out_counters_match_serial_after_global_pollution(self):
        from repro.experiments import run_experiment
        from repro.sim.session import SimSession, set_session

        previous = set_session(SimSession(enabled=True, store=None))
        try:
            # Warms the global session's memory tier with every cell
            # below; fresh sessions must not see any of it.
            run_experiment(
                "mix-contention", scale="test", cores=2,
                workloads=(self.MIX,),
            )
            jobs = self._mix_jobs()
            parallel = SimSession(enabled=True, store=None)
            ExperimentRunner(max_workers=2, parallel=True).map(
                jobs, session=parallel
            )
            serial = SimSession(enabled=True, store=None)
            ExperimentRunner(parallel=False).map(jobs, session=serial)
        finally:
            set_session(previous)
        p, s = parallel.stats, serial.stats
        assert p.shm_attaches > 0  # the fan-out really forked workers
        assert p.sim_misses == s.sim_misses == len(jobs)
        assert p.sim_hits + p.sim_store_hits == s.sim_hits + s.sim_store_hits
        assert p.sweep_cells == s.sweep_cells
        assert p.sim_records == s.sim_records > 0

    def test_store_events_in_workers_fold_into_caller(self, tmp_path):
        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=store)
        jobs = [
            SimJob(w, PrefetcherKind.BASELINE, scale="test", cores=2,
                   seed=15)
            for w in ("web-apache", "oltp-db2")
        ]
        ExperimentRunner(max_workers=2, parallel=True).map(
            jobs, session=session
        )
        assert session.stats.store_writes == len(store.entries()) == 4
        assert store.counters()["store_writes"] == 4

    def test_session_pickles_as_its_configuration(self, tmp_path):
        """What a non-fork pool ships to its workers: the enabled flag
        and the store, with an empty memory tier."""
        import pickle

        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        session = SimSession(
            enabled=True, store=ArtifactStore(str(tmp_path)),
            max_memory_results=3,
        )
        run_job(_job(), session)
        clone = pickle.loads(pickle.dumps(session))
        assert clone.enabled and clone.max_memory_results == 3
        assert clone.store.root == session.store.root
        assert clone.store.stats is clone.stats
        assert clone.export_results() == {}
        assert clone.stats.sim_misses == 0
        disabled = pickle.loads(pickle.dumps(SimSession(enabled=False)))
        assert not disabled.enabled and disabled.store is None

    @pytest.mark.slow
    def test_spawned_workers_join_the_callers_store(
        self, tmp_path, monkeypatch
    ):
        """Where fork is unavailable the runner falls back to the
        default start method; spawned workers must still cache and
        count on the caller's behalf."""
        import multiprocessing

        from repro.sim.session import SimSession
        from repro.sim.store import ArtifactStore

        get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method == "fork":
                raise ValueError("fork unavailable")
            return get_context("spawn")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=store)
        jobs = [
            SimJob(w, PrefetcherKind.BASELINE, scale="test", cores=2,
                   seed=16)
            for w in ("web-apache", "oltp-db2")
        ]
        ExperimentRunner(max_workers=2, parallel=True).map(
            jobs, session=session
        )
        assert session.stats.sim_misses == 2
        assert session.stats.store_writes == len(store.entries()) == 4
