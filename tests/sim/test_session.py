"""Tests for the memoizing simulation session."""

import dataclasses

from repro.sim.engine import SimConfig
from repro.sim.runner import (
    PrefetcherKind,
    make_stms_config,
    run_trace,
    run_workload,
)
from repro.sim.session import SimSession
from repro.sim.store import ArtifactStore

from tests.conftest import make_trace


class TestTraceMemo:
    def test_same_recipe_returns_same_object(self):
        session = SimSession(enabled=True)
        first = session.trace("web-apache", scale="test", seed=3)
        second = session.trace("web-apache", scale="test", seed=3)
        assert first is second
        assert session.stats.trace_hits == 1
        assert session.stats.trace_misses == 1

    def test_different_seed_regenerates(self):
        session = SimSession(enabled=True)
        first = session.trace("web-apache", scale="test", seed=3)
        second = session.trace("web-apache", scale="test", seed=4)
        assert first is not second
        assert session.stats.trace_misses == 2

    def test_disabled_session_always_generates(self):
        session = SimSession(enabled=False)
        first = session.trace("web-apache", scale="test", seed=3)
        second = session.trace("web-apache", scale="test", seed=3)
        assert first is not second


class TestFingerprint:
    def test_identical_content_identical_fingerprint(self):
        a = make_trace([[1, 2, 3], [4, 5, 6]])
        b = make_trace([[1, 2, 3], [4, 5, 6]])
        assert a.fingerprint() == b.fingerprint()

    def test_content_changes_fingerprint(self):
        a = make_trace([[1, 2, 3]])
        b = make_trace([[1, 2, 4]])
        assert a.fingerprint() != b.fingerprint()

    def test_write_flag_changes_fingerprint(self):
        a = make_trace([[1, 2, 3]], write=False)
        b = make_trace([[1, 2, 3]], write=True)
        assert a.fingerprint() != b.fingerprint()


class TestSimulationMemo:
    def test_repeat_simulation_served_from_cache(self):
        session = SimSession(enabled=True)
        trace = make_trace([[1, 2, 3] * 50])
        first = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        second = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        assert first is second
        assert session.stats.sim_hits == 1

    def test_prefetcher_kind_separates_entries(self):
        session = SimSession(enabled=True)
        trace = make_trace([[1, 2, 3] * 50])
        run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        run_trace(
            trace, PrefetcherKind.MARKOV, scale="test", session=session
        )
        assert session.stats.sim_misses == 2

    def test_stms_config_separates_entries(self):
        session = SimSession(enabled=True)
        trace = make_trace([[7, 8, 9] * 60])
        for probability in (1.0, 0.5):
            run_trace(
                trace,
                PrefetcherKind.STMS,
                scale="test",
                stms_config=make_stms_config(
                    "test", cores=1, sampling_probability=probability
                ),
                session=session,
            )
        assert session.stats.sim_misses == 2

    def test_sim_config_separates_entries(self):
        session = SimSession(enabled=True)
        trace = make_trace([[1, 2, 3] * 50])
        for use_stride in (True, False):
            run_trace(
                trace,
                PrefetcherKind.BASELINE,
                scale="test",
                sim_config=dataclasses.replace(
                    SimConfig(), use_stride=use_stride
                ),
                session=session,
            )
        assert session.stats.sim_misses == 2

    def test_run_workload_uses_session(self):
        session = SimSession(enabled=True)
        first = run_workload(
            "web-apache",
            PrefetcherKind.BASELINE,
            scale="test",
            cores=2,
            seed=5,
            session=session,
        )
        second = run_workload(
            "web-apache",
            PrefetcherKind.BASELINE,
            scale="test",
            cores=2,
            seed=5,
            session=session,
        )
        assert first is second
        assert session.stats.trace_hits == 1
        assert session.stats.sim_hits == 1

    def test_primed_trace_counts_one_acquisition_once(self, tmp_path):
        """Regression: a memory-tier entry primed from a disk entry
        (warmed by another process) must not be double-counted — the
        old code booked a ``trace_store_hits`` at prime time *and* a
        ``trace_hits`` at first use for the same acquisition."""
        from repro.sim.store import ArtifactStore

        store = ArtifactStore(str(tmp_path))
        producer = SimSession(enabled=True, store=store)
        producer.trace("web-apache", scale="test", cores=2, seed=3)
        [entry] = [e for e in store.entries() if e.kind == "trace"]

        consumer = SimSession(enabled=True, store=None)
        assert consumer.prime_trace(
            "web-apache", "test", 2, 3, None, store.trace_ref(entry.digest)
        )
        # Priming alone counts nothing: no lookup has happened yet.
        assert consumer.stats.trace_store_hits == 0
        assert consumer.stats.trace_hits == 0

        consumer.trace("web-apache", scale="test", cores=2, seed=3)
        consumer.trace("web-apache", scale="test", cores=2, seed=3)
        stats = consumer.stats
        # First lookup is the (single) disk attribution; later lookups
        # are memory hits.  Invariant: hits across tiers + misses ==
        # number of lookups.
        assert stats.trace_store_hits == 1
        assert stats.trace_hits == 1
        assert stats.trace_misses == 0
        assert (
            stats.trace_hits + stats.trace_store_hits + stats.trace_misses
            == 2
        )

    def test_clear_drops_entries(self):
        session = SimSession(enabled=True)
        trace = make_trace([[1, 2, 3] * 50])
        run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        session.clear()
        run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        assert session.stats.sim_misses == 2


class TestCounters:
    def test_sim_records_count_every_simulated_record(self):
        trace = make_trace([[1, 2, 3] * 50, [4, 5, 6] * 40])
        for enabled, runs in ((True, 1), (False, 2)):
            session = SimSession(enabled=enabled, store=None)
            for _ in range(2):
                run_trace(
                    trace, PrefetcherKind.BASELINE, scale="test",
                    session=session,
                )
            assert session.stats.sim_misses == runs
            assert session.stats.sim_records == runs * trace.records

    def test_persist_counters_writes_each_count_once(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=store)
        trace = make_trace([[1, 2, 3] * 50])
        run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        assert store.counters() == {}  # nothing persists on its own
        session.persist_counters()
        session.persist_counters()  # no new counts: no change
        assert store.counters() == {
            "sim_misses": 1,
            "sim_records": trace.records,
            "store_writes": 1,
        }
        run_trace(
            trace, PrefetcherKind.MARKOV, scale="test", session=session
        )
        session.persist_counters()
        assert store.counters()["sim_misses"] == 2
        assert store.counters()["store_writes"] == 2

    def test_attached_store_counts_into_the_session(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        first = SimSession(enabled=True, store=store)
        assert store.stats is first.stats
        second = SimSession(enabled=True, store=store)
        assert store.stats is second.stats
        assert SimSession(enabled=False, store=store).store is None
        assert store.stats is second.stats
