"""Tests for the content-addressed artifact store and the disk tier.

Covers the robustness guarantees the store makes to the session layer:
corrupted or truncated entries degrade to recompute, schema-version
mismatches invalidate stale entries, concurrent writers of one key
cannot tear an entry (atomic rename), and eviction is LRU by recency.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.experiments import run_experiment
from repro.sim.metrics import CoverageCounts, SimResult
from repro.memory.config import TrafficBreakdown
from repro.prefetchers.base import PrefetcherStats
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    run_trace,
    run_workload,
)
from repro.sim import store as store_module
from repro.sim.session import SimSession, trace_recipe_key
from repro.sim.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    decode_result,
    encode_result,
    estimate_digest,
    key_digest,
    load_trace_ref,
    result_digest,
    trace_digest,
)

from repro.workloads.scales import get_scale
from repro.workloads.trace import Trace

from tests.conftest import make_trace


def make_result(elapsed: float = 1234.5) -> SimResult:
    """A fully-populated result (every optional field present)."""
    return SimResult(
        workload="synthetic",
        prefetcher="stms",
        measured_records=100,
        elapsed_cycles=elapsed,
        coverage=CoverageCounts(3, 2, 5, 1),
        l1_hits=50,
        victim_hits=4,
        l2_hits=11,
        traffic=TrafficBreakdown(0.1, 0.25, 0.125, 0.0625),
        overhead_per_useful_byte=0.4375,
        metadata_bytes=4096,
        useful_bytes=65536,
        mlp=1.375,
        prefetcher_stats=PrefetcherStats(10, 6, 4, 2, 1, 20, 8),
        dram_utilization=0.75,
        miss_log=[[1, 2, 3], [4, 5]],
    )


def _split_trace_file(path: str) -> "tuple[dict, bytes]":
    """A trace file's JSON header and the column bytes after it."""
    with open(path, "rb") as handle:
        payload = handle.read()
    size = int.from_bytes(payload[:8], "little")
    return json.loads(payload[8:8 + size]), payload[8 + size:]


def _write_trace_file(path: str, header: "dict | bytes", body: bytes) -> None:
    """Write a trace file from a header (padded to 8 bytes) and body."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    text += b" " * (-len(text) % 8)
    with open(path, "wb") as handle:
        handle.write(len(text).to_bytes(8, "little") + text + body)


def _truncate(path: str, size: int) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(size)


#: Ways to damage a stored trace file: (path, header, body) -> None.
TRACE_DAMAGE = {
    "truncated-header": lambda path, header, body: _truncate(path, 20),
    "truncated-column": lambda path, header, body: _truncate(
        path, os.path.getsize(path) - len(body) // 2
    ),
    "garbage-header": lambda path, header, body: _write_trace_file(
        path, b"\xff\xfe not json", body
    ),
    "missing-fingerprint": lambda path, header, body: _write_trace_file(
        path, {k: v for k, v in header.items() if k != "fingerprint"}, body
    ),
    "mismatched-fingerprint": lambda path, header, body: _write_trace_file(
        path, dict(header, fingerprint="0" * 32), body
    ),
}


class TestDigests:
    def test_digest_is_stable_and_content_keyed(self):
        key = ("web-apache", (("name", "test"),), 4, 7, None)
        assert trace_digest(key) == trace_digest(key)
        assert trace_digest(key) != trace_digest(key[:-1] + (100,))

    def test_domains_separate(self):
        key = ("x", 1)
        assert trace_digest(key) != result_digest(key)
        assert key_digest("a", key) != key_digest("b", key)

    def test_fig7_job_keys_are_pinned(self, monkeypatch):
        """The store addresses of one fig7 cell (web-apache, STMS at
        12.5% sampling, test scale, 4 cores, seed 7).  A change to
        ``session._freeze``, to a configuration's fields or to how a
        key is spelled re-keys every persisted trace and result; this
        makes such a change deliberate."""
        from repro.sim.runner import job_options, job_result_key
        from repro.workloads.suite import generate

        # The engine in effect is part of the result key.
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        job = SimJob(
            "web-apache", PrefetcherKind.STMS, scale="test", cores=4,
            seed=7, stms_overrides=job_options(sampling_probability=0.125),
        )
        fingerprint = generate(
            "web-apache", scale="test", cores=4, seed=7
        ).fingerprint()
        assert trace_digest(job.trace_key()) == (
            "1e07437efb6f3d85323a759c2999b811"
        )
        assert fingerprint == "ab24b258bdbdfa5358623d856e1a75cd"
        assert result_digest(job_result_key(job, fingerprint, 4)) == (
            "f319cd96c1825129d47f6976081c43ac"
        )


class TestResultCodec:
    def test_round_trip_is_equal(self):
        result = make_result()
        assert decode_result(encode_result(result)) == result

    def test_round_trip_through_json_is_equal(self):
        result = make_result(elapsed=0.1 + 0.2)  # not exactly 0.3
        payload = json.loads(json.dumps(encode_result(result)))
        assert decode_result(payload) == result

    def test_numpy_scalars_encode_as_plain_numbers(self):
        record = {"i": np.int64(3), "f": np.float32(0.5), "b": np.bool_(1)}
        assert json.loads(
            json.dumps(record, default=store_module._json_default)
        ) == {"i": 3, "f": 0.5, "b": True}

    def test_unencodable_value_raises_without_importing_numpy(self):
        """A value JSON cannot encode is rejected without importing
        NumPy to ask whether it is a NumPy scalar."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        done = subprocess.run(
            [sys.executable, "-c",
             "import json, sys\n"
             "from repro.sim.store import _json_default\n"
             "try:\n"
             "    json.dumps({'x': object()}, default=_json_default)\n"
             "except TypeError as exc:\n"
             "    print(json.dumps([str(exc), 'numpy' in sys.modules]))\n"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [
            "not JSON-serializable: object", False
        ]

    def test_none_fields_survive(self):
        result = make_result()
        result.traffic = None
        result.prefetcher_stats = None
        result.miss_log = None
        assert decode_result(encode_result(result)) == result

    def test_record_of_the_hand_written_encoder_round_trips(self, tmp_path):
        """A payload the field-by-field encoder wrote (before
        ``encode_result`` became ``dataclasses.asdict``) decodes to an
        equal result and re-encodes to the same bytes."""
        expected = SimResult(
            workload="mix:oltp-db2+dss-db2",
            prefetcher="stms",
            measured_records=300,
            elapsed_cycles=0.1 + 0.2,
            coverage=CoverageCounts(7, 3, 11, 2),
            l1_hits=50,
            victim_hits=4,
            l2_hits=11,
            traffic=TrafficBreakdown(0.1, 0.25, 0.125, 1 / 3),
            overhead_per_useful_byte=0.4375,
            metadata_bytes=4096,
            useful_bytes=65536,
            mlp=1.375,
            prefetcher_stats=PrefetcherStats(10, 6, 4, 2, 1, 20, 8),
            dram_utilization=0.75,
            miss_log=[[1, 2, 3], [4, 5]],
            core_workloads=["oltp-db2", "dss-db2"],
            core_coverage=[
                CoverageCounts(4, 1, 5, 1), CoverageCounts(3, 2, 6, 1)
            ],
            core_measured_records=[180, 120],
            core_elapsed_cycles=[1000.25, 0.30000000000000004],
            core_mlp=[1.5, 1.25],
            core_traffic_bytes=[
                {"demand_read": 640, "writeback": 64},
                {"demand_read": 128, "lookup_streams": 192},
            ],
        )
        decoded = decode_result(json.loads(HAND_WRITTEN_PAYLOAD))
        assert decoded == expected
        assert json.dumps(encode_result(decoded)) == HAND_WRITTEN_PAYLOAD
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        assert store.save_result(digest, decoded)
        with open(store.result_path(digest)) as handle:
            written = handle.read()
        assert written.endswith(f'"payload": {HAND_WRITTEN_PAYLOAD}}}')

    @pytest.mark.parametrize(
        "experiment", ["fig7", "mix-contention", "fig1-right"]
    )
    def test_encoder_equals_asdict_on_every_result(self, experiment):
        """The field walk writes what ``dataclasses.asdict`` wrote, so
        the stored bytes (and the decoded results) stay the same."""
        session = SimSession(enabled=True, store=None)
        run_experiment(
            experiment, scale="test", session=session,
            runner=ExperimentRunner(parallel=False),
        )
        results = list(session.export_results().values())
        assert results
        for result in results:
            assert encode_result(result) == dataclasses.asdict(result)

    def test_record_with_a_missing_field_is_rejected(self):
        payload = encode_result(make_result())
        del payload["core_mlp"]
        with pytest.raises(KeyError):
            decode_result(payload)


#: One record payload exactly as the hand-written encoder serialized it.
HAND_WRITTEN_PAYLOAD = (
    '{"workload": "mix:oltp-db2+dss-db2", "prefetcher": "stms", '
    '"measured_records": 300, "elapsed_cycles": 0.30000000000000004, '
    '"coverage": {"fully_covered": 7, "partially_covered": 3, '
    '"uncovered": 11, "stride_covered": 2}, "l1_hits": 50, '
    '"victim_hits": 4, "l2_hits": 11, "traffic": {"record_streams": 0.1, '
    '"update_index": 0.25, "lookup_streams": 0.125, '
    '"erroneous_prefetch": 0.3333333333333333}, '
    '"overhead_per_useful_byte": 0.4375, "metadata_bytes": 4096, '
    '"useful_bytes": 65536, "mlp": 1.375, "prefetcher_stats": '
    '{"issued": 10, "useful": 6, "erroneous": 4, "filtered": 2, '
    '"dropped": 1, "lookups": 20, "lookup_hits": 8}, '
    '"dram_utilization": 0.75, "miss_log": [[1, 2, 3], [4, 5]], '
    '"core_workloads": ["oltp-db2", "dss-db2"], "core_coverage": '
    '[{"fully_covered": 4, "partially_covered": 1, "uncovered": 5, '
    '"stride_covered": 1}, {"fully_covered": 3, "partially_covered": 2, '
    '"uncovered": 6, "stride_covered": 1}], '
    '"core_measured_records": [180, 120], '
    '"core_elapsed_cycles": [1000.25, 0.30000000000000004], '
    '"core_mlp": [1.5, 1.25], "core_traffic_bytes": '
    '[{"demand_read": 640, "writeback": 64}, '
    '{"demand_read": 128, "lookup_streams": 192}]}'
)


class TestStoreRoundTrip:
    def test_result_store_and_load(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        assert store.save_result(digest, make_result())
        assert store.load_result(digest) == make_result()
        assert store.stats.store_writes == 1

    def test_trace_store_and_load(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        trace = make_trace([[1, 2, 3], [4, 5, 6]])
        digest = trace_digest(("t",))
        assert store.save_trace(digest, trace)
        loaded = store.load_trace(digest)
        assert loaded is not None
        assert loaded.cores == 2
        np.testing.assert_array_equal(loaded.blocks[0], trace.blocks[0])

    def test_missing_entry_is_plain_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert store.load_result(result_digest(("nope",))) is None
        assert store.stats.store_corrupt_drops == 0


class TestCorruptionTolerance:
    def test_corrupt_result_json_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        store.save_result(digest, make_result())
        with open(store.result_path(digest), "wb") as handle:
            handle.write(b'{"schema": 1, "kind": "sim-res')  # truncated
        assert store.load_result(digest) is None
        assert store.stats.store_corrupt_drops == 1
        assert not os.path.exists(store.result_path(digest))

    def test_valid_json_with_broken_payload_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        record = {
            "schema": SCHEMA_VERSION,
            "kind": "sim-result",
            "payload": {"workload": "w"},  # missing everything else
        }
        with open(store.result_path(digest), "w") as handle:
            json.dump(record, handle)
        assert store.load_result(digest) is None
        assert store.stats.store_corrupt_drops == 1

    @pytest.mark.parametrize("damage", sorted(TRACE_DAMAGE))
    def test_damaged_trace_file_dropped_and_recomputed(
        self, tmp_path, damage
    ):
        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=store)
        trace = session.trace("web-apache", scale="test", cores=2, seed=3)
        path = store.trace_path(trace_digest(
            trace_recipe_key("web-apache", get_scale("test"), 2, 3, None)
        ))
        header, body = _split_trace_file(path)
        TRACE_DAMAGE[damage](path, header, body)
        fresh = SimSession(enabled=True, store=ArtifactStore(str(tmp_path)))
        again = fresh.trace("web-apache", scale="test", cores=2, seed=3)
        assert fresh.stats.store_corrupt_drops == 1
        assert fresh.stats.trace_misses == 1  # regenerated and re-saved
        assert again.fingerprint() == trace.fingerprint()
        assert Trace.load(path).fingerprint() == trace.fingerprint()

    def test_session_falls_back_to_recompute_and_repairs(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        trace = make_trace([[1, 2, 3] * 50])
        session = SimSession(enabled=True, store=store)
        result = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        [entry] = [e for e in store.entries() if e.kind == "result"]
        with open(entry.path, "wb") as handle:
            handle.write(b"\x00garbage")
        fresh = SimSession(enabled=True, store=store)
        recomputed = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=fresh
        )
        assert fresh.stats.sim_misses == 1  # corrupt entry -> recompute
        assert recomputed == result
        # ... and the write-through repaired the entry for the next run.
        final = SimSession(enabled=True, store=store)
        again = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=final
        )
        assert final.stats.sim_store_hits == 1
        assert again == result


class TestSchemaVersioning:
    def test_entry_with_future_schema_invalidated(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("k",))
        store.save_result(digest, make_result())
        with open(store.result_path(digest)) as handle:
            record = json.load(handle)
        record["schema"] = SCHEMA_VERSION + 1
        with open(store.result_path(digest), "w") as handle:
            json.dump(record, handle)
        assert store.load_result(digest) is None
        assert store.stats.store_schema_invalidations == 1
        assert not os.path.exists(store.result_path(digest))

    def test_store_with_other_schema_cleared_on_open(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save_result(result_digest(("k",)), make_result())
        # A file of another format, which no path of this one reads.
        stray = os.path.join(store.root, "traces", f"{'0' * 32}.npz")
        np.savez(stray, blocks_0=np.arange(4))
        with open(os.path.join(str(tmp_path), "schema.json"), "w") as f:
            json.dump({"schema": SCHEMA_VERSION + 1}, f)
        reopened = ArtifactStore(str(tmp_path))
        assert reopened.stats.store_schema_invalidations == 1
        assert reopened.entries() == []
        assert not os.path.exists(stray)
        # The stamp was rewritten: a third open keeps (new) entries.
        reopened.save_result(result_digest(("k2",)), make_result())
        third = ArtifactStore(str(tmp_path))
        assert len(third.entries()) == 1


    @pytest.mark.parametrize("stamp", ["[5]", "{not json", '"5"'])
    def test_unreadable_stamp_restamps_the_store(self, tmp_path, stamp):
        (tmp_path / "schema.json").write_text(stamp)
        ArtifactStore(str(tmp_path))
        with open(tmp_path / "schema.json") as handle:
            assert json.load(handle) == {"schema": SCHEMA_VERSION}


class TestTraceFileHeader:
    """Every persisted trace carries its fingerprint in its file's
    header, which a warm run reads instead of the columns."""

    @pytest.mark.parametrize(
        "workload", ["web-apache", "mix:oltp-db2*2+dss-db2@0.5!low"]
    )
    def test_header_holds_the_loaded_traces_fingerprint(
        self, tmp_path, workload
    ):
        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=store)
        trace = session.trace(workload, scale="test", cores=2, seed=3)
        digest = trace_digest(
            trace_recipe_key(workload, get_scale("test"), 2, 3, None)
        )
        fingerprint = store.load_trace_fingerprint(digest)
        assert fingerprint == trace.fingerprint()
        assert fingerprint == Trace.load(store.trace_path(digest)).fingerprint()

    def test_schema_4_store_with_npz_traces_is_emptied_on_open(
        self, tmp_path
    ):
        # A schema-4 trace is an npz archive; no path reads it.
        old_trace = tmp_path / "traces" / f"{'0' * 32}.npz"
        old_result = tmp_path / "results" / f"{'1' * 32}.json"
        os.makedirs(old_trace.parent)
        os.makedirs(old_result.parent)
        np.savez(str(old_trace), meta_name=np.array(["old"]))
        old_result.write_text('{"schema": 4, "kind": "sim-result"}')
        with open(tmp_path / "schema.json", "w") as handle:
            json.dump({"schema": 4}, handle)
        store = ArtifactStore(str(tmp_path))
        assert store.stats.store_schema_invalidations == 1
        assert store.entries() == []
        assert os.listdir(old_trace.parent) == []
        assert os.listdir(old_result.parent) == []

    @pytest.mark.parametrize(
        "damage", ["missing-fingerprint", "mismatched-fingerprint"]
    )
    def test_bad_fingerprint_is_dropped_and_the_bundle_recomputes(
        self, tmp_path, damage
    ):
        store = ArtifactStore(str(tmp_path))
        jobs = [
            SimJob("web-apache", kind, scale="test", cores=2, seed=3)
            for kind in (PrefetcherKind.BASELINE, PrefetcherKind.STMS)
        ]
        runner = ExperimentRunner(parallel=False)
        cold = runner.map(jobs, SimSession(enabled=True, store=store))
        path = store.trace_path(trace_digest(jobs[0].trace_key()))
        TRACE_DAMAGE[damage](path, *_split_trace_file(path))
        session = SimSession(enabled=True, store=ArtifactStore(str(tmp_path)))
        assert runner.map(jobs, session) == cold
        assert session.stats.store_corrupt_drops == 1
        assert session.stats.trace_misses == 1  # regenerated and re-saved
        assert store.load_trace_fingerprint(
            trace_digest(jobs[0].trace_key())
        ) == Trace.load(path).fingerprint()


class TestConcurrentWriters:
    def test_same_key_writers_never_tear(self, tmp_path):
        """Concurrent writers of one key: readers always see a complete
        entry (atomic rename), and the final value is one of theirs."""
        store = ArtifactStore(str(tmp_path))
        digest = result_digest(("contended",))
        variants = [make_result(elapsed=float(i + 1)) for i in range(4)]
        errors: "list[str]" = []

        def write(result: SimResult) -> None:
            for _ in range(25):
                ArtifactStore(str(tmp_path)).save_result(digest, result)

        def read() -> None:
            for _ in range(100):
                loaded = ArtifactStore(str(tmp_path)).load_result(digest)
                if loaded is not None and loaded not in variants:
                    errors.append("torn or foreign entry observed")

        threads = [
            threading.Thread(target=write, args=(variant,))
            for variant in variants
        ] + [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = store.load_result(digest)
        assert final in variants


class TestGc:
    def _fill(self, store: ArtifactStore, count: int) -> "list[str]":
        digests = [result_digest(("entry", i)) for i in range(count)]
        for i, digest in enumerate(digests):
            store.save_result(digest, make_result(elapsed=float(i)))
            # Distinct mtimes so LRU order is well-defined.
            os.utime(store.result_path(digest), (i, i))
        return digests

    def test_gc_evicts_lru_first(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digests = self._fill(store, 4)
        entry_size = store.entries()[0].size_bytes
        evicted = store.gc(max_bytes=2 * entry_size)
        assert evicted == 2
        assert store.stats.store_evictions == 2
        assert store.load_result(digests[0]) is None  # oldest gone
        assert store.load_result(digests[3]) is not None

    def test_read_refreshes_recency(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digests = self._fill(store, 4)
        assert store.load_result(digests[0]) is not None  # touch oldest
        store.gc(max_bytes=store.entries()[0].size_bytes)
        survivors = {entry.digest for entry in store.entries()}
        assert survivors == {digests[0]}

    def test_auto_gc_respects_cap(self, tmp_path):
        probe = ArtifactStore(str(tmp_path / "probe"))
        probe.save_result(result_digest(("p",)), make_result())
        entry_size = probe.entries()[0].size_bytes
        store = ArtifactStore(
            str(tmp_path / "capped"), max_bytes=2 * entry_size
        )
        self._fill(store, 5)
        assert len(store.entries()) <= 2
        assert store.stats.store_evictions >= 3

    def test_gc_without_cap_is_noop(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 2)
        assert store.gc() == 0
        assert len(store.entries()) == 2


class TestTwoTierSession:
    def test_new_process_equivalent_session_hits_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = SimSession(enabled=True, store=ArtifactStore(store_dir))
        result = run_workload(
            "web-apache", PrefetcherKind.BASELINE, scale="test",
            cores=2, seed=5, session=first,
        )
        # A fresh session over the same directory models a new process:
        # empty memory tier, shared disk tier.
        second = SimSession(enabled=True, store=ArtifactStore(store_dir))
        served = run_workload(
            "web-apache", PrefetcherKind.BASELINE, scale="test",
            cores=2, seed=5, session=second,
        )
        assert second.stats.trace_store_hits == 1
        assert second.stats.sim_store_hits == 1
        assert second.stats.trace_misses == 0
        assert second.stats.sim_misses == 0
        assert served == result

    def test_disabled_session_bypasses_store_bit_identically(
        self, tmp_path
    ):
        """``enabled=False`` recomputes everything and
        matches the store-served result exactly (engine-equivalence
        style, extended across the persistence boundary)."""
        store_dir = str(tmp_path / "store")
        cached = SimSession(enabled=True, store=ArtifactStore(store_dir))
        warm = SimSession(enabled=True, store=ArtifactStore(store_dir))
        uncached = SimSession(enabled=False)
        assert uncached.store is None  # disabled -> no disk tier
        trace = make_trace([[7, 8, 9] * 60, [10, 11, 12] * 60])
        runs = {}
        for name, session in (
            ("cached", cached), ("warm", warm), ("uncached", uncached)
        ):
            runs[name] = run_trace(
                trace, PrefetcherKind.STMS, scale="test", session=session
            )
        assert warm.stats.sim_store_hits == 1
        assert uncached.stats.sim_misses == 1
        assert runs["warm"] == runs["cached"]
        assert runs["uncached"] == runs["cached"]

    def test_env_store_dir_attaches_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "s"))
        session = SimSession()
        assert session.store is not None
        assert session.store.root == str(tmp_path / "s")

    def test_prime_trace_from_ref(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        producer = SimSession(enabled=True, store=store)
        trace = producer.trace("web-apache", scale="test", cores=2, seed=3)
        [entry] = [e for e in store.entries() if e.kind == "trace"]
        consumer = SimSession(enabled=True, store=None)
        assert consumer.prime_trace(
            "web-apache", "test", 2, 3, None, store.trace_ref(entry.digest)
        )
        primed = consumer.trace("web-apache", scale="test", cores=2, seed=3)
        assert consumer.stats.trace_misses == 0
        assert consumer.stats.trace_store_hits == 1
        np.testing.assert_array_equal(primed.blocks[0], trace.blocks[0])

    def test_prime_trace_missing_file_degrades(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        session = SimSession(enabled=True, store=None)
        assert not session.prime_trace(
            "web-apache", "test", 2, 3, None, store.trace_ref("0" * 32)
        )
        session.trace("web-apache", scale="test", cores=2, seed=3)
        assert session.stats.trace_misses == 1

    def test_memory_tier_keeps_every_result(self):
        """The memory tier has no cap: a result simulated before others
        is still served from memory."""
        session = SimSession(enabled=True, store=None)
        trace = make_trace([[1, 2, 3] * 50])
        first = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        run_trace(
            trace, PrefetcherKind.MARKOV, scale="test", session=session
        )
        again = run_trace(
            trace, PrefetcherKind.BASELINE, scale="test", session=session
        )
        assert again is first
        assert session.stats.sim_misses == 2
        assert session.stats.sim_hits == 1


# ----------------------------------------------------------------------
# The estimates tier: sampled-sweep records, stamped and separate.
# ----------------------------------------------------------------------


class TestEstimateRecords:
    def _payload(self) -> dict:
        return {
            "experiment": "mix-contention",
            "sampled": True,
            "budget": 8,
            "total": 32,
            "strata": {"l2x1": {"mean": 1.1, "lo": 1.0, "hi": 1.2}},
        }

    def test_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = estimate_digest(("mix-contention", ("grid",), 7, 8))
        assert store.save_estimate(digest, self._payload())
        assert store.load_estimate(digest) == self._payload()

    def test_stamped_as_sampled_estimate(self, tmp_path):
        # The on-disk record is distinguishable from exact results:
        # separate directory, kind stamp, and sampled marker.
        store = ArtifactStore(str(tmp_path))
        digest = estimate_digest(("k",))
        store.save_estimate(digest, self._payload())
        path = store.estimate_path(digest)
        assert "estimates" in os.path.relpath(path, store.root)
        with open(path) as handle:
            record = json.load(handle)
        assert record["kind"] == "sampled-estimate"
        assert record["sampled"] is True
        assert record["schema"] == SCHEMA_VERSION

    def test_digest_domain_separated(self):
        key = ("same", "key")
        assert estimate_digest(key) != result_digest(key)
        assert estimate_digest(key) != trace_digest(key)

    def test_entries_and_describe_count_estimates(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save_estimate(estimate_digest(("a",)), self._payload())
        kinds = {entry.kind for entry in store.entries()}
        assert kinds == {"estimate"}
        info = store.describe()
        assert info["estimates"] == 1
        assert info["estimate_bytes"] > 0

    def test_corrupt_estimate_dropped(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = estimate_digest(("bad",))
        store.save_estimate(digest, self._payload())
        with open(store.estimate_path(digest), "w") as handle:
            handle.write('{"kind": "something-else"}')
        assert store.load_estimate(digest) is None
        assert not os.path.exists(store.estimate_path(digest))

    def test_clear_removes_estimates(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save_estimate(estimate_digest(("a",)), self._payload())
        store.save_result(result_digest(("r",)), make_result())
        assert store.clear() == 2
        assert store.entries() == []


class TestClear:
    def test_clear_removes_everything(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        for i in range(3):
            store.save_result(
                result_digest((f"k{i}",)), make_result()
            )
        assert store.clear() == 3
        assert store.entries() == []


class TestFromEnv:
    def test_unset_dir_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert ArtifactStore.from_env() is None

    def test_dir_opens_store_there(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "s"))
        store = ArtifactStore.from_env()
        assert store is not None
        assert store.root == str(tmp_path / "s")
        assert os.path.isdir(os.path.join(store.root, "results"))

    def test_unusable_dir_degrades_to_no_store(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_STORE_DIR", str(blocker))
        assert ArtifactStore.from_env() is None


class TestMaxMbKnob:
    """``REPRO_STORE_MAX_MB``: a malformed cap warns once per process
    and leaves the store uncapped; an empty value means unset."""

    @pytest.fixture(autouse=True)
    def _reset_warn_once(self, monkeypatch):
        monkeypatch.setattr(store_module, "_MAX_MB_WARNED", False)

    def test_unset_and_empty_mean_no_cap_silently(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ArtifactStore._max_bytes_from_env() is None
            monkeypatch.setenv("REPRO_STORE_MAX_MB", "")
            assert ArtifactStore._max_bytes_from_env() is None

    @pytest.mark.parametrize(
        "value, megabytes", [("2", 2), ("0.5", 0.5), ("1e-3", 1e-3)]
    )
    def test_valid_value_never_warns(self, monkeypatch, value, megabytes):
        monkeypatch.setenv("REPRO_STORE_MAX_MB", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ArtifactStore._max_bytes_from_env() == int(
                megabytes * 1024 * 1024
            )

    @pytest.mark.parametrize(
        "value",
        ["lots", "10MB", "1.2.3", "0x10", "nan", "inf", "-inf", "-1", "0"],
    )
    def test_invalid_value_warns_once(self, monkeypatch, tmp_path, value):
        """Store open survives the value, keeps what it writes, and a
        second open in the same process stays quiet."""
        monkeypatch.setenv("REPRO_STORE_MAX_MB", value)
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_MAX_MB"):
            store = ArtifactStore(str(tmp_path / "store"))
        assert store.max_bytes is None
        assert store.save_estimate("e" * 32, {"total": 1})
        assert len(store.entries()) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ArtifactStore(str(tmp_path / "other")).max_bytes is None

    def test_valid_cap_applies_to_an_opened_store(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "2")
        store = ArtifactStore(str(tmp_path / "store"))
        assert store.max_bytes == 2 * 1024 * 1024


class TestLoadTraceRef:
    def test_resolves_and_refreshes_recency(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = trace_digest(("t",))
        store.save_trace(digest, make_trace([[1, 2, 3]]))
        ref = store.trace_ref(digest)
        os.utime(ref.path, (1, 1))
        loaded = load_trace_ref(ref)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.blocks[0], [1, 2, 3])
        assert os.stat(ref.path).st_mtime > 1

    def test_missing_file_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        assert load_trace_ref(store.trace_ref("0" * 32)) is None

    def test_corrupt_file_is_none(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        ref = store.trace_ref(trace_digest(("bad",)))
        with open(ref.path, "wb") as handle:
            handle.write(b"\x40\x00 truncated")
        assert load_trace_ref(ref) is None


class TestPersistentCounters:
    def test_corrupt_counters_file_reads_empty(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with open(os.path.join(store.root, "counters.json"), "w") as f:
            f.write("{not json")
        assert store.counters() == {}
        store.bump_counter("after", 2)  # a bump rewrites it cleanly
        assert store.counters() == {"after": 2}

    def test_non_numeric_values_ignored(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        with open(os.path.join(store.root, "counters.json"), "w") as f:
            json.dump({"good": 3, "bad": "x", "list": [1]}, f)
        assert store.counters() == {"good": 3}


class TestWriteFailures:
    def _fail_replace(self, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "replace", refuse)

    def test_result_write_failure_reported(self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path))
        self._fail_replace(monkeypatch)
        assert not store.save_result(result_digest(("k",)), make_result())
        assert store.stats.store_write_errors == 1
        assert store.stats.store_writes == 0
        assert os.listdir(os.path.join(store.root, "results")) == []

    def test_trace_write_failure_reported(self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path))
        self._fail_replace(monkeypatch)
        assert not store.save_trace(
            trace_digest(("t",)), make_trace([[1, 2, 3]])
        )
        assert store.stats.store_write_errors == 1
        assert os.listdir(os.path.join(store.root, "traces")) == []
