"""Unit tests for the trace container and builder."""

import dataclasses
import json

import numpy as np
import pytest

from repro.workloads.trace import Trace, TraceBuilder, as_numpy, column_dtype


def simple_trace(records: int = 10, cores: int = 2) -> Trace:
    return Trace(
        name="t",
        blocks=[np.arange(records, dtype=np.int64) for _ in range(cores)],
        work=[np.ones(records, dtype=np.float32) for _ in range(cores)],
        dep=[np.zeros(records, dtype=bool) for _ in range(cores)],
        write=[np.zeros(records, dtype=bool) for _ in range(cores)],
        working_set_blocks=records,
        warmup_fraction=0.2,
    )


class TestTrace:
    def test_shape_properties(self):
        trace = simple_trace(records=10, cores=3)
        assert trace.cores == 3
        assert trace.records == 30
        assert trace.core_records(1) == 10

    def test_warmup_records(self):
        trace = simple_trace(records=10)
        assert trace.warmup_records(0) == 2

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                name="bad",
                blocks=[np.arange(5)],
                work=[np.ones(4, dtype=np.float32)],
                dep=[np.zeros(5, dtype=bool)],
                write=[np.zeros(5, dtype=bool)],
            )

    def test_mismatched_core_lists_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                name="bad",
                blocks=[np.arange(5)],
                work=[],
                dep=[np.zeros(5, dtype=bool)],
                write=[np.zeros(5, dtype=bool)],
            )

    def test_stats(self):
        trace = simple_trace(records=4)
        stats = trace.stats()
        assert stats.records == 8
        assert stats.distinct_blocks == 4
        assert stats.dependent_fraction == 0.0
        assert stats.mean_work == pytest.approx(1.0)

    def test_stats_empty(self):
        trace = simple_trace(records=10)
        empty = trace.sliced(1)
        assert empty.records == 2

    def test_sliced(self):
        trace = simple_trace(records=10)
        shorter = trace.sliced(3)
        assert shorter.core_records(0) == 3
        assert shorter.working_set_blocks == trace.working_set_blocks

    def test_sliced_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            simple_trace().sliced(0)

    def test_save_load_round_trip(self, tmp_path):
        trace = simple_trace(records=7, cores=2)
        path = str(tmp_path / "trace.trace")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == trace.name
        assert loaded.cores == trace.cores
        assert loaded.warmup_fraction == trace.warmup_fraction
        for core in range(2):
            np.testing.assert_array_equal(
                loaded.blocks[core], trace.blocks[core]
            )
            np.testing.assert_array_equal(loaded.dep[core], trace.dep[core])

    def test_round_trip_preserves_metadata_exactly(self, tmp_path):
        """The artifact store's trace tier relies on this invariant:
        generator metadata survives a save/load cycle bit-exactly (a
        drifted warmup_fraction would silently shift the measurement
        boundary of every store-served simulation)."""
        trace = simple_trace(records=9, cores=2)
        trace.warmup_fraction = 0.37  # not representable in binary
        trace.working_set_blocks = 12345
        path = str(tmp_path / "trace.trace")
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.warmup_fraction == trace.warmup_fraction
        assert loaded.working_set_blocks == trace.working_set_blocks
        assert isinstance(loaded.working_set_blocks, int)
        assert loaded.warmup_records(0) == trace.warmup_records(0)

    def test_round_trip_preserves_per_core_dtypes(self, tmp_path):
        """Engine hot paths and trace fingerprints are dtype-sensitive;
        all four columns must come back with their exact dtypes."""
        trace = simple_trace(records=5, cores=3)
        path = str(tmp_path / "trace.trace")
        trace.save(path)
        loaded = Trace.load(path)
        for core in range(3):
            assert as_numpy(loaded.blocks[core]).dtype == np.int64
            assert as_numpy(loaded.work[core]).dtype == np.float32
            assert as_numpy(loaded.dep[core]).dtype == np.bool_
            assert as_numpy(loaded.write[core]).dtype == np.bool_
            np.testing.assert_array_equal(
                loaded.work[core], trace.work[core]
            )
            np.testing.assert_array_equal(
                loaded.write[core], trace.write[core]
            )

    def test_round_trip_preserves_fingerprint(self, tmp_path):
        """Store-loaded traces must produce the same result-cache keys
        as freshly generated ones, i.e. identical content fingerprints."""
        trace = simple_trace(records=8, cores=2)
        path = str(tmp_path / "trace.trace")
        trace.save(path)
        assert Trace.load(path).fingerprint() == trace.fingerprint()

    def test_loaded_columns_are_read_only_aligned_views(self, tmp_path):
        """Columns of odd byte lengths (5 bools, 5 float32s), padded in
        the file, still load 8-byte aligned, and none can be written."""
        from repro.sim.library import address

        trace = simple_trace(records=5, cores=2)
        path = str(tmp_path / "trace.trace")
        trace.save(path)
        loaded = Trace.load(path)
        for column in loaded.columns():
            assert memoryview(column).readonly
            assert address(column) % 8 == 0
            with pytest.raises(TypeError):
                column[0] = column[0]

    def test_file_is_a_header_plus_raw_columns(self, tmp_path):
        """The layout, read back by hand: an 8-byte little-endian header
        length, a JSON header padded to 8 bytes, then every column's
        raw bytes, each padded to 8."""
        trace = simple_trace(records=5, cores=2)
        trace.core_workloads = ["a", "b"]
        path = str(tmp_path / "trace.trace")
        trace.save(path)
        with open(path, "rb") as handle:
            payload = handle.read()
        size = int.from_bytes(payload[:8], "little")
        assert size % 8 == 0
        header = json.loads(payload[8:8 + size])
        assert header["trace"] == trace.metadata()
        assert header["fingerprint"] == trace.fingerprint()
        offset = 8 + size
        for column, (dtype, length) in zip(trace.columns(), header["columns"]):
            assert (np.dtype(dtype), length) == (column.dtype, len(column))
            assert payload[offset:offset + column.nbytes] == column.tobytes()
            offset += -(-column.nbytes // 8) * 8
        assert offset == len(payload)

    @pytest.mark.parametrize("records", [0, 1, 5, 13])
    def test_array_columns_hash_and_save_as_numpy_columns(
        self, tmp_path, records
    ):
        """A trace built from ``array.array`` and ``bytearray`` columns
        (what generation makes) has the fingerprint, and saves the file
        bytes, of the same trace built from NumPy columns, and loads
        back as buffer columns of the same dtypes."""
        from array import array

        rng = np.random.default_rng(records)
        numpy_trace = Trace(
            name="t",
            blocks=[rng.integers(0, 1 << 40, records) for _ in range(2)],
            work=[rng.random(records).astype(np.float32) for _ in range(2)],
            dep=[rng.random(records) < 0.5 for _ in range(2)],
            write=[rng.random(records) < 0.2 for _ in range(2)],
            working_set_blocks=1 << 40,
            warmup_fraction=0.3,
        )
        array_trace = Trace.from_columns(numpy_trace.metadata(), [
            array("q", column.tobytes()) if column.dtype == np.int64
            else array("f", column.tobytes()) if column.dtype == np.float32
            else bytearray(column.tobytes())
            for column in numpy_trace.columns()
        ])
        assert [column_dtype(c) for c in array_trace.columns()] == [
            (str(c.dtype), c.dtype.str) for c in numpy_trace.columns()
        ]
        assert array_trace.fingerprint() == numpy_trace.fingerprint()
        paths = [str(tmp_path / f"{kind}.trace") for kind in ("np", "arr")]
        numpy_trace.save(paths[0])
        array_trace.save(paths[1])
        contents = [open(path, "rb").read() for path in paths]
        assert contents[0] == contents[1]
        loaded = Trace.load(paths[1])
        for got, want in zip(loaded.columns(), array_trace.columns()):
            assert column_dtype(got) == column_dtype(want)
            assert as_numpy(got).dtype == as_numpy(want).dtype
            np.testing.assert_array_equal(as_numpy(got), as_numpy(want))

    def test_metadata_lists_every_non_column_field(self):
        trace = simple_trace(records=3, cores=1)
        assert set(trace.metadata()) == {
            f.name for f in dataclasses.fields(Trace)
        } - {"blocks", "work", "dep", "write"}
        assert Trace.from_columns(
            trace.metadata(), trace.columns()
        ).fingerprint() == trace.fingerprint()


class TestTraceBuilder:
    def test_add_and_freeze(self):
        builder = TraceBuilder()
        builder.add(5, work=10.0, dep=True, write=False)
        builder.add(6, work=20.0, dep=False, write=True)
        blocks, work, dep, write = builder.freeze()
        assert list(blocks) == [5, 6]
        assert list(map(bool, dep)) == [True, False]
        assert list(map(bool, write)) == [False, True]
        # The columns the compiled emitters write: int64, float32, bool.
        assert [column_dtype(c)[0] for c in (blocks, work, dep, write)] == [
            "int64", "float32", "bool", "bool"]
        assert list(work) == [10.0, 20.0]

    def test_extend_run(self):
        builder = TraceBuilder()
        builder.extend([1, 2, 3], work=5.0, dep=False)
        assert len(builder) == 3
        blocks, work, dep, _ = builder.freeze()
        assert list(blocks) == [1, 2, 3]
        assert not any(dep)
