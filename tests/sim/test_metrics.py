"""Unit tests for coverage counts, MLP tracking, and results."""

import re
import shutil

import pytest

from repro.sim.metrics import MlpTracker, _IntervalAccumulator
from repro.sim.results import (
    CoverageCounts,
    SimResult,
    per_workload_breakdown,
)


class TestCoverageCounts:
    def test_coverage_definition(self):
        counts = CoverageCounts(
            fully_covered=30, partially_covered=10, uncovered=60,
            stride_covered=100,
        )
        assert counts.temporal_eligible == 100
        assert counts.coverage == pytest.approx(0.4)
        assert counts.full_coverage == pytest.approx(0.3)
        assert counts.partial_coverage == pytest.approx(0.1)

    def test_stride_excluded_from_denominator(self):
        counts = CoverageCounts(fully_covered=5, uncovered=5,
                                stride_covered=1000)
        assert counts.coverage == pytest.approx(0.5)

    def test_empty(self):
        counts = CoverageCounts()
        assert counts.coverage == 0.0
        assert counts.full_coverage == 0.0


class TestIntervalAccumulator:
    def test_disjoint_intervals_mlp_one(self):
        acc = _IntervalAccumulator()
        acc.add(0, 10)
        acc.add(20, 30)
        acc.finish()
        assert acc.mlp == pytest.approx(1.0)

    def test_full_overlap_mlp_two(self):
        acc = _IntervalAccumulator()
        acc.add(0, 10)
        acc.add(0, 10)
        acc.finish()
        assert acc.mlp == pytest.approx(2.0)

    def test_partial_overlap(self):
        acc = _IntervalAccumulator()
        acc.add(0, 10)
        acc.add(5, 15)
        acc.finish()
        assert acc.mlp == pytest.approx(20 / 15)

    def test_rejects_inverted_interval(self):
        acc = _IntervalAccumulator()
        with pytest.raises(ValueError):
            acc.add(5, 1)

    def test_empty(self):
        acc = _IntervalAccumulator()
        acc.finish()
        assert acc.mlp == 0.0


class TestMlpTracker:
    def test_weighted_average_across_cores(self):
        tracker = MlpTracker(cores=2)
        # Core 0: MLP 1.0 from one interval.
        tracker.add(0, 0, 10)
        # Core 1: MLP 2.0 from two fully-overlapped intervals.
        tracker.add(1, 0, 10)
        tracker.add(1, 0, 10)
        # Weighted by interval count: (1*1 + 2*2) / 3.
        assert tracker.result() == pytest.approx(5 / 3)

    def test_no_intervals(self):
        assert MlpTracker(cores=2).result() == 0.0


class TestSimResult:
    def _result(self, cycles: float, records: int = 100) -> SimResult:
        return SimResult(
            workload="w", prefetcher="p",
            measured_records=records, elapsed_cycles=cycles,
        )

    def test_throughput(self):
        result = self._result(cycles=200.0)
        assert result.throughput == pytest.approx(0.5)

    def test_speedup(self):
        baseline = self._result(cycles=200.0)
        faster = self._result(cycles=100.0)
        assert faster.speedup_over(baseline) == pytest.approx(2.0)

    def test_speedup_requires_same_records(self):
        baseline = self._result(cycles=200.0, records=100)
        other = self._result(cycles=100.0, records=50)
        with pytest.raises(ValueError):
            other.speedup_over(baseline)

    def test_degenerate_cycles(self):
        result = self._result(cycles=0.0)
        assert result.throughput == 0.0


class TestMlpTrackerPerCore:
    def test_per_core_values(self):
        tracker = MlpTracker(3)
        tracker.add(0, 0.0, 10.0)   # lone interval -> MLP 1
        tracker.add(1, 0.0, 10.0)   # two fully overlapped -> MLP 2
        tracker.add(1, 0.0, 10.0)
        assert tracker.per_core() == [1.0, 2.0, 0.0]

    def test_per_core_composes_with_result(self):
        tracker = MlpTracker(2)
        tracker.add(0, 0.0, 10.0)
        per_core = tracker.per_core()
        assert tracker.result() == pytest.approx(1.0)
        assert tracker.per_core() == per_core


class TestPerWorkloadBreakdown:
    def _mix_result(self) -> SimResult:
        return SimResult(
            workload="mix:a+b",
            prefetcher="stms",
            measured_records=300,
            elapsed_cycles=1000.0,
            core_workloads=["oltp-db2", "dss-db2", "oltp-db2"],
            core_coverage=[
                CoverageCounts(fully_covered=8, uncovered=2),
                CoverageCounts(uncovered=10),
                CoverageCounts(fully_covered=2, uncovered=8),
            ],
            core_measured_records=[100, 100, 100],
            core_elapsed_cycles=[1000.0, 500.0, 1000.0],
            core_mlp=[1.0, 2.0, 3.0],
        )

    def test_groups_cores_by_workload(self):
        pieces = per_workload_breakdown(self._mix_result())
        assert set(pieces) == {"oltp-db2", "dss-db2"}
        oltp = pieces["oltp-db2"]
        assert oltp.cores == [0, 2]
        assert oltp.coverage.fully_covered == 10
        assert oltp.coverage.uncovered == 10
        assert oltp.measured_records == 200
        assert oltp.throughput == pytest.approx(0.2)
        # Miss-weighted MLP: (1.0 * 2 + 3.0 * 8) / 10.
        assert oltp.mlp == pytest.approx(2.6)
        assert pieces["dss-db2"].mlp == pytest.approx(2.0)
        assert pieces["dss-db2"].throughput == pytest.approx(0.2)

    def test_homogeneous_result_single_slice(self):
        result = self._mix_result()
        result.core_workloads = None
        pieces = per_workload_breakdown(result)
        assert set(pieces) == {"mix:a+b"}
        assert pieces["mix:a+b"].cores == [0, 1, 2]

    def test_per_core_coverage_sums_to_aggregate(self):
        from repro.sim.runner import PrefetcherKind, run_workload
        from repro.sim.session import SimSession

        result = run_workload(
            "mix:oltp-db2+dss-db2",
            PrefetcherKind.STMS,
            scale="test",
            cores=2,
            seed=7,
            records_per_core=600,
            session=SimSession(enabled=False),
        )
        assert result.core_workloads == ["oltp-db2", "dss-db2"]
        for field_ in ("fully_covered", "partially_covered",
                       "uncovered", "stride_covered"):
            assert sum(
                getattr(c, field_) for c in result.core_coverage
            ) == getattr(result.coverage, field_)
        assert sum(result.core_measured_records) == (
            result.measured_records
        )
        assert max(result.core_elapsed_cycles) == pytest.approx(
            result.elapsed_cycles
        )


class TestConservationInvariants:
    """``check_invariants``: finished runs pass, corrupted ones fail."""

    @staticmethod
    def _finished(engine, kind):
        import dataclasses

        from repro.sim.batch import BatchRunState
        from repro.sim.scalar import ScalarRunState
        from repro.sim.runner import (
            make_factory,
            make_sim_config,
            make_stms_config,
        )
        from repro.workloads.suite import generate

        trace = generate("web-apache", scale="test", cores=2, seed=7)
        config = dataclasses.replace(
            make_sim_config("test"), collect_miss_log=True
        )
        factory = (
            make_factory(kind, make_stms_config("test", cores=2))
            if kind.value != "baseline"
            else None
        )
        from repro.sim.native import NativeRunState

        state_class = {
            "scalar": ScalarRunState,
            "batch": BatchRunState,
            "native": NativeRunState,
        }[engine]
        state = state_class(config, trace, factory)
        state.run_warmup()
        state.reset_accounting()
        state.run_measured()
        return state, state.result(kind.value)

    @pytest.mark.parametrize("engine, kind", [
        *(
            (engine, kind)
            for engine in ("scalar", "batch")
            for kind in (
                "baseline", "stms", "ideal-tms", "fixed-depth", "markov"
            )
        ),
        *(
            pytest.param("native", kind, marks=pytest.mark.skipif(
                shutil.which("cc") is None, reason="no C compiler"))
            for kind in ("baseline", "stms")
        ),
    ])
    def test_finished_runs_conserve(self, engine, kind):
        from repro.sim.metrics import check_invariants
        from repro.sim.runner import PrefetcherKind

        state, result = self._finished(engine, PrefetcherKind(kind))
        check_invariants(state, result)

    @pytest.mark.parametrize(
        "corrupt, law",
        [
            (lambda s, r: setattr(
                s.coverage, "uncovered", s.coverage.uncovered + 1),
             "coverage classes sum"),
            (lambda s, r: setattr(
                s.core_coverage[1], "stride_covered",
                s.core_coverage[1].stride_covered + 1),
             "per-core stride_covered"),
            (lambda s, r: setattr(
                s.dram.stats, "requests", s.dram.stats.requests + 1),
             "DRAM requests"),
            (lambda s, r: s.traffic.add_bytes(
                _category("writeback"), 1, core=0),
             "not whole blocks"),
            (lambda s, r: s.traffic._core_bytes[1].__setitem__(
                _category("demand_read"),
                s.traffic._core_bytes[1][_category("demand_read")] + 64),
             "per-core demand_read"),
            (lambda s, r: s.traffic.add_block(_category("demand_read")),
             "demand-read + write-back bytes"),
            (lambda s, r: setattr(
                s.mshrs.stats, "peak_occupancy", s.mshrs.capacity + 1),
             "MSHR peak occupancy"),
            (lambda s, r: r.core_elapsed_cycles.__setitem__(0, 1.0),
             "measured cycles"),
        ],
    )
    def test_corrupted_counter_is_caught(self, corrupt, law):
        from repro.sim.metrics import InvariantViolation, check_invariants
        from repro.sim.runner import PrefetcherKind

        state, result = self._finished("scalar", PrefetcherKind.BASELINE)
        corrupt(state, result)
        with pytest.raises(InvariantViolation, match=re.escape(law)):
            check_invariants(state, result)

    @pytest.mark.parametrize(
        "corrupt, law",
        [
            (lambda t: setattr(
                t.bucket_buffer.stats, "writebacks",
                t.bucket_buffer.stats.writebacks + 1),
             "DRAM low-priority requests"),
            (lambda t: setattr(
                t.histories[1].stats, "block_reads",
                t.histories[1].stats.block_reads + 1),
             "lookup_streams bytes"),
            (lambda t: setattr(
                t.bucket_buffer.stats, "update_misses",
                t.bucket_buffer.stats.update_misses + 1),
             "update_index bytes"),
            (lambda t: t.traffic.add_block(_category("record_streams")),
             "record_streams bytes"),
            (lambda t: setattr(t.stats, "issued", t.stats.issued - 1),
             "DRAM low-priority requests"),
        ],
    )
    def test_corrupted_stms_counter_is_caught(self, corrupt, law):
        from repro.sim.metrics import InvariantViolation, check_invariants
        from repro.sim.runner import PrefetcherKind

        state, result = self._finished("scalar", PrefetcherKind.STMS)
        check_invariants(state, result)
        corrupt(state.temporal)
        with pytest.raises(InvariantViolation, match=re.escape(law)):
            check_invariants(state, result)

    @pytest.mark.parametrize(
        "corrupt, law",
        [
            (lambda s: setattr(
                s.temporal.stats, "issued", s.temporal.stats.issued - 1),
             "DRAM low-priority requests"),
            (lambda s: s.traffic.add_block(_category("demand_read")),
             "demand-read + write-back bytes"),
        ],
    )
    def test_corrupted_ideal_tms_counter_is_caught(self, corrupt, law):
        from repro.sim.metrics import InvariantViolation, check_invariants
        from repro.sim.runner import PrefetcherKind

        state, result = self._finished("scalar", PrefetcherKind.IDEAL_TMS)
        check_invariants(state, result)
        corrupt(state)
        with pytest.raises(InvariantViolation, match=re.escape(law)):
            check_invariants(state, result)


def _category(value):
    from repro.memory.config import TrafficCategory

    return TrafficCategory(value)
