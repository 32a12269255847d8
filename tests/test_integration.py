"""End-to-end paper-claim tests at the ``test`` scale.

These are the headline assertions of the reproduction: every one mirrors
a sentence in the paper's abstract or evaluation.  They run the real
pipeline (generator -> CMP simulation -> prefetcher) on the scaled suite.
"""

import pytest

pytestmark = pytest.mark.slow

from repro import PrefetcherKind, compare_prefetchers
from repro.sim.runner import make_stms_config, run_workload
from repro.workloads.scales import WORKLOAD_INFO
from repro.workloads.suite import FIGURE_ORDER, generate


@pytest.fixture(scope="module")
def suite_results():
    """Baseline / ideal / STMS runs for a representative workload subset."""
    subset = ("web-apache", "oltp-db2", "dss-db2", "sci-em3d", "sci-ocean")
    return {
        name: compare_prefetchers(name, scale="test", cores=4, seed=11)
        for name in subset
    }


class TestPaperHeadlines:
    def test_temporal_streaming_helps_commercial_workloads(
        self, suite_results
    ):
        """Abstract: TMS eliminates 40-60% of misses in OLTP/Web."""
        for name in ("web-apache", "oltp-db2"):
            ideal = suite_results[name][PrefetcherKind.IDEAL_TMS]
            assert 0.25 <= ideal.coverage.coverage <= 0.7

    def test_temporal_streaming_useless_for_dss(self, suite_results):
        """Section 5.2: DSS visits data once; streaming cannot help."""
        results = suite_results["dss-db2"]
        baseline = results[PrefetcherKind.BASELINE]
        ideal = results[PrefetcherKind.IDEAL_TMS]
        assert ideal.speedup_over(baseline) == pytest.approx(1.0, abs=0.06)

    def test_scientific_workloads_nearly_fully_covered(self, suite_results):
        for name in ("sci-em3d", "sci-ocean"):
            ideal = suite_results[name][PrefetcherKind.IDEAL_TMS]
            assert ideal.coverage.coverage >= 0.7

    def test_em3d_gets_largest_speedup(self, suite_results):
        speedups = {
            name: results[PrefetcherKind.IDEAL_TMS].speedup_over(
                results[PrefetcherKind.BASELINE]
            )
            for name, results in suite_results.items()
        }
        assert max(speedups, key=speedups.get) == "sci-em3d"
        assert speedups["sci-em3d"] >= 1.4

    def test_stms_approaches_ideal(self, suite_results):
        """Abstract: STMS achieves ~90% of idealized performance; at this
        reduced scale we require >= 60% on every streaming workload."""
        for name, results in suite_results.items():
            if name == "dss-db2":
                continue
            ideal = results[PrefetcherKind.IDEAL_TMS].coverage.coverage
            stms = results[PrefetcherKind.STMS].coverage.coverage
            assert stms >= 0.6 * ideal, name

    def test_stms_never_slows_workloads(self, suite_results):
        """Evaluation goal 2: no adverse impact without streaming benefit."""
        for name, results in suite_results.items():
            baseline = results[PrefetcherKind.BASELINE]
            stms = results[PrefetcherKind.STMS]
            assert stms.speedup_over(baseline) >= 0.95, name

    def test_stms_stores_metadata_off_chip(self, suite_results):
        """All predictor state lives in main memory: meta-data traffic
        must be non-zero for every streaming workload."""
        for name, results in suite_results.items():
            stms = results[PrefetcherKind.STMS]
            assert stms.metadata_bytes > 0, name

    def test_on_chip_budget_is_small(self):
        """Storage efficiency: STMS on-chip state is KBs while the
        predictor meta-data (off chip) is orders of magnitude larger."""
        config = make_stms_config("full", cores=4)
        assert config.on_chip_bytes <= 32 * 1024
        assert config.metadata_bytes >= 50 * config.on_chip_bytes


class TestSamplingClaims:
    def test_sampling_trades_traffic_for_little_coverage(self):
        """Abstract: probabilistic update cuts update traffic by ~the
        sampling factor with small coverage loss."""
        trace = generate("oltp-db2", scale="test", cores=4, seed=13)
        results = {}
        for probability in (1.0, 0.125):
            config = make_stms_config(
                "test", cores=4, sampling_probability=probability
            )
            results[probability] = run_workload(
                "oltp-db2",
                PrefetcherKind.STMS,
                scale="test",
                trace=trace,
                stms_config=config,
            )
        full, sampled = results[1.0], results[0.125]
        assert (
            sampled.traffic.update_index < full.traffic.update_index / 3
        )
        assert sampled.coverage.coverage >= 0.6 * full.coverage.coverage

    def test_recording_is_packed(self):
        """One history write per ~12 misses: record traffic tiny."""
        result = run_workload(
            "web-apache", PrefetcherKind.STMS, scale="test", seed=13
        )
        assert result.traffic.record_streams < 0.2


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        a = run_workload("oltp-db2", PrefetcherKind.STMS, scale="test",
                         seed=17)
        b = run_workload("oltp-db2", PrefetcherKind.STMS, scale="test",
                         seed=17)
        assert a.elapsed_cycles == b.elapsed_cycles
        assert a.coverage.coverage == b.coverage.coverage
        assert a.overhead_per_useful_byte == b.overhead_per_useful_byte


class TestSuiteSanity:
    @pytest.mark.parametrize("name", FIGURE_ORDER)
    def test_every_workload_simulates(self, name):
        result = run_workload(
            name,
            PrefetcherKind.BASELINE,
            scale="test",
            cores=2,
            seed=5,
            records_per_core=2000,
        )
        assert result.measured_records > 0
        assert result.elapsed_cycles > 0
        assert result.mlp >= 1.0 or result.coverage.uncovered == 0
        assert WORKLOAD_INFO[name].display
