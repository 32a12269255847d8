"""Unit tests for the workload suite registry and scale presets."""

import pytest

from repro.workloads.scales import WORKLOAD_INFO
from repro.workloads.suite import (
    FIGURE_ORDER,
    SCALES,
    WORKLOADS,
    generate,
    get_scale,
    get_spec,
    workload_names,
)


class TestRegistry:
    def test_all_eight_paper_workloads_present(self):
        assert set(FIGURE_ORDER) == set(WORKLOADS.keys())
        assert tuple(WORKLOAD_INFO) == FIGURE_ORDER
        assert len(FIGURE_ORDER) == 8

    def test_categories(self):
        categories = {info.category for info in WORKLOAD_INFO.values()}
        assert categories == {"web", "oltp", "dss", "sci"}

    def test_paper_reference_bands_present(self):
        for info in WORKLOAD_INFO.values():
            assert 1.0 <= info.paper_mlp <= 2.0
            assert 0.0 < info.paper_ideal_coverage <= 1.0
            assert info.paper_ideal_speedup >= 1.0

    def test_get_spec_unknown(self):
        with pytest.raises(ValueError, match="unknown workload"):
            get_spec("oltp-postgres")

    def test_workload_names_order(self):
        assert workload_names() == FIGURE_ORDER


class TestScalePresets:
    def test_known_presets(self):
        assert set(SCALES) == {"test", "demo", "bench", "full"}

    def test_presets_grow_monotonically(self):
        test, bench, full = (
            SCALES["test"],
            SCALES["bench"],
            SCALES["full"],
        )
        assert test.records_per_core < bench.records_per_core
        assert bench.records_per_core <= full.records_per_core
        assert test.footprint < bench.footprint <= full.footprint
        assert test.history_entries < bench.history_entries

    def test_get_scale_passthrough(self):
        preset = SCALES["test"]
        assert get_scale(preset) is preset
        assert get_scale("test") is preset

    def test_get_scale_unknown(self):
        with pytest.raises(ValueError, match="unknown scale"):
            get_scale("gigantic")


class TestGenerate:
    def test_generate_respects_overrides(self):
        trace = generate(
            "web-apache", scale="test", cores=2, seed=1,
            records_per_core=500,
        )
        assert trace.cores == 2
        assert trace.core_records(0) >= 500

    def test_records_bias_applied(self):
        spec = get_spec("sci-em3d")
        preset = SCALES["test"]
        assert spec.records(preset) == int(
            preset.records_per_core * spec.records_bias
        )

    def test_generate_deterministic(self):
        import numpy as np

        a = generate("oltp-db2", scale="test", cores=1, seed=3,
                     records_per_core=400)
        b = generate("oltp-db2", scale="test", cores=1, seed=3,
                     records_per_core=400)
        np.testing.assert_array_equal(a.blocks[0], b.blocks[0])

    def test_every_workload_generates_at_test_scale(self):
        for name in FIGURE_ORDER:
            trace = generate(name, scale="test", cores=1,
                             records_per_core=300)
            assert trace.records >= 300
            assert trace.working_set_blocks > 0
