"""Tests of the experiment drivers (fast, reduced-scope runs).

Full-figure regeneration at the ``bench`` scale lives in
``test_bench_figures.py``; here each driver runs on a reduced workload
set at the ``test`` scale to verify structure, rendering, and the
paper's core shape claims.
"""

import inspect

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.common import (
    ExperimentResult,
    check_monotone,
    geometric_mean,
)


class TestCommonHelpers:
    def test_check_monotone(self):
        assert check_monotone([1.0, 1.1, 1.2])
        assert check_monotone([1.0, 0.99, 1.2], tolerance=0.02)
        assert not check_monotone([1.0, 0.5, 1.2])
        assert check_monotone([3.0, 2.0, 1.0], increasing=False)

    def test_check_monotone_tolerance_scales_with_magnitude(self):
        # The tolerance is relative to the series magnitude: a 1.5%
        # dip in a series around 1000 is the same noise as a 1.5% dip
        # in a series around 1 — the old absolute 0.02 slack failed
        # the former and passed the latter.
        assert check_monotone([1000.0, 985.0, 1010.0], tolerance=0.02)
        assert not check_monotone([1000.0, 950.0, 1010.0],
                                  tolerance=0.02)
        assert check_monotone([1010.0, 990.0, 900.0], increasing=False,
                              tolerance=0.02)

    def test_check_monotone_small_scale_behaviour_unchanged(self):
        # For magnitudes <= 1 the relative slack bottoms out at the
        # tolerance itself, so the historical small-scale semantics
        # (shape checks on coverage fractions) are untouched.
        assert check_monotone([0.5, 0.49, 0.6], tolerance=0.02)
        assert not check_monotone([0.5, 0.4, 0.6], tolerance=0.02)

    def test_check_monotone_absolute_floor(self):
        # By default the absolute slack floor equals the tolerance
        # (the historical behaviour); an explicit floor lets a caller
        # tighten it for near-zero series.
        assert check_monotone([1e-4, 0.5e-4, 1e-4], tolerance=0.02)
        assert not check_monotone([1e-4, 0.5e-4, 1e-4],
                                  tolerance=0.02, floor=1e-5)
        assert check_monotone([], tolerance=0.02)

    def test_geometric_mean(self):
        assert geometric_mean([4.0, 1.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 0.0]) == 0.0

    def test_registry_complete(self):
        expected = {
            "fig1-left", "fig1-right", "fig4", "fig5-left", "fig5-right",
            "fig6-left", "fig6-right", "fig7", "fig8", "fig9", "table2",
            "mix-contention",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")


#: What ``repro experiment`` and ``repro cache warm`` pass to any
#: registered driver.
CLI_OPTIONS = {"scale", "cores", "seed", "runner", "session"}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_driver_takes_the_cli_options(name):
    """Every driver accepts the keyword options the CLI passes it,
    each with a default, and needs no other argument."""
    parameters = inspect.signature(EXPERIMENTS[name].resolve()).parameters
    assert CLI_OPTIONS <= set(parameters)
    assert all(
        parameter.default is not inspect.Parameter.empty
        for parameter in parameters.values()
    )
    assert parameters["scale"].default == "bench"


@pytest.mark.slow
class TestDriverStructure:
    """Each driver produces a well-formed result on a tiny slice."""

    def _assert_result(self, result: ExperimentResult):
        assert result.rendered
        assert result.checks
        assert isinstance(result.render(), str)
        assert result.data

    def test_fig1_left(self):
        result = run_experiment(
            "fig1-left", scale="test", workloads=("oltp-db2",),
            caps=(256, 4096, 65536),
        )
        self._assert_result(result)

    def test_fig1_right(self):
        result = run_experiment(
            "fig1-right", scale="test", workloads=("web-apache",)
        )
        self._assert_result(result)
        assert result.passed

    def test_fig4(self):
        result = run_experiment(
            "fig4", scale="test", workloads=("oltp-db2", "dss-db2")
        )
        self._assert_result(result)

    def test_fig5_history(self):
        result = run_experiment(
            "fig5-left", scale="test", workloads=("sci-ocean",),
            sizes=(1024, 4096, 16384),
        )
        self._assert_result(result)

    def test_fig5_index(self):
        result = run_experiment(
            "fig5-right", scale="test", workloads=("oltp-db2",),
            sizes=(64, 512, 2048),
        )
        self._assert_result(result)

    def test_fig6_cdf(self):
        result = run_experiment(
            "fig6-left", scale="test", workloads=("web-apache",)
        )
        self._assert_result(result)

    def test_fig6_depth(self):
        result = run_experiment(
            "fig6-right", scale="test", workloads=("oltp-db2",),
            depths=(2, 8),
        )
        self._assert_result(result)

    def test_fig7(self):
        result = run_experiment(
            "fig7", scale="test", workloads=("web-apache",)
        )
        self._assert_result(result)

    def test_fig8(self):
        result = run_experiment(
            "fig8", scale="test", workloads=("oltp-db2",),
            probabilities=(0.0625, 0.125, 1.0),
        )
        self._assert_result(result)

    def test_fig9(self):
        result = run_experiment(
            "fig9", scale="test", workloads=("web-apache", "sci-ocean")
        )
        self._assert_result(result)

    def test_table2(self):
        result = run_experiment(
            "table2", scale="test", workloads=("oltp-db2", "sci-moldyn")
        )
        self._assert_result(result)
        assert result.data["mlp"]["sci-moldyn"] >= 1.0

    def test_mix_contention(self):
        result = run_experiment(
            "mix-contention",
            scale="test",
            cores=2,
            workloads=("mix:oltp-db2+dss-db2",),
        )
        self._assert_result(result)
        point = result.data["mixes"]["mix:oltp-db2+dss-db2"]["l2x1"]
        assert set(point["stms"]["per_workload"]) == {
            "oltp-db2", "dss-db2",
        }
        assert point["speedup"] > 0.0
