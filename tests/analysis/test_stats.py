"""Bootstrap confidence intervals (``repro.analysis.stats``).

The load-bearing property: a seeded percentile-bootstrap interval at
confidence ``c`` brackets the true (full-population) mean roughly a
fraction ``c`` of the time.  That coverage property is what lets a
budgeted sampled sweep make an honest claim about the exact full-grid
number it did not compute.
"""

import numpy as np
import pytest

from repro.analysis.stats import (
    DEFAULT_RESAMPLES,
    CIEstimate,
    bootstrap_ci,
    stratified_estimates,
)


class TestCIEstimate:
    def test_width_and_brackets(self):
        est = CIEstimate(mean=1.0, lo=0.8, hi=1.3, confidence=0.95, n=9)
        assert est.width == pytest.approx(0.5)
        assert est.brackets(0.8) and est.brackets(1.3)
        assert not est.brackets(0.79)

    def test_round_trip(self):
        est = CIEstimate(mean=1.0, lo=0.8, hi=1.3, confidence=0.9, n=4)
        assert CIEstimate(**est.as_dict()) == est

    def test_render(self):
        est = CIEstimate(
            mean=1.2345, lo=1.1, hi=1.4, confidence=0.95, n=4
        )
        assert est.render() == "1.234 [1.100, 1.400]"


class TestBootstrapCI:
    def test_deterministic(self):
        values = list(np.random.default_rng(0).normal(0, 1, size=16))
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(
            values, seed=3
        )
        assert bootstrap_ci(values, seed=3) != bootstrap_ci(
            values, seed=4
        )

    def test_single_value_degenerate(self):
        est = bootstrap_ci([2.5])
        assert est.mean == est.lo == est.hi == 2.5
        assert est.n == 1 and est.width == 0.0

    def test_interval_always_brackets_its_own_mean(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = rng.normal(10.0, 3.0, size=6)
            est = bootstrap_ci(values, seed=seed)
            assert est.brackets(est.mean)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=0.0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.0)

    def test_higher_confidence_is_wider(self):
        values = list(np.random.default_rng(0).normal(0, 1, size=12))
        narrow = bootstrap_ci(values, confidence=0.80, seed=1)
        wide = bootstrap_ci(values, confidence=0.99, seed=1)
        assert wide.width >= narrow.width

    def test_coverage_property(self):
        # Seeded end-to-end: sample 8 of 64 population values, build a
        # 95% CI, and count how often it brackets the *population*
        # mean.  The percentile bootstrap on n=8 is approximate, so the
        # acceptance band is generous — but a broken implementation
        # (wrong quantiles, unseeded, off-by-one alpha) lands far
        # outside it.
        rng = np.random.default_rng(1234)
        population = rng.normal(5.0, 2.0, size=64)
        truth = float(population.mean())
        hits = 0
        trials = 200
        for trial in range(trials):
            sample = rng.choice(population, size=8, replace=False)
            est = bootstrap_ci(
                sample, confidence=0.95, resamples=500, seed=trial
            )
            hits += est.brackets(truth)
        assert 0.80 <= hits / trials <= 1.0

    def test_default_resample_count(self):
        values = list(np.random.default_rng(5).normal(0, 1, size=12))
        assert DEFAULT_RESAMPLES == 1000
        assert bootstrap_ci(values, seed=2) == bootstrap_ci(
            values, resamples=1000, seed=2
        )
        assert bootstrap_ci(values, seed=2) != bootstrap_ci(
            values, resamples=50, seed=2
        )


class TestStratifiedEstimates:
    def test_one_estimate_per_stratum(self):
        estimates = stratified_estimates(
            {"a": [1.0, 2.0, 3.0], "b": [10.0, 20.0]}, confidence=0.9
        )
        assert set(estimates) == {"a", "b"}
        assert estimates["a"].n == 3 and estimates["b"].n == 2
        assert all(e.confidence == 0.9 for e in estimates.values())

    def test_stratum_seed_is_content_based(self):
        # Adding an unrelated stratum must not perturb an existing
        # stratum's interval (the per-stratum seed hashes the stratum
        # itself, not its position).
        alone = stratified_estimates({"a": [1.0, 2.0, 3.0, 4.0]})
        with_peer = stratified_estimates(
            {"z": [9.0, 9.5], "a": [1.0, 2.0, 3.0, 4.0]}
        )
        assert alone["a"] == with_peer["a"]
