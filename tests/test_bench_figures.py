"""Every paper figure and table regenerated at the ``bench`` scale.

Each test runs one experiment driver over all eight paper workloads at
the calibrated ``bench`` preset, requires every shape check the driver
itself asserts, and then checks the figure-specific claim below.  The
reduced-scope ``test``-scale runs of the same drivers live in
``test_experiments.py``.
"""

import pytest

from repro.experiments import (
    fig1_entries,
    fig1_prior_traffic,
    fig4_potential,
    fig5_storage,
    fig6_amortize,
    fig7_traffic,
    fig8_sampling,
    fig9_performance,
    table2_mlp,
)
from repro.experiments.common import geometric_mean

pytestmark = pytest.mark.slow


def run_and_check(entry):
    """Run one experiment driver at bench scale; assert its shape checks."""
    result = entry(scale="bench")
    failures = [check.render() for check in result.checks if not check.passed]
    assert not failures, "shape checks failed:\n" + "\n".join(failures)
    return result


# Figure 1: the practicality challenges.  Left: coverage vs.
# correlation-table entries for an idealized address-correlating
# prefetcher (the on-chip storage wall).  Right: overhead traffic of the
# prior off-chip designs (EBCP/ULMT/TSE) from their published per-event
# costs and our measured MLP.


def test_fig1_left():
    result = run_and_check(fig1_entries.run)
    averaged = result.data["average"]
    assert max(averaged) >= 0.3


def test_fig1_right():
    result = run_and_check(fig1_prior_traffic.run)
    totals = [
        series["total"] for series in result.data["overheads"].values()
    ]
    # Paper: overhead traffic on the order of 3x baseline reads.
    assert sum(totals) / len(totals) >= 1.5


# Figure 4: performance potential of idealized TMS (coverage and
# speedup panels).


def test_fig4_potential():
    result = run_and_check(fig4_potential.run)
    coverage = result.data["coverage"]
    speedup = result.data["speedup"]
    # The paper's headline ordering: sci >= commercial > dss.
    assert coverage["sci-em3d"] > coverage["web-apache"]
    assert coverage["web-apache"] > coverage["dss-db2"]
    assert speedup["sci-em3d"] == max(speedup.values())


# Figure 5: meta-data storage requirements.  History-buffer sweep
# (smooth commercial growth, bimodal scientific) and index-table sweep
# (growth to saturation under in-bucket LRU).


def test_fig5_history():
    result = run_and_check(fig5_storage.run_history)
    coverage = result.data["coverage"]
    # Scientific coverage must be bimodal: tiny at the smallest history,
    # near-max at the largest.
    for name in ("sci-em3d", "sci-ocean"):
        series = coverage[name]
        assert series[-1] >= 0.5
        assert series[0] <= 0.5 * series[-1]


def test_fig5_index():
    result = run_and_check(fig5_storage.run_index)
    coverage = result.data["coverage"]
    for series in coverage.values():
        assert series[-1] >= series[0]


# Figure 6: amortizing lookups over long streams.  Streamed-block CDF
# by stream length (left) and coverage loss from fixed prefetch depth
# (right).


def test_fig6_cdf():
    result = run_and_check(fig6_amortize.run_cdf)
    for name, median in result.data["weighted_median"].items():
        # Paper: half the streamed blocks come from streams of ~10+.
        assert median >= 4, f"{name} weighted median {median}"


def test_fig6_depth():
    result = run_and_check(fig6_amortize.run_depth)
    loss = result.data["loss"]
    depths = result.data["depths"]
    shallow = depths.index(min(depths))
    for name, series in loss.items():
        # Fragmentation hurts at published depths.
        assert series[shallow] >= series[-1]


# Figure 7: overhead-traffic breakdown at 100% vs 12.5% sampling, four
# overhead categories per workload.


def test_fig7_traffic():
    result = run_and_check(fig7_traffic.run)
    breakdowns = result.data["breakdowns"]
    # Geomean update-traffic reduction should approach the 8x sampling
    # factor (paper reports a geomean total meta-data reduction of 3.4x).
    ratios = []
    for name, per_probability in breakdowns.items():
        full = per_probability[1.0]["update"]
        sampled = per_probability[0.125]["update"]
        if sampled > 0:
            ratios.append(full / sampled)
    product = 1.0
    for ratio in ratios:
        product *= ratio
    geomean = product ** (1.0 / len(ratios))
    assert geomean >= 3.0


# Figure 8: sampling-probability sensitivity sweep.


def test_fig8_sampling():
    result = run_and_check(fig8_sampling.run)
    probabilities = result.data["probabilities"]
    update = result.data["update_traffic"]
    # Update traffic must scale roughly linearly with p for every
    # workload: the 1.0 point should be several times the 0.125 point.
    idx_full = probabilities.index(1.0)
    idx_op = probabilities.index(0.125)
    for name, series in update.items():
        if series[idx_op] > 0.01:
            assert series[idx_full] >= 3.0 * series[idx_op], name


# Figure 9: practical STMS vs. idealized TMS (the headline).  Coverage
# (with the full/partial split) and speedup, baseline vs. ideal vs.
# off-chip STMS.


def test_fig9_performance():
    result = run_and_check(fig9_performance.run)
    data = result.data
    ratios = [
        min(1.0, entry["stms_coverage"] / entry["ideal_coverage"])
        for entry in data.values()
        if entry["ideal_coverage"] > 0.05
    ]
    # Paper: ~90% of idealized coverage; scaled traces give streams
    # fewer recurrences, so the bar here is 65%.
    assert geometric_mean(ratios) >= 0.65
    # No workload may be slowed down by STMS.
    for name, entry in data.items():
        assert entry["stms_speedup"] >= 0.97, name


# Table 2: MLP of off-chip reads per workload.


def test_table2_mlp():
    result = run_and_check(table2_mlp.run)
    mlp = result.data["mlp"]
    # The paper's ordering relations.
    assert mlp["sci-moldyn"] <= 1.15
    assert mlp["sci-em3d"] >= mlp["sci-ocean"]
    assert mlp["dss-db2"] >= mlp["oltp-db2"]
