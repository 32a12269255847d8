"""Figure 8: sensitivity to the sampling probability.

Sweeping the probabilistic-update rate from 1 % to 100 % shows the
trade the paper's Section 5.5 quantifies: overhead traffic scales
(nearly) linearly with the sampling probability — index updates are its
dominant term — while coverage decays only slowly as updates are
dropped, because long streams get an entry somewhere near their head and
frequent streams get one within a few recurrences.
"""

from __future__ import annotations

from repro.analysis.report import series_table
from repro.experiments.common import (
    ExperimentResult,
    ShapeCheck,
    check_monotone,
    simulate_jobs,
)
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    job_options,
)
from repro.sim.session import SimSession

DEFAULT_WORKLOADS = ("web-apache", "oltp-db2", "sci-em3d", "sci-ocean")
DEFAULT_PROBABILITIES = (0.01, 0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0)


def run(
    scale: str = "bench",
    cores: int = 4,
    seed: int = 7,
    workloads: "tuple[str, ...] | None" = None,
    probabilities: "tuple[float, ...] | None" = None,
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
) -> ExperimentResult:
    """Regenerate the sampling-probability sweep, one STMS cell per
    (workload, probability)."""
    names = workloads if workloads is not None else DEFAULT_WORKLOADS
    points = (
        probabilities if probabilities is not None else DEFAULT_PROBABILITIES
    )
    jobs = [
        SimJob(
            name,
            PrefetcherKind.STMS,
            scale=scale,
            cores=cores,
            seed=seed,
            stms_overrides=job_options(sampling_probability=probability),
        )
        for name in names
        for probability in points
    ]
    results = simulate_jobs(jobs, runner, session)
    coverage: dict[str, list[float]] = {name: [] for name in names}
    traffic: dict[str, list[float]] = {name: [] for name in names}
    update_traffic: dict[str, list[float]] = {name: [] for name in names}
    for job, result in zip(jobs, results):
        assert result.traffic is not None
        coverage[job.workload].append(result.coverage.coverage)
        traffic[job.workload].append(result.overhead_per_useful_byte)
        update_traffic[job.workload].append(result.traffic.update_index)

    labels = [f"{p:.3f}" for p in points]
    rendered = "\n\n".join(
        [
            series_table(
                "sampling p",
                labels,
                traffic,
                title="Figure 8 (left): overhead traffic vs. sampling "
                "probability",
            ),
            series_table(
                "sampling p",
                labels,
                coverage,
                title="Figure 8 (right): coverage vs. sampling probability",
            ),
        ]
    )

    checks = _shape_checks(names, points, coverage, update_traffic)
    return ExperimentResult(
        experiment="fig8",
        title="Probabilistic update sampling sensitivity",
        rendered=rendered,
        data={
            "probabilities": list(points),
            "coverage": coverage,
            "overhead": traffic,
            "update_traffic": update_traffic,
        },
        checks=checks,
    )


def _shape_checks(
    names: "tuple[str, ...]",
    points: "tuple[float, ...]",
    coverage: "dict[str, list[float]]",
    update_traffic: "dict[str, list[float]]",
) -> "list[ShapeCheck]":
    checks: list[ShapeCheck] = []
    for name in names:
        updates = update_traffic[name]
        checks.append(
            ShapeCheck(
                claim=f"{name}: index-update traffic grows with sampling "
                "probability (proportional scaling)",
                passed=check_monotone(updates, increasing=True,
                                      tolerance=0.02)
                and updates[-1] >= 4.0 * max(updates[0], 1e-6),
                detail=" -> ".join(f"{u:.2f}" for u in updates),
            )
        )
        series = coverage[name]
        peak = max(series)
        operating = series[points.index(0.125)] if 0.125 in points else None
        if operating is not None and peak > 0:
            # The paper measures <= 6% coverage loss at 12.5% sampling;
            # our scaled traces give streams fewer recurrences to land an
            # index entry, so the tolerance is looser.
            checks.append(
                ShapeCheck(
                    claim=f"{name}: coverage decays slowly — the 12.5% "
                    "point keeps >= 60% of the sweep's best while paying "
                    "~1/8th of the update traffic",
                    passed=operating >= 0.60 * peak,
                    detail=f"12.5% -> {operating:.2f}, best {peak:.2f}",
                )
            )
        if operating is not None and peak > 0:
            traffic_ratio = (
                update_traffic[name][points.index(0.125)]
                / max(update_traffic[name][points.index(1.0)], 1e-9)
                if 1.0 in points
                else 0.0
            )
            coverage_ratio = operating / peak
            checks.append(
                ShapeCheck(
                    claim=f"{name}: coverage falls far slower than update "
                    "traffic (the probabilistic-update trade)",
                    passed=coverage_ratio >= 2.0 * traffic_ratio,
                    detail=f"coverage ratio {coverage_ratio:.2f} vs "
                    f"traffic ratio {traffic_ratio:.2f}",
                )
            )
    return checks
