"""Figure 5: main-memory storage requirements of the STMS meta-data.

Left graph: predictor coverage as a function of history-buffer size —
commercial workloads improve smoothly (a spectrum of reuse distances)
while scientific workloads are bimodal (all-or-nothing at one iteration's
footprint).  Right graph: coverage as a function of index-table size with
ample history — the in-bucket LRU retains the useful entries, so
coverage saturates at a fraction of the idealized entry count.

Sampling is disabled (p = 1.0) for these sweeps so the storage effect is
isolated, matching the paper's presentation order (sampling arrives in
Section 5.5).
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
from repro.workloads.scales import WORKLOAD_INFO, get_scale

DEFAULT_WORKLOADS = ("web-apache", "oltp-db2", "sci-em3d", "sci-ocean")


def _sweep(
    names: "tuple[str, ...]",
    scale: str,
    cores: int,
    seed: int,
    history_sizes: "tuple[int, ...] | None" = None,
    index_sizes: "tuple[int, ...] | None" = None,
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
) -> "dict[str, list[float]]":
    """Run one parameter sweep; exactly one of the axes must be given."""
    preset = get_scale(scale)
    points = history_sizes if history_sizes is not None else index_sizes
    assert points is not None
    jobs = []
    for name in names:
        for point in points:
            if history_sizes is not None:
                overrides = job_options(
                    history_entries=point,
                    index_buckets=preset.index_buckets * 2,
                    sampling_probability=1.0,
                )
            else:
                overrides = job_options(
                    history_entries=preset.history_entries * 2,
                    index_buckets=point,
                    sampling_probability=1.0,
                )
            jobs.append(
                SimJob(
                    name,
                    PrefetcherKind.STMS,
                    scale=scale,
                    cores=cores,
                    seed=seed,
                    stms_overrides=overrides,
                )
            )
    results = simulate_jobs(jobs, runner, session)
    coverage: dict[str, list[float]] = {name: [] for name in names}
    for job, result in zip(jobs, results):
        coverage[job.workload].append(result.coverage.coverage)
    return coverage


def default_history_sizes(scale: str) -> "tuple[int, ...]":
    top = get_scale(scale).history_entries * 2
    sizes = []
    size = max(1024, top // 64)
    while size <= top:
        sizes.append(size)
        size *= 2
    return tuple(sizes)


def default_index_sizes(scale: str) -> "tuple[int, ...]":
    # Sweep up to 4x the preset's default index so the curve reaches its
    # plateau; the smallest sizes (always ~zero coverage) are skipped.
    top = get_scale(scale).index_buckets * 4
    sizes = []
    size = max(32, top // 16)
    while size <= top:
        sizes.append(size)
        size *= 2
    return tuple(sizes)


def run_history(
    scale: str = "bench",
    cores: int = 4,
    seed: int = 7,
    workloads: "tuple[str, ...] | None" = None,
    sizes: "tuple[int, ...] | None" = None,
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
) -> ExperimentResult:
    names = workloads if workloads is not None else DEFAULT_WORKLOADS
    points = sizes if sizes is not None else default_history_sizes(scale)
    coverage = _sweep(
        names, scale, cores, seed, history_sizes=points, runner=runner,
        session=session,
    )

    rendered = series_table(
        "history entries/core",
        list(points),
        coverage,
        title="Figure 5 (left): coverage vs. history-buffer size",
    )
    checks = _history_checks(names, coverage)
    return ExperimentResult(
        experiment="fig5-left",
        title="History-buffer storage requirements",
        rendered=rendered,
        data={"sizes": list(points), "coverage": coverage},
        checks=checks,
    )


def _history_checks(
    names: "tuple[str, ...]", coverage: "dict[str, list[float]]"
) -> "list[ShapeCheck]":
    checks: list[ShapeCheck] = []
    for name in names:
        series = coverage[name]
        category = WORKLOAD_INFO[name].category
        peak = max(series)
        if peak <= 0:
            checks.append(
                ShapeCheck(
                    claim=f"{name}: non-zero coverage somewhere in sweep",
                    passed=False,
                )
            )
            continue
        if category == "sci":
            # Bimodal: at least one doubling step jumps by > 40% of peak.
            jumps = [b - a for a, b in zip(series, series[1:])]
            checks.append(
                ShapeCheck(
                    claim=f"{name}: bimodal coverage (iteration either "
                    "fits or does not)",
                    passed=bool(jumps) and max(jumps) >= 0.4 * peak,
                    detail=" -> ".join(f"{v:.2f}" for v in series),
                )
            )
        else:
            # Smooth: growing, and no single step carries > 75% of peak.
            jumps = [b - a for a, b in zip(series, series[1:])]
            smooth = all(j <= 0.75 * peak for j in jumps)
            growing = check_monotone(series, increasing=True, tolerance=0.05)
            checks.append(
                ShapeCheck(
                    claim=f"{name}: smooth coverage growth with history "
                    "size (reuse-distance spectrum)",
                    passed=smooth and growing,
                    detail=" -> ".join(f"{v:.2f}" for v in series),
                )
            )
    return checks


def run_index(
    scale: str = "bench",
    cores: int = 4,
    seed: int = 7,
    workloads: "tuple[str, ...] | None" = None,
    sizes: "tuple[int, ...] | None" = None,
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
) -> ExperimentResult:
    names = workloads if workloads is not None else DEFAULT_WORKLOADS
    points = sizes if sizes is not None else default_index_sizes(scale)
    coverage = _sweep(
        names, scale, cores, seed, index_sizes=points, runner=runner,
        session=session,
    )

    rendered = series_table(
        "index buckets",
        list(points),
        coverage,
        title="Figure 5 (right): coverage vs. index-table size",
    )
    checks: list[ShapeCheck] = []
    for name in names:
        series = coverage[name]
        peak = max(series)
        span = peak - min(series)
        # Growth must be monotone, reach meaningful coverage, and be
        # levelling off: the final doubling contributes less than half
        # of the total range.
        final_gain = series[-1] - series[-2] if len(series) >= 2 else 0.0
        checks.append(
            ShapeCheck(
                claim=f"{name}: coverage grows with index size and "
                "approaches saturation (LRU keeps the useful entries)",
                passed=peak > 0.2
                and check_monotone(series, increasing=True, tolerance=0.05)
                and final_gain <= 0.5 * max(span, 1e-9),
                detail=" -> ".join(f"{v:.2f}" for v in series),
            )
        )
    return ExperimentResult(
        experiment="fig5-right",
        title="Index-table storage requirements",
        rendered=rendered,
        data={"sizes": list(points), "coverage": coverage},
        checks=checks,
    )
