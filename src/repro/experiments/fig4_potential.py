"""Figure 4: performance potential of idealized temporal streaming.

Left graph: prefetch coverage of an idealized TMS (magic on-chip
meta-data) over the baseline with stride prefetching.  Right graph: the
corresponding speedup.  Paper shape: 40-60 % coverage for OLTP/Web with
5-18 % speedup, near-perfect coverage and the largest speedups for the
scientific codes, and DSS gaining essentially nothing because its data
is visited once.
"""

from __future__ import annotations

from repro.analysis.report import grouped_bar_chart
from repro.experiments.common import (
    ExperimentResult,
    ShapeCheck,
    get_runner,
)
from repro.sim.runner import ExperimentRunner, PrefetcherKind
from repro.sim.session import SimSession
from repro.workloads.scales import FIGURE_ORDER, WORKLOAD_INFO


def run(
    scale: str = "bench",
    cores: int = 4,
    seed: int = 7,
    workloads: "tuple[str, ...] | None" = None,
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
) -> ExperimentResult:
    names = workloads if workloads is not None else FIGURE_ORDER
    grid = get_runner(runner).run_grid(
        names,
        [PrefetcherKind.BASELINE, PrefetcherKind.IDEAL_TMS],
        scale=scale,
        cores=cores,
        seed=seed,
        session=session,
    )
    coverage: dict[str, float] = {}
    speedup: dict[str, float] = {}
    for name in names:
        baseline = grid[(name, PrefetcherKind.BASELINE)]
        ideal = grid[(name, PrefetcherKind.IDEAL_TMS)]
        coverage[name] = ideal.coverage.coverage
        speedup[name] = ideal.speedup_over(baseline)

    labels = [WORKLOAD_INFO[name].display for name in names]
    rendered = "\n\n".join(
        [
            grouped_bar_chart(
                labels,
                {"coverage": [coverage[n] for n in names]},
                title="Figure 4 (left): idealized TMS coverage",
            ),
            grouped_bar_chart(
                labels,
                {"speedup": [speedup[n] - 1.0 for n in names]},
                title="Figure 4 (right): idealized TMS speedup (fraction)",
            ),
        ]
    )

    checks = _shape_checks(names, coverage, speedup)
    return ExperimentResult(
        experiment="fig4",
        title="Performance potential of idealized prefetcher",
        rendered=rendered,
        data={"coverage": coverage, "speedup": speedup},
        checks=checks,
    )


def _shape_checks(
    names: "tuple[str, ...]",
    coverage: dict[str, float],
    speedup: dict[str, float],
) -> "list[ShapeCheck]":
    checks: list[ShapeCheck] = []
    commercial = [
        n for n in names if WORKLOAD_INFO[n].category in ("web", "oltp")
    ]
    sci = [n for n in names if WORKLOAD_INFO[n].category == "sci"]
    dss = [n for n in names if WORKLOAD_INFO[n].category == "dss"]

    if commercial:
        values = [coverage[n] for n in commercial]
        checks.append(
            ShapeCheck(
                claim="OLTP/Web coverage lands in the paper's 40-60% band "
                "(tolerance 25-70%)",
                passed=all(0.25 <= v <= 0.70 for v in values),
                detail=", ".join(f"{n}={coverage[n]:.2f}" for n in commercial),
            )
        )
        speedups = [speedup[n] for n in commercial]
        checks.append(
            ShapeCheck(
                claim="OLTP/Web speedup lands in the paper's 5-18% band "
                "(tolerance 3-25%)",
                passed=all(1.03 <= s <= 1.25 for s in speedups),
                detail=", ".join(f"{n}={speedup[n]:.3f}" for n in commercial),
            )
        )
    if sci:
        checks.append(
            ShapeCheck(
                claim="Scientific coverage is near-perfect (>= 70%)",
                passed=all(coverage[n] >= 0.70 for n in sci),
                detail=", ".join(f"{n}={coverage[n]:.2f}" for n in sci),
            )
        )
        if commercial:
            checks.append(
                ShapeCheck(
                    claim="Largest speedup comes from a scientific workload "
                    "(paper: em3d, up to 80%)",
                    passed=max(speedup, key=speedup.get) in sci,
                    detail=f"max = {max(speedup, key=speedup.get)}",
                )
            )
    if dss:
        checks.append(
            ShapeCheck(
                claim="DSS derives no meaningful speedup (visit-once data)",
                passed=all(0.95 <= speedup[n] <= 1.06 for n in dss),
                detail=", ".join(f"{n}={speedup[n]:.3f}" for n in dss),
            )
        )
        if commercial:
            checks.append(
                ShapeCheck(
                    claim="DSS coverage is the lowest among server workloads",
                    passed=all(
                        coverage[d] <= min(coverage[c] for c in commercial)
                        for d in dss
                    ),
                    detail=", ".join(f"{n}={coverage[n]:.2f}" for n in dss),
                )
            )
    return checks
