"""Table 2: memory-level parallelism of off-chip reads (baseline).

The paper reports the MLP of each workload without STMS — the property
that sets how much opportunity an off-chip lookup forfeits (expected
coverage loss per stream is the lookup round trips times the MLP).
Paper values: Web 1.5, OLTP 1.3, DSS 1.6, em3d 1.7, moldyn 1.0,
ocean 1.2.
"""

from __future__ import annotations

from repro.analysis.report import format_table
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
        [PrefetcherKind.BASELINE],
        scale=scale,
        cores=cores,
        seed=seed,
        session=session,
    )
    measured: dict[str, float] = {}
    rows = []
    for name in names:
        result = grid[(name, PrefetcherKind.BASELINE)]
        measured[name] = result.mlp
        rows.append(
            [
                WORKLOAD_INFO[name].display,
                result.mlp,
                WORKLOAD_INFO[name].paper_mlp,
            ]
        )

    rendered = format_table(
        ["workload", "measured MLP", "paper MLP"],
        rows,
        title="Table 2: MLP of off-chip reads (baseline, stride only)",
    )

    checks = _shape_checks(names, measured)
    return ExperimentResult(
        experiment="table2",
        title="Memory-level parallelism of off-chip reads",
        rendered=rendered,
        data={"mlp": measured},
        checks=checks,
    )


def _shape_checks(
    names: "tuple[str, ...]", measured: "dict[str, float]"
) -> "list[ShapeCheck]":
    checks = [
        ShapeCheck(
            claim="MLP is low across the suite (pointer-chasing bounds "
            "overlap; paper range 1.0-1.7)",
            passed=all(1.0 <= measured[n] <= 3.5 for n in names),
            detail=", ".join(f"{n}={measured[n]:.2f}" for n in names),
        ),
    ]
    if "sci-moldyn" in names:
        checks.append(
            ShapeCheck(
                claim="moldyn is fully serialized (paper MLP = 1.0)",
                passed=measured["sci-moldyn"] <= 1.15,
                detail=f"moldyn = {measured['sci-moldyn']:.2f}",
            )
        )
    if "sci-em3d" in names and "sci-ocean" in names:
        checks.append(
            ShapeCheck(
                claim="em3d has the highest scientific MLP (paper: 1.7)",
                passed=measured["sci-em3d"]
                >= max(measured.get("sci-ocean", 0.0),
                       measured.get("sci-moldyn", 0.0)),
                detail=f"em3d = {measured['sci-em3d']:.2f}",
            )
        )
    if "oltp-db2" in names and "dss-db2" in names:
        checks.append(
            ShapeCheck(
                claim="DSS overlaps more than OLTP (paper: 1.6 vs 1.3)",
                passed=measured["dss-db2"] >= measured["oltp-db2"],
                detail=f"dss = {measured['dss-db2']:.2f}, "
                f"oltp = {measured['oltp-db2']:.2f}",
            )
        )
    return checks
