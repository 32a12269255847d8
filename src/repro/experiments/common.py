"""Shared infrastructure for the per-figure experiment drivers.

Every experiment module exposes ``run(scale=..., cores=..., seed=...)``
returning an :class:`ExperimentResult`: the regenerated figure as ASCII,
the raw series, and a list of *shape checks* — assertions about the
qualitative result the paper reports (who wins, what saturates, what
decays).  Absolute numbers are not expected to match the paper (our
substrate is a scaled simulator, not the authors' testbed); the shape
checks encode what must hold for the reproduction to be faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.analysis.report import format_table
from repro.sim.results import SimResult
from repro.sim.runner import ExperimentRunner, SimJob
from repro.sim.session import SimSession, get_session
from repro.sim.store import estimate_digest

if TYPE_CHECKING:
    from repro.analysis.stats import CIEstimate
    from repro.sim.sampling import SamplingPlan

_DEFAULT_RUNNER: "ExperimentRunner | None" = None


def get_runner(runner: "ExperimentRunner | None" = None) -> ExperimentRunner:
    """The runner shared by all experiment drivers (unless overridden)."""
    global _DEFAULT_RUNNER
    if runner is not None:
        return runner
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = ExperimentRunner()
    return _DEFAULT_RUNNER


def simulate_jobs(
    jobs: "Sequence[SimJob]",
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
) -> "list[SimResult]":
    """Fan a job list out on the shared runner (order-preserving).

    ``session`` selects the cache tiers (memory + optional artifact
    store); None uses the process-global session.  The CLI threads its
    ``--no-cache``/``--store-dir`` choice through this parameter.
    """
    return get_runner(runner).map(jobs, session=session)


@dataclass
class ShapeCheck:
    """One qualitative claim from the paper, verified against our data."""

    claim: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.claim}{suffix}"


@dataclass
class ExperimentResult:
    """Everything one experiment run produces."""

    experiment: str
    title: str
    rendered: str
    data: dict = field(default_factory=dict)
    checks: "list[ShapeCheck]" = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        parts = [f"== {self.experiment}: {self.title} ==", self.rendered]
        if self.checks:
            parts.append("")
            parts.extend(check.render() for check in self.checks)
        return "\n".join(parts)


def check_monotone(
    values: Sequence[float],
    increasing: bool = True,
    tolerance: float = 0.02,
    floor: "float | None" = None,
) -> bool:
    """True when the series is monotone up to a magnitude-scaled slack.

    The shape checks apply this to series whose units range from
    coverage fractions (magnitude ~1) to traffic bytes (magnitude in
    the thousands); a fixed absolute slack cannot serve both.
    ``tolerance`` is therefore *relative*: the allowed backslide per
    step is ``tolerance * max(|v|)``, with ``floor`` (default: the
    ``tolerance`` value itself) as the absolute lower bound.  For
    fraction-scaled series (magnitude <= 1) the behaviour is exactly
    the historical absolute one, so no existing shape check tightens.
    """
    if not values:
        return True
    magnitude = max(abs(value) for value in values)
    slack = max(floor if floor is not None else tolerance,
                tolerance * magnitude)
    for earlier, later in zip(values, values[1:]):
        if increasing and later < earlier - slack:
            return False
        if not increasing and later > earlier + slack:
            return False
    return True


# ----------------------------------------------------------------------
# Budgeted sampled sweeps (the sampling layer's experiment-facing side).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingSpec:
    """How (and whether) a driver runs its grid as a budgeted sample.

    ``budget`` is a cell count over the (seed x sweep-point) grid;
    ``ci_width`` optionally asks for refinement: the budget doubles
    (nested plans, so already-simulated cells are reused) until every
    stratum's confidence interval on the driver's target metric is at
    most this wide, or the grid is exhausted.  ``seeds`` widens the
    grid with per-seed replicas so strata hold enough cells to
    estimate from.  With neither ``budget`` nor ``ci_width`` set the
    spec is inactive and drivers take their exact full-grid path.
    """

    budget: "int | None" = None
    confidence: float = 0.95
    ci_width: "float | None" = None
    seeds: int = 4

    @property
    def active(self) -> bool:
        return self.budget is not None or self.ci_width is not None

    def seed_replicas(self, seed: int) -> "tuple[int, ...]":
        """The grid's seed axis: ``seed`` and the next ``seeds - 1``."""
        return tuple(seed + i for i in range(max(1, self.seeds)))


@dataclass
class SampledSweep:
    """Everything one budgeted sampled sweep produced, and its report.

    Strata appear in the report in first-seen grid order (the order of
    ``plan.by_stratum()``).
    """

    plan: SamplingPlan
    spec: SamplingSpec
    #: Per metric, per stratum: the bootstrap CI of the stratum mean.
    #: The first metric is the one a ``ci_width`` refinement tightens.
    estimates: "dict[str, dict[object, CIEstimate]]"
    simulated_cells: int
    reused_cells: int
    #: Budget trajectory over refinement rounds (one entry per plan).
    rounds: "list[int]"
    #: Digest of the persisted sampled-estimate record (None when the
    #: session has no artifact store).
    estimate_record: "str | None" = None

    @property
    def confidence(self) -> float:
        return self.spec.confidence

    def summary_line(self) -> str:
        """The one-line footer the CLI/CI greps for."""
        plan = self.plan
        mode = "exact" if plan.exhaustive else "sampled"
        return (
            f"sampling: {mode} {plan.budget}/{plan.total} cells "
            f"({plan.fraction:.0%}), {self.simulated_cells} simulated, "
            f"{self.reused_cells} reused, "
            f"rounds {'->'.join(str(b) for b in self.rounds)}, "
            f"confidence {self.confidence:g}"
        )

    def render(
        self,
        axis: str,
        label: "Callable[[object], str]",
        columns: "dict[str, str]",
        title: str,
    ) -> str:
        """The per-stratum estimate table and the summary footer.

        One row per stratum: ``label(stratum)`` under the ``axis``
        header, its selected cell count, then one interval per metric
        of ``columns`` (metric name -> header, in column order).
        """
        ci_label = f"ci{self.confidence * 100:g}"
        rows = [
            [label(stratum), str(len(indices))]
            + [self.estimates[metric][stratum].render() for metric in columns]
            for stratum, indices in self.plan.by_stratum().items()
        ]
        headers = [axis, "n"] + [
            f"{header} ({ci_label})" for header in columns.values()
        ]
        table = format_table(headers, rows, title=title)
        return "\n\n".join([table, self.summary_line()])

    def _summary(self) -> dict:
        """The plan and its cell counts, as both payloads carry them."""
        plan = self.plan
        return {
            "budget": plan.budget,
            "total": plan.total,
            "fraction": plan.fraction,
            "confidence": self.confidence,
            "rounds": self.rounds,
            "simulated_cells": self.simulated_cells,
            "reused_cells": self.reused_cells,
        }

    def data(self, key: "Callable[[object], str]", **grid: object) -> dict:
        """The report's raw payload; ``key`` names each stratum and
        ``grid`` (the driver's grid axes) extends the sampling block."""
        return {
            "sampled": not self.plan.exhaustive,
            "sampling": {
                **self._summary(),
                "estimate_record": self.estimate_record,
                **grid,
            },
            "strata": {
                key(stratum): {
                    metric: per_stratum[stratum].as_dict()
                    for metric, per_stratum in self.estimates.items()
                }
                for stratum in self.plan.by_stratum()
            },
        }

    def checks(
        self, strata_name: str, domain_check: ShapeCheck
    ) -> "list[ShapeCheck]":
        """Every stratum represented with well-formed intervals, the
        driver's ``domain_check``, and the CI-width target met."""
        plan, ci_width = self.plan, self.spec.ci_width
        strata = plan.by_stratum()
        well_formed = all(
            ci is not None and ci.lo <= ci.mean <= ci.hi and ci.n >= 1
            for per_stratum in self.estimates.values()
            for ci in map(per_stratum.get, strata)
        )
        target = next(iter(self.estimates.values()))
        width_ok = (
            ci_width is None
            or plan.exhaustive
            or all(ci.width <= ci_width for ci in target.values())
        )
        return [
            ShapeCheck(
                claim=f"Every {strata_name} stratum is represented and its "
                "bootstrap intervals are well-formed",
                passed=well_formed,
                detail=f"{len(strata)} strata, "
                f"budget {plan.budget}/{plan.total}",
            ),
            domain_check,
            ShapeCheck(
                claim="Refinement met the requested CI width (or exhausted "
                "the grid)",
                passed=width_ok,
                detail=f"rounds {self.rounds}",
            ),
        ]


def run_sampled_sweep(
    jobs_by_cell: "Sequence[Sequence[SimJob]]",
    strata: "Sequence[object]",
    spec: SamplingSpec,
    metrics: "Callable[[list[SimResult]], dict[str, float]]",
    experiment: str,
    grid_key: object,
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
    sample_seed: int = 0,
) -> SampledSweep:
    """Run a budgeted stratified sample of a sweep grid.

    ``metrics`` maps one cell's job results (in job order) to its named
    metrics; the first name is the refinement target.  Each round
    bootstraps only the target; the other metrics are bootstrapped once,
    on the final plan.

    The selected cells go through the unchanged
    ``run_sweep``/``ExperimentRunner.map`` path (via
    :func:`simulate_jobs`) under their exact per-cell recipe keys, so
    the artifact store answers any cell a previous run — sampled or
    exact — already simulated.  That store probe is what makes
    refinement incremental: re-running with a larger budget (or a
    ``ci_width`` target driving the internal doubling loop) only pays
    for the cells the previous budget did not cover.

    Cells served entirely from the cache tiers count as ``reused``
    (the refinement-reuse counter); a cell is charged as simulated
    when any of its jobs actually ran (ceil attribution over the
    session's ``sim_misses`` delta).
    """
    from repro.analysis.stats import stratified_estimates
    from repro.sim.sampling import plan_sample

    if not jobs_by_cell or len(jobs_by_cell) != len(strata):
        raise ValueError("one stratum per grid cell (and a cell) required")
    session = session if session is not None else get_session()
    total = len(jobs_by_cell)
    stratum_count = len(set(strata))
    budget = (
        spec.budget if spec.budget is not None
        else min(total, 2 * stratum_count)
    )
    #: Per selected grid cell: its named metrics.
    cell_metrics: "dict[int, dict[str, float]]" = {}
    simulated_cells = 0
    reused_cells = 0
    rounds: "list[int]" = []

    def bootstrap(metric: str) -> "dict[object, CIEstimate]":
        """``metric``'s per-stratum CIs over the current ``plan``."""
        return stratified_estimates(
            {
                stratum: [cell_metrics[i][metric] for i in indices]
                for stratum, indices in plan.by_stratum().items()
                if indices
            },
            confidence=spec.confidence,
            seed=sample_seed,
        )

    while True:
        plan = plan_sample(strata, budget, seed=sample_seed)
        rounds.append(plan.budget)
        fresh = [i for i in plan.selected if i not in cell_metrics]
        if fresh:
            flat = [job for i in fresh for job in jobs_by_cell[i]]
            before = session.stats.sim_misses
            flat_results = simulate_jobs(flat, runner, session)
            simulated_jobs = session.stats.sim_misses - before
            cursor = 0
            for i in fresh:
                count = len(jobs_by_cell[i])
                cell_metrics[i] = metrics(flat_results[cursor:cursor + count])
                cursor += count
            jobs_per_cell = max(len(jobs_by_cell[i]) for i in fresh)
            fresh_simulated = min(
                len(fresh),
                -(-simulated_jobs // jobs_per_cell),  # ceil division
            )
            simulated_cells += fresh_simulated
            reused_cells += len(fresh) - fresh_simulated
        target, *others = cell_metrics[plan.selected[0]]
        estimates = {target: bootstrap(target)}
        if spec.ci_width is None or plan.exhaustive:
            break
        # A single-cell stratum yields a degenerate zero-width interval
        # that would satisfy any target; it must refine, not stop.
        if all(
            ci.n >= 2 and ci.width <= spec.ci_width
            for ci in estimates[target].values()
        ):
            break
        budget = min(total, plan.budget * 2)
    for metric in others:
        estimates[metric] = bootstrap(metric)
    outcome = SampledSweep(
        plan=plan,
        spec=spec,
        estimates=estimates,
        simulated_cells=simulated_cells,
        reused_cells=reused_cells,
        rounds=rounds,
    )

    stats = session.stats
    if plan.exhaustive:
        stats.sampling_exact_cells += plan.budget
    else:
        stats.sampling_sampled_cells += plan.budget
    stats.sampling_reused_cells += reused_cells
    if session.store is not None:
        digest = estimate_digest(
            (experiment, grid_key, sample_seed, plan.budget,
             spec.confidence)
        )
        if session.store.save_estimate(
            digest,
            {
                "experiment": experiment,
                "sampled": not plan.exhaustive,
                **outcome._summary(),
                "strata": {
                    str(stratum): estimate.as_dict()
                    for stratum, estimate in estimates[target].items()
                },
            },
        ):
            outcome.estimate_record = digest
    session.persist_counters()
    return outcome


def note_exact_cells(session: "SimSession | None", cells: int) -> None:
    """Record that a driver ran ``cells`` grid cells on its exact path.

    The persistent ``sampling_exact_cells`` counter is the contrast
    ``cache stats`` reports sampled budgets against.
    """
    if cells <= 0:
        return
    session = session if session is not None else get_session()
    session.stats.sampling_exact_cells += cells
    session.persist_counters()


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0 if any is non-positive)."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            return 0.0
        product *= value
    return product ** (1.0 / len(values))
