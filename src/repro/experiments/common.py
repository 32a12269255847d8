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
from typing import Sequence

from repro.sim.results import SimResult
from repro.sim.runner import ExperimentRunner, SimJob
from repro.sim.session import SimSession

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
