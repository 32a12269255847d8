"""Experiment drivers: one module per figure/table of the paper.

Each driver regenerates its figure at a chosen scale preset and attaches
shape checks for the paper's qualitative claims:

========  ==============================================  =================
id        what it reproduces                              entry point
========  ==============================================  =================
fig1L     coverage vs. correlation-table entries          fig1_entries.run
fig1R     prior designs' traffic overheads                fig1_prior_traffic.run
fig4      idealized TMS coverage and speedup              fig4_potential.run
fig5L     coverage vs. history-buffer size                fig5_storage.run_history
fig5R     coverage vs. index-table size                   fig5_storage.run_index
fig6L     streamed-block CDF by stream length             fig6_amortize.run_cdf
fig6R     coverage loss vs. fixed prefetch depth          fig6_amortize.run_depth
fig7      traffic breakdown at 100% vs 12.5% sampling     fig7_traffic.run
fig8      sampling-probability sweep                      fig8_sampling.run
fig9      STMS vs. idealized TMS                          fig9_performance.run
table2    MLP of off-chip reads                           table2_mlp.run
mix-c..   multiprogrammed shared-L2/DRAM contention       mix_contention.run
========  ==============================================  =================
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult


class Driver(NamedTuple):
    """An experiment's entry point, named by module and function.

    Calling it imports the driver module first, so a process pays only
    for the drivers it runs.
    """

    module: str
    function: str

    def resolve(self):
        """The entry-point function (imports its module)."""
        module = importlib.import_module(f"repro.experiments.{self.module}")
        return getattr(module, self.function)

    def __call__(self, **options: object) -> ExperimentResult:
        return self.resolve()(**options)


#: Registry mapping experiment ids to their entry points.
EXPERIMENTS = {
    "fig1-left": Driver("fig1_entries", "run"),
    "fig1-right": Driver("fig1_prior_traffic", "run"),
    "fig4": Driver("fig4_potential", "run"),
    "fig5-left": Driver("fig5_storage", "run_history"),
    "fig5-right": Driver("fig5_storage", "run_index"),
    "fig6-left": Driver("fig6_amortize", "run_cdf"),
    "fig6-right": Driver("fig6_amortize", "run_depth"),
    "fig7": Driver("fig7_traffic", "run"),
    "fig8": Driver("fig8_sampling", "run"),
    "fig9": Driver("fig9_performance", "run"),
    "table2": Driver("table2_mlp", "run"),
    "mix-contention": Driver("mix_contention", "run"),
}

#: Experiments whose drivers accept the budgeted-sampling options
#: (``budget`` / ``confidence`` / ``ci_width`` / ``sample_seeds``).
SAMPLED_EXPERIMENTS = frozenset({"fig8", "mix-contention"})


def run_experiment(name: str, **options: object) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`)."""
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    return entry(**options)


__all__ = ["EXPERIMENTS", "SAMPLED_EXPERIMENTS", "run_experiment"]
