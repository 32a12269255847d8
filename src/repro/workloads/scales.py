"""Scale presets and workload names, without the generators.

The CLI, the runner, the session and the figure drivers need the preset
table, the names, labels and paper reference numbers of the eight suite
workloads and the mix presets to parse arguments, build cache keys and
label figures.  They live here, apart from
:mod:`repro.workloads.suite` and its NumPy trace generators and from
the mix grammar in :mod:`repro.workloads.mix`, so that control-plane
code can use them without importing either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class ScalePreset:
    """One consistent down-scaling of the paper's configuration."""

    name: str
    #: Trace records generated per core.
    records_per_core: int
    #: Multiplier applied to workload footprint parameters.
    footprint: float
    #: Multiplier applied to cache capacities (L1, L2).
    cache_scale: float
    #: Default per-core history-buffer capacity, in entries.
    history_entries: int
    #: Default shared index-table bucket count.
    index_buckets: int


SCALES: dict[str, ScalePreset] = {
    # Unit tests: seconds-fast, still exhibits recurrence (L2 = 64 KB).
    "test": ScalePreset("test", 6_000, 0.06, 1 / 128, 8_192, 1_024),
    # Examples / demos (L2 = 256 KB).
    "demo": ScalePreset("demo", 20_000, 0.12, 1 / 32, 16_384, 1_024),
    # Benchmarks: the default for figure regeneration (L2 = 256 KB).
    "bench": ScalePreset("bench", 40_000, 0.25, 1 / 32, 32_768, 2_048),
    # Largest preset: the longest traces and biggest meta-data (L2 = 256 KB).
    "full": ScalePreset("full", 80_000, 0.375, 1 / 32, 65_536, 4_096),
}

class WorkloadInfo(NamedTuple):
    """A suite workload's labels and the paper's reference numbers.

    (A named tuple: the control plane imports this module, and a frozen
    dataclass costs about four times as much to define.)
    """

    #: ``web``, ``oltp``, ``dss`` or ``sci``.
    category: str
    #: Label in figures and tables.
    display: str
    #: Published MLP of off-chip reads (paper Table 2).
    paper_mlp: float
    #: Approximate ideal-TMS coverage from Figure 4 (left).
    paper_ideal_coverage: float
    #: Approximate ideal-TMS speedup from Figure 4 (right).
    paper_ideal_speedup: float


#: Every suite workload, in the canonical bar order of the paper's
#: figures (the keys of :data:`repro.workloads.suite.WORKLOADS`, which
#: pairs each with its generator).
WORKLOAD_INFO: "dict[str, WorkloadInfo]" = {
    "web-apache": WorkloadInfo("web", "Web Apache", 1.5, 0.55, 1.12),
    "web-zeus": WorkloadInfo("web", "Web Zeus", 1.5, 0.6, 1.15),
    "oltp-db2": WorkloadInfo("oltp", "OLTP DB2", 1.3, 0.5, 1.08),
    "oltp-oracle": WorkloadInfo("oltp", "OLTP Oracle", 1.3, 0.45, 1.05),
    "dss-db2": WorkloadInfo("dss", "DSS DB2", 1.6, 0.2, 1.01),
    "sci-em3d": WorkloadInfo("sci", "Sci em3d", 1.7, 0.95, 1.8),
    "sci-moldyn": WorkloadInfo("sci", "Sci moldyn", 1.0, 0.85, 1.18),
    "sci-ocean": WorkloadInfo("sci", "Sci ocean", 1.2, 0.75, 1.12),
}

#: Canonical bar order used by the paper's figures: every suite
#: workload.
FIGURE_ORDER = tuple(WORKLOAD_INFO)


def workload_names() -> tuple[str, ...]:
    """All workload names in figure order."""
    return FIGURE_ORDER


def check_workload(name: str) -> str:
    """``name`` itself when it is a suite workload; ValueError if not."""
    if name not in FIGURE_ORDER:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(FIGURE_ORDER)}"
        )
    return name


def get_scale(scale: "str | ScalePreset") -> ScalePreset:
    if isinstance(scale, ScalePreset):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


#: Spec-string prefix marking a multiprogrammed mix.
MIX_PREFIX = "mix:"

#: Named recipes for the paper-motivated contention scenarios.  Each
#: preset cycles over the available cores, so ``mix-oltp-dss`` means
#: "alternate OLTP and DSS cores" at any core count.
MIX_PRESETS: "dict[str, str]" = {
    "mix-oltp-dss": "mix:oltp-db2+dss-db2",
    "mix-web-sci": "mix:web-apache+sci-em3d",
    "mix-commercial": "mix:oltp-db2+web-zeus",
    "mix-hetero": "mix:oltp-db2+web-apache+dss-db2+sci-ocean",
}


def is_mix(name: str) -> bool:
    """True when ``name`` addresses a mix (spec string or preset)."""
    return name.startswith(MIX_PREFIX) or name in MIX_PRESETS
