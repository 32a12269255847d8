"""Scale presets and workload names, without the generators.

The CLI, the runner, the session and the figure drivers need the preset
table, the names of the eight suite workloads and the mix presets to
parse arguments and build cache keys.  They live here, apart from
:mod:`repro.workloads.suite` and its NumPy trace generators and from
the mix grammar in :mod:`repro.workloads.mix`, so that control-plane
code can use them without importing either.
"""

from __future__ import annotations

from dataclasses import dataclass


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

#: Canonical bar order used by the paper's figures: every suite
#: workload (the keys of :data:`repro.workloads.suite.WORKLOADS`).
FIGURE_ORDER = (
    "web-apache",
    "web-zeus",
    "oltp-db2",
    "oltp-oracle",
    "dss-db2",
    "sci-em3d",
    "sci-moldyn",
    "sci-ocean",
)


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
