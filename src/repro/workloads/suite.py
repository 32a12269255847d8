"""Registry of the paper's eight evaluation workloads, scaled.

Table 1 of the paper lists Apache and Zeus (SPECweb99), DB2 and Oracle
(TPC-C), a TPC-H DSS query on DB2, and em3d / moldyn / ocean.  Each entry
here pairs a generator with calibration targets taken from the paper
(Table 2 MLP, Figure 4 coverage/speedup bands, kept with the labels in
:data:`repro.workloads.scales.WORKLOAD_INFO`) so tests and the
experiments' shape checks can compare measured behaviour against the
published shape.

Everything is scaled down from server size by a named *scale preset*
(:mod:`repro.workloads.scales`, which also names the workloads without
importing the generators); presets shrink trace length, footprint,
cache size, and meta-data capacity together so the capacity ratios
that drive the results survive.
The load-bearing ratio is stream-pool footprint to L2 capacity: the
recurring structures must comfortably exceed the cache (as the paper's
multi-gigabyte working sets exceed 8 MB), otherwise temporal streams
would be cache-resident and never produce off-chip misses to predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.workloads.base import ActivityMix, TraceGenerator
from repro.workloads.commercial import CommercialGenerator, CommercialParams
from repro.workloads.dss import DssGenerator, DssParams
from repro.workloads.scales import (  # noqa: F401  (re-exported)
    FIGURE_ORDER,
    SCALES,
    ScalePreset,
    check_workload,
    get_scale,
    is_mix,
    workload_names,
)
from repro.workloads.scientific import ScientificGenerator, ScientificParams
from repro.workloads.trace import Trace

Params = Union[CommercialParams, DssParams, ScientificParams]


@dataclass(frozen=True)
class WorkloadSpec:
    """One paper workload's generator recipe (its labels and published
    reference bands are :data:`~repro.workloads.scales.WORKLOAD_INFO`)."""

    name: str
    base_params: Params
    make: Callable[[str, Params], TraceGenerator]
    #: Extra footprint multiplier relative to the preset (scientific
    #: iteration lengths scale differently from commercial working sets).
    footprint_bias: float = 1.0
    #: Extra trace-length multiplier (iterative codes need several full
    #: iterations regardless of preset).
    records_bias: float = 1.0

    def generator(self, scale: ScalePreset) -> TraceGenerator:
        factor = scale.footprint * self.footprint_bias
        return self.make(self.name, self.base_params.scaled(factor))

    def records(self, scale: ScalePreset) -> int:
        return max(1, int(scale.records_per_core * self.records_bias))


def _commercial(name: str, params: Params) -> TraceGenerator:
    assert isinstance(params, CommercialParams)
    return CommercialGenerator(name, params)


def _dss(name: str, params: Params) -> TraceGenerator:
    assert isinstance(params, DssParams)
    return DssGenerator(name, params)


def _scientific(name: str, params: Params) -> TraceGenerator:
    assert isinstance(params, ScientificParams)
    return ScientificGenerator(name, params)


WORKLOADS: dict[str, WorkloadSpec] = {
    "web-apache": WorkloadSpec(
        name="web-apache",
        base_params=CommercialParams(
            pool_streams=8_000,
            stream_median=8.0,
            stream_sigma=1.5,
            zipf_alpha=0.95,
            mix=ActivityMix(stream=0.62, scan=0.08, noise=0.22, hot=0.08),
            stream_dep_p=0.62,
            noise_dep_p=0.5,
            work_cycles=115.0,
        ),
        make=_commercial,
    ),
    "web-zeus": WorkloadSpec(
        name="web-zeus",
        base_params=CommercialParams(
            pool_streams=7_000,
            stream_median=9.0,
            stream_sigma=1.55,
            zipf_alpha=1.0,
            mix=ActivityMix(stream=0.66, scan=0.07, noise=0.19, hot=0.08),
            stream_dep_p=0.62,
            noise_dep_p=0.5,
            work_cycles=105.0,
        ),
        make=_commercial,
    ),
    "oltp-db2": WorkloadSpec(
        name="oltp-db2",
        base_params=CommercialParams(
            pool_streams=9_000,
            stream_median=7.0,
            stream_sigma=1.45,
            zipf_alpha=0.9,
            mix=ActivityMix(stream=0.58, scan=0.10, noise=0.24, hot=0.08),
            stream_dep_p=0.85,
            noise_dep_p=0.6,
            work_cycles=140.0,
        ),
        make=_commercial,
    ),
    "oltp-oracle": WorkloadSpec(
        name="oltp-oracle",
        base_params=CommercialParams(
            pool_streams=10_000,
            stream_median=7.0,
            stream_sigma=1.5,
            zipf_alpha=0.85,
            mix=ActivityMix(stream=0.50, scan=0.08, noise=0.24, hot=0.18),
            stream_dep_p=0.85,
            noise_dep_p=0.6,
            work_cycles=175.0,
        ),
        make=_commercial,
    ),
    "dss-db2": WorkloadSpec(
        name="dss-db2",
        base_params=DssParams(pool_streams=800),
        make=_dss,
    ),
    "sci-em3d": WorkloadSpec(
        name="sci-em3d",
        base_params=ScientificParams(
            iteration_blocks=64_000,
            dep_p=0.32,
            perturb_p=0.0005,
            sweep_blocks=0,
            work_cycles=70.0,
            noise_p=0.005,
        ),
        make=_scientific,
        records_bias=1.5,
    ),
    "sci-moldyn": WorkloadSpec(
        name="sci-moldyn",
        base_params=ScientificParams(
            iteration_blocks=28_000,
            dep_p=0.95,
            perturb_p=0.002,
            sweep_blocks=3_000,
            work_cycles=520.0,
            noise_p=0.01,
        ),
        make=_scientific,
    ),
    "sci-ocean": WorkloadSpec(
        name="sci-ocean",
        base_params=ScientificParams(
            iteration_blocks=26_000,
            dep_p=0.68,
            perturb_p=0.001,
            sweep_blocks=16_000,
            work_cycles=60.0,
            sweep_work_cycles=1_500.0,
            noise_p=0.01,
        ),
        make=_scientific,
    ),
}


def get_spec(name: str) -> WorkloadSpec:
    return WORKLOADS[check_workload(name)]


def generate(
    name: str,
    scale: "str | ScalePreset" = "bench",
    cores: int = 4,
    seed: int = 7,
    records_per_core: "int | None" = None,
) -> Trace:
    """Generate one suite workload (or ``mix:...`` recipe) at a preset."""
    if is_mix(name):
        # Late import: repro.workloads.mix composes this module's specs.
        from repro.workloads.mix import generate_mix

        return generate_mix(
            name,
            scale=scale,
            cores=cores,
            seed=seed,
            records_per_core=records_per_core,
        )
    spec = get_spec(name)
    preset = get_scale(scale)
    records = (
        records_per_core
        if records_per_core is not None
        else spec.records(preset)
    )
    generator = spec.generator(preset)
    return generator.generate(cores=cores, records_per_core=records, seed=seed)
