"""The machine configuration of one simulation, and the engine choice
(the ``REPRO_SIM_ENGINE`` knob, and which cells the compiled kernel
models).  Every result key hashes a :class:`SimConfig`; this module
loads no model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.config import StmsFactory
from repro.memory.config import CmpConfig, DramConfig
from repro.sim.timing import TimingModel


@dataclass(frozen=True)
class SimConfig:
    """Machine configuration for one simulation."""

    cmp: CmpConfig = field(default_factory=CmpConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    timing: TimingModel = field(default_factory=TimingModel)
    #: Include the base system's stride prefetcher (paper baseline does).
    use_stride: bool = True
    #: Track per-core MLP of uncovered off-chip reads (Table 2).
    track_mlp: bool = True
    #: Collect the per-core off-chip read-miss address sequence during
    #: the measured phase (offline temporal-stream analysis, Fig. 6).
    collect_miss_log: bool = False
    #: Execution engine: ``"batch"`` (the default: baseline and STMS
    #: cells run in the compiled kernel of :mod:`repro.sim.native`,
    #: other temporal prefetchers in :mod:`repro.sim.batch`, the
    #: reference loop with a fused per-record step),
    #: ``"scalar"`` (the reference implementation), or ``"auto"`` (the
    #: ``REPRO_SIM_ENGINE`` environment variable, then ``"batch"``).
    #: Both engines produce identical results; the equivalence is
    #: enforced by ``tests/sim/test_engine_equivalence``.
    engine: str = "auto"


def resolve_engine(engine: str) -> str:
    """Map an engine request to a concrete engine name.

    ``"auto"`` reads ``REPRO_SIM_ENGINE``, where an empty value means
    unset (as for every ``REPRO_*`` knob); both give ``"batch"``.
    """
    origin = ""
    if engine == "auto":
        engine = os.environ.get("REPRO_SIM_ENGINE") or "batch"
        origin = " from REPRO_SIM_ENGINE"
        if engine == "auto":
            engine = "batch"
    if engine not in ("batch", "scalar"):
        raise ValueError(
            f"unknown engine {engine!r}{origin} (batch/scalar/auto)"
        )
    return engine


def kernel_cell(temporal_factory) -> bool:
    """Whether the compiled kernel models this cell: no temporal
    prefetcher, or STMS built by a
    :class:`~repro.core.config.StmsFactory` (what ``make_factory``
    returns for ``PrefetcherKind.STMS``)."""
    return temporal_factory is None or isinstance(
        temporal_factory, StmsFactory
    )
