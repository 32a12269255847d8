"""Scientific-workload generator (em3d, ocean, moldyn analogues).

Scientific codes iterate: every outer iteration re-executes (almost) the
same computation over the same data, so the entire iteration's miss
sequence is one enormous temporal stream — ~400 K misses for em3d, ~21 K
for ocean, ~81 K for moldyn in the paper's configurations.  Coverage is
therefore *bimodal* in history-buffer size (Fig. 5 left): capture a whole
iteration and nearly every miss is predicted; fall short and the stream
is overwritten before it recurs.

Each workload mixes an irregular traversal body (em3d's graph edges,
moldyn's neighbour lists) with optional strided sweeps (ocean's grid
relaxation) that the baseline stride prefetcher absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.base import GeneratorContext, TraceGenerator
from repro.workloads.trace import Trace, TraceBuilder


@dataclass(frozen=True)
class ScientificParams:
    """Tunables for one iterative scientific workload."""

    #: Length of the irregular per-iteration miss sequence, in blocks.
    iteration_blocks: int = 20_000
    #: Probability an irregular access depends on the previous one.
    dep_p: float = 0.6
    #: Probability of a small perturbation replacing a block each
    #: iteration (models boundary updates / neighbour-list rebuilds).
    perturb_p: float = 0.002
    #: Strided sweep blocks emitted per iteration (0 = none).
    sweep_blocks: int = 0
    #: Length of one contiguous sweep run.
    sweep_run: int = 128
    #: Mean compute cycles per irregular record.
    work_cycles: float = 120.0
    #: Mean compute cycles per strided-sweep record; ``None`` uses half
    #: the irregular cost.  Grid codes like ocean do most of their
    #: arithmetic inside the (stride-friendly) sweeps, so this is the
    #: knob that sets their memory-stall fraction.
    sweep_work_cycles: "float | None" = None
    write_p: float = 0.3
    hot_blocks: int = 64
    #: Visit-once region (I/O, reductions); small for scientific codes.
    noise_blocks: int = 4096
    #: Probability of a noise access between records.
    noise_p: float = 0.01

    def scaled(self, factor: float) -> "ScientificParams":
        if factor <= 0:
            raise ValueError("factor must be positive")
        return ScientificParams(
            iteration_blocks=max(64, int(self.iteration_blocks * factor)),
            dep_p=self.dep_p,
            perturb_p=self.perturb_p,
            sweep_blocks=int(self.sweep_blocks * factor),
            sweep_run=self.sweep_run,
            work_cycles=self.work_cycles,
            sweep_work_cycles=self.sweep_work_cycles,
            write_p=self.write_p,
            hot_blocks=self.hot_blocks,
            noise_blocks=max(256, int(self.noise_blocks * factor)),
            noise_p=self.noise_p,
        )


class ScientificGenerator(TraceGenerator):
    """Generates iteration-periodic scientific traces."""

    def __init__(self, name: str, params: ScientificParams) -> None:
        self.name = name
        self.params = params

    def generate(
        self, cores: int, records_per_core: int, seed: int
    ) -> Trace:
        if cores <= 0 or records_per_core <= 0:
            raise ValueError("cores and records_per_core must be positive")
        params = self.params
        # Each core owns a partition of the dataset (SPMD decomposition):
        # its iteration sequence is private, so per-core history buffers
        # see clean recurrence, exactly as in the paper's CMP argument.
        context = GeneratorContext(
            seed=seed,
            hot_blocks=params.hot_blocks,
            structure_blocks=max(
                params.iteration_blocks * cores * 2, 1024
            ),
            scan_blocks=max(params.sweep_blocks * cores, 1) + 1024,
            noise_blocks=params.noise_blocks,
        )
        rng = context.rng
        builders = [TraceBuilder() for _ in range(cores)]

        for builder in builders:
            iteration = context.alloc_stream(params.iteration_blocks)
            dep_flags = rng.random(params.iteration_blocks) < params.dep_p
            while len(builder) < records_per_core:
                self._emit_iteration(builder, context, iteration, dep_flags)
                iteration = self._perturb(context, iteration)

        return self._assemble(
            self.name,
            builders,
            working_set_blocks=context.total_blocks,
            warmup_fraction=self._warmup_fraction(records_per_core),
        )

    def _warmup_fraction(self, records_per_core: int) -> float:
        """Warm at least one full iteration so recurrence is learnable."""
        params = self.params
        per_iteration = params.iteration_blocks + params.sweep_blocks
        if per_iteration <= 0 or records_per_core <= 0:
            return 0.25
        fraction = min(0.5, 1.2 * per_iteration / records_per_core)
        return max(0.1, fraction)

    def _emit_iteration(
        self,
        builder: TraceBuilder,
        context: GeneratorContext,
        iteration: np.ndarray,
        dep_flags: np.ndarray,
    ) -> None:
        params = self.params
        rng = context.rng
        rng_random = rng.random
        work_mean = params.work_cycles
        write_p = params.write_p
        noise_p = params.noise_p
        blocks_column = builder._blocks
        work_column = builder._work
        dep_column = builder._dep
        write_column = builder._write
        # TraceBuilder.add and _work_cycles inlined; the field draw
        # order matches the unrolled calls exactly.  Each block's three
        # uniforms (work, write, noise gate) are pre-drawn in one call,
        # plus one more only when the gate fires — the exact per-draw
        # budget, which the pinned trace fingerprints depend on.
        for block, dep in zip(iteration.tolist(), dep_flags.tolist()):
            w, wr, gate = rng_random(3).tolist()
            blocks_column.append(block)
            work_column.append(work_mean * (0.5 + w))
            dep_column.append(dep)
            write_column.append(wr < write_p)
            if gate < noise_p:
                blocks_column.append(context.next_noise())
                work_column.append(work_mean * (0.5 + rng_random()))
                dep_column.append(False)
                write_column.append(False)
        sweep_work = (
            params.sweep_work_cycles
            if params.sweep_work_cycles is not None
            else params.work_cycles * 0.5
        )
        remaining = params.sweep_blocks
        while remaining > 0:
            run = context.next_scan_run(min(params.sweep_run, remaining))
            w, wr = rng_random(2).tolist()
            builder.extend(
                run,
                work=sweep_work * (0.5 + w),
                dep=False,
                write=wr < params.write_p,
            )
            remaining -= len(run)

    def _perturb(
        self, context: GeneratorContext, iteration: np.ndarray
    ) -> np.ndarray:
        """Replace a tiny fraction of blocks between iterations."""
        params = self.params
        rng = context.rng
        if params.perturb_p <= 0:
            return iteration
        mask = rng.random(len(iteration)) < params.perturb_p
        count = int(mask.sum())
        if count == 0:
            return iteration
        replacement = context.alloc_stream(count)
        updated = iteration.copy()
        updated[mask] = replacement
        return updated
