"""Decision-support (TPC-H style) generator.

DSS queries stream over fact tables once: the paper finds temporal
streaming ineffective for them "because they exhibit non-repetitive
access sequences where data is visited only once throughout execution".
The generator therefore emits mostly visit-once scans (partly covered by
the baseline stride prefetcher) and hash-probe noise, with only a small
recurring component from dimension-table and index traversals.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


from repro.workloads import compiled
from repro.workloads.base import (
    ACTIVITY_NOISE,
    ACTIVITY_SCAN,
    ACTIVITY_STREAM,
    ActivityMix,
    GeneratorContext,
    StreamPool,
    TraceGenerator,
)
from repro.workloads.trace import Trace, TraceBuilder


@dataclass(frozen=True)
class DssParams:
    """Tunables for a DSS query trace."""

    #: Few recurring structures (dimension tables / indexes).
    pool_streams: int = 40
    stream_median: float = 6.0
    stream_sigma: float = 0.8
    zipf_alpha: float = 0.8
    #: Scans dominate; probes (noise) are frequent; recurring part small.
    mix: ActivityMix = ActivityMix(stream=0.08, scan=0.54, noise=0.32,
                                   hot=0.06)
    truncate_p: float = 0.02
    stream_dep_p: float = 0.7
    #: Hash-join probes are largely independent -> MLP ~1.6 (Table 2).
    noise_dep_p: float = 0.75
    #: Per-record compute must keep the offered bandwidth of the
    #: scan-dominated miss stream below channel capacity, as on the
    #: paper's full-size system.
    work_cycles: float = 110.0
    write_p: float = 0.08
    hot_blocks: int = 192
    noise_blocks: int = 400_000
    scan_blocks: int = 500_000
    structure_blocks: int = 30_000
    scan_run: int = 96
    hot_run: int = 4

    def scaled(self, factor: float) -> "DssParams":
        if factor <= 0:
            raise ValueError("factor must be positive")
        return DssParams(
            pool_streams=max(4, int(self.pool_streams * factor)),
            stream_median=self.stream_median,
            stream_sigma=self.stream_sigma,
            zipf_alpha=self.zipf_alpha,
            mix=self.mix,
            truncate_p=self.truncate_p,
            stream_dep_p=self.stream_dep_p,
            noise_dep_p=self.noise_dep_p,
            work_cycles=self.work_cycles,
            write_p=self.write_p,
            hot_blocks=self.hot_blocks,
            noise_blocks=max(1024, int(self.noise_blocks * factor)),
            scan_blocks=max(1024, int(self.scan_blocks * factor)),
            structure_blocks=max(512, int(self.structure_blocks * factor)),
            scan_run=self.scan_run,
            hot_run=self.hot_run,
        )


class DssGenerator(TraceGenerator):
    """Generates scan-dominated decision-support traces."""

    def __init__(self, name: str, params: DssParams) -> None:
        self.name = name
        self.params = params

    def generate(
        self, cores: int, records_per_core: int, seed: int
    ) -> Trace:
        if cores <= 0 or records_per_core <= 0:
            raise ValueError("cores and records_per_core must be positive")
        params = self.params
        context = GeneratorContext(
            seed=seed,
            hot_blocks=params.hot_blocks,
            structure_blocks=params.structure_blocks,
            scan_blocks=params.scan_blocks,
            noise_blocks=params.noise_blocks,
        )
        pool = StreamPool(
            context,
            count=params.pool_streams,
            median_length=params.stream_median,
            sigma=params.stream_sigma,
            zipf_alpha=params.zipf_alpha,
        )
        # bisect over the normalized CDF consumes exactly one uniform
        # draw and picks exactly the index ``rng.choice(4, p=...)``
        # would — same trace, ~15x cheaper per activity draw.
        activity_cdf = params.mix.cdf()
        if context.native:
            columns = compiled.emit_activities(
                context, pool, activity_cdf, cores, records_per_core,
                interleave=0,
                hot_writes=0,
                scan_run=params.scan_run,
                hot_run=params.hot_run,
                work_mean=params.work_cycles,
                scan_work=params.work_cycles * 0.4,
                hot_work=params.work_cycles * 0.3,
                stream_dep_p=params.stream_dep_p,
                noise_dep_p=params.noise_dep_p,
                write_p=params.write_p,
                truncate_p=params.truncate_p,
            )
        else:
            columns = [
                self._emit_core(pool, context, activity_cdf,
                                records_per_core).freeze()
                for _ in range(cores)
            ]
        return self._assemble(
            self.name,
            columns,
            working_set_blocks=context.total_blocks,
            warmup_fraction=0.25,
        )

    def _emit_core(
        self,
        pool: StreamPool,
        context: GeneratorContext,
        activity_cdf: "list[float]",
        records_per_core: int,
    ) -> TraceBuilder:
        """One core's activities, in Python (the compiled loop's
        reference)."""
        params = self.params
        uniform = context.draws.uniform
        builder = TraceBuilder()
        while len(builder) < records_per_core:
            activity = bisect_right(activity_cdf, uniform())
            if activity == ACTIVITY_STREAM:
                self._emit_traversal(builder, pool, context)
            elif activity == ACTIVITY_SCAN:
                run = context.next_scan_run(params.scan_run)
                builder.extend(
                    run,
                    work=params.work_cycles * 0.4 * (0.5 + uniform()),
                    dep=False,
                    write=False,
                )
            elif activity == ACTIVITY_NOISE:
                u, i = context.draws.peek(3)
                context.draws.consume(i + 3)
                builder.add(
                    context.next_noise(),
                    work=params.work_cycles * (0.5 + u[i]),
                    dep=u[i + 1] < params.noise_dep_p,
                    write=u[i + 2] < params.write_p,
                )
            else:
                for _ in range(params.hot_run):
                    builder.add(
                        context.hot_block(),
                        work=params.work_cycles * 0.3 * (0.5 + uniform()),
                        dep=False,
                        write=False,
                    )
        return builder

    def _emit_traversal(
        self,
        builder: TraceBuilder,
        pool: StreamPool,
        context: GeneratorContext,
    ) -> None:
        # TraceBuilder.add inlined; each block reads its four uniforms
        # (work, dep, write, truncate gate) from the context's window in
        # that order — the exact draw order and count the pinned trace
        # fingerprints depend on.
        params = self.params
        work_mean = params.work_cycles
        stream_dep_p = params.stream_dep_p
        write_p = params.write_p
        truncate_p = params.truncate_p
        blocks = builder._blocks
        work = builder._work
        dep = builder._dep
        write = builder._write
        stream = pool.pick()
        u, i = context.draws.peek(4)
        limit = len(u) - 4
        for block in stream.tolist():
            if i > limit:
                context.draws.consume(i)
                u, i = context.draws.peek(4)
                limit = len(u) - 4
            blocks.append(block)
            work.append(work_mean * (0.5 + u[i]))
            dep.append(u[i + 1] < stream_dep_p)
            write.append(u[i + 2] < write_p)
            truncate = u[i + 3]
            i += 4
            if truncate < truncate_p:
                break
        context.draws.consume(i)
