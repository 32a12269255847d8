"""Commercial-workload generator (OLTP and web serving).

Transaction-processing and web workloads are dominated by pointer-chasing
traversals of shared structures (B-trees, connection tables, buffer-pool
chains).  Every transaction re-walks structures other transactions also
walk, so miss sequences recur — but interleaved with visit-once noise,
occasional early exits, and stride-friendly sequential bursts.  Those
four ingredients set the ceiling on temporal-prefetch coverage (the paper
measures 40–60 % ideal coverage for OLTP/Web) and produce the smooth
coverage-vs-history-size curves of Figure 5.
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
class CommercialParams:
    """Tunables for one commercial workload variant.

    The per-workload values live in :mod:`repro.workloads.suite`; they are
    calibrated so the measured coverage / MLP / speedup land in the
    paper's reported bands.
    """

    #: Number of recurring structures shared by all cores.
    pool_streams: int = 400
    #: Median temporal-stream length in blocks (log-normal body).
    stream_median: float = 8.0
    #: Log-normal sigma; larger values fatten the long-stream tail.  The
    #: paper's Figure 6 (left) shows half of commercial *streamed blocks*
    #: coming from streams of ten or more misses, with a tail into the
    #: hundreds; a sigma around 1.5 reproduces that weighted CDF.
    stream_sigma: float = 1.5
    #: Popularity skew across structures (1.0 = classic Zipf).
    zipf_alpha: float = 0.85
    #: Activity mix of the miss stream.
    mix: ActivityMix = ActivityMix(stream=0.62, scan=0.10, noise=0.20,
                                   hot=0.08)
    #: Probability a traversal exits early (per block emitted).
    truncate_p: float = 0.01
    #: Probability of injecting a visit-once access inside a traversal.
    interleave_noise_p: float = 0.04
    #: Probability a stream access is on the dependence chain.
    stream_dep_p: float = 0.85
    #: Probability a noise access is on the dependence chain.
    noise_dep_p: float = 0.55
    #: Mean compute cycles per record (calibrates memory-stall fraction).
    work_cycles: float = 42.0
    #: Fraction of accesses that are stores.
    write_p: float = 0.18
    #: Cache-resident hot set size in blocks.
    hot_blocks: int = 256
    #: Visit-once region size in blocks.
    noise_blocks: int = 300_000
    #: Sequential-scan region size in blocks.
    scan_blocks: int = 100_000
    #: Structure region size in blocks (bounds total stream footprint).
    structure_blocks: int = 220_000
    #: Length of one sequential burst in blocks.
    scan_run: int = 48
    #: Length of one hot-set burst.
    hot_run: int = 6

    def scaled(self, factor: float) -> "CommercialParams":
        """Shrink/grow the footprint-defining parameters together."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return CommercialParams(
            pool_streams=max(8, int(self.pool_streams * factor)),
            stream_median=self.stream_median,
            stream_sigma=self.stream_sigma,
            zipf_alpha=self.zipf_alpha,
            mix=self.mix,
            truncate_p=self.truncate_p,
            interleave_noise_p=self.interleave_noise_p,
            stream_dep_p=self.stream_dep_p,
            noise_dep_p=self.noise_dep_p,
            work_cycles=self.work_cycles,
            write_p=self.write_p,
            hot_blocks=self.hot_blocks,
            noise_blocks=max(1024, int(self.noise_blocks * factor)),
            scan_blocks=max(1024, int(self.scan_blocks * factor)),
            structure_blocks=max(1024, int(self.structure_blocks * factor)),
            scan_run=self.scan_run,
            hot_run=self.hot_run,
        )


class CommercialGenerator(TraceGenerator):
    """Generates OLTP/Web-style traces from :class:`CommercialParams`."""

    def __init__(self, name: str, params: CommercialParams) -> None:
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
                interleave=1,
                hot_writes=1,
                scan_run=params.scan_run,
                hot_run=params.hot_run,
                work_mean=params.work_cycles,
                scan_work=params.work_cycles * 0.5,
                hot_work=params.work_cycles * 0.3,
                stream_dep_p=params.stream_dep_p,
                noise_dep_p=params.noise_dep_p,
                write_p=params.write_p,
                interleave_noise_p=params.interleave_noise_p,
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
            warmup_fraction=0.3,
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
        uniform = context.draws.uniform
        builder = TraceBuilder()
        while len(builder) < records_per_core:
            activity = bisect_right(activity_cdf, uniform())
            if activity == ACTIVITY_STREAM:
                self._emit_traversal(builder, pool, context)
            elif activity == ACTIVITY_SCAN:
                self._emit_scan(builder, context)
            elif activity == ACTIVITY_NOISE:
                self._emit_noise(builder, context)
            else:
                self._emit_hot(builder, context)
        return builder

    def _emit_traversal(
        self,
        builder: TraceBuilder,
        pool: StreamPool,
        context: GeneratorContext,
    ) -> None:
        """Walk one recurring structure, with early exits and noise.

        ``TraceBuilder.add`` is inlined — this loop emits the bulk of
        every commercial trace — and reads its uniforms straight from
        the context's window, in the order the record fields consume
        them: five per plain block (work, dep, write, interleave gate,
        truncate gate), plus two more (noise dep, truncate gate) when
        the interleave gate fires and the fifth draw becomes the
        injected record's work jitter.  The pinned trace fingerprints
        depend on this exact draw order and count.
        """
        params = self.params
        work_mean = params.work_cycles
        stream_dep_p = params.stream_dep_p
        write_p = params.write_p
        interleave_noise_p = params.interleave_noise_p
        noise_dep_p = params.noise_dep_p
        truncate_p = params.truncate_p
        blocks = builder._blocks
        work = builder._work
        dep = builder._dep
        write = builder._write
        stream = pool.pick()
        u, i = context.draws.peek(7)
        limit = len(u) - 7
        for block in stream.tolist():
            if i > limit:
                context.draws.consume(i)
                u, i = context.draws.peek(7)
                limit = len(u) - 7
            blocks.append(block)
            work.append(work_mean * (0.5 + u[i]))
            dep.append(u[i + 1] < stream_dep_p)
            write.append(u[i + 2] < write_p)
            if u[i + 3] < interleave_noise_p:
                blocks.append(context.next_noise())
                work.append(work_mean * (0.5 + u[i + 4]))
                dep.append(u[i + 5] < noise_dep_p)
                write.append(False)
                truncate = u[i + 6]
                i += 7
            else:
                truncate = u[i + 4]
                i += 5
            if truncate < truncate_p:
                break
        context.draws.consume(i)

    def _emit_scan(
        self, builder: TraceBuilder, context: GeneratorContext
    ) -> None:
        params = self.params
        run = context.next_scan_run(params.scan_run)
        builder.extend(
            run,
            work=params.work_cycles * 0.5 * (0.5 + context.draws.uniform()),
            dep=False,
            write=False,
        )

    def _emit_noise(
        self, builder: TraceBuilder, context: GeneratorContext
    ) -> None:
        params = self.params
        u, i = context.draws.peek(3)
        context.draws.consume(i + 3)
        builder.add(
            context.next_noise(),
            work=params.work_cycles * (0.5 + u[i]),
            dep=u[i + 1] < params.noise_dep_p,
            write=u[i + 2] < params.write_p,
        )

    def _emit_hot(
        self, builder: TraceBuilder, context: GeneratorContext
    ) -> None:
        # Each record draws its hot block (``rng.integers``) before its
        # work and write uniforms.
        params = self.params
        hot_mean = params.work_cycles * 0.3
        write_p = params.write_p
        blocks = builder._blocks
        work = builder._work
        dep = builder._dep
        write = builder._write
        for _ in range(params.hot_run):
            blocks.append(context.hot_block())
            u, i = context.draws.peek(2)
            context.draws.consume(i + 2)
            work.append(hot_mean * (0.5 + u[i]))
            dep.append(False)
            write.append(u[i + 1] < write_p)
