"""Multiprogrammed mixes under shared-L2 / DRAM-bandwidth contention.

The paper's CMP setting puts STMS meta-data traffic on the same memory
system as demand traffic from *other* programs.  This experiment
co-schedules heterogeneous per-core mixes (OLTP beside DSS, web beside
scientific, rate-/priority-asymmetric co-runners) and sweeps the two
shared resources — L2 capacity and DRAM bandwidth — comparing the base
system against STMS at each point.

Reported per (mix, machine point, prefetcher): aggregate coverage and
speedup, DRAM-channel utilization, meta-data overhead per useful byte,
and the per-workload split of coverage/throughput/attributed DRAM bytes
(which co-runner pays for the contention, and *whose misses caused the
meta-data traffic*).  Each mix component also gets a **solo-run
reference** — the same workload running the whole machine alone at the
same sweep point — so the classic multiprogramming metric, per-workload
slowdown versus running alone, is reported directly.  Solo traces and
results share recipe keys with the homogeneous figure experiments, so
a warm artifact store serves them without any cold regeneration.

Paper-shaped claims checked: temporal streams survive co-scheduling,
shrinking the shared L2 raises off-chip demand, throttled DRAM never
helps, STMS's lookup/history traffic is real (nonzero overhead bytes,
higher channel utilization than the base system while it wins
coverage), per-workload attribution is conservative (component bytes
sum to the global counters), and every component reports a positive
finite slowdown-vs-alone.

The (L2 capacity x DRAM bandwidth x prefetcher) sweep over each mix
trace is grouped by :class:`~repro.sim.runner.ExperimentRunner` into
sweep invocations (``repro.sim.sweep``): every machine point over the
same mix shares one trace generation, with per-cell results cached
under the unchanged recipe keys.  Solo references group the same way per solo
trace.
"""

from __future__ import annotations

from repro.analysis.report import format_percent, format_table
from repro.experiments.common import (
    ExperimentResult,
    ShapeCheck,
    check_monotone,
    simulate_jobs,
)
from repro.sim.results import SimResult, per_workload_breakdown
from repro.sim.runner import (
    ExperimentRunner,
    PrefetcherKind,
    SimJob,
    make_sim_config,
)
from repro.sim.session import SimSession
from repro.workloads.mix import MixComponent, MixRecipe

#: Default contention mixes (components cycle over the core count).
#: The last one is asymmetric: two time-sliced OLTP instances share
#: each odd core while a half-rate, low-demand-priority DSS runs on the
#: even ones — the rate-based interference scenario from the roadmap.
DEFAULT_MIXES = (
    "mix:oltp-db2+dss-db2",
    "mix:web-apache+sci-em3d",
    "mix:oltp-db2+web-zeus",
    "mix:oltp-db2*2+dss-db2@0.5!low",
)

#: Shared-L2 capacity factors relative to the scale preset.
L2_FACTORS = (0.5, 1.0, 2.0)
#: DRAM peak-bandwidth factors (swept at the default L2 point).
DRAM_FACTORS = (0.5,)

_KINDS = (PrefetcherKind.BASELINE, PrefetcherKind.STMS)


def _points(scale) -> "list[tuple[str, tuple, tuple]]":
    """(label, cmp_overrides, dram_overrides) machine sweep points."""
    base = make_sim_config(scale)
    l2_base = base.cmp.l2_size_bytes
    bw_base = base.dram.peak_bandwidth_gbps
    points = [
        (
            f"l2x{factor:g}",
            (("l2_size_bytes", int(l2_base * factor)),),
            (),
        )
        for factor in L2_FACTORS
    ]
    points.extend(
        (
            f"dramx{factor:g}",
            (),
            (("peak_bandwidth_gbps", bw_base * factor),),
        )
        for factor in DRAM_FACTORS
    )
    return points


def _off_chip_fraction(result: SimResult) -> float:
    """Off-chip read misses per measured record (L2-pressure proxy)."""
    coverage = result.coverage
    reads = coverage.temporal_eligible + coverage.stride_covered
    if result.measured_records <= 0:
        return 0.0
    return reads / result.measured_records


def _sum_throughput(result: SimResult) -> float:
    """Sum of per-core records/cycle — the co-run throughput metric."""
    assert result.core_measured_records is not None
    return sum(
        result.core_throughput(core)
        for core in range(len(result.core_measured_records))
    )


def _per_core_throughput(result: SimResult) -> float:
    """Mean per-core records/cycle (the solo-reference normalization)."""
    assert result.core_measured_records is not None
    cores = len(result.core_measured_records)
    if cores == 0:
        return 0.0
    return _sum_throughput(result) / cores


def solo_workloads(mixes: "tuple[str, ...]") -> "tuple[str, ...]":
    """Distinct bare component workloads across ``mixes``, in first-seen
    order — one solo-run reference each.  Decorated components (rate,
    slices, priority) reference their undecorated workload: "alone"
    means the program owning the whole machine at full rate."""
    seen: "list[str]" = []
    for mix in mixes:
        for component in MixRecipe.parse(mix).parsed:
            if component.workload not in seen:
                seen.append(component.workload)
    return tuple(seen)


def run(
    scale: str = "bench",
    cores: int = 4,
    seed: int = 7,
    workloads: "tuple[str, ...] | None" = None,
    runner: "ExperimentRunner | None" = None,
    session: "SimSession | None" = None,
) -> ExperimentResult:
    """Regenerate the mix-contention sweep (``workloads`` = mix specs)."""
    mixes = workloads if workloads is not None else DEFAULT_MIXES
    points = _points(scale)
    solos = solo_workloads(mixes)

    jobs = [
        SimJob(
            mix,
            kind,
            scale=scale,
            cores=cores,
            seed=seed,
            cmp_overrides=cmp_overrides,
            dram_overrides=dram_overrides,
            tag=(mix, label, kind),
        )
        for mix in mixes
        for label, cmp_overrides, dram_overrides in points
        for kind in _KINDS
    ]
    # Solo-run references: each component workload owning the whole
    # machine at the same sweep point.  The trace recipes are the plain
    # homogeneous ones the figure experiments use, so a warm store
    # serves these without cold regeneration.
    jobs.extend(
        SimJob(
            workload,
            kind,
            scale=scale,
            cores=cores,
            seed=seed,
            cmp_overrides=cmp_overrides,
            dram_overrides=dram_overrides,
            tag=("solo", workload, label, kind),
        )
        for workload in solos
        for label, cmp_overrides, dram_overrides in points
        for kind in _KINDS
    )
    results = simulate_jobs(jobs, runner, session)
    by_tag: "dict[tuple, SimResult]" = {
        job.tag: result for job, result in zip(jobs, results)
    }

    rows = []
    data: "dict[str, dict]" = {}
    for mix in mixes:
        data[mix] = {}
        for label, _, _ in points:
            baseline = by_tag[(mix, label, PrefetcherKind.BASELINE)]
            stms = by_tag[(mix, label, PrefetcherKind.STMS)]
            point_data: "dict[str, dict]" = {}
            for kind, pk, result in (
                ("baseline", PrefetcherKind.BASELINE, baseline),
                ("stms", PrefetcherKind.STMS, stms),
            ):
                per_workload: "dict[str, dict]" = {}
                for name, piece in sorted(
                    per_workload_breakdown(result).items()
                ):
                    component = MixComponent.parse(name)
                    solo = by_tag[
                        ("solo", component.workload, label, pk)
                    ]
                    solo_throughput = _per_core_throughput(solo)
                    # Per *instance*: a time-sliced core commits all S
                    # instances' records, so its per-core rate must be
                    # split S ways before comparing against one program
                    # running alone — otherwise `w*2` would report ~1x
                    # while each sliced program actually progresses at
                    # half its solo rate (and `w@0.5` would show its
                    # stretch, inconsistently).
                    mix_throughput = (
                        piece.throughput
                        / len(piece.cores)
                        / component.slices
                        if piece.cores
                        else 0.0
                    )
                    per_workload[name] = {
                        "cores": piece.cores,
                        "coverage": piece.coverage.coverage,
                        "throughput": piece.throughput,
                        "mlp": piece.mlp,
                        "solo_throughput_per_core": solo_throughput,
                        "slowdown_vs_solo": (
                            solo_throughput / mix_throughput
                            if mix_throughput > 0
                            else 0.0
                        ),
                        "traffic_bytes": dict(
                            sorted(piece.traffic_bytes.items())
                        ),
                        "metadata_bytes": piece.metadata_bytes,
                    }
                point_data[kind] = {
                    "coverage": result.coverage.coverage,
                    "off_chip_fraction": _off_chip_fraction(result),
                    "throughput": _sum_throughput(result),
                    "dram_utilization": result.dram_utilization,
                    "overhead_per_useful_byte": (
                        result.overhead_per_useful_byte
                    ),
                    "metadata_bytes": result.metadata_bytes,
                    "per_workload": per_workload,
                }
            point_data["speedup"] = stms.speedup_over(baseline)
            data[mix][label] = point_data
            rows.append(
                [
                    mix,
                    label,
                    format_percent(stms.coverage.coverage),
                    f"{point_data['speedup']:.3f}x",
                    f"{baseline.dram_utilization:.3f}",
                    f"{stms.dram_utilization:.3f}",
                    f"{stms.overhead_per_useful_byte:.3f}",
                ]
            )

    per_workload_rows = []
    for mix in mixes:
        point = data[mix]["l2x1"]
        for name, piece in point["stms"]["per_workload"].items():
            base_piece = point["baseline"]["per_workload"][name]
            per_workload_rows.append(
                [
                    mix,
                    name,
                    len(piece["cores"]),
                    format_percent(piece["coverage"]),
                    f"{base_piece['throughput']:.4f}",
                    f"{piece['throughput']:.4f}",
                    f"{base_piece['slowdown_vs_solo']:.3f}x",
                    f"{piece['slowdown_vs_solo']:.3f}x",
                    f"{piece['metadata_bytes'] / 1024:.1f}K",
                ]
            )

    rendered = "\n\n".join(
        [
            format_table(
                ["mix", "point", "stms cov", "speedup", "base util",
                 "stms util", "overhead/byte"],
                rows,
                title="Mix contention: shared-L2 / DRAM sweep",
            ),
            format_table(
                ["mix", "workload", "cores", "stms cov",
                 "base thpt", "stms thpt", "base slow",
                 "stms slow", "meta bytes"],
                per_workload_rows,
                title="Per-workload split at the default machine point "
                "(per-instance slowdown vs running alone; attributed "
                "STMS meta-data bytes)",
            ),
        ]
    )

    checks = _shape_checks(mixes, data)
    return ExperimentResult(
        experiment="mix-contention",
        title="Multiprogrammed mixes under shared-memory contention",
        rendered=rendered,
        data={"mixes": data},
        checks=checks,
    )


def _shape_checks(
    mixes: "tuple[str, ...]", data: "dict[str, dict]"
) -> "list[ShapeCheck]":
    covered = [
        data[mix]["l2x1"]["stms"]["coverage"] for mix in mixes
    ]
    l2_monotone = 0
    for mix in mixes:
        fractions = [
            data[mix][f"l2x{factor:g}"]["baseline"]["off_chip_fraction"]
            for factor in L2_FACTORS
        ]
        if check_monotone(fractions, increasing=False, tolerance=0.005):
            l2_monotone += 1
    throttled_ok = all(
        data[mix]["dramx0.5"]["stms"]["throughput"]
        <= data[mix]["l2x1"]["stms"]["throughput"] * 1.02
        for mix in mixes
    )
    overhead_real = all(
        data[mix]["l2x1"]["stms"]["overhead_per_useful_byte"] > 0.0
        for mix in mixes
    )
    util_up = sum(
        1
        for mix in mixes
        if data[mix]["l2x1"]["stms"]["dram_utilization"]
        >= data[mix]["l2x1"]["baseline"]["dram_utilization"] - 1e-9
    )
    attribution_conservative = all(
        sum(
            piece["metadata_bytes"]
            for piece in data[mix][label][kind]["per_workload"].values()
        )
        == data[mix][label][kind]["metadata_bytes"]
        for mix in mixes
        for label in data[mix]
        for kind in ("baseline", "stms")
    )
    slowdowns = [
        piece["slowdown_vs_solo"]
        for mix in mixes
        for label in data[mix]
        for kind in ("baseline", "stms")
        for piece in data[mix][label][kind]["per_workload"].values()
    ]
    slowdowns_ok = all(
        value > 0.0 and value == value and value != float("inf")
        for value in slowdowns
    )
    return [
        ShapeCheck(
            claim="Temporal streams survive co-scheduling (STMS covers "
            "misses on every mix)",
            passed=all(value > 0.0 for value in covered),
            detail=f"min coverage = {min(covered):.1%}",
        ),
        ShapeCheck(
            claim="Shrinking the shared L2 raises off-chip demand "
            "pressure (baseline, per mix)",
            passed=l2_monotone == len(mixes),
            detail=f"{l2_monotone}/{len(mixes)} mixes monotone",
        ),
        ShapeCheck(
            claim="Halving DRAM bandwidth never improves co-run "
            "throughput",
            passed=throttled_ok,
        ),
        ShapeCheck(
            claim="STMS meta-data traffic is real: nonzero overhead "
            "bytes and no lower channel utilization than the base "
            "system on most mixes",
            passed=overhead_real and util_up * 2 >= len(mixes),
            detail=f"util >= baseline on {util_up}/{len(mixes)} mixes",
        ),
        ShapeCheck(
            claim="Per-workload DRAM attribution is conservative "
            "(component meta-data bytes sum to the global counter at "
            "every point)",
            passed=attribution_conservative,
        ),
        ShapeCheck(
            claim="Every mix component reports a positive finite "
            "slowdown vs running alone",
            passed=bool(slowdowns) and slowdowns_ok,
            detail=(
                f"max slowdown = {max(slowdowns):.3f}x"
                if slowdowns
                else "no components"
            ),
        ),
    ]
