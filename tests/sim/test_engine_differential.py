"""Differential fuzzing: the fast engines vs. the scalar reference.

The equivalence suite (`test_engine_equivalence.py`) checks suite
workloads at fixed configurations; this harness drives *randomized*
machine configurations x trace recipes through the scalar reference
engine and the batched engine — plus, for baseline and STMS cells, the
compiled kernel (`repro.sim.native`) — asserting
**bit-identical** end state:
per-core clocks and stats, every traffic counter, cache and victim
contents, DRAM/MSHR state, and the complete STMS metadata state (index
buckets, history buffers with un-spilled pack segments, bucket-buffer
residency, stream engines, sampler state) via
:func:`repro.sim.metrics.snapshot_run_state`.

Each seed fully determines the case, so failures replay exactly:

    pytest "tests/sim/test_engine_differential.py::test_differential[17]"

A quarter of the cases draw *multiprogrammed mix* traces from the real
suite generators (heterogeneous per-core workloads, disjoint address
spaces, per-core warm-up) instead of the synthetic motif fuzzer, so the
mix subsystem is differentially fuzzed alongside it.  In the nightly
tier those mix draws are randomly decorated with asymmetric scheduling
(time slices, rate weights, low demand-priority cores); three pinned
fast seeds force asymmetric mixes so tier-1 covers those engine paths
too.  Snapshots include the per-core per-category traffic counters and
per-core demand priorities, compared deeply between engines.  Every
engine's finished run must also pass the conservation oracle
(:func:`repro.sim.metrics.check_invariants`), which catches modelling
bugs all engines would share.  Pinned native seeds force the machine
and STMS toggles the compiled kernel branches on.

The fast tier runs a small pinned seed set; the nightly-depth sweep
(``pytest -m slow``) runs a 48-seed window whose base rotates with the
calendar in CI: ``DIFF_SEED_BASE`` (default 8) positions the window, so
every night fuzzes fresh seeds while any failure stays replayable by
exporting the same base.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np
import pytest

from repro.core.config import StmsConfig
from repro.memory.config import BLOCK_BYTES
from repro.memory.hierarchy import CmpConfig
from repro.sim.batch import BatchRunState
from repro.sim.engine import SimConfig
from repro.sim.scalar import ScalarRunState
from repro.sim.metrics import check_invariants, snapshot_run_state
from repro.sim.native import NativeRunState
from repro.sim.runner import PrefetcherKind, make_factory
from repro.sim.timing import TimingModel
from repro.workloads.trace import Trace

#: Fast-tier seeds: a fixed, replayable sample across the config space.
FAST_SEEDS = tuple(range(8))


def _slow_seed_base() -> int:
    """Base of the nightly 48-seed window (``DIFF_SEED_BASE``)."""
    try:
        return int(os.environ.get("DIFF_SEED_BASE", "8"))
    except ValueError:
        return 8


#: Nightly-depth seeds (behind the ``slow`` marker): a rotating window
#: positioned by ``DIFF_SEED_BASE`` so scheduled CI sweeps new seeds
#: every night.
SLOW_SEEDS = tuple(range(_slow_seed_base(), _slow_seed_base() + 48))


def _random_trace(rng: np.random.Generator, cores: int) -> Trace:
    """A randomized multi-motif trace: streams, hot sets, strides, noise.

    Streams are shared across cores so index lookups can locate another
    core's history (the cross-core STMS path); strides exercise the base
    prefetcher; noise and truncation exercise stream divergence.
    """
    records = int(rng.integers(400, 1400))
    span = int(rng.integers(300, 6000))
    streams = [
        rng.integers(0, span, size=int(rng.integers(4, 28)))
        for _ in range(int(rng.integers(2, 7)))
    ]
    hot = rng.integers(0, span, size=int(rng.integers(4, 20)))
    blocks_per_core = []
    for _ in range(cores):
        seq: "list[int]" = []
        while len(seq) < records:
            motif = rng.random()
            if motif < 0.35:
                stream = streams[int(rng.integers(0, len(streams)))]
                cut = int(rng.integers(1, len(stream) + 1))
                seq.extend(int(b) for b in stream[:cut])
            elif motif < 0.55:
                seq.extend(
                    int(hot[int(rng.integers(0, len(hot)))])
                    for _ in range(int(rng.integers(1, 6)))
                )
            elif motif < 0.75:
                base = int(rng.integers(0, span))
                stride = int(rng.integers(1, 5))
                seq.extend(
                    base + stride * k
                    for k in range(int(rng.integers(3, 12)))
                )
            else:
                seq.append(int(rng.integers(0, span)))
        blocks_per_core.append(np.asarray(seq[:records], dtype=np.int64))
    dep_p = float(rng.uniform(0.2, 0.95))
    write_p = float(rng.uniform(0.0, 0.4))
    return Trace(
        name=f"fuzz-{records}",
        blocks=blocks_per_core,
        work=[
            rng.uniform(5.0, 150.0, size=records).astype(np.float32)
            for _ in range(cores)
        ],
        dep=[rng.random(records) < dep_p for _ in range(cores)],
        write=[rng.random(records) < write_p for _ in range(cores)],
        working_set_blocks=span + 64,
        warmup_fraction=float(rng.choice([0.0, 0.2, 0.4])),
    )


def _mix_trace(
    rng: np.random.Generator, cores: int, allow_asymmetric: bool = False
) -> Trace:
    """A multiprogrammed mix trace drawn from the real suite generators.

    Exercises the paths the synthetic fuzz trace cannot: heterogeneous
    per-core workloads, per-core warm-up fractions, and disjoint
    per-core address spaces competing only through the shared levels.

    With ``allow_asymmetric`` (the nightly tier, and the pinned fast
    asymmetric cases), components are randomly decorated with time
    slices, rate weights, and demand-priority classes, so the rate-
    based scheduling and per-core DRAM arbitration paths are fuzzed
    differentially too.
    """
    from repro.workloads.mix import MixRecipe, generate_mix
    from repro.workloads.suite import FIGURE_ORDER

    names = list(FIGURE_ORDER)
    count = int(rng.integers(2, 4))
    components = []
    for _ in range(count):
        component = names[int(rng.integers(0, len(names)))]
        if allow_asymmetric:
            if rng.random() < 0.4:
                component += f"*{int(rng.integers(2, 4))}"
            if rng.random() < 0.4:
                component += f"@{float(rng.choice([0.25, 0.5, 2.0])):g}"
            if rng.random() < 0.4:
                component += "!low"
        components.append(component)
    return generate_mix(
        MixRecipe(tuple(components)),
        scale="test",
        cores=cores,
        seed=int(rng.integers(0, 2**31)),
        records_per_core=int(rng.integers(300, 900)),
    )


def _random_machine(rng: np.random.Generator, cores: int) -> SimConfig:
    l1_ways = int(rng.choice([1, 2]))
    l1_sets = int(rng.choice([2, 4, 8]))
    l2_ways = int(rng.choice([2, 4]))
    l2_sets = int(rng.choice([8, 16, 32]))
    return SimConfig(
        cmp=CmpConfig(
            cores=cores,
            l1_size_bytes=l1_sets * l1_ways * BLOCK_BYTES,
            l1_ways=l1_ways,
            l1_victim_blocks=int(rng.choice([0, 2, 4])),
            l2_size_bytes=l2_sets * l2_ways * BLOCK_BYTES,
            l2_ways=l2_ways,
            l2_banks=4,
            l2_mshrs=int(rng.choice([2, 4, 16])),
        ),
        timing=TimingModel(
            core_miss_window=int(rng.choice([1, 2, 8])),
        ),
        use_stride=bool(rng.random() < 0.8),
        track_mlp=True,
        collect_miss_log=bool(rng.random() < 0.3),
    )


def _random_prefetcher(
    rng: np.random.Generator, cores: int, stms: "dict | None" = None
):
    """Mostly STMS (the metadata path under test), sometimes others.

    ``stms`` forces an STMS draw and overrides fields of its config.
    """
    roll = rng.random()
    if stms is not None or roll < 0.70:
        queue = int(rng.choice([4, 8, 24]))
        config = StmsConfig(
            cores=cores,
            history_entries=int(rng.choice([24, 48, 192])),
            index_buckets=int(rng.choice([16, 64, 256])),
            bucket_entries=int(rng.choice([2, 4, 12])),
            sampling_probability=float(
                rng.choice([0.0, 0.125, 0.5, 1.0])
            ),
            bucket_buffer_entries=int(rng.choice([2, 8, 32])),
            prefetch_buffer_blocks=int(rng.choice([4, 8, 32])),
            lookahead=int(rng.choice([2, 6, 12])),
            address_queue_entries=queue,
            queue_refill_threshold=int(rng.integers(0, queue + 1)),
            tag_bits=[None, 8, 12, 16][int(rng.integers(0, 4))],
            annotate_stream_ends=bool(rng.random() < 0.8),
            seed=int(rng.integers(0, 2**31)),
        )
        config = dataclasses.replace(config, **(stms or {}))
        return PrefetcherKind.STMS, make_factory(
            PrefetcherKind.STMS, config
        )
    if roll < 0.80:
        return PrefetcherKind.BASELINE, None
    kind = [
        PrefetcherKind.IDEAL_TMS,
        PrefetcherKind.FIXED_DEPTH,
        PrefetcherKind.MARKOV,
    ][int(rng.integers(0, 3))]
    return kind, make_factory(kind)


#: The compiled kernel needs a C compiler; where one exists it must load
#: (``tests/sim/test_native.py``), so the native leg is never skipped
#: silently on a machine that can build it.
HAVE_CC = shutil.which("cc") is not None


#: The points of a run :func:`_run_and_snapshot` captures, in order.
PHASES = ("initial", "warmup", "boundary", "final")


def _run_and_snapshot(state_class, config, trace, factory):
    """Drive one engine through both phases; snapshot right after
    construction (so an engine that builds its machine on its own, like
    the compiled kernel, must start from the reference's state), after
    warm-up, right after the measurement-boundary reset (so a counter
    the reset misses or over-zeroes shows there, not only downstream)
    and before result().  Returns the snapshots by phase and the result.

    The finished run must also satisfy the conservation oracle, and at
    every phase the compiled kernel's derived lookup state must agree
    with the arrays it summarizes (:func:`_assert_derived_state`).
    """
    state = state_class(config, trace, factory)
    snapshots = {}

    def capture(phase: str) -> None:
        snapshots[phase] = snapshot_run_state(state)
        if isinstance(state, NativeRunState):
            _assert_derived_state(state, phase)

    capture("initial")
    state.run_warmup()
    capture("warmup")
    state.reset_accounting()
    capture("boundary")
    state.run_measured()
    capture("final")
    result = state.result("fuzz")
    check_invariants(state, result)
    return snapshots, result


def _assert_derived_state(state: NativeRunState, phase: str) -> None:
    """The kernel's derived lookup state summarizes its canonical arrays:
    the bucket buffer's residency bytes, and per core the prefetch
    buffer's ``block & 255`` bin counts and current-stream count."""
    b = state._arrays()
    if "bb_member" not in b:
        return  # no STMS structures
    resident = np.zeros_like(b["bb_member"])
    resident[b["bb_buckets"][:state._machine.bb_count]] = 1
    assert b["bb_member"].tolist() == resident.tolist(), (
        f"bb_member disagrees with the bucket buffer at {phase}"
    )
    cores = state.trace.cores
    pbuf = b["pbuf"].reshape(cores, -1)
    bins = b["pbuf_filter"].reshape(cores, -1)
    serials = b["engines"]["serial"]
    for core, n in enumerate(b["pbuf_count"].tolist()):
        live = pbuf[core, :n]
        histogram = np.bincount(live["block"] & 255, minlength=256)
        assert bins[core].tolist() == histogram.tolist(), (
            f"core {core} pbuf_filter disagrees with its buffer at {phase}"
        )
        in_flight = int(np.count_nonzero(live["stream"] == serials[core]))
        assert b["pbuf_inflight"][core] == in_flight, (
            f"core {core} pbuf_inflight disagrees with its buffer at {phase}"
        )


def _assert_same_snapshots(got: dict, want: dict, what: str) -> None:
    for phase in PHASES:
        assert got[phase] == want[phase], (
            f"{what} at {phase} snapshot"
        )


def _check_seed(
    seed: int,
    allow_asymmetric: bool = False,
    force_mix: bool = False,
    baseline: bool = False,
    low_priority_core: bool = False,
    stms: "dict | None" = None,
    cores: "int | None" = None,
    all_dependent: bool = False,
    block_offset: int = 0,
    engines: "tuple[str, ...]" = ("batch", "native"),
    **machine_overrides,
) -> dict:
    """Run one seeded case through every applicable engine.

    ``baseline`` forces the stride-only base system (no temporal
    prefetcher), ``stms`` forces STMS with these config overrides,
    ``cores`` overrides the drawn core count, ``all_dependent`` marks
    every record dependent, ``block_offset`` is added to every block
    number, ``engines`` names the candidate engines
    checked against the reference (the bisect tool narrows it),
    ``low_priority_core``
    demotes core 0's demand fetches to low DRAM priority, and
    ``machine_overrides`` replace fields of the drawn
    :class:`SimConfig` (``l1_victim_blocks`` goes to its
    :class:`CmpConfig`).  Returns the reference run's final snapshot.
    """
    rng = np.random.default_rng(seed)
    drawn_cores = int(rng.integers(1, 5))  # drawn even when overridden
    cores = cores or drawn_cores
    if force_mix or rng.random() < 0.25:
        trace = _mix_trace(rng, cores, allow_asymmetric=allow_asymmetric)
    else:
        trace = _random_trace(rng, cores)
    config = _random_machine(rng, cores)
    if "l1_victim_blocks" in machine_overrides:
        config = dataclasses.replace(config, cmp=dataclasses.replace(
            config.cmp,
            l1_victim_blocks=machine_overrides.pop("l1_victim_blocks"),
        ))
    config = dataclasses.replace(config, **machine_overrides)
    if all_dependent:
        trace = dataclasses.replace(
            trace, dep=[np.ones(len(d), dtype=bool) for d in trace.dep]
        )
    if block_offset:
        trace = dataclasses.replace(
            trace, blocks=[np.asarray(b) + block_offset for b in trace.blocks]
        )
    if low_priority_core:
        priorities = list(trace.core_priorities or ["high"] * cores)
        priorities[0] = "low"
        trace = dataclasses.replace(trace, core_priorities=priorities)

    def draw():
        # Each engine builds its own prefetcher from an identically
        # seeded draw (factories capture config; the sampler is
        # seeded), so the reported ``kind`` is the one simulated.
        if baseline:
            return PrefetcherKind.BASELINE, None
        return _random_prefetcher(
            np.random.default_rng(seed + 1), cores, stms
        )

    kind, reference_factory = draw()
    candidates = [BatchRunState] if "batch" in engines else []
    if (
        "native" in engines
        and kind in (PrefetcherKind.BASELINE, PrefetcherKind.STMS)
        and HAVE_CC
    ):
        candidates.append(NativeRunState)
    reference, expected = _run_and_snapshot(
        ScalarRunState, config, trace, reference_factory
    )
    for engine in candidates:
        _, factory = draw()
        snapshots, result = _run_and_snapshot(engine, config, trace, factory)
        _assert_same_snapshots(
            snapshots, reference,
            f"seed {seed} ({kind.value}): {engine.__name__} diverged "
            f"from scalar reference",
        )
        assert dataclasses.astuple(result.coverage) == (
            dataclasses.astuple(expected.coverage)
        )
        assert result.traffic == expected.traffic
        assert result.elapsed_cycles == expected.elapsed_cycles
        assert result.mlp == expected.mlp
        assert result.miss_log == expected.miss_log
        assert result.core_traffic_bytes == expected.core_traffic_bytes
    return reference["final"]


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_differential(seed):
    _check_seed(seed)


#: Pinned fast seeds that force asymmetric mix traces, so the rate /
#: priority / attribution paths are differentially covered in tier-1
#: (the nightly tier additionally decorates its random mix draws).
ASYMMETRIC_SEEDS = (101, 102, 103)


@pytest.mark.parametrize("seed", ASYMMETRIC_SEEDS)
def test_differential_asymmetric(seed):
    _check_seed(seed, allow_asymmetric=True, force_mix=True)


#: Pinned fast baseline seeds, one per machine toggle the compiled
#: kernel branches on (a random draw may leave any of them unvisited).
NATIVE_CASES = {
    "no-stride": (401, {"use_stride": False}),
    "no-mlp": (402, {"track_mlp": False}),
    "miss-log": (403, {"collect_miss_log": True}),
    "no-victim-buffer": (404, {"l1_victim_blocks": 0}),
    "low-priority-core": (
        405, {"low_priority_core": True, "allow_asymmetric": True,
              "force_mix": True},
    ),
}


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler for the kernel")
@pytest.mark.parametrize("case", sorted(NATIVE_CASES))
def test_differential_native(case):
    seed, options = NATIVE_CASES[case]
    _check_seed(seed, baseline=True, **options)


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler for the kernel")
def test_touching_miss_intervals_merge_bit_for_bit():
    """Each miss issues exactly when the previous one completes, so the
    MLP union must merge touching intervals (``issue <= end`` in
    ``metrics._IntervalAccumulator.add`` and in ``kernel.c``).

    One core, every record a dependent cold miss with zero work: a
    miss's issue time is the previous completion.  The first record's
    fractional work and the warm-up miss leave the measured phase
    starting at a clock with a full 53-bit mantissa (the 64-byte
    transfer time is no short binary fraction), so one span
    ``end - start`` and the piecewise sum of the five touching
    intervals round differently: merged, MLP is total / span, just
    above 1.0; split (``issue < end``), the union is summed from the
    same terms as the total and MLP is exactly 1.0.
    """
    records = 6
    blocks = np.arange(1, records + 1, dtype=np.int64) * 64
    work = np.zeros(records, dtype=np.float32)
    work[0] = 0.5
    trace = Trace(
        name="touching",
        blocks=[blocks],
        work=[work],
        dep=[np.ones(records, dtype=bool)],
        write=[np.zeros(records, dtype=bool)],
        working_set_blocks=int(blocks.max()) + 1,
        warmup_fraction=0.2,  # the first record only
    )
    config = SimConfig(cmp=CmpConfig(cores=1), use_stride=False)
    results = {
        engine: _run_and_snapshot(engine, config, trace, None)
        for engine in (ScalarRunState, BatchRunState, NativeRunState)
    }
    reference, expected = results[ScalarRunState]
    assert expected.coverage.uncovered == records - 1
    assert expected.mlp == 1.0000000000000002
    for engine, (snapshots, result) in results.items():
        _assert_same_snapshots(snapshots, reference, engine.__name__)
        assert result.mlp == expected.mlp, engine.__name__
        assert result.core_mlp == expected.core_mlp, engine.__name__


def _stms(snapshot: dict, part: str):
    return snapshot["stms"][part]


def _sampler(snapshot: dict) -> "tuple[int, int]":
    flips, accepted = _stms(snapshot, "sampler")[:2]
    return flips, accepted


def _lookup_hits(snapshot: dict) -> int:
    return snapshot["temporal_stats"][6]


def _index_tags(snapshot: dict) -> "list[int]":
    return [tag for bucket in _stms(snapshot, "index")[1] for tag, _ in bucket]


#: Block numbers this large make every index hash product wrap uint64 in
#: the kernel, while the reference hashes with unbounded Python ints, and
#: make full-address tags (mask -1) wider than 32 bits.
HASH_WRAP_OFFSET = 1 << 61


#: Pinned fast STMS seeds, one per metadata path the compiled kernel
#: branches on.  Each case checks on the reference run's final snapshot
#: that its path actually fired, so a redrawn seed cannot silently stop
#: covering it.
NATIVE_STMS_CASES = {
    "tag-aliasing": (
        501, {"stms": {"tag_bits": 3}}, lambda s: _lookup_hits(s) > 0,
    ),
    "p0": (
        502, {"stms": {"sampling_probability": 0.0}},
        lambda s: _sampler(s)[0] > 0 and _sampler(s)[1] == 0,
    ),
    "p0.125": (
        503, {"stms": {"sampling_probability": 0.125}},
        lambda s: 0 < _sampler(s)[1] < _sampler(s)[0]
        and _lookup_hits(s) > 0,
    ),
    "p1": (
        504, {"stms": {"sampling_probability": 1.0}},
        lambda s: _sampler(s)[1] == _sampler(s)[0] > 0,
    ),
    # Wrap-around: stale index pointers and stale segment reads.
    "tiny-history": (
        505, {"stms": {"history_entries": 12}},
        lambda s: _stms(s, "counters")[2] > 0
        and any(h[1][5] > 0 for h in _stms(s, "histories")),
    ),
    # Dirty bucket evictions (lazy write-backs).
    "small-bucket-buffer": (
        506, {"stms": {"bucket_buffer_entries": 1}},
        lambda s: _stms(s, "bucket_buffer")[0][2] > 0,
    ),
    "no-annotations": (
        607, {"stms": {"annotate_stream_ends": False}},
        lambda s: _lookup_hits(s) > 1 and _stms(s, "counters")[1] == 0,
    ),
    # A core follows a stream another core recorded.
    "cross-core": (
        608, {"stms": {}, "cores": 4},
        lambda s: any(
            engine[7] is not None and engine[7].source_core != core
            for core, engine in enumerate(_stms(s, "engines"))
        ),
    ),
    "low-priority-core": (
        609, {"stms": {}, "low_priority_core": True,
              "allow_asymmetric": True, "force_mix": True},
        lambda s: s["temporal_stats"][1] > 0,
    ),
    # Dependent hits on in-flight prefetches (the peek_completion cap).
    "dependent-partial": (
        510, {"stms": {}, "all_dependent": True},
        lambda s: s["coverage"][1] > 0,
    ),
    # The kernel hashes and tags each miss itself, on wrapping products.
    "hash-wrap-full-tags": (
        701, {"stms": {"tag_bits": None}, "block_offset": HASH_WRAP_OFFSET},
        lambda s: _lookup_hits(s) > 0
        and min(_index_tags(s)) >= HASH_WRAP_OFFSET,
    ),
    "hash-wrap-tag-bits": (
        702, {"stms": {"tag_bits": 12}, "block_offset": HASH_WRAP_OFFSET},
        lambda s: _lookup_hits(s) > 0 and max(_index_tags(s)) < 1 << 12,
    ),
}


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler for the kernel")
@pytest.mark.parametrize("case", sorted(NATIVE_STMS_CASES))
def test_differential_native_stms(case):
    seed, options, fired = NATIVE_STMS_CASES[case]
    assert fired(_check_seed(seed, **options)), (
        f"seed {seed} no longer exercises the {case} path"
    )


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_differential_nightly(seed):
    _check_seed(seed, allow_asymmetric=True)


#: Nightly STMS window: every draw is forced to STMS, so the compiled
#: kernel's metadata path meets fresh configurations every night.  It
#: rides the rotating base at an offset clear of the other windows.
STMS_SLOW_SEEDS = tuple(
    range(_slow_seed_base() + 3_000_000, _slow_seed_base() + 3_000_024)
)


@pytest.mark.slow
@pytest.mark.parametrize("seed", STMS_SLOW_SEEDS)
def test_differential_stms_nightly(seed):
    _check_seed(seed, allow_asymmetric=True, stms={})


# ----------------------------------------------------------------------
# Sweep-shaped cases: one trace x a small random config grid, every cell
# on the same trace object as in sim/sweep.py, asserting every cell
# stays deep-state-identical to both the scalar reference and the plain
# batched engine.
# ----------------------------------------------------------------------


def _random_grid_stms(rng: np.random.Generator, cores: int) -> StmsConfig:
    """One grid cell's STMS config (index geometries collide across
    cells sometimes)."""
    queue = int(rng.choice([4, 8, 24]))
    return StmsConfig(
        cores=cores,
        history_entries=int(rng.choice([24, 48, 192])),
        index_buckets=int(rng.choice([16, 64])),
        bucket_entries=int(rng.choice([2, 4, 12])),
        sampling_probability=float(rng.choice([0.0, 0.125, 0.5, 1.0])),
        bucket_buffer_entries=int(rng.choice([2, 8, 32])),
        prefetch_buffer_blocks=int(rng.choice([4, 8, 32])),
        lookahead=int(rng.choice([2, 6, 12])),
        address_queue_entries=queue,
        queue_refill_threshold=int(rng.integers(0, queue + 1)),
        tag_bits=[None, 8, 12][int(rng.integers(0, 3))],
        annotate_stream_ends=bool(rng.random() < 0.8),
        seed=int(rng.integers(0, 2**31)),
    )


def _check_sweep_seed(seed: int, grid_size: int = 3) -> None:
    rng = np.random.default_rng(seed)
    cores = int(rng.integers(1, 5))
    if rng.random() < 0.25:
        trace = _mix_trace(rng, cores)
    else:
        trace = _random_trace(rng, cores)
    config = _random_machine(rng, cores)
    cells = [_random_grid_stms(rng, cores) for _ in range(grid_size)]

    for position, cell in enumerate(cells):
        factory = make_factory(PrefetcherKind.STMS, cell)
        reference, expected = _run_and_snapshot(
            ScalarRunState, config, trace, factory
        )
        batched, _ = _run_and_snapshot(BatchRunState, config, trace, factory)
        _assert_same_snapshots(
            batched, reference,
            f"seed {seed} cell {position}: batched engine diverged from "
            f"scalar reference",
        )
        if not HAVE_CC:
            continue
        swept, result = _run_and_snapshot(
            NativeRunState, config, trace, factory
        )
        _assert_same_snapshots(
            swept, reference,
            f"seed {seed} cell {position}: compiled kernel diverged "
            f"from scalar reference",
        )
        assert result.traffic == expected.traffic
        assert result.elapsed_cycles == expected.elapsed_cycles
        assert dataclasses.astuple(result.coverage) == (
            dataclasses.astuple(expected.coverage)
        )
        assert result.core_traffic_bytes == expected.core_traffic_bytes


#: Pinned fast sweep-shaped seeds (tier-1).
SWEEP_FAST_SEEDS = (211, 212, 213)


@pytest.mark.parametrize("seed", SWEEP_FAST_SEEDS)
def test_differential_sweep(seed):
    _check_sweep_seed(seed)


#: Nightly sweep-shaped window: rides the same rotating base as the
#: engine window, offset so the two never overlap.
SWEEP_SLOW_SEEDS = tuple(
    range(_slow_seed_base() + 1_000_000, _slow_seed_base() + 1_000_012)
)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SWEEP_SLOW_SEEDS)
def test_differential_sweep_nightly(seed):
    _check_sweep_seed(seed, grid_size=4)


# ----------------------------------------------------------------------
# Parallel-plane cases: the two-level scheduler is a pure transport — a
# cell-parallel runner fan-out, whose shards inherit the parent's trace
# when the pool forks, must land exactly the serial path's results.
# ----------------------------------------------------------------------


def _check_parallel_plane_seed(seed: int, grid_size: int = 4) -> None:
    from repro.sim.runner import (
        ExperimentRunner,
        SimJob,
        job_options,
    )
    from repro.sim.session import SimSession, set_session
    from repro.sim.store import encode_result
    from repro.workloads.suite import FIGURE_ORDER

    # A seed-derived single-trace grid over a real suite recipe.
    rng = np.random.default_rng(seed)
    names = list(FIGURE_ORDER)
    workload = names[int(rng.integers(0, len(names)))]
    job_seed = int(rng.integers(0, 2**31))
    jobs = [
        SimJob(
            workload,
            PrefetcherKind.STMS,
            scale="test",
            cores=2,
            seed=job_seed,
            stms_overrides=job_options(
                sampling_probability=float(
                    rng.choice([0.0, 0.125, 0.5, 1.0])
                ),
                index_buckets=int(rng.choice([16, 64])),
                lookahead=int(rng.choice([2, 6])),
            ),
        )
        for _ in range(grid_size)
    ]

    def _leg(workers: int):
        legs_session = SimSession(enabled=True, store=None)
        previous = set_session(legs_session)
        try:
            runner = ExperimentRunner(
                max_workers=workers, parallel=workers > 1
            )
            return runner.map(jobs, session=legs_session), legs_session
        finally:
            set_session(previous)

    serial, _ = _leg(1)
    parallel, parallel_session = _leg(2)
    # The grid ran as cell shards (one sweep each), not serially.
    assert parallel_session.stats.sweep_invocations >= 2
    assert [encode_result(r) for r in parallel] == [
        encode_result(r) for r in serial
    ], f"seed {seed}: cell-parallel leg diverged from serial"


#: Pinned fast parallel-plane seeds (tier-1).
PARALLEL_PLANE_FAST_SEEDS = (301, 302, 303)


@pytest.mark.parametrize("seed", PARALLEL_PLANE_FAST_SEEDS)
def test_differential_parallel_plane(seed):
    _check_parallel_plane_seed(seed)


#: Nightly parallel-plane window: same rotating base, a fresh offset so
#: none of the three windows overlap.
PARALLEL_PLANE_SLOW_SEEDS = tuple(
    range(_slow_seed_base() + 2_000_000, _slow_seed_base() + 2_000_012)
)


@pytest.mark.slow
@pytest.mark.parametrize("seed", PARALLEL_PLANE_SLOW_SEEDS)
def test_differential_parallel_plane_nightly(seed):
    _check_parallel_plane_seed(seed, grid_size=5)


def test_snapshot_captures_stms_metadata():
    """The snapshot must actually contain the metadata the suite claims
    to compare — guard against silent shrinkage of the contract."""
    rng = np.random.default_rng(0)
    trace = _random_trace(rng, 2)
    config = _random_machine(rng, 2)
    factory = make_factory(
        PrefetcherKind.STMS, StmsConfig(cores=2, history_entries=24)
    )
    state = BatchRunState(config, trace, factory)
    state.run_warmup()
    snap = snapshot_run_state(state)
    assert {"counters", "sampler", "index", "histories",
            "bucket_buffer", "engines"} <= set(snap["stms"])
    assert len(snap["stms"]["histories"]) == 2
    assert snap["traffic"]  # per-category byte counters present
    # Per-core traffic attribution must be part of the compared state:
    # one per-category dict per core, summing to the global counters.
    assert len(snap["core_traffic"]) == 2
    assert len(snap["demand_priority"]) == 2
    for category, total in snap["traffic"].items():
        assert sum(
            per_core[category] for per_core in snap["core_traffic"]
        ) == total


# ----------------------------------------------------------------------
# Hand-built micro-traces, each aimed at one shortcut the kernel takes.
# ----------------------------------------------------------------------


def _micro_trace(blocks_per_core, work=10.0, dep=False, warmup=0.25):
    """A trace of the given per-core block lists, every record with the
    same ``work`` and dependence and no writes."""
    blocks = [np.asarray(b, dtype=np.int64) for b in blocks_per_core]
    return Trace(
        name="micro",
        blocks=blocks,
        work=[np.full(len(b), work, dtype=np.float32) for b in blocks],
        dep=[np.full(len(b), dep, dtype=bool) for b in blocks],
        write=[np.zeros(len(b), dtype=bool) for b in blocks],
        working_set_blocks=int(max(int(b.max()) for b in blocks)) + 1,
        warmup_fraction=warmup,
    )


def _micro_config(cores, **cmp):
    options = dict(
        cores=cores, l1_size_bytes=2 * 2 * BLOCK_BYTES, l1_ways=2,
        l1_victim_blocks=2, l2_size_bytes=8 * 4 * BLOCK_BYTES, l2_ways=4,
        l2_banks=4, l2_mshrs=64,
    )
    options.update(cmp)
    return SimConfig(
        cmp=CmpConfig(**options),
        timing=TimingModel(core_miss_window=64),
        use_stride=False,
        track_mlp=True,
    )


def _micro_stms(cores, **overrides):
    config = StmsConfig(
        cores=cores, history_entries=480, index_buckets=64,
        bucket_entries=4, sampling_probability=1.0,
        bucket_buffer_entries=16, prefetch_buffer_blocks=4, lookahead=3,
        address_queue_entries=8, queue_refill_threshold=2,
    )
    return dataclasses.replace(config, **overrides)


def _check_micro(config, trace, stms_config) -> dict:
    """Run a micro-trace through the reference and the kernel (and the
    batched engine), bit for bit; returns the reference's final
    snapshot."""
    def factory():
        if stms_config is None:
            return None
        return make_factory(PrefetcherKind.STMS, stms_config)

    reference, expected = _run_and_snapshot(
        ScalarRunState, config, trace, factory()
    )
    for engine in (BatchRunState, NativeRunState):
        snapshots, result = _run_and_snapshot(
            engine, config, trace, factory()
        )
        _assert_same_snapshots(snapshots, reference, engine.__name__)
        assert result == expected, engine.__name__
    return reference["final"]


class _OrderedRunState(ScalarRunState):
    """The reference run state, logging each step's (clock, core)."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.order: "list[tuple[float, int]]" = []

    def _step(self, core: int) -> None:
        self.order.append((self.clocks[core], core))
        super()._step(core)


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler for the kernel")
@pytest.mark.parametrize("temporal", ["baseline", "stms"])
def test_micro_tied_clocks_keep_clock_core_order(temporal):
    """Four cores with equal work on every record and no dependent
    records: their clocks tie again and again, and only the ``(clock,
    core)`` order decides which core misses in the shared L2 first and
    whose fetch queues behind whose.  The kernel keeps stepping one core
    while it stays first, so a tie broken the wrong way shows here."""
    cores = 4
    shared = [k * 8 for k in range(24)]  # one L2 set, shared by all
    trace = _micro_trace(
        [shared[core:] + shared[:core] + [1000 + 64 * core + k
                                          for k in range(16)]
         for core in range(cores)],
    )
    stms = _micro_stms(cores) if temporal == "stms" else None
    config = _micro_config(cores)
    _check_micro(config, trace, stms)

    ordered = _OrderedRunState(
        config, trace,
        make_factory(PrefetcherKind.STMS, stms) if stms else None,
    )
    ordered.run_warmup()
    ordered.reset_accounting()
    ordered.run_measured()
    ties = sum(
        1 for (clock, core), (after, other) in zip(
            ordered.order, ordered.order[1:])
        if clock == after and core != other
    )
    # Consecutive steps of two cores at one clock: a tie was broken.
    assert ties >= 3 * (cores - 1), ties


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler for the kernel")
def test_micro_prefetches_sharing_one_filter_bin():
    """STMS replays a stream whose blocks are all congruent mod 256, so
    every buffered prefetch lands in one ``pbuf_filter`` bin.  The replay
    skips every third block: those prefetches are evicted unconsumed
    while the bin's other entries must stay findable and be consumed."""
    stream = [5 + 256 * k for k in range(60)]
    replay = [b for k, b in enumerate(stream) if k % 3 != 2]
    trace = _micro_trace([stream + replay + stream], warmup=0.0)
    final = _check_micro(_micro_config(1), trace, _micro_stms(1))
    issued, useful, erroneous = final["temporal_stats"][:3]
    assert useful >= 20 and erroneous >= 5, final["temporal_stats"]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler for the kernel")
def test_micro_two_entry_bucket_buffer_refetches_a_dirty_bucket():
    """With ``bucket_buffer_entries=2`` a recorded (dirty) bucket is
    written back on eviction and fetched again by a later lookup that
    must still find its entry."""
    stream = [3 + 7 * k for k in range(40)]
    trace = _micro_trace([stream + stream + stream], warmup=0.0)
    final = _check_micro(
        _micro_config(1, l2_size_bytes=4 * 2 * BLOCK_BYTES, l2_ways=2),
        trace, _micro_stms(1, bucket_buffer_entries=2),
    )
    hits, misses, writebacks, _ = final["stms"]["bucket_buffer"][0]
    # More bucket fetches than the stream has buckets: evicted buckets
    # came back.
    assert writebacks > 0 and misses > len(stream), (misses, writebacks)
    assert _lookup_hits(final) > 0
