"""Loader robustness of the compiled event kernel (``repro.sim.native``).

The library holding the kernel is built once per machine into a
per-user cache and loaded through ``ctypes`` (``repro.sim.library``);
these tests pin the loader's contract: a machine with a C compiler must
load it (a silent fallback would hide a regression), a machine without
one warns once and falls back with identical results, the cache key
follows the compiler without running it, a damaged cached library is
rebuilt, concurrent builders publish exactly one library,
and nothing that never simulates a baseline or STMS cell imports the
kernel's driver module at all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import library, native

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src")

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on PATH"
)


def _python(code: str, **env_overrides: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=SRC, **env_overrides)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _published(directory: Path) -> "tuple[list[str], list[str]]":
    names = sorted(p.name for p in directory.iterdir())
    return (
        [n for n in names if n.endswith(".so")],
        [n for n in names if n.endswith(".tmp")],
    )


@needs_cc
def test_kernel_loads_where_a_compiler_exists():
    assert library.load() is not None


def test_no_compiler_warns_once_and_falls_back(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    code = """
import dataclasses, json, warnings
from repro.sim.engine import Simulator
from repro.sim.runner import (
    PrefetcherKind, make_factory, make_sim_config, make_stms_config)
from repro.sim.store import encode_result
from repro.workloads.suite import generate

config = make_sim_config("test")
cells = [
    (None, "baseline"),
    (make_factory(PrefetcherKind.STMS, make_stms_config("test", cores=2)),
     "stms"),
]
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    trace = generate("web-apache", scale="test", cores=2, seed=7)
    runs = [Simulator(config).run(trace, factory, label)
            for factory, label in cells * 2]
scalar = Simulator(dataclasses.replace(config, engine="scalar"))
reference = [scalar.run(trace, factory, label) for factory, label in cells]
print(json.dumps({
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "identical": [encode_result(r) for r in runs]
                 == [encode_result(r) for r in reference * 2],
}))
"""
    report = _python(code, PATH=str(empty),
                     XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert len(report["warnings"]) == 1
    assert "compiled event kernel unavailable" in report["warnings"][0]
    assert "baseline and STMS cells" in report["warnings"][0]
    assert report["identical"]


@needs_cc
def test_truncated_cached_library_is_rebuilt(tmp_path):
    path, cc, archive = library._library_path(tmp_path)
    library._compile(cc, archive, path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size // 3)
    # This process has never loaded ``path``, so the damaged file is
    # what the loader sees.
    lib = library.build(tmp_path)
    assert lib.repro_kernel_abi() == library.ABI
    assert path.stat().st_size == size
    assert _published(tmp_path) == ([path.name], [])


def test_library_key_starts_no_process_and_follows_the_compiler(
    tmp_path, monkeypatch
):
    """The cache key names the file ``cc`` resolves to, its size and its
    modification time, so finding the cached library spawns nothing,
    and a changed or re-pointed compiler gets a new key."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    compilers = []
    for name in ("gcc-a", "gcc-b"):
        compiler = bin_dir / name
        compiler.write_text("#!/bin/sh\nexit 0\n")
        compiler.chmod(0o755)
        os.utime(compiler, ns=(10**18, 10**18))
        compilers.append(compiler)
    cc = bin_dir / "cc"
    cc.symlink_to(compilers[0].name)
    monkeypatch.setenv("PATH", str(bin_dir))

    def spawned(*args, **kwargs):
        raise AssertionError(f"_library_path started a process: {args}")

    monkeypatch.setattr(subprocess, "run", spawned)
    monkeypatch.setattr(subprocess, "Popen", spawned)
    keys = [library._library_path(tmp_path)]
    assert keys[0][1] == str(cc)
    assert library._library_path(tmp_path) == keys[0]
    # Same size, newer modification time.
    os.utime(compilers[0], ns=(10**18, 10**18 + 1))
    keys.append(library._library_path(tmp_path))
    # Longer file, same modification time.
    compilers[0].write_text("#!/bin/sh\nexit 00\n")
    os.utime(compilers[0], ns=(10**18, 10**18 + 1))
    keys.append(library._library_path(tmp_path))
    # Same contents and times as the original, another file.
    cc.unlink()
    cc.symlink_to(compilers[1].name)
    keys.append(library._library_path(tmp_path))
    assert len({key[0] for key in keys}) == len(keys)


def test_library_key_follows_the_npyrandom_archive(tmp_path, monkeypatch):
    """The cache key names NumPy's ``libnpyrandom.a`` the library links,
    with its size and modification time: another NumPy rebuilds."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text("#!/bin/sh\nexit 0\n")
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    archives = []
    for name in ("a", "b"):
        archive = tmp_path / name / "libnpyrandom.a"
        archive.parent.mkdir()
        archive.write_bytes(b"!<arch>\n")
        os.utime(archive, ns=(10**18, 10**18))
        archives.append(archive)
    current = [archives[0]]
    monkeypatch.setattr(library, "npyrandom", lambda: current[0])
    keys = [library._library_path(tmp_path)]
    assert keys[0][2] == archives[0]
    assert library._library_path(tmp_path) == keys[0]
    os.utime(archives[0], ns=(10**18, 10**18 + 1))
    keys.append(library._library_path(tmp_path))
    archives[0].write_bytes(b"!<arch>\n\n")
    os.utime(archives[0], ns=(10**18, 10**18 + 1))
    keys.append(library._library_path(tmp_path))
    current[0] = archives[1]
    keys.append(library._library_path(tmp_path))
    assert len({key[0] for key in keys}) == len(keys)
    current[0] = None
    with pytest.raises(library.KernelUnavailable, match="libnpyrandom"):
        library._library_path(tmp_path)


def test_kernel_compiles_against_the_archives_own_headers(tmp_path):
    """The kernel includes the random C headers of the NumPy whose
    archive it links (and ``Python.h``, which they include); an archive
    with no headers beside it does not build."""
    archive = library.npyrandom()
    if archive is None:
        pytest.skip("NumPy ships no libnpyrandom.a here")
    includes = library._includes(archive)[1::2]
    assert os.path.isfile(
        os.path.join(includes[0], "numpy", "random", "distributions.h")
    )
    assert os.path.isfile(os.path.join(includes[1], "Python.h"))
    stray = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    stray.parent.mkdir(parents=True)
    stray.write_bytes(b"!<arch>\n")
    with pytest.raises(library.KernelUnavailable, match="headers"):
        library._includes(stray)


def test_npyrandom_is_found_without_importing_numpy():
    code = (
        "import json, sys; from repro.sim import library; "
        "archive = library.npyrandom(); "
        "print(json.dumps([archive is not None and archive.is_file(), "
        "'numpy' in sys.modules]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [True, False]


@needs_cc
def test_concurrent_builders_publish_one_library(tmp_path):
    code = (
        "import json, sys; from pathlib import Path; "
        "from repro.sim import library; "
        "lib = library.build(Path(sys.argv[1])); "
        "print(json.dumps(lib.repro_kernel_abi()))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    builders = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(tmp_path)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for builder in builders:
        out, err = builder.communicate(timeout=300)
        assert builder.returncode == 0, err
        assert json.loads(out) == library.ABI
    libraries, temps = _published(tmp_path)
    assert len(libraries) == 1
    assert temps == []


def test_kernel_loads_only_for_baseline_and_stms_cells():
    """``import repro.cli`` neither imports ``repro.sim.native`` nor
    maps the library; generating a trace maps the library (the compiled
    emitters) but imports no simulator model; IDEAL_TMS and MARKOV cells
    (run or preloaded) never import the kernel's driver; an STMS cell
    run does.  A fan-out's preload (``_preload_workers``) maps the
    library and imports the kernel's driver for STMS jobs, maps the
    library for any jobs when a worker may generate a trace, and
    neither maps nor imports it otherwise.
    """
    prelude = """
import json, sys
import repro.cli
loaded = lambda: "repro.sim.native" in sys.modules
def mapped():
    with open("/proc/self/maps") as maps:
        return "repro-kernels" in maps.read()
after_import = [loaded(), mapped()]
from repro.sim.runner import PrefetcherKind, SimJob, _preload_workers
"""
    run_code = prelude + """
from repro.workloads.suite import generate
trace = generate("web-apache", scale="test", cores=2, seed=7)
after_generate = [loaded(), mapped(), "repro.sim.engine" in sys.modules]
from repro.sim.engine import Simulator
from repro.sim.runner import make_factory, make_sim_config, make_stms_config
def run(kind, **options):
    Simulator(make_sim_config("test")).run(
        trace, make_factory(kind, **options), kind.value)
for kind in (PrefetcherKind.IDEAL_TMS, PrefetcherKind.MARKOV):
    run(kind)
    _preload_workers([SimJob("web-apache", kind, scale="test")], True)
after_other = loaded()
run(PrefetcherKind.STMS, stms_config=make_stms_config("test", cores=2))
print(json.dumps([after_import, after_generate, after_other, loaded()]))
"""
    assert _python(run_code) == [
        [False, False], [False, True, False], False, True
    ]
    preload_code = prelude + """
steps = []
for kind, generates in (
    (PrefetcherKind.IDEAL_TMS, False),
    (PrefetcherKind.IDEAL_TMS, True),
):
    _preload_workers([SimJob("web-apache", kind, scale="test")], generates)
    steps.append(mapped())
print(json.dumps([after_import, steps, loaded()]))
"""
    assert _python(preload_code) == [[False, False], [False, True], False]
    stms_code = prelude + """
_preload_workers([SimJob("web-apache", PrefetcherKind.STMS, scale="test")],
                 False)
print(json.dumps([after_import, mapped(), loaded()]))
"""
    assert _python(stms_code) == [[False, False], True, True]


def test_warm_replay_never_loads_the_kernel(tmp_path):
    """A fig7 replay served wholly from a warm store simulates nothing,
    so it neither imports ``repro.sim.native`` nor maps the kernel.

    (``ctypes`` itself is no marker: NumPy imports it.)
    """
    store = str(tmp_path / "store")
    env = dict(os.environ, PYTHONPATH=SRC)
    cold = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "fig7",
         "--scale", "test", "--store-dir", store],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert cold.returncode == 0, cold.stderr
    code = f"""
import json, sys
from repro.cli import main
code = main(["experiment", "fig7", "--scale", "test",
             "--store-dir", {store!r}])
with open("/proc/self/maps") as maps:
    mapped = "repro-kernels" in maps.read()
print(json.dumps([code, "repro.sim.native" in sys.modules, mapped]))
"""
    assert _python(code) == [0, False, False]


def test_native_state_rejects_a_temporal_prefetcher():
    from repro.sim.runner import PrefetcherKind, make_factory, make_sim_config
    from tests.conftest import make_trace

    with pytest.raises(ValueError, match="temporal prefetcher"):
        native.NativeRunState(
            make_sim_config("test"), make_trace([[1, 2, 3]]),
            make_factory(PrefetcherKind.IDEAL_TMS),
        )


@needs_cc
@pytest.mark.parametrize("dtype", ["float64", "int32"])
def test_non_float32_work_matches_scalar(dtype):
    """The kernel reads float32 work in place and anything else as
    float64; both must reproduce the reference clocks exactly."""
    import dataclasses

    import numpy as np

    from repro.sim.engine import Simulator
    from repro.sim.runner import make_sim_config
    from repro.sim.store import encode_result
    from repro.workloads.suite import generate

    trace = generate("sci-ocean", scale="test", cores=2, seed=3)
    trace = dataclasses.replace(
        trace,
        work=[(np.asarray(w) * 1.37).astype(dtype) for w in trace.work],
    )
    config = make_sim_config("test")
    reference = Simulator(dataclasses.replace(config, engine="scalar")).run(
        trace, None, "baseline"
    )
    candidate = native.NativeRunState(config, trace)
    candidate.run_warmup()
    candidate.reset_accounting()
    candidate.run_measured()
    assert encode_result(candidate.result("baseline")) == encode_result(
        reference
    )


@needs_cc
def test_loaded_trace_reaches_the_kernel_uncopied(tmp_path):
    """A stored trace's columns (read-only views of their own buffers)
    are what the kernel reads, and the loaded trace simulates to the
    generated trace's result."""
    from repro.sim.runner import (
        PrefetcherKind, make_factory, make_sim_config, make_stms_config)
    from repro.sim.store import encode_result
    from repro.workloads.suite import generate
    from repro.workloads.trace import Trace

    generated = generate("oltp-db2", scale="test", cores=2, seed=5)
    path = str(tmp_path / "oltp.trace")
    generated.save(path)
    loaded = Trace.load(path)
    for name, kind in native._KINDS.items():
        for column in getattr(loaded, name):
            assert native._column(column, kind) is column
            # A part of a read-only view says nothing of where it
            # starts: the kernel reads a copy.
            part = column[1:]
            with pytest.raises(ValueError, match="part of a buffer"):
                library.address(part)
            copied = native._column(part, kind)
            assert copied is not part
            assert bytes(copied) == bytes(part)
    config = make_sim_config("test")
    results = []
    for trace in (generated, loaded):
        state = native.NativeRunState(config, trace, make_factory(
            PrefetcherKind.STMS, make_stms_config("test", cores=2)
        ))
        assert not state._work_f64
        state.run_warmup()
        state.reset_accounting()
        state.run_measured()
        results.append(encode_result(state.result("stms")))
    assert results[0] == results[1]


@needs_cc
def test_numpy_columns_reach_the_kernel_as_copies():
    """NumPy columns are foreign to the kernel: int64 blocks and bool
    flags carry NumPy's own formats, and a read-only array has no
    writable buffer to read through, so the kernel reads copies, and
    the trace simulates to the stdlib trace's result."""
    import dataclasses

    import numpy as np

    from repro.sim.runner import make_sim_config
    from repro.sim.store import encode_result
    from repro.workloads.suite import generate

    generated = generate("oltp-db2", scale="test", cores=2, seed=5)

    def frozen(column, dtype):
        array = np.array(memoryview(column), dtype=dtype)
        array.flags.writeable = False
        return array

    as_numpy = dataclasses.replace(
        generated,
        blocks=[np.array(c, dtype=np.int64) for c in generated.blocks],
        work=[frozen(c, np.float32) for c in generated.work],
        dep=[np.array(c, dtype=bool) for c in generated.dep],
        write=[frozen(c, bool) for c in generated.write],
    )
    for name, kind in native._KINDS.items():
        for column in getattr(as_numpy, name):
            copied = native._column(column, kind)
            assert copied is not column
            assert bytes(copied) == column.tobytes()
    config = make_sim_config("test")
    results = []
    for trace in (generated, as_numpy):
        state = native.NativeRunState(config, trace)
        state.run_warmup()
        state.reset_accounting()
        state.run_measured()
        results.append(encode_result(state.result("baseline")))
    assert results[0] == results[1]


@needs_cc
@pytest.mark.parametrize("seed", [7, 11, 42])
@pytest.mark.parametrize("probability", [0.125, 0.5])
def test_kernel_coins_are_the_samplers_flips(probability, seed):
    """The kernel flips the STMS sampler's coins from a PCG64 of its
    own: one double per flip from ``ProbabilisticSampler(seed=...)``'s
    stream, so its flip and acceptance counts are the scalar model's,
    its generator ends where NumPy's ends after as many doubles, and the
    sampler ``sync`` rebuilds (:func:`native._sampler_after`) is the
    model's own."""
    import dataclasses

    import numpy as np

    from repro.sim.runner import (
        PrefetcherKind, make_factory, make_sim_config, make_stms_config)
    from repro.sim.scalar import ScalarRunState
    from repro.workloads.suite import generate

    trace = generate("oltp-db2", scale="test", cores=2, seed=7)
    config = make_sim_config("test")
    stms = dataclasses.replace(
        make_stms_config("test", cores=2, sampling_probability=probability),
        seed=seed,
    )
    states = []
    for state_class in (native.NativeRunState, ScalarRunState):
        state = state_class(
            config, trace, make_factory(PrefetcherKind.STMS, stms)
        )
        state.run_warmup()
        state.reset_accounting()
        state.run_measured()
        states.append(state)
    kernel, scalar = states
    model = scalar.temporal.sampler
    flips, accepted = kernel._buffers["sampler"]
    assert (flips, accepted) == (model.flips, model.accepted)
    assert 0 < accepted < flips
    reference = np.random.PCG64(seed)
    reference.advance(flips)
    state = reference.state["state"]
    rng = kernel._machine.coin_rng
    assert (rng.state_hi << 64 | rng.state_lo) == state["state"]
    rebuilt = native._sampler_after(probability, seed, flips, accepted)
    assert [rebuilt.should_update() for _ in range(5000)] == [
        model.should_update() for _ in range(5000)
    ]


@pytest.mark.parametrize("probability", [0.125, 0.3])
@pytest.mark.parametrize("flips", [0, 1, 4095, 4096, 4097, 9000])
def test_sampler_after_is_the_per_flip_samplers_state(probability, flips):
    """The sampler ``sync`` rebuilds from a flip count
    (:func:`native._sampler_after`) is the one flipping that many times
    leaves, at and around the sampler's batch boundaries: cursor,
    pending draws, generator state and every later flip."""
    from repro.core.sampling import ProbabilisticSampler

    python = ProbabilisticSampler(probability, seed=11)
    for _ in range(flips):
        python.should_update()
    rebuilt = native._sampler_after(
        probability, 11, python.flips, python.accepted
    )
    assert (rebuilt.flips, rebuilt.accepted) == (python.flips, python.accepted)
    assert rebuilt._cursor == python._cursor
    assert list(rebuilt._draws) == list(python._draws)
    assert (rebuilt._rng.bit_generator.state
            == python._rng.bit_generator.state)
    assert [rebuilt.should_update() for _ in range(5000)] == [
        python.should_update() for _ in range(5000)
    ]


@needs_cc
@pytest.mark.parametrize("workload, probability", [
    ("web-apache", 0.5),   # sampled: the coins cross a batch boundary
    ("sci-ocean", 1.0),    # every update applied: issued maps grow
])
def test_simulator_run_keeps_the_machine_in_the_kernel(
    monkeypatch, workload, probability
):
    """``Simulator.run`` builds an STMS cell's machine once and
    assembles its result from the kernel's counters: no Python machine
    is built and nothing is unpacked (``sync``) before the result is
    out, and the result is the scalar engine's, bit for bit.  (The one
    ``sync`` after it is the suite's conservation oracle.)  The
    kernel's resume status occurs, and its state (a grown issued map)
    carries across the measurement boundary."""
    import dataclasses

    from repro.sim import scalar
    from repro.sim.engine import Simulator
    from repro.sim.runner import (
        PrefetcherKind, make_factory, make_sim_config, make_stms_config)
    from repro.sim.store import encode_result
    from repro.workloads.suite import generate

    trace = generate(workload, scale="test", cores=2, seed=7)
    config = make_sim_config("test")
    factory = make_factory(
        PrefetcherKind.STMS,
        make_stms_config(
            "test", cores=2, sampling_probability=probability
        ),
    )
    reference = Simulator(dataclasses.replace(config, engine="scalar")).run(
        trace, factory, "stms"
    )

    events = []
    grown = []
    hand_over = native.NativeRunState._hand_over
    sync, machine_counts = (
        native.NativeRunState.sync, native.NativeRunState._machine_counts)
    build_machine = scalar.build_machine

    def counted_hand_over(state, **arrays):
        if set(arrays) == {"issued"}:
            grown.append(len(arrays["issued"]))
        hand_over(state, **arrays)

    def logged(name, function):
        def call(*args):
            events.append(name)
            return function(*args)
        return call

    monkeypatch.setattr(
        native.NativeRunState, "_hand_over", counted_hand_over
    )
    monkeypatch.setattr(native.NativeRunState, "sync", logged("sync", sync))
    monkeypatch.setattr(native.NativeRunState, "_machine_counts",
                        logged("result", machine_counts))
    monkeypatch.setattr(scalar, "build_machine",
                        logged("build", build_machine))
    result = Simulator(config).run(trace, factory, "stms")
    assert encode_result(result) == encode_result(reference)
    assert events[0] == "result", events
    assert grown


@needs_cc
class TestWithoutTheReferenceMachine:
    """A kernel cell's result comes from the kernel's counters alone."""

    @pytest.fixture(autouse=True)
    def _invariants_after_every_simulation(self):
        """Stands in for the suite's oracle wrapper, which syncs (and
        so builds the Python machine) right after every result: these
        cases first check that nothing built it, then run the oracle
        themselves."""

    @pytest.mark.parametrize("kind, probability, miss_log", [
        ("baseline", None, True),
        ("stms", 0.5, False),
        ("stms", 1.0, True),
    ])
    def test_result_equals_the_scalar_engines_field_for_field(
        self, monkeypatch, kind, probability, miss_log
    ):
        import dataclasses

        from repro.sim.metrics import check_invariants
        from repro.sim.results import SimResult
        from repro.sim.runner import (
            PrefetcherKind, make_factory, make_sim_config, make_stms_config)
        from repro.sim.scalar import ScalarRunState
        from repro.sim.store import encode_result
        from repro.workloads.suite import generate

        trace = generate("web-apache", scale="test", cores=2, seed=7)
        config = dataclasses.replace(
            make_sim_config("test"), collect_miss_log=miss_log
        )
        stms = (
            make_stms_config("test", cores=2,
                             sampling_probability=probability)
            if probability is not None else None
        )

        def run(state_class):
            state = state_class(
                config, trace, make_factory(PrefetcherKind(kind), stms)
            )
            state.run_warmup()
            state.reset_accounting()
            state.run_measured()
            return state, state.result(kind)

        reference, expected = run(ScalarRunState)
        check_invariants(reference, expected)
        syncs = []
        sync = native.NativeRunState.sync

        def counted_sync(state):
            syncs.append(state)
            sync(state)

        monkeypatch.setattr(native.NativeRunState, "sync", counted_sync)
        state, result = run(native.NativeRunState)
        assert syncs == []
        machine = (state.hierarchy, state.dram, state.mshrs, state.stride,
                   state.temporal, state.outstanding)
        assert machine == (None,) * len(machine)
        for field in dataclasses.fields(SimResult):
            assert getattr(result, field.name) == getattr(
                expected, field.name
            ), field.name
        assert encode_result(result) == encode_result(expected)
        check_invariants(state, result)
        assert syncs == [state] and state.hierarchy is not None


def test_counter_rows_match_the_python_counters():
    """Each kernel counter row is as wide as the Python counter class
    ``sync`` fills from it (the sampler's row: flips and acceptances)."""
    from dataclasses import fields

    from repro.core.bucket_buffer import BucketBufferStats
    from repro.core.history_buffer import HistoryStats
    from repro.core.index_table import IndexStats
    from repro.core.stms import StmsCounters
    from repro.memory.cache import CacheStats
    from repro.memory.mshr import MshrStats
    from repro.prefetchers.stats import PrefetcherStats
    from repro.prefetchers.stride import StrideStats
    from repro.sim.results import CoverageCounts

    classes = {
        "l1_stats": CacheStats, "l2_stats": CacheStats,
        "mshr_stats": MshrStats, "stride_stats": StrideStats,
        "coverage": CoverageCounts, "core_coverage": CoverageCounts,
        "pf_stats": PrefetcherStats, "stms_counters": StmsCounters,
        "index_stats": IndexStats, "hist_stats": HistoryStats,
        "bb_stats": BucketBufferStats,
    }
    widths = {name: len(fields(cls)) for name, cls in classes.items()}
    assert dict(library.COUNTERS) == dict(widths, sampler=2)
