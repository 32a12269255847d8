"""Loader robustness of the compiled event kernel (``repro.sim.native``).

The library holding the kernel is built once per machine into a
per-user cache and loaded through ``ctypes`` (``repro.sim.library``);
these tests pin the loader's contract: a machine with a C compiler must
load it (a silent fallback would hide a regression), a machine without
one warns once and falls back with identical results, a damaged cached
library is rebuilt, concurrent builders publish exactly one library,
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
    path, cc = library._library_path(tmp_path)
    library._compile(cc, path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size // 3)
    # This process has never loaded ``path``, so the damaged file is
    # what the loader sees.
    lib = library.build(tmp_path)
    assert lib.repro_kernel_abi() == library.ABI
    assert path.stat().st_size == size
    assert _published(tmp_path) == ([path.name], [])


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
    run does.  A fan-out's preload maps the library for STMS jobs, or
    for any jobs when a worker may generate a trace, and not otherwise.
    """
    prelude = """
import json, sys
import repro.cli
loaded = lambda: "repro.sim.native" in sys.modules
def mapped():
    with open("/proc/self/maps") as maps:
        return "repro-kernels" in maps.read()
after_import = [loaded(), mapped()]
from repro.sim.runner import PrefetcherKind, SimJob, _preload_kernel
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
    _preload_kernel([SimJob("web-apache", kind, scale="test")], True)
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
    _preload_kernel([SimJob("web-apache", kind, scale="test")], generates)
    steps.append(mapped())
print(json.dumps([after_import, steps, loaded()]))
"""
    assert _python(preload_code) == [[False, False], [False, True], False]
    stms_code = prelude + """
_preload_kernel([SimJob("web-apache", PrefetcherKind.STMS, scale="test")],
                False)
print(json.dumps([after_import, mapped(), loaded()]))
"""
    assert _python(stms_code) == [[False, False], True, False]


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


@pytest.mark.parametrize("trailing", [False, True])
@pytest.mark.parametrize("before", [0, 100, 4096])
@pytest.mark.parametrize("used", [0, 1, 3996, 3997, 9000])
def test_coins_hand_back_exactly_what_the_python_path_leaves(
    before, used, trailing
):
    """Coins handed to the kernel a batch at a time and the per-flip
    path leave the sampler in the same state, whichever batch the phase
    stops in — also when the kernel asked for a batch before a last
    record that flipped nothing."""
    from types import SimpleNamespace

    from repro.core.sampling import ProbabilisticSampler

    python, kernel = (ProbabilisticSampler(0.3, seed=11) for _ in range(2))
    for sampler in (python, kernel):
        for _ in range(before):
            sampler.should_update()
    flips = [python.should_update() for _ in range(used)]
    machine = SimpleNamespace()
    coins = native._Coins(kernel, machine)
    flipped = []
    for _ in range(used + trailing):
        # The kernel's resume protocol, before each record.
        if coins.spent():
            coins.draw()
        if len(flipped) < used:
            flipped.append(bool(coins.current[machine.coin_cursor]))
            machine.coin_cursor += 1
    assert flipped == flips
    coins.settle()
    assert kernel._cursor == python._cursor
    assert list(kernel._draws) == list(python._draws)
    assert (kernel._rng.bit_generator.state
            == python._rng.bit_generator.state)
    assert [kernel.should_update() for _ in range(5000)] == [
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
    """``Simulator.run`` builds an STMS cell's machine once and copies
    back only counters: the full structural unpack (``sync``) never
    runs, and the result is the scalar engine's, bit for bit.  Both of
    the kernel's resume statuses occur, and their state (the sampler's
    batches, a grown issued map) carries across the measurement
    boundary."""
    import dataclasses

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

    def no_unpack(state):
        raise AssertionError("Simulator.run unpacked the kernel machine")

    resumes = {"draw": 0, "grow": 0}
    draw, hand_over = native._Coins.draw, native.NativeRunState._hand_over

    def counted_draw(coins):
        resumes["draw"] += 1
        draw(coins)

    def counted_hand_over(state, **arrays):
        if set(arrays) == {"issued"}:
            resumes["grow"] += 1
        hand_over(state, **arrays)

    monkeypatch.setattr(native.NativeRunState, "sync", no_unpack)
    monkeypatch.setattr(native._Coins, "draw", counted_draw)
    monkeypatch.setattr(
        native.NativeRunState, "_hand_over", counted_hand_over
    )
    result = Simulator(config).run(trace, factory, "stms")
    assert encode_result(result) == encode_result(reference)
    if probability < 1.0:
        assert resumes["draw"] >= 2
    assert resumes["grow"] > 0
