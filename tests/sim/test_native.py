"""Loader robustness of the compiled event kernel (``repro.sim.native``).

The kernel is built once per machine into a per-user cache and loaded
through ``ctypes``; these tests pin the loader's contract: a machine
with a C compiler must load it (a silent fallback would hide a
regression), a machine without one warns once and falls back with
identical results, a damaged cached library is rebuilt, concurrent
builders publish exactly one library, and nothing that never simulates
a baseline cell imports the module at all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import native

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
    assert native.load() is not None


def test_no_compiler_warns_once_and_falls_back(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    code = """
import dataclasses, json, warnings
from repro.sim.engine import Simulator
from repro.sim.runner import make_sim_config
from repro.sim.store import encode_result
from repro.workloads.suite import generate

trace = generate("web-apache", scale="test", cores=2, seed=7)
config = make_sim_config("test")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    runs = [Simulator(config).run(trace, None, "baseline") for _ in range(2)]
reference = Simulator(dataclasses.replace(config, engine="scalar")).run(
    trace, None, "baseline")
print(json.dumps({
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "identical": all(encode_result(r) == encode_result(reference)
                     for r in runs),
}))
"""
    report = _python(code, PATH=str(empty),
                     XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert len(report["warnings"]) == 1
    assert "compiled event kernel unavailable" in report["warnings"][0]
    assert report["identical"]


@needs_cc
def test_truncated_cached_library_is_rebuilt(tmp_path):
    path, cc = native._library_path(tmp_path)
    native._compile(cc, path)
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.truncate(size // 3)
    # This process has never loaded ``path``, so the damaged file is
    # what the loader sees.
    lib = native.build(tmp_path)
    assert lib.repro_kernel_abi() == native.ctypes.sizeof(native.Machine)
    assert path.stat().st_size == size
    assert _published(tmp_path) == ([path.name], [])


@needs_cc
def test_concurrent_builders_publish_one_library(tmp_path):
    code = (
        "import json, sys; from pathlib import Path; "
        "from repro.sim import native; "
        "lib = native.build(Path(sys.argv[1])); "
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
        assert json.loads(out) == native.ctypes.sizeof(native.Machine)
    libraries, temps = _published(tmp_path)
    assert len(libraries) == 1
    assert temps == []


def test_cli_import_and_temporal_cells_never_load_the_kernel():
    code = """
import json, sys
import repro.cli
after_import = "repro.sim.native" in sys.modules
from repro.sim.engine import Simulator
from repro.sim.runner import (
    PrefetcherKind, SimJob, _preload_kernel, make_factory, make_sim_config,
    make_stms_config)
from repro.workloads.suite import generate
trace = generate("web-apache", scale="test", cores=2, seed=7)
Simulator(make_sim_config("test")).run(
    trace,
    make_factory(PrefetcherKind.STMS, make_stms_config("test", cores=2)),
    "stms",
)
# A worker fan-out preloads the kernel only for baseline cells.
_preload_kernel([SimJob("web-apache", PrefetcherKind.STMS, scale="test")])
after_stms = "repro.sim.native" in sys.modules
_preload_kernel([SimJob("web-apache", PrefetcherKind.BASELINE, scale="test")])
after_baseline = "repro.sim.native" in sys.modules
print(json.dumps([after_import, after_stms, after_baseline]))
"""
    assert _python(code) == [False, False, True]


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
