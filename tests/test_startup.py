"""Start-up budget: a fresh interpreter imports only what its command runs.

``import repro.cli`` is the control plane (argument parsing, the
registries, the runner, session and store) and must not load NumPy, the
process-pool machinery, the simulator models or any figure driver: it
builds result keys from the configuration dataclasses and decodes
results into the result dataclasses, whose modules import no model.  A
figure replayed from a warm store keys its results by the fingerprints
stored inside the trace files, so it imports no NumPy, loads no trace
and loads no model.
Each check runs in a fresh interpreter: this test process has long
since imported everything.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.experiments import EXPERIMENTS, run_experiment
from repro.sim import library
from repro.sim.session import SimSession
from repro.workloads.scales import FIGURE_ORDER

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: The simulator model, which only a path that simulates needs.
MODELS = (
    "repro.sim.engine",
    "repro.sim.metrics",
    "repro.memory.hierarchy",
    "repro.memory.cache",
    "repro.memory.mshr",
    "repro.memory.dram",
    "repro.memory.traffic",
    "repro.memory.address",
    "repro.prefetchers.base",
    "repro.prefetchers.stride",
    "repro.workloads.mix",
)
#: Modules the control plane must leave unloaded.
HEAVY = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "repro.sim.native",
    "repro.sim.batch",
    "repro.sim.shm",
    "repro.core.stms",
) + MODELS
#: The configuration and result types, apart from the models.
MODEL_FREE = (
    "repro.sim.config",
    "repro.sim.results",
    "repro.memory.config",
    "repro.prefetchers.stats",
    "repro.prefetchers.params",
    "repro.core.config",
    "repro.workloads.scales",
)
DRIVERS = sorted(
    {f"repro.experiments.{driver.module}" for driver in EXPERIMENTS.values()}
)


def _python(code: str, env: "dict | None" = None) -> dict:
    """Run ``code`` in a fresh interpreter (in ``env``, default this
    process's environment); its last stdout line is JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ if env is None else env, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_heavy_module():
    loaded = _python(
        "import json, sys\n"
        "import repro.cli\n"
        f"print(json.dumps([m for m in {list(HEAVY + tuple(DRIVERS))!r} "
        "if m in sys.modules]))\n"
    )
    assert loaded == []


@pytest.mark.parametrize("module", MODEL_FREE)
def test_model_free_module_alone_loads_no_model(module):
    loaded = _python(
        "import json, sys\n"
        f"import {module}\n"
        f"print(json.dumps([m for m in {list(HEAVY)!r} "
        "if m in sys.modules]))\n"
    )
    assert loaded == []


#: Drivers that label their rows from the suite's names and paper
#: numbers (``workloads.scales.WORKLOAD_INFO``), not its generators.
LABEL_DRIVERS = ("table2_mlp", "fig4_potential", "fig5_storage",
                 "fig9_performance")


@pytest.mark.parametrize("driver", LABEL_DRIVERS)
def test_label_driver_import_loads_no_numpy_or_generators(driver):
    unwanted = ["repro.workloads.suite", "repro.workloads.base", *HEAVY]
    loaded = _python(
        "import json, sys\n"
        f"import repro.experiments.{driver}\n"
        f"print(json.dumps([m for m in {unwanted!r} "
        "if m in sys.modules]))\n"
    )
    assert loaded == []


def _warm(store: str, target: str) -> None:
    cold = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "warm", target,
         "--scale", "test", "--cores", "2", "--store-dir", store],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert cold.returncode == 0, cold.stderr


def test_warm_replay_imports_no_numpy_and_reads_no_trace(tmp_path):
    store = str(tmp_path / "store")
    _warm(store, "fig7")
    replay = _python(f"""
import dataclasses, json, sys
from repro.cli import _store_session
from repro.experiments import run_experiment
session = _store_session({store!r})
result = run_experiment("fig7", scale="test", cores=2, session=session)
print(json.dumps({{
    "data": result.data,
    "stats": dataclasses.asdict(session.stats),
    # Trace.load cannot have run if its module was never imported.
    "loaded": [m for m in {["repro.workloads.trace", *HEAVY]!r}
               if m in sys.modules],
}}, sort_keys=True))
""")
    assert replay["loaded"] == []
    stats = replay["stats"]
    assert stats["sim_store_hits"] == 16
    assert stats["sim_misses"] == stats["trace_misses"] == 0
    assert stats["trace_store_hits"] == stats["trace_hits"] == 0
    assert stats["bundle_skips"] == 8
    recomputed = run_experiment(
        "fig7", scale="test", cores=2,
        session=SimSession(enabled=True, store=None),
    )
    assert replay["data"] == json.loads(
        json.dumps(recomputed.data, sort_keys=True)
    )


def test_cache_ls_labels_every_trace_from_its_header(tmp_path):
    """``cache ls`` names each trace's workload from the file header
    alone: no NumPy, no trace module."""
    store = str(tmp_path / "store")
    _warm(store, "fig7")
    listed = _python(f"""
import contextlib, io, json, sys
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = main(["cache", "ls", "--store-dir", {store!r}])
print(json.dumps({{
    "status": status,
    "rows": [line.split() for line in out.getvalue().splitlines()],
    "loaded": [m for m in {["repro.workloads.trace", *HEAVY]!r}
               if m in sys.modules],
}}))
""")
    assert listed["status"] == 0
    assert listed["loaded"] == []
    labels = [row[-1] for row in listed["rows"] if row[:1] == ["trace"]]
    assert sorted(labels) == sorted(FIGURE_ORDER)


@pytest.mark.parametrize("experiment", ["fig8", "mix-contention"])
def test_exact_warm_replay_imports_no_numpy(tmp_path, experiment):
    """A warm replay of a grid driver reads results only, so it loads
    no NumPy and no model.  Mix-contention parses its mixes, which
    loads the mix grammar (itself NumPy-free)."""
    store = str(tmp_path / "store")
    _warm(store, experiment)
    replay = _python(f"""
import json, sys
from repro.cli import _store_session
from repro.experiments import run_experiment
session = _store_session({store!r})
run_experiment({experiment!r}, scale="test", cores=2, session=session)
print(json.dumps({{
    "simulated": session.stats.sim_misses,
    "loaded": [m for m in {list(HEAVY)!r} if m in sys.modules],
}}))
""")
    assert replay["simulated"] == 0
    allowed = ["repro.workloads.mix"] if experiment == "mix-contention" else []
    assert replay["loaded"] == allowed


#: Prefetcher modules a fig7 run (baseline and STMS cells) never runs.
UNUSED_PREFETCHERS = (
    "repro.prefetchers.ideal_tms",
    "repro.prefetchers.markov",
    "repro.prefetchers.fixed_depth",
)


#: The Python machine model: the compiled kernel builds baseline and
#: STMS cells from their configurations, so a run whose cells all run
#: in it imports none of these (CI's "A cold kernel run imports no
#: simulator model" step greps for the same list).
KERNEL_PATH_FORBIDDEN = (
    "repro.core.stms",
    "repro.core.history_buffer",
    "repro.core.index_table",
    "repro.core.bucket_buffer",
    "repro.core.stream_engine",
    "repro.memory.hierarchy",
    "repro.memory.cache",
    "repro.memory.mshr",
    "repro.memory.address",
    "repro.prefetchers.base",
    "repro.prefetchers.stride",
)

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None,
    reason="only the compiled kernel runs cells without the Python model",
)


def test_cold_fig7_imports_only_the_prefetchers_it_runs(tmp_path):
    """A cold fig7 imports no prefetcher it does not run and, on the
    compiled kernel, no Python machine model at all."""
    store = str(tmp_path / "store")
    unwanted = UNUSED_PREFETCHERS
    if shutil.which("cc") is not None:
        unwanted += KERNEL_PATH_FORBIDDEN
    loaded = _python(f"""
import json, sys
from repro.cli import _store_session
from repro.experiments import run_experiment
session = _store_session({store!r})
run_experiment("fig7", scale="test", cores=2, session=session)
assert session.stats.sim_misses == 16, session.stats
print(json.dumps([m for m in {unwanted!r} if m in sys.modules]))
""")
    assert loaded == []


@needs_cc
def test_cold_contention_parent_imports_no_machine_model(tmp_path):
    """The parent of a cold two-worker ``mix-contention`` generates
    traces, preloads what its workers run (the kernel's driver) and
    forks: it imports no Python machine model, and no ``numpy.random``
    (the library draws; no NumPy at all, as
    :func:`test_cold_contention_imports_no_numpy` checks)."""
    store = str(tmp_path / "store")
    unwanted = KERNEL_PATH_FORBIDDEN + ("numpy.random",)
    loaded = _python(f"""
import json, sys
from repro.cli import main
assert main(["experiment", "mix-contention", "--scale", "test",
             "--jobs", "2", "--store-dir", {store!r}]) == 0
print(json.dumps([m for m in {unwanted!r} if m in sys.modules]))
""")
    assert loaded == []


needs_library = pytest.mark.skipif(
    shutil.which("cc") is None or library.npyrandom() is None,
    reason="only the compiled library draws without NumPy",
)


def _numpy_loaded(tmp_path, argv: "list[str]") -> "tuple[list, list]":
    """Run ``repro <argv> --store-dir <tmp_path/store>`` in a fresh
    interpreter: whether NumPy (and ``numpy.random``) loaded in the
    parent, and, per worker, whether it had NumPy loaded after its
    bundle (each worker notes it in a file of its own)."""
    store = str(tmp_path / "store")
    logs = tmp_path / "logs"
    logs.mkdir()
    loaded = _python(f"""
import functools, json, os, sys
from repro.cli import main
from repro.sim import runner

bundle = runner._run_bundle


@functools.wraps(bundle)
def probed(*args, **kwargs):
    try:
        return bundle(*args, **kwargs)
    finally:
        with open(os.path.join({str(logs)!r}, str(os.getpid())), "w") as log:
            log.write(json.dumps("numpy" in sys.modules))


runner._run_bundle = probed
assert main({argv!r} + ["--store-dir", {store!r}]) == 0
print(json.dumps([m for m in ("numpy", "numpy.random") if m in sys.modules]))
""")
    return loaded, [json.loads(log.read_text()) for log in logs.iterdir()]


@needs_library
@pytest.mark.parametrize("jobs", [1, 2])
def test_cold_fig7_imports_no_numpy(tmp_path, jobs):
    """A cold fig7 generates its traces, simulates its cells and writes
    its store in the compiled library: neither the parent nor a worker
    imports NumPy."""
    loaded, workers = _numpy_loaded(
        tmp_path,
        ["experiment", "fig7", "--scale", "test", "--jobs", str(jobs)],
    )
    assert loaded == []
    assert workers == [False] * len(workers)
    if jobs > 1:
        assert workers


@needs_library
def test_cold_contention_imports_no_numpy(tmp_path):
    """A cold two-worker ``mix-contention`` assembles its mixes in
    buffers (offset, round-robin merge, float32 rate scaling): neither
    the parent nor a worker imports NumPy."""
    loaded, workers = _numpy_loaded(
        tmp_path,
        ["experiment", "mix-contention", "--scale", "test", "--jobs", "2"],
    )
    assert loaded == []
    assert workers and workers == [False] * len(workers)


@needs_library
def test_fig8_over_stored_traces_imports_no_numpy(tmp_path):
    """fig8 on a store that holds fig7's traces (its results cold)
    reads those trace files into buffers: neither the parent nor a
    worker imports NumPy."""
    from repro.sim.store import ArtifactStore

    store = str(tmp_path / "store")
    cold = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "fig7", "--scale",
         "test", "--jobs", "1", "--store-dir", store],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert cold.returncode == 0, cold.stderr
    before = ArtifactStore(store).counters().get("trace_store_hits", 0)
    loaded, workers = _numpy_loaded(
        tmp_path,
        ["experiment", "fig8", "--scale", "test", "--jobs", "2"],
    )
    assert ArtifactStore(store).counters()["trace_store_hits"] > before
    assert loaded == []
    assert workers and workers == [False] * len(workers)


@needs_library
@pytest.mark.skipif(
    not hasattr(os, "register_at_fork"),
    reason="cell shards inherit their trace only where the pool forks",
)
def test_split_group_generates_its_trace_once_without_numpy(tmp_path):
    """A store-backed two-worker map of one trace group, split into
    cell shards: the parent generates the trace once, before the pool
    forks, and every shard finds it in the memory tier it inherited.
    Neither the parent nor a worker imports the shared-memory plane or
    NumPy."""
    logs = tmp_path / "logs"
    logs.mkdir()
    store = str(tmp_path / "store")
    unwanted = ("numpy", "repro.sim.shm")
    report = _python(f"""
import functools, json, os, sys
from repro.sim import runner
from repro.sim.runner import (
    ExperimentRunner, PrefetcherKind, SimJob, job_options)
from repro.sim.session import SimSession
from repro.sim.store import ArtifactStore

bundle = runner._run_bundle


@functools.wraps(bundle)
def probed(*args, **kwargs):
    try:
        return bundle(*args, **kwargs)
    finally:
        with open(os.path.join({str(logs)!r}, str(os.getpid())), "w") as log:
            log.write(json.dumps(
                [m for m in {unwanted!r} if m in sys.modules]))


runner._run_bundle = probed
session = SimSession(enabled=True, store=ArtifactStore({store!r}))
ExperimentRunner(max_workers=2, parallel=True).map(
    [SimJob("web-apache", PrefetcherKind.STMS, scale="test", cores=2,
            stms_overrides=job_options(sampling_probability=p), tag=p)
     for p in (1.0, 0.5, 0.25, 0.125)],
    session=session,
)
stats = session.stats
print(json.dumps({{
    "misses": stats.trace_misses,
    "hits": stats.trace_hits,
    "sweeps": stats.sweep_invocations,
    "loaded": [m for m in {unwanted!r} if m in sys.modules],
}}))
""")
    assert report["misses"] == 1
    assert report["hits"] >= 2
    assert report["sweeps"] >= 2
    assert report["loaded"] == []
    workers = [json.loads(log.read_text()) for log in logs.iterdir()]
    assert workers and workers == [[]] * len(workers)


def test_suite_trace_loads_no_mix_grammar():
    """Only a ``mix:`` recipe needs the mix grammar to generate."""
    loaded = _python(
        "import json, sys\n"
        "from repro.workloads.suite import generate\n"
        "generate('web-apache', scale='test', cores=2)\n"
        "print(json.dumps('repro.workloads.mix' in sys.modules))\n"
    )
    assert loaded is False


# ----------------------------------------------------------------------
# Start-up work is done once: no spinning BLAS threads, no worker imports.
# ----------------------------------------------------------------------

multi_cpu_linux = pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS starts one thread per CPU beyond the first, so the "
    "thread count tells the cases apart only on Linux (/proc/self/task) "
    "with 2 or more CPUs",
)

#: Threads of a fresh interpreter after ``import repro`` and NumPy.
THREADS_AFTER_NUMPY = (
    "import json, os\n"
    "import repro\n"
    "import numpy\n"
    "print(json.dumps(len(os.listdir('/proc/self/task'))))\n"
)


@multi_cpu_linux
def test_numpy_loaded_after_repro_starts_no_blas_thread():
    env = {
        key: value for key, value in os.environ.items()
        if key != "OPENBLAS_NUM_THREADS"
    }
    assert _python(THREADS_AFTER_NUMPY, env) == 1


@multi_cpu_linux
def test_blas_thread_count_the_caller_set_wins():
    assert _python(
        THREADS_AFTER_NUMPY, dict(os.environ, OPENBLAS_NUM_THREADS="2")
    ) == 2


@pytest.mark.skipif(
    not hasattr(os, "register_at_fork"),
    reason="the fan-out forks its workers only where fork exists",
)
@pytest.mark.parametrize("setting", ["default", "scalar", "no-cc"])
def test_forked_workers_import_no_repro_module(tmp_path, setting):
    """The parent imports, before the pool forks, every module a worker
    runs: kernel cells (baseline, STMS) and Python batch cells (ideal
    TMS, Markov) on traces the workers generate, a mix trace among
    them, then one trace split into cell shards that inherit it.
    So it does on the scalar engine, and without a C compiler (every
    cell in the batch engine).  Each worker lists the ``repro``
    modules it imported after the fork, one file per process."""
    logs = tmp_path / "logs"
    logs.mkdir()
    env = dict(os.environ)
    if setting == "scalar":
        env["REPRO_SIM_ENGINE"] = "scalar"
    elif setting == "no-cc":
        env["PATH"] = str(tmp_path)
    workers = _python(f"""
import functools, json, os, sys
from repro.sim import runner
from repro.sim.runner import ExperimentRunner, PrefetcherKind, SimJob
from repro.sim.session import SimSession

at_fork = set()
os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
bundle = runner._run_bundle


@functools.wraps(bundle)
def probed(*args, **kwargs):
    try:
        return bundle(*args, **kwargs)
    finally:
        path = os.path.join({str(logs)!r}, str(os.getpid()))
        with open(path, "a") as log:
            log.writelines(
                f"{{name}}\\n" for name in sys.modules
                if name.startswith("repro") and name not in at_fork
            )


runner._run_bundle = probed
kinds = (PrefetcherKind.BASELINE, PrefetcherKind.STMS,
         PrefetcherKind.IDEAL_TMS, PrefetcherKind.MARKOV)
for workloads in (
    ("web-apache", "oltp-db2", "mix:web-apache+oltp-db2"),
    ("dss-db2",),
):
    ExperimentRunner(max_workers=2, parallel=True).map(
        [SimJob(workload, kind, scale="test", cores=2)
         for workload in workloads for kind in kinds],
        session=SimSession(enabled=True, store=None),
    )
print(json.dumps(len(os.listdir({str(logs)!r}))))
""", env)
    assert workers >= 2
    imported = {log.name: log.read_text().split() for log in logs.iterdir()}
    assert imported == {name: [] for name in imported}


@pytest.mark.skipif(
    not hasattr(os, "register_at_fork"),
    reason="the fan-out forks its workers only where fork exists",
)
def test_workers_reading_stored_traces_import_nothing(tmp_path):
    """Workers that read their traces from the store (stored by an
    earlier run, with results still cold) inherit NumPy from the parent
    rather than each importing it after the fork.  Each worker lists
    the ``repro`` and ``numpy`` modules it imported after the fork."""
    logs = tmp_path / "logs"
    logs.mkdir()
    store = str(tmp_path / "store")
    workers = _python(f"""
import functools, json, os, sys
from repro.sim import runner
from repro.sim.runner import ExperimentRunner, PrefetcherKind, SimJob
from repro.sim.session import SimSession
from repro.sim.store import ArtifactStore

workloads = ("web-apache", "oltp-db2")
ExperimentRunner(parallel=False).map(
    [SimJob(workload, PrefetcherKind.BASELINE, scale="test", cores=2)
     for workload in workloads],
    session=SimSession(enabled=True, store=ArtifactStore({store!r})),
)
at_fork = set()
os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
bundle = runner._run_bundle


@functools.wraps(bundle)
def probed(*args, **kwargs):
    try:
        return bundle(*args, **kwargs)
    finally:
        path = os.path.join({str(logs)!r}, str(os.getpid()))
        with open(path, "a") as log:
            log.writelines(
                f"{{name}}\\n" for name in sys.modules
                if name.split(".")[0] in ("repro", "numpy")
                and name not in at_fork
            )


runner._run_bundle = probed
session = SimSession(enabled=True, store=ArtifactStore({store!r}))
ExperimentRunner(max_workers=2, parallel=True).map(
    [SimJob(workload, PrefetcherKind.STMS, scale="test", cores=2)
     for workload in workloads],
    session=session,
)
assert session.stats.trace_store_hits >= 2, session.stats
print(json.dumps(len(os.listdir({str(logs)!r}))))
""")
    assert workers >= 2
    imported = {log.name: log.read_text().split() for log in logs.iterdir()}
    assert imported == {name: [] for name in imported}


# ----------------------------------------------------------------------
# Every name comes from the module that defines it.
# ----------------------------------------------------------------------


def _module_path(module: str) -> str:
    base = os.path.join(SRC, *module.split("."))
    if os.path.isdir(base):
        return os.path.join(base, "__init__.py")
    return base + ".py"


def _defined_names(path: str) -> "set[str]":
    """Names a module binds at top level by definition or assignment
    (an ``import`` binds an alias, not a definition)."""
    names: "set[str]" = set()

    def visit(body: list) -> None:
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    names.update(
                        leaf.id for leaf in ast.walk(target)
                        if isinstance(leaf, ast.Name)
                    )
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body)
                visit(node.orelse)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body)

    with open(path) as handle:
        visit(ast.parse(handle.read()).body)
    return names


def test_src_imports_each_name_from_its_defining_module():
    defined: "dict[str, set[str]]" = {}
    misplaced = []
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.ImportFrom)
                    and node.level == 0
                    and (node.module or "").startswith("repro")
                ):
                    continue
                if node.module not in defined:
                    defined[node.module] = _defined_names(
                        _module_path(node.module)
                    )
                for alias in node.names:
                    submodule = _module_path(f"{node.module}.{alias.name}")
                    if alias.name in defined[node.module] or os.path.exists(
                        submodule
                    ):
                        continue
                    misplaced.append(
                        f"{os.path.relpath(path, SRC)}:{node.lineno} "
                        f"imports {alias.name} from {node.module}"
                    )
    assert misplaced == []


# ----------------------------------------------------------------------
# Names that resolve on first use.
# ----------------------------------------------------------------------

PUBLIC = [name for name in repro.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(repro._EXPORTS[name])
    value = getattr(repro, name)
    assert value is getattr(module, name)
    # Classes and functions name the module that defines them, so the
    # table cannot point at a module that merely re-exports one.
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
    assert not hasattr(repro, "run_experiment")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_id_resolves_to_a_driver(name):
    driver = EXPERIMENTS[name]
    assert callable(driver.resolve())
    assert driver.resolve() is getattr(
        sys.modules[f"repro.experiments.{driver.module}"], driver.function
    )

