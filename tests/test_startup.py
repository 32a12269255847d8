"""Start-up budget: a fresh interpreter imports only what its command runs.

``import repro.cli`` is the control plane (argument parsing, the
registries, the runner, session and store) and must not load NumPy, the
process-pool machinery, the simulators or any figure driver.  A figure
replayed from a warm store keys its results by the fingerprints stored
inside the trace files, so it imports no NumPy and loads no trace.
Each check runs in a fresh interpreter: this test process has long
since imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import EXPERIMENTS, run_experiment
from repro.sim.session import SimSession

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Modules the control plane must leave unloaded.
HEAVY = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "repro.sim.native",
    "repro.sim.batch",
    "repro.sim.shm",
    "repro.core.stms",
)
DRIVERS = sorted(
    {f"repro.experiments.{driver.module}" for driver in EXPERIMENTS.values()}
)


def _python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env,
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


def test_warm_replay_imports_no_numpy_and_reads_no_trace(tmp_path):
    store = str(tmp_path / "store")
    cold = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "warm", "fig7",
         "--scale", "test", "--cores", "2", "--store-dir", store],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert cold.returncode == 0, cold.stderr
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
    "loaded": [m for m in ("numpy", "repro.workloads.trace")
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


#: Prefetcher modules a fig7 run (baseline and STMS cells) never runs.
UNUSED_PREFETCHERS = (
    "repro.prefetchers.ideal_tms",
    "repro.prefetchers.markov",
    "repro.prefetchers.fixed_depth",
)


def test_cold_fig7_imports_only_the_prefetchers_it_runs(tmp_path):
    store = str(tmp_path / "store")
    loaded = _python(f"""
import json, sys
from repro.cli import _store_session
from repro.experiments import run_experiment
session = _store_session({store!r})
run_experiment("fig7", scale="test", cores=2, session=session)
assert session.stats.sim_misses == 16, session.stats
print(json.dumps([m for m in {UNUSED_PREFETCHERS!r} if m in sys.modules]))
""")
    assert loaded == []


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

