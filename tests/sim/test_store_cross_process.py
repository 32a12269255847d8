"""The store's reason to exist: warm runs across process boundaries.

A cold run of fig4 in one process populates the artifact store; the
same figure regenerated in a *fresh* process must be served from disk —
nonzero store-hit counters, zero simulations, and a large wall-clock
reduction.  This is the cross-process analogue of the in-process
session-memo tests.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

# Timed region excludes interpreter startup and imports: that overhead
# is identical on both sides and would only mask the store's effect.
_CHILD = """
import dataclasses, json, time
from repro.experiments import fig4_potential
from repro.sim.runner import ExperimentRunner
t0 = time.perf_counter()
fig4_potential.run(scale="test", cores=2, workloads=("web-apache", "oltp-db2"),
                   runner=ExperimentRunner(max_workers=1))
elapsed = time.perf_counter() - t0
from repro.sim.session import get_session
print("STATS " + json.dumps(
    {"elapsed": elapsed, **dataclasses.asdict(get_session().stats)}
))
"""


def _run_fig4(store_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_STORE_DIR"] = store_dir
    output = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    for line in output.splitlines():
        if line.startswith("STATS "):
            return json.loads(line[len("STATS "):])
    raise AssertionError(f"no STATS line in child output:\n{output}")


def test_warm_process_is_served_from_disk_store(tmp_path):
    store_dir = str(tmp_path / "store")

    cold = _run_fig4(store_dir)
    assert cold["sim_store_hits"] == 0
    assert cold["sim_misses"] == 4  # 2 workloads x (baseline, ideal)

    warm = _run_fig4(store_dir)
    assert warm["sim_misses"] == 0
    assert warm["trace_misses"] == 0
    assert warm["sim_store_hits"] == 4
    # Result keys come from the fingerprints stored in the trace files:
    # a fully warm run reads no trace.
    assert warm["trace_store_hits"] == 0
    assert warm["elapsed"] * 5 <= cold["elapsed"], (
        f"warm run not >=5x faster: cold {cold['elapsed']:.3f}s, "
        f"warm {warm['elapsed']:.3f}s"
    )
