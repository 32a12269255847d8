"""The heap a run keeps is frozen, and only for as long as the run.

``obs.long_lived`` freezes the heap for a block and unfreezes it when
the outermost block ends.  ``cli.main`` wraps its command in one and
registers ``gc.freeze`` to run at interpreter exit, once per process;
the runner wraps its process pool in one, so the parent's heap is
frozen before the pool forks.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import subprocess
import sys
from concurrent import futures

import pytest

from repro import cli
from repro.obs import long_lived
from repro.sim.runner import ExperimentRunner, PrefetcherKind, SimJob
from repro.sim.session import SimSession
from repro.sim.store import encode_result

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_only_the_outermost_block_unfreezes():
    assert gc.get_freeze_count() == 0
    with long_lived():
        outer = gc.get_freeze_count()
        assert outer > 0
        kept = [[] for _ in range(100)]  # allocated after the outer freeze
        with long_lived():
            pass
        # The inner block froze what the outer one allocated, and left
        # it frozen on exit.
        assert gc.get_freeze_count() >= outer + len(kept)
    assert gc.get_freeze_count() == 0


def test_block_unfreezes_when_it_raises():
    with pytest.raises(KeyError), long_lived():
        raise KeyError("boom")
    assert gc.get_freeze_count() == 0


def test_main_freezes_its_command_and_leaves_nothing_frozen(
    tmp_path, monkeypatch, capsys
):
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    cli._freeze_heap_at_exit.cache_clear()
    during = []
    listing = cli.cmd_list_workloads

    def recording(args):
        during.append(gc.get_freeze_count())
        return listing(args)

    monkeypatch.setattr(cli, "cmd_list_workloads", recording)
    for argv in (
        ["list-workloads"],
        ["list-experiments"],
        ["cache", "stats", "--store-dir", str(tmp_path)],
    ):
        assert cli.main(argv) == 0
        assert gc.get_freeze_count() == 0
    capsys.readouterr()
    assert during and during[0] > 0
    assert registered == [gc.freeze]


class _RecordingPool(futures.ProcessPoolExecutor):
    """Notes the freeze count at the moment the runner builds its pool."""

    freeze_counts: "list[int]" = []

    def __init__(self, *args, **kwargs):
        type(self).freeze_counts.append(gc.get_freeze_count())
        super().__init__(*args, **kwargs)


def test_runner_freezes_the_heap_before_its_pool_forks(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "freeze_counts", [])
    monkeypatch.setattr(futures, "ProcessPoolExecutor", _RecordingPool)
    jobs = [
        SimJob(workload, PrefetcherKind.BASELINE, scale="test", cores=2,
               seed=3, records_per_core=600)
        for workload in ("web-apache", "oltp-db2")
    ]
    parallel = ExperimentRunner(max_workers=2, parallel=True).map(
        jobs, session=SimSession(enabled=True, store=None)
    )
    assert len(_RecordingPool.freeze_counts) == 1
    assert _RecordingPool.freeze_counts[0] > 0
    assert gc.get_freeze_count() == 0
    serial = ExperimentRunner(parallel=False).map(
        jobs, session=SimSession(enabled=True, store=None)
    )
    assert [encode_result(r) for r in parallel] == [
        encode_result(r) for r in serial
    ]


def _fig7(store: str) -> "list[str]":
    return ["experiment", "fig7", "--scale", "test", "--store-dir", store]


def test_frozen_teardown_loses_no_write(tmp_path, capsys):
    """A cold fig7 and a fresh-process warm replay, each ending in the
    frozen teardown, print what in-process runs print and leave the
    same ``counters.json`` behind."""
    frozen = str(tmp_path / "frozen")
    outputs = []
    for _ in ("cold", "warm"):
        done = subprocess.run(
            [sys.executable, "-m", "repro", *_fig7(frozen)],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]

    reference = str(tmp_path / "reference")
    for _ in ("cold", "warm"):
        assert cli.main(_fig7(reference)) == 0
        assert capsys.readouterr().out == outputs[0]

    def counters(store: str) -> dict:
        with open(os.path.join(store, "counters.json")) as handle:
            return json.load(handle)

    assert counters(frozen) == counters(reference)
    assert counters(frozen)["sim_misses"] == 16
