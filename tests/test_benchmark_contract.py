"""The package surface the figure-regeneration benchmark depends on.

``perfbench/`` measures this package from outside: ``tracing.py`` wraps
a fixed table of public entry points, and ``run.py`` reads named
``SessionStats`` fields from ``dataclasses.asdict(session.stats)``.  A
refactor that renames or deletes one of them breaks the benchmark only
when it is run; these tests break at once instead.  Both lists are read
from the benchmark's own files, so they cannot drift from it.
"""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.sim.session import SessionStats, SimSession

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    """``perfbench/tracing.py`` as a module (it imports only stdlib)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing_contract", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED_TARGETS = [
    (module_name, path) for module_name, path, _, _ in _load_tracing().TARGETS
]

STATS_READ = sorted(
    set(
        re.findall(
            r'\bstats\["([a-z_]+)"\]', (PERFBENCH / "run.py").read_text()
        )
    )
)


def test_benchmark_tables_are_nonempty():
    assert len(TRACED_TARGETS) == len(set(TRACED_TARGETS)) > 0
    assert STATS_READ


@pytest.mark.parametrize(
    "module_name,path",
    TRACED_TARGETS,
    ids=[f"{module}:{path}" for module, path in TRACED_TARGETS],
)
def test_traced_entry_point_exists(module_name, path):
    """``tracing.install`` can find and wrap this entry point.

    It looks the attribute up in the owner's ``__dict__`` (not through
    inheritance), so the check does the same.
    """
    module = importlib.import_module(module_name)
    owner_name, _, attribute = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner)[attribute])


@pytest.mark.parametrize("name", STATS_READ)
def test_session_stats_field_read_by_benchmark(name):
    assert name in {field.name for field in dataclasses.fields(SessionStats)}
    stats = dataclasses.asdict(SimSession(enabled=True, store=None).stats)
    assert stats[name] == 0
