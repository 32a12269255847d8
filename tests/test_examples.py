"""The scripts under ``examples/`` stay runnable against the package.

Nothing in ``src/`` imports them, so a public name they use could be
renamed or deleted without any other test noticing.  These checks read
each script without running its simulations: every ``repro`` name it
imports must exist, importing it must not start a run, and its
docstring must say how to run it.  (CI runs each script end to end.)
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


def _tree(script: str) -> ast.Module:
    return ast.parse((EXAMPLES / script).read_text(), filename=script)


def test_examples_are_present():
    assert SCRIPTS == [
        "index_organizations.py",
        "oltp_streaming.py",
        "quickstart.py",
        "sampling_tradeoff.py",
        "scientific_iteration.py",
    ]


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_imported_repro_name_exists(script):
    imported = [
        (node.module, alias.name)
        for node in ast.walk(_tree(script))
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]
    assert imported, f"{script} imports nothing from repro"
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_work_runs_only_under_the_main_guard(script):
    """Top-level statements are imports, definitions, constants and the
    ``__main__`` guard calling ``main()``: importing a script runs no
    simulation."""
    body = _tree(script).body
    guards = [
        node for node in body
        if isinstance(node, ast.If)
        and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(guards) == 1
    assert [ast.unparse(stmt) for stmt in guards[0].body] == ["main()"]
    assert any(
        isinstance(node, ast.FunctionDef) and node.name == "main"
        for node in body
    )
    allowed = (
        ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef,
        ast.Assign, ast.AnnAssign,
    )
    for node in body[1:]:  # body[0] is the docstring
        if node not in guards:
            assert isinstance(node, allowed), ast.unparse(node)


@pytest.mark.parametrize("script", SCRIPTS)
def test_docstring_says_how_to_run_it(script):
    docstring = ast.get_docstring(_tree(script))
    assert docstring, f"{script} has no module docstring"
    assert f"python examples/{script}" in docstring
