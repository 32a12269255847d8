"""Every third-party module the test suites import is a declared
development dependency.

CI installs ``requirements-dev.txt`` into a fresh interpreter; a module
the tests import but the file does not list breaks collection there
while passing on any machine that happens to have it installed.
"""

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
TEST_DIRS = (REPO_ROOT / "tests", REPO_ROOT / "perfbench" / "tests")

#: Top-level modules the repository itself provides: the package under
#: ``src/``, the ``tests`` package and the benchmark's own scripts,
#: which ``perfbench/tests/conftest.py`` puts on ``sys.path``.
LOCAL_MODULES = {
    *(path.name for path in (REPO_ROOT / "src").iterdir() if path.is_dir()),
    "tests",
    "conftest",
    *(path.stem for path in (REPO_ROOT / "perfbench").glob("*.py")),
}


def _imported_top_levels(path: Path) -> "set[str]":
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _normalize(distribution: str) -> str:
    return re.sub(r"[-_.]+", "-", distribution).lower()


def _requirements() -> "set[str]":
    names = set()
    for line in (REPO_ROOT / "requirements-dev.txt").read_text().splitlines():
        match = re.match(r"\s*([A-Za-z0-9][A-Za-z0-9._-]*)", line)
        if match:
            names.add(_normalize(match.group(1)))
    return names


def test_test_imports_are_declared_in_requirements_dev():
    third_party = {
        name
        for directory in TEST_DIRS
        for path in directory.rglob("*.py")
        for name in _imported_top_levels(path)
        if name not in sys.stdlib_module_names
        and name not in LOCAL_MODULES
    }
    assert third_party, "no third-party imports found: scan is broken"
    # A module maps to the distributions that install it (``yaml`` is
    # ``PyYAML``); one that is not installed here maps to its own name.
    distributions = packages_distributions()
    declared = _requirements()
    missing = sorted(
        name
        for name in third_party
        if not declared & {
            _normalize(dist) for dist in distributions.get(name, [name])
        }
    )
    assert not missing, (
        f"imported under tests/ but not in requirements-dev.txt: {missing}"
    )
