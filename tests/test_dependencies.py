"""Every third-party module that src or tests import comes from a
distribution that pyproject.toml declares, as a dependency or in the
`test` extra, so that `pip install -e .[test]` runs the whole suite.

Imports are read with ast, nested ones (inside functions and tests)
included; sys.stdlib_module_names tells the standard library apart, and
the installed distributions map a module to its distribution (yaml to
PyYAML)."""

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# this repository's own modules: the package and the tests' helpers
LOCAL = {"blowuplab"} | {p.stem for p in (ROOT / "tests").glob("*.py")}


def imported_modules(path):
    """Top-level names of the absolute imports in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def normalized(name):
    """A distribution name as PEP 503 compares it."""
    return re.sub(r"[-_.]+", "-", name).lower()


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {normalized(re.match(r"[A-Za-z0-9_.-]+", r).group())
                for r in requirements}
    distributions = importlib.metadata.packages_distributions()
    undeclared = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for module in imported_modules(path):
            if module in sys.stdlib_module_names or module in LOCAL:
                continue
            if not {normalized(d) for d in distributions.get(module, [])} & declared:
                undeclared.setdefault(module, set()).add(path.relative_to(ROOT).as_posix())
    assert not undeclared, f"imported, not declared in pyproject.toml: {undeclared}"
