"""Every name a module imports at top level is read in that module.

The repository has no linter configured; this scan, built on the standard
library's ``ast`` alone, keeps a deletion from leaving its imports behind.
``fastla/__init__.py`` is exempt: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = (sorted(p for p in (ROOT / "src" / "fastla").glob("*.py") if p.name != "__init__.py")
         + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """The names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps as d, loads\n\ndef f():\n    return os.sep, loads\n")
    assert unused_imports(source) == ["d", "sys"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
