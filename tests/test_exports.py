"""Every name that gridsense exports is one the package or the benchmark uses."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridsense"


def referenced_names(path: Path) -> set[str]:
    """Names a module reads: bare names, attributes, and strings that are
    identifiers (bench/tracing.py looks functions up by name). A `def`,
    `class` or import of a name does not count as a use of it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_every_export_is_used_outside_the_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*(referenced_names(p) for p in modules + sorted(ROOT.glob("bench/*.py"))))
    assert sorted(exported - used) == []
