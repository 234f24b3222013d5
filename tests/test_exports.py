"""The package exports only names that have a caller or a test."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "aknsd" / "__init__.py"


def _exported_names() -> set:
    tree = ast.parse(INIT.read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _used_names(path: Path) -> set:
    """Names a module reads, reads as attributes or imports; definitions do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_user():
    files = [p for p in (ROOT / "src" / "aknsd").glob("*.py") if p != INIT]
    files += list((ROOT / "tests").glob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    used = set().union(*(_used_names(p) for p in files))
    assert sorted(_exported_names() - used) == []
