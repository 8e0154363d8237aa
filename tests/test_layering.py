"""Module layering: the problem statement does not depend on the auditor."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "impulsebvp"


def _relative_imports(path):
    """Names of the package modules that ``path`` imports with ``from .``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def test_only_the_front_ends_import_the_audit():
    importers = {path.stem for path in SRC.glob("*.py") if "audit" in _relative_imports(path)}
    assert importers <= {"cli", "__init__"}, importers
    assert "audit" in _relative_imports(SRC / "cli.py")  # the check sees an import
