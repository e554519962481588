"""Module boundaries: no module of the package imports another's private names,
and every exported name exists."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "threestroke"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """Names starting with one underscore imported from the package itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "threestroke":
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def module_name(path: Path) -> str:
    return "threestroke" if path.stem == "__init__" else f"threestroke.{path.stem}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_export_exists(path):
    module = importlib.import_module(module_name(path))
    exports = getattr(module, "__all__", [])
    assert [name for name in exports if not hasattr(module, name)] == []
