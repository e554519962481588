"""Module boundaries: no module of the package imports another's private names,
every exported name exists, and the CLI parser loads no oracle."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threestroke

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


ORACLES = ("threestroke.bath_oracle", "threestroke.checks", "threestroke.majorization")


def fresh_python(code: str):
    """What code prints as JSON, run in a fresh interpreter with every warning an error."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_the_cli_parser_loads_no_oracle():
    loaded = fresh_python(
        "import json, sys\n"
        "import threestroke.cli\n"
        "threestroke.cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "threestroke.cli" in loaded
    assert [name for name in ORACLES if name in loaded] == []


_EXPORTS = """\
import importlib, inspect, json, pkgutil
import threestroke
listed = set(dir(threestroke)) >= set(threestroke.__all__)
exported = {name: getattr(threestroke, name) for name in threestroke.__all__}
unbound = sorted(set(threestroke.__all__) - set(vars(threestroke)))
homes = {}
for info in pkgutil.iter_modules(threestroke.__path__):
    module = importlib.import_module("threestroke." + info.name)
    for name in getattr(module, "__all__", []):
        if name in exported and getattr(module, name) is exported[name]:
            homes.setdefault(name, []).append(info.name)
print(json.dumps({
    "listed": listed,
    "unbound": unbound,
    "hook_left": "__getattr__" in vars(threestroke),
    "homes": homes,
    "ergotropy_is_function": inspect.isfunction(threestroke.ergotropy),
    "count": len(threestroke.__all__),
}))
"""


def test_every_export_resolves_to_its_module_object():
    result = fresh_python(_EXPORTS)
    assert result["count"] == 37
    assert result["listed"] and result["unbound"] == []
    # with every name bound the hook is gone, so attribute reads specialize again
    assert not result["hook_left"]
    assert sorted(result["homes"]) == sorted(threestroke.__all__)
    assert all(len(homes) == 1 for homes in result["homes"].values())
    assert result["homes"]["thermomajorizes"] == ["majorization"]
    assert result["homes"]["jc_time_scan"] == ["bath_oracle"]
    assert result["ergotropy_is_function"]


def test_one_deferred_read_removes_the_hook():
    """Reading one bath_oracle name binds every deferred name and drops __getattr__."""
    result = fresh_python(
        "import json\n"
        "import threestroke\n"
        "threestroke.jc_time_scan\n"
        "print(json.dumps({\n"
        "    'hook_left': '__getattr__' in vars(threestroke),\n"
        "    'unbound': sorted(set(threestroke.__all__) - set(vars(threestroke))),\n"
        "}))\n"
    )
    assert result == {"hook_left": False, "unbound": []}


def test_star_import_binds_every_export():
    names = fresh_python(
        "import json\n"
        "namespace = {}\n"
        "exec('from threestroke import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))\n"
    )
    assert len(names) == 37 and names == sorted(threestroke.__all__)


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'threestroke' has no attribute 'nothing'$"):
        threestroke.nothing
