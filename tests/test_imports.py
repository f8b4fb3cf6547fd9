"""Every bicrit submodule imports on its own, imports nothing it leaves
unread, and no command loads SciPy.

A module that names something another module does not define then fails one
named test here, not the collection of whichever test files import it.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest


def _module_names():
    # Locate the package without executing it, so a broken __init__ also
    # shows up as a failing test rather than a collection error.
    spec = importlib.util.find_spec("bicrit")
    return ["bicrit"] + [
        f"bicrit.{info.name}"
        for info in pkgutil.iter_modules(spec.submodule_search_locations)
    ]


@pytest.mark.parametrize("name", _module_names())
def test_module_imports(name):
    importlib.import_module(name)


def _unused_imports(path: Path) -> list[str]:
    """Names bound by path's module-level imports (not __future__) that the
    module never reads as a Name and does not list in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read and name not in exported]


def test_no_unused_imports():
    package = Path(importlib.util.find_spec("bicrit").origin).parent
    unused = [f"{path.stem}.{name}" for path in sorted(package.glob("*.py")) for name in _unused_imports(path)]
    assert unused == []


# Run in a fresh interpreter: builds a tied unit-demand and a two-good bundle
# instance, runs every command on them, and prints the SciPy modules loaded.
_COMMANDS_SCRIPT = """
import json, os, sys
from bicrit import CostFunction, InverseDemand, MarketInstance, cli, instances

out = sys.argv[1]
demand, cost = InverseDemand.linear(1.0, 1.0), CostFunction.power(1.0, 1.0)
ud = os.path.join(out, "ud.json")
mm = os.path.join(out, "mm.json")
instances.save(MarketInstance.create(
    [("g1", cost), ("g2", cost)], [("b1", [["g1"], ["g2"]], demand)]), ud)
instances.save(MarketInstance.create(
    [("g1", cost), ("g2", cost)], [("b1", [["g1"]], demand), ("b2", [["g1", "g2"]], demand)]), mm)
runs = [
    ["solve-welfare", "--in", ud], ["price-ud", "--in", ud, "--diagnostics"],
    ["evaluate", "--in", ud, "--prices", json.dumps({"g1": 0.3, "g2": 0.3})],
    ["verify", "--in", ud], ["price-mm", "--in", mm, "--dummy-ladder-dump"],
    ["verify", "--in", mm], ["sweep", "--alpha", "0:0.5:0.25"],
]
codes = [cli.main([*argv, "--out", os.path.join(out, f"{k}.out")]) for k, argv in enumerate(runs)]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_no_command_imports_scipy(tmp_path):
    # SciPy is not a runtime dependency: no code in src/ calls
    # solver.minimize, the one function that imports it, so every command
    # loads NumPy only.
    src = str(Path(importlib.util.find_spec("bicrit").origin).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert result["scipy"] == []
