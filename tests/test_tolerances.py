"""tolerances.py is the one home of bicrit's slacks.

No other module of the package writes a number with a negative exponent,
the table imports nothing, and every entry is imported by some module.
Docstrings and comments are not number tokens, so they may quote values.
"""

import ast
import importlib.util
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("bicrit").origin).parent
TABLE = PACKAGE / "tolerances.py"


def _negative_exponent_numbers(path):
    with open(path, encoding="utf-8") as fh:
        return [
            f"{path.name}:{tok.start[0]}: {tok.string}"
            for tok in tokenize.generate_tokens(fh.readline)
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
        ]


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {TABLE}), ids=lambda p: p.name)
def test_no_slack_literal_outside_the_table(path):
    assert _negative_exponent_numbers(path) == []


def test_the_table_imports_nothing():
    tree = ast.parse(TABLE.read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_every_entry_is_imported_by_a_module():
    tree = ast.parse(TABLE.read_text(encoding="utf-8"))
    entries = {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "tolerances" and node.level == 1:
                imported.update(alias.name for alias in node.names)
    assert entries and sorted(entries - imported) == []
