"""Golden CLI corpus: every command's output on the pinned instances of tests/golden.

The corpus (see tests/golden/regenerate.py) holds, per instance, the argv,
exit code and output record of each command that applies.  The test reruns
each through bicrit.cli.main and compares the record it writes:

* every number within GOLDEN_REL * (1 + |expected|): prices, demand,
  allocation, paid, sw and profit, and the certificate and bound sides;
* every string, integer and flag exactly: cluster labels, selected indices,
  saturated sets, and verify's check names and verdicts (not its details);
* each type's total split mass always, and its individual split entries
  only where a single bundle of the type lies in the tie band at the
  record's prices, so that the split is unique.
"""

from __future__ import annotations

import glob
import json
import os

import pytest

from bicrit import cli
from bicrit.market import PRICE_TIE_REL

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_REL = 1e-9


def _entries():
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*.expected.json"))):
        case = os.path.basename(path)[: -len(".expected.json")]
        with open(path, encoding="utf-8") as fh:
            for entry in json.load(fh):
                yield pytest.param(case, entry, id=f"{case}-{entry['argv'][0]}")


def _close(expected, actual) -> bool:
    return expected == actual or abs(actual - expected) <= GOLDEN_REL * (1.0 + abs(expected))


def _splits_by_type(split) -> dict:
    out = {}
    for entry in split:
        out.setdefault(entry["type"], {})[tuple(entry["bundle"])] = entry["quantity"]
    return out


def _compare_split(expected, actual, path, instance):
    """Split of one solution record, judged at its expected prices."""
    prices = expected["prices"]
    band = PRICE_TIE_REL * (1.0 + max(t["demand"]["lambda_max"] for t in instance["buyer_types"]))
    want, got = _splits_by_type(expected["split"]), _splits_by_type(actual["split"])
    assert set(got) <= {t["id"] for t in instance["buyer_types"]}, path
    for t in instance["buyer_types"]:
        e, a = want.get(t["id"], {}), got.get(t["id"], {})
        assert _close(sum(e.values()), sum(a.values())), f"{path}: type {t['id']} routes {a}, not {e}"
        sums = [sum(prices[g] for g in b) for b in t["bundles"]]
        if sum(s <= min(sums) + band for s in sums) == 1:
            assert set(e) == set(a), f"{path}: type {t['id']} uses {sorted(a)}, not {sorted(e)}"
            for bundle, q in e.items():
                assert _close(q, a[bundle]), f"{path}: type {t['id']} bundle {bundle}: {a[bundle]} != {q}"


def _compare(expected, actual, path, instance):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), path
        for key, value in expected.items():
            if key == "detail":
                continue
            if key == "split":
                _compare_split(expected, actual, path, instance)
            else:
                _compare(value, actual[key], f"{path}.{key}", instance)
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for k, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{path}[{k}]", instance)
    elif isinstance(expected, float) and not isinstance(actual, (bool, str)):
        assert _close(expected, actual), f"{path}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("case, entry", list(_entries()))
def test_golden_output(case, entry, tmp_path, capsys):
    infile = os.path.join(GOLDEN, case + ".json")
    with open(infile, encoding="utf-8") as fh:
        instance = json.load(fh)
    out = tmp_path / "out.json"
    code = cli.main([*entry["argv"], "--in", infile, "--out", str(out)])
    assert code == entry["exit"], capsys.readouterr().err
    actual = json.loads(out.read_text(encoding="utf-8"))
    _compare(entry["output"], actual, entry["argv"][0], instance)


def test_corpus_covers_every_family_and_command():
    cases = {os.path.basename(p).split("-")[0] for p in glob.glob(os.path.join(GOLDEN, "*.expected.json"))}
    commands = {entry.values[1]["argv"][0] for entry in _entries()}
    assert cases == {"ud", "mm", "tiny"}
    assert commands == {"solve-welfare", "evaluate", "price-ud", "price-mm", "verify"}
