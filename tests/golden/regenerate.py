"""Write the golden CLI corpus that tests/test_golden.py checks.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each case is drawn once from a fixed key of benchmarks/generators.py, the
keys of the benchmark workloads' fixed corpora:

* ud-NN: the five ud-price fixed 20 x 100 grids, whose types want one or
  two goods of a block, so evaluate splits them over tied goods;
* mm-NN: ten mm-ladder fixed 10 x 30 conftest markets, eight of them with
  reserves binding on some rung (the dummy buyer takes supply);
* tiny-NN: fifteen tiny-verify fixed instances of at most 3 goods x 3 types.

For each it writes <case>.json, the instance, and <case>.expected.json, a
list of {"argv", "exit", "output"} entries: every command that applies
(solve-welfare, evaluate at the welfare prices, price-ud --diagnostics or
price-mm --dummy-ladder-dump, and verify), run through bicrit.cli.main, with
its exit code and the record it wrote.  Rerun it only when a change is meant
to move the outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "benchmarks"))

import generators as gen  # noqa: E402

from bicrit import cli  # noqa: E402

MM_KEYS = (0, 1, 2, 3, 4, 5, 7, 9, 11, 17)


def cases():
    alpha = lambda k: gen.ALPHAS[k % 3]  # noqa: E731  the workloads' alpha cycle
    for k in range(5):
        yield f"ud-{k:02d}", gen.ud_grid([1, k], alpha(k), choices=2), ("price-ud", "--diagnostics")
    for k in MM_KEYS:
        doc = gen.mm_conftest_market([2, k], alpha(k), gen.MM_RATIOS[k % 2])
        yield f"mm-{k:02d}", doc, ("price-mm", "--dummy-ladder-dump")
    for k in range(15):
        yield f"tiny-{k:02d}", gen.tiny_mm([3, k], alpha(k), conftest=True), ("price-mm", "--dummy-ladder-dump")


def run(argv, infile):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--in", infile, "--out", out])
        with open(out, encoding="utf-8") as fh:
            return {"argv": list(argv), "exit": code, "output": json.load(fh)}


def main():
    for name, doc, pricer in cases():
        infile = os.path.join(HERE, name + ".json")
        with open(infile, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        welfare = run(["solve-welfare"], infile)
        prices = json.dumps(welfare["output"]["solution"]["prices"], sort_keys=True)
        expected = [
            welfare,
            run(["evaluate", "--prices", prices], infile),
            run(list(pricer), infile),
            run(["verify"], infile),
        ]
        with open(os.path.join(HERE, name + ".expected.json"), "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
