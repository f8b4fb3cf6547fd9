"""The benchmark tracer's bindings: every name it wraps in bicrit still carries calls.

benchmarks/tracing.py rebinds bicrit functions by name and reads
split_min_cost's first three arguments and its (splits, y) result.  A
renamed or re-shaped function would leave its counters at zero; this runs
one command of each benchmark workload under the tracer and checks them.
"""

from __future__ import annotations

import os

from bicrit import cli, market

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_traced_commands_count_every_pinned_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    import tracing

    original = market.split_min_cost
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv, case in (
            (["price-ud", "--diagnostics"], "ud-00"),
            (["price-mm"], "mm-00"),
            (["verify"], "tiny-00"),
        ):
            infile = os.path.join(GOLDEN, case + ".json")
            assert cli.main([*argv, "--in", infile, "--out", str(tmp_path / f"{case}.out.json")]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert market.split_min_cost is original
    counts = tracer.current
    for name in (
        "market.split_min_cost.calls",
        "market.split_min_cost.kkt_met",
        "multi_minded.augmented_we.calls",
        "oracle.max_welfare.calls",
    ):
        assert counts[name] > 0, name
