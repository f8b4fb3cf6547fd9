"""Benchmark of the `bicrit` commands.

    python3 benchmarks/run.py --workload ud-price --seed 1 --seconds 25 --trace 0

One process drives the CLI in a closed loop, one command at a time, through
`bicrit.cli.main`, on instance files it generated from the seed; BLAS is
pinned to one thread.  It runs whole rounds of the workload's command list
for about `--seconds`, checks every output with `reference.py` and prints,
as its last line, one JSON object with the commands attempted and failed
and the metrics: the end-to-end ones with `--trace 0`, the per-layer ones
(from `tracing.py`) with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# Set-up is measured in this many fresh processes and reported as the median.
SETUP_PROBES = 5
EXIT_SOLVER = 2

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def write_cases(workload, seed, directory):
    """Write the warm-up and every case's instance file; return their paths."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)

    def save(name, doc):
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    cases = workload.cases(seed)
    return save("warmup", workload.warmup()), [(case, save(case.name, case.doc)) for case in cases]


def run_command(cli, workload, infile):
    """One CLI call; returns (exit code, seconds, output text, last stderr line)."""
    outfile = infile[:-len(".json")] + ".out.json"
    if os.path.exists(outfile):
        os.remove(outfile)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main([*workload.command, "--in", infile, "--out", outfile])
        seconds = time.perf_counter() - t0
    text = None
    if os.path.exists(outfile):
        with open(outfile, encoding="utf-8") as fh:
            text = fh.read()
    lines = err.getvalue().strip().splitlines()
    return code, seconds, text, lines[-1] if lines else ""


def set_up(workload, seed, directory):
    """Everything before the first timed command: imports, files, a warm-up."""
    if not os.path.isdir(os.path.join(SRC, "bicrit")):
        raise SystemExit(f"error: no bicrit sources at {SRC}")
    sys.path.insert(0, SRC)
    from bicrit import cli

    warmup, cases = write_cases(workload, seed, directory)
    code, _, _, last = run_command(cli, workload, warmup)
    if code != 0:
        raise SystemExit(f"error: warm-up command failed with exit {code}: {last}")
    return cli, cases


def probe_setup_seconds(args) -> float:
    """Wall time from spawning a fresh process to the end of its set-up."""
    directory = os.path.join(OUT, f"{args.workload}-probe")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", directory]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
    return seconds


class Round:
    """Outcome of one pass over the command list."""

    def __init__(self):
        self.seconds = []
        self.failed = []
        self.problems = []


def run_round(cli, workload, cases, first_outputs) -> Round:
    rnd = Round()
    for case, path in cases:
        code, seconds, text, last = run_command(cli, workload, path)
        rnd.seconds.append(seconds)
        problems = []
        if code == 0:
            try:
                problems = reference.CHECKS[workload.command[0]](case.doc, json.loads(text))
            except (TypeError, KeyError, ValueError) as e:
                problems = [f"output not readable: {e!r}"]
            if first_outputs.setdefault(case.name, text) != text:
                problems.append("output differs from the same command's first output")
        elif code != EXIT_SOLVER:
            problems = [f"exit {code}: {last}"]
        if code != 0 or problems:
            rnd.failed.append((case, code, last, problems))
        rnd.problems += problems
    return rnd


def describe(case) -> str:
    meta = ", ".join(f"{k}={v}" for k, v in sorted(case.doc["metadata"].items()))
    return f"{case.name} ({meta})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        set_up(workload, args.seed, args.setup_only)
        print("ready", flush=True)
        return 0

    setup_s = None
    if not args.trace:
        setup_s = statistics.median(probe_setup_seconds(args) for _ in range(SETUP_PROBES))
    cli, cases = set_up(workload, args.seed, os.path.join(OUT, args.workload))

    tracer = None
    first_outputs = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rounds = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.begin_round()
        t0 = time.perf_counter()
        rounds.append(run_round(cli, workload, cases, first_outputs))
        wall = time.perf_counter() - t0
        if tracer:
            tracer.end_round(sum(rounds[-1].seconds))
        if time.perf_counter() - start + wall > args.seconds:
            break

    for case, code, last, problems in rounds[0].failed:
        print(f"failed: {describe(case)}: exit {code}: {last}", file=sys.stderr)
        for p in problems[:5]:
            print(f"    {p}", file=sys.stderr)
    attempted = len(rounds) * len(cases)
    failed = sum(len(r.failed) for r in rounds)
    correct = not any(r.problems for r in rounds)
    if tracer:
        tracer.uninstall()
        metrics = tracer.metrics()
        tracer.write(os.path.join(OUT, f"{args.workload}-trace.json"))
    else:
        run_times = [sum(r.seconds) for r in rounds]
        all_times = [s for r in rounds for s in r.seconds]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": {"value": statistics.median(run_times), "unit": "s"},
            "cmd_p50_s": {"value": statistics.median(all_times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        print(f"{len(rounds)} rounds of {len(cases)} commands; round times "
              + " ".join(f"{t:.3f}" for t in run_times), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
