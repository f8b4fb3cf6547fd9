"""Per-layer tracing of `bicrit`, from the benchmark's side only.

Each layer is a `bicrit` module.  `Tracer.install` wraps the functions each
module exposes to the others, rebinding every module attribute that refers
to the original, so that calls between modules pass through the wrapper.
A wrapper records the call's span (name, start, end, parent, command) in
memory and adds its self time (the span minus its traced children) and its
counts to the current round.  The demand and cost kernels are called
hundreds of thousands of times per round, so they keep only aggregate
counts and time, no spans; a kernel method's calls to other kernel methods
count as part of the outer call.  Nothing inside `src/` is changed.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import numpy as np

import bicrit
import reference
from bicrit import cli, costs, demand, instances, market, multi_minded, oracle, solver, unit_demand
from bicrit.solver import SolverError

# Per-layer metrics and units; every one is reported, zero when never hit.
PER_LAYER = {
    "demand.calls": "count", "demand.elements": "count", "demand.self_s": "s",
    "costs.calls": "count", "costs.elements": "count", "costs.self_s": "s",
    "solver.solve_welfare.calls": "count", "solver.solve_welfare.self_s": "s",
    "solver.solve_flow.calls": "count", "solver.solve_flow.self_s": "s",
    "solver.lbfgs.calls": "count", "solver.lbfgs.nit": "count", "solver.lbfgs.nfev": "count",
    "solver.lbfgs.self_s": "s", "solver.failed": "count",
    "market.evaluate.calls": "count", "market.evaluate.self_s": "s",
    "market.best_response.self_s": "s", "market.min_cost_allocation.self_s": "s",
    "market.split_min_cost.calls": "count", "market.split_min_cost.self_s": "s",
    "market.split_min_cost.kkt_met": "count",
    "unit_demand.price_unit_demand.self_s": "s", "unit_demand.diagnostics.self_s": "s",
    "multi_minded.augmented_we.calls": "count", "multi_minded.augmented_we.self_s": "s",
    "multi_minded.augmented_we.failed": "count", "multi_minded.certify.self_s": "s",
    "oracle.max_welfare.calls": "count", "oracle.max_welfare.self_s": "s", "oracle.grid_points": "count",
    "instances.load.calls": "count", "instances.load.self_s": "s", "instances.dump_record.self_s": "s",
    "instances.bytes_out": "bytes", "cli.main.self_s": "s",
    "trace.run_s": "s",
}

KERNELS = {
    "demand": (demand.InverseDemand,
               ("eval", "derivative", "inverse", "_inverse_clamped", "utility_integral", "hazard_ratio")),
    "costs": (costs.CostFunction, ("marginal", "total", "marginal_inverse")),
}
MODULES = (cli, costs, demand, instances, market, multi_minded, oracle, solver, unit_demand)
# split_min_cost counts a return as KKT-certified at this used-bundle spread,
# the test that ends its loop: 0.1 * market.KKT_TOL.
KKT_SPREAD = 0.1 * 1e-6


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [layer, start, traced child seconds, span index]
        self.spans = []  # [command, layer, start, end, parent span index]
        self.rounds = []  # per round: {metric: value}
        self.round_seconds = []
        self.current = defaultdict(float)
        self.command = -1
        self._patches = []

    # -- accounting --------------------------------------------------------

    def _enter(self, layer, span):
        index = None
        if span:
            if layer == "cli.main" and not self.stack:
                self.command += 1
            parent = self.stack[-1][3] if self.stack else None
            index = len(self.spans)
            self.spans.append([self.command, layer, 0.0, 0.0, parent])
        frame = [layer, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        layer, start, children, index = frame
        elapsed = end - start
        self.current[layer + ".self_s"] += elapsed - children
        self.current[layer + ".calls"] += 1
        if index is not None:
            self.spans[index][2:4] = [start, end]
        if self.stack:
            self.stack[-1][2] += elapsed

    def _untimed(self, started):
        """Keep the wrapper's own bookkeeping out of the caller's self time."""
        if self.stack:
            self.stack[-1][2] += time.perf_counter() - started

    def wrap(self, layer, fn, span=True, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not span and tracer.stack and tracer.stack[-1][0] in KERNELS:
                # A kernel method calling another (inverse calling
                # _inverse_clamped, say) is part of the outer call.
                return fn(*args, **kwargs)
            frame = tracer._enter(layer, span)
            try:
                result = fn(*args, **kwargs)
            except SolverError:
                tracer.current[layer + ".failed"] += 1
                raise
            finally:
                tracer._exit(frame)
            if after is not None:
                started = time.perf_counter()
                after(tracer.current, result, *args, **kwargs)
                tracer._untimed(started)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_everywhere(self, home, name, layer, **kw):
        """Wrap home.name and every other module's binding of the same function."""
        original = getattr(home, name)
        traced = self.wrap(layer, original, **kw)
        for module in MODULES + (bicrit,):
            if getattr(module, name, None) is original:
                self._rebind(module, name, traced)

    def install(self):
        for layer, (cls, names) in KERNELS.items():
            for name in names:
                self._rebind(cls, name, self.wrap(layer, getattr(cls, name), span=False, after=_elements(layer)))
        self._patch_everywhere(solver, "solve_welfare", "solver.solve_welfare")
        self._rebind(multi_minded, "_solve_flow", self.wrap("solver.solve_flow", multi_minded._solve_flow))
        self._rebind(solver, "minimize", self.wrap("solver.lbfgs", solver.minimize, after=_lbfgs_counts))
        self._patch_everywhere(market, "evaluate", "market.evaluate")
        self._patch_everywhere(market, "best_response", "market.best_response")
        self._patch_everywhere(market, "min_cost_allocation", "market.min_cost_allocation")
        self._patch_everywhere(market, "split_min_cost", "market.split_min_cost", after=_kkt_met)
        self._patch_everywhere(unit_demand, "price_unit_demand", "unit_demand.price_unit_demand")
        for name in ("cluster_diagnostics", "low_cluster_hazard_condition"):
            self._patch_everywhere(unit_demand, name, "unit_demand.diagnostics")
        self._patch_everywhere(multi_minded, "augmented_we", "multi_minded.augmented_we")
        for name in ("certify_ladder", "certify_selection", "deviation_violations"):
            self._patch_everywhere(multi_minded, name, "multi_minded.certify")
        self._patch_everywhere(oracle, "oracle_max_welfare", "oracle.max_welfare", after=_grid_points)
        self._patch_everywhere(instances, "load", "instances.load")
        self._patch_everywhere(instances, "dump_record", "instances.dump_record", after=_bytes_out)
        self._rebind(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- rounds and results ----------------------------------------------------

    def begin_round(self):
        self.current = defaultdict(float)

    def end_round(self, seconds):
        counts = dict(self.current)
        counts["solver.failed"] = counts.get("solver.solve_welfare.failed", 0.0) + counts.get(
            "solver.solve_flow.failed", 0.0)
        self.rounds.append(counts)
        self.round_seconds.append(seconds)

    def metrics(self) -> dict:
        """Median over the traced rounds of every per-layer metric.

        trace.run_s is run_s with tracing on; over the untraced run_s it
        gives the tracing overhead.
        """
        out = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.run_s":
                value = statistics.median(self.round_seconds)
            else:
                value = statistics.median(r.get(name, 0.0) for r in self.rounds)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["command", "layer", "start", "end", "parent"],
                       "spans": self.spans, "rounds": self.rounds,
                       "round_seconds": self.round_seconds}, fh)


def _elements(layer):
    key = layer + ".elements"

    def count(totals, result, self_, x, *args, **kwargs):
        totals[key] += np.size(x)

    return count


def _lbfgs_counts(totals, res, *args, **kwargs):
    totals["solver.lbfgs.nit"] += res.nit
    totals["solver.lbfgs.nfev"] += res.nfev


def _kkt_met(counts, result, cost_fns, masks, totals, *args, **kwargs):
    """Count returns whose used bundles' marginal-cost sums agree to KKT_SPREAD.

    Only returns where some type has two or more bundles and positive mass
    count: on the others split_min_cost never enters its loop.  The marginal
    costs come from the reference closed forms, not the program.
    """
    if not any(mask.shape[0] > 1 and mass > 0 for mask, mass in zip(masks, totals)):
        return
    splits, y = result
    marg = np.array([reference.Cost(c.to_dict()).marginal(float(v)) for c, v in zip(cost_fns, y)])
    spread = 0.0
    for mask, split in zip(masks, splits):
        if mask.shape[0] > 1 and np.any(split > 1e-12):
            sums = mask @ marg
            spread = max(spread, float(sums[split > 1e-12].max() - sums.min()))
    counts["market.split_min_cost.kkt_met"] += spread <= KKT_SPREAD


def _grid_points(totals, result, inst, grid=None, *args, **kwargs):
    step = (grid or oracle.GridSpec()).resolve_price_step(inst.lambda_max)
    totals["oracle.grid_points"] += (max(1, int(round(inst.lambda_max / step))) + 1) ** len(inst.goods)


def _bytes_out(totals, text, *args, **kwargs):
    totals["instances.bytes_out"] += len(text.encode("utf-8"))
