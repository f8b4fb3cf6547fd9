"""Command-line interface.

Subcommands: solve-welfare, price-ud, price-mm, evaluate, sweep, verify.
Exit codes: 0 success, 1 validation or usage failure, 2 solver
non-convergence, 3 bound violation detected by verify.  Result files are
deterministic: identical inputs and flags produce byte-identical output.
Set BICRIT_LOG to a logging level name for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from . import analysis, instances, multi_minded, oracle, unit_demand
from .market import MarketInstance, PricingSolution, evaluate
from .solver import SolverConfig, SolverError, solve_welfare
from .tolerances import BOUND_TOL, GRID_ABOVE_REL, GRID_REACH_REL, MARGINAL_PRICE_TOL

log = logging.getLogger("bicrit")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_BOUNDS = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _solution_record(inst: MarketInstance, sol: PricingSolution) -> dict:
    """sol's record: its vectors keyed by good and type id, the split sorted by (type, bundle)."""
    used = np.flatnonzero(sol.split).tolist()
    split = sorted(zip([inst.bundle_keys[r] for r in used], sol.split[used].tolist()))
    return {
        "prices": inst.prices_dict(sol.prices),
        "demand": dict(zip(inst.type_ids, sol.demand.tolist())),
        "allocation": inst.prices_dict(sol.allocation),
        "paid": dict(zip(inst.type_ids, sol.paid.tolist())),
        "split": [
            {"type": tid, "bundle": list(bundle), "quantity": v}
            for (tid, bundle), v in split
        ],
        "sw": sol.sw,
        "profit": sol.profit,
    }


def _emit(record, out_path):
    if isinstance(record, str):
        text = record
    else:
        text = instances.dump_record(record)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solver_config(args) -> SolverConfig:
    given = {"tol": args.tol, "max_iters": args.max_iters}
    return SolverConfig(**{k: v for k, v in given.items() if v is not None})


def _load(args) -> MarketInstance:
    return instances.load(args.infile, strict=args.strict)


def _cmd_solve_welfare(args) -> int:
    inst = _load(args)
    opt = solve_welfare(inst, _solver_config(args))
    _emit({"command": "solve-welfare", "solution": _solution_record(inst, opt)}, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    inst = _load(args)
    spec = args.prices.strip()
    # Integers parse as floats, so one too large for a float reads as inf.
    if spec.startswith("{"):
        prices = json.loads(spec, parse_int=float)
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            prices = json.load(fh, parse_int=float)
    if not isinstance(prices, dict):
        raise instances.InstanceFormatError(["prices: expected an object mapping good id to price"])
    missing = [g for g in inst.good_ids if g not in prices]
    unknown = [g for g in prices if g not in inst.good_index]
    problems = [f"prices: missing goods {missing}"] if missing else []
    problems += [f"prices: unknown goods {unknown}"] if unknown else []
    for g in [g for g in inst.good_ids if g in prices]:
        price = prices[g]
        if not (isinstance(price, float) and math.isfinite(price)):
            problems.append(f"prices: good {g!r} has price {json.dumps(price)}, not a finite real number")
        elif price < 0.0:
            # Zero is a price: the oracle's grid starts there.
            problems.append(f"prices: good {g!r} has negative price {json.dumps(price)}")
    if problems:
        raise instances.InstanceFormatError(problems)
    sol = evaluate(inst, inst.price_vector(prices))
    _emit({"command": "evaluate", "solution": _solution_record(inst, sol)}, args.out)
    return EXIT_OK


def _price_ud(inst, opt, alpha: float, diagnostics: bool) -> dict:
    """The price-ud record: thresholded prices above the optimum opt, certified at alpha."""
    tp, sol = unit_demand.price_unit_demand(inst, opt, alpha)
    record = {
        "command": "price-ud",
        "alpha": alpha,
        "primary_price": tp.primary_price,
        "prices": inst.prices_dict(tp.prices),
        "clusters": {
            "goods": dict(zip(inst.good_ids, tp.good_cluster.tolist())),
            "types": dict(zip(inst.type_ids, tp.type_cluster.tolist())),
        },
        "solution": _solution_record(inst, sol),
        "optimum": _solution_record(inst, opt),
        "certificate": analysis.certificate(alpha, opt.sw, sol).to_dict(),
    }
    if diagnostics:
        record["cluster_violations"] = unit_demand.cluster_diagnostics(inst, tp, sol, opt)
        record["hazard_violations"] = unit_demand.low_cluster_hazard_condition(inst, tp, sol)
    return record


def _cmd_price_ud(args) -> int:
    inst = _load(args)
    opt = solve_welfare(inst, _solver_config(args))
    # The pricer refuses a multi-good instance before any --alpha is checked.
    alpha = analysis.resolve_alpha(inst, args.alpha) if inst.is_unit_demand() else inst.alpha
    _emit(_price_ud(inst, opt, alpha, args.diagnostics), args.out)
    return EXIT_OK


def _rung_record(inst, rung, dump_solutions: bool) -> dict:
    rec = {
        "index": rung.index,
        "dummy_price": rung.dummy_price,
        "sw": rung.solution.sw,
        "profit": rung.solution.profit,
        "saturated": sorted(g for g, s in zip(inst.good_ids, rung.saturated.tolist()) if s),
    }
    if dump_solutions:
        rec["solution"] = _solution_record(inst, rung.solution)
        rec["dummy_allocation"] = inst.prices_dict(rung.dummy_allocation)
    return rec


def _price_mm(inst, opt, cfg, alpha: float, dump: bool) -> tuple[dict, list]:
    """The price-mm record and its rungs: the reserve ladder above the optimum opt at alpha."""
    rungs = multi_minded.ladder(inst, opt, cfg, alpha)
    selected = multi_minded.select_index(inst, rungs, opt, alpha)
    cert = analysis.certificate(alpha, opt.sw, selected.solution, inst.bundle_size_ratio)
    checks = multi_minded.certify_ladder(inst, opt, rungs, alpha)
    checks += multi_minded.certify_selection(inst, opt, selected, alpha)
    record = {
        "command": "price-mm",
        "alpha": alpha,
        "bundle_size_ratio": inst.bundle_size_ratio,
        "selection_threshold": cert.mm_profit_factor,
        "rungs": [_rung_record(inst, r, dump) for r in rungs],
        "selected_index": selected.index,
        "solution": _solution_record(inst, selected.solution),
        "optimum": _solution_record(inst, opt),
        "certificate": cert.to_dict(),
        "bound_checks": [c.to_dict() for c in checks],
    }
    return record, rungs


def _cmd_price_mm(args) -> int:
    inst = _load(args)
    cfg = _solver_config(args)
    alpha = analysis.resolve_alpha(inst, args.alpha)
    opt = solve_welfare(inst, cfg)
    _emit(_price_mm(inst, opt, cfg, alpha, args.dummy_ladder_dump)[0], args.out)
    return EXIT_OK


# sweep refuses an alpha range of more points than this.
MAX_SWEEP_POINTS = 100_000


def _parse_alpha_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError("--alpha for sweep takes start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise _UsageError("sweep start, stop and step must be finite")
    if step <= 0:
        raise _UsageError("sweep step must be positive")
    # Capped before rounding: the ratio of finite parts may still be inf.
    n = round(min((stop - start) / step, MAX_SWEEP_POINTS))
    if n + 1 > MAX_SWEEP_POINTS:
        raise _UsageError(f"sweep range has more than {MAX_SWEEP_POINTS} points")
    return [start + k * step for k in range(n + 1)]


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _fixed9(v: float) -> str:
    """v to nine decimals; a value that rounds to zero prints unsigned."""
    text = f"{v:.9f}"
    return "0.000000000" if text == "-0.000000000" else text


def _cmd_sweep(args) -> int:
    alphas = _parse_alpha_range(args.alpha)
    c = args.c
    lines = ["alpha,zeta,welfare_factor,tradeoff_revenue_at_c,c"]
    for a in alphas:
        z = analysis.zeta(a)
        w = analysis.welfare_factor(a)
        revenue_at_c, _ = analysis.tradeoff_bound(c, a)
        lines.append(
            ",".join(_fmt(v) for v in (a, z, w, revenue_at_c, c))
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _verify_checks(inst, args) -> list[dict]:
    cfg = _solver_config(args)
    checks = []

    def add(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    opt = solve_welfare(inst, cfg)
    sw_star = opt.sw
    tol = BOUND_TOL * (1.0 + abs(sw_star))

    identity = float(np.max(np.abs(opt.prices - inst.cost_batch.marginal(opt.allocation))))
    add("optimum_prices_at_marginal_cost", identity <= MARGINAL_PRICE_TOL, f"residual {identity:.2e}")

    grid = oracle.GridSpec(price_step=args.grid_step)
    if grid.price_step is None and len(inst.goods) >= 3:
        grid.price_step = inst.lambda_max / 20.0
    try:
        sw_oracle, _ = oracle.oracle_max_welfare(inst, grid)
        add(
            "grid_never_beats_optimum",
            sw_oracle <= sw_star + GRID_ABOVE_REL * (1.0 + abs(sw_star)),
            f"oracle {_fixed9(sw_oracle)} vs optimum {_fixed9(sw_star)}",
        )
        add(
            "optimum_reaches_grid",
            sw_star >= sw_oracle - GRID_REACH_REL * (1.0 + abs(sw_star)),
            f"gap {sw_oracle - sw_star:.2e}",
        )
    except oracle.OracleCapError:
        log.info("instance beyond oracle caps; skipping grid cross-check")

    income = sum((inst.demand_batch.eval(opt.demand) * opt.demand).tolist())
    cost = inst.total_cost(opt.allocation)
    add("income_covers_twice_cost", income >= 2.0 * cost - tol, f"{income:.6f} vs {2 * cost:.6f}")
    add("profit_covers_cost", opt.profit >= cost - tol, "")

    if inst.is_unit_demand():
        record = _price_ud(inst, opt, inst.alpha, diagnostics=True)
        for name, verdict in record["certificate"]["verdicts"].items():
            add(f"thresholded_{name}", verdict != "FAIL", verdict)
        violations, hazards = record["cluster_violations"], record["hazard_violations"]
        add("cluster_structure", not violations, "; ".join(violations))
        add("low_cluster_hazard", not hazards, "; ".join(hazards))
    else:
        record, rungs = _price_mm(inst, opt, cfg, inst.alpha, dump=False)
        for check in record["bound_checks"]:
            add(f"ladder_{check['name']}", check["ok"], f"{_fixed9(check['lhs'])} <= {_fixed9(check['rhs'])}")
        for rung in rungs:
            problems = multi_minded.deviation_violations(inst, opt, rung)
            add(f"saturation_charging[{rung.index}]", not problems, "; ".join(problems))
    return checks


def _cmd_verify(args) -> int:
    inst = _load(args)
    checks = _verify_checks(inst, args)
    ok = all(c["ok"] for c in checks)
    _emit({"command": "verify", "ok": ok, "checks": checks}, args.out)
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"[{status}] {c['name']}" + (f" ({c['detail']})" if not c["ok"] else ""),
              file=sys.stderr)
    return EXIT_OK if ok else EXIT_BOUNDS


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="bicrit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_instance=True, solves=True):
        if needs_instance:
            p.add_argument("--in", dest="infile", required=True, help="instance file")
            p.add_argument("--strict", action="store_true",
                           help="reject unknown keys in the instance file")
        p.add_argument("--out", default=None, help="result file (default stdout)")
        if solves:
            p.add_argument("--tol", type=float, default=None, help="solver tolerance")
            p.add_argument("--max-iters", type=int, default=None, help="cap on Newton steps per solve")

    p = sub.add_parser("solve-welfare", help="welfare-maximizing prices")
    common(p)
    p.set_defaults(func=_cmd_solve_welfare)

    p = sub.add_parser("price-ud", help="thresholded unit-demand pricing")
    common(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="regularity parameter (defaults to the instance's)")
    p.add_argument("--diagnostics", action="store_true",
                   help="include cluster and hazard diagnostics")
    p.set_defaults(func=_cmd_price_ud)

    p = sub.add_parser("price-mm", help="reserve-price ladder for multi-good bundles")
    common(p)
    p.add_argument("--alpha", type=float, default=None,
                   help="regularity parameter (defaults to the instance's; an override may "
                        "only raise it, and the ladder needs alpha < 1)")
    p.add_argument("--dummy-ladder-dump", action="store_true",
                   help="include full per-rung solutions in the result")
    p.set_defaults(func=_cmd_price_mm)

    p = sub.add_parser("evaluate", help="evaluate user-given prices")
    common(p, solves=False)
    p.add_argument("--prices", required=True,
                   help="JSON object mapping good id to price, inline or a file path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="CSV of guarantee factors over an alpha grid")
    common(p, needs_instance=False, solves=False)
    p.add_argument("--alpha", required=True, help="grid as start:stop:step")
    p.add_argument("--c", type=float, default=2.0,
                   help="welfare factor at which to evaluate the trade-off curve")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="oracle cross-checks and bound assertions")
    common(p)
    p.add_argument("--grid-step", type=float, default=None, help="oracle price grid step")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("BICRIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except instances.InstanceFormatError as e:
        for problem in e.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
