"""Ladder pricing for markets with multi-good bundles.

The welfare optimum itself may earn almost nothing, so the algorithm probes a
doubling sequence of reserve prices.  In the paper each rung adds one
price-taking dummy buyer per good, valuing it flatly at the reserve price r,
solves the welfare program, and strips the dummies.  A dummy at r turns good
g's cost C_g into the reserve-floored cost

    C~_g(y) = min over d >= 0 of [C_g(y + d) - r d],

whose marginal is max(r, c_g(y)), so each rung solves the unchanged welfare
program against C~_g and posts those marginals; the dummy's take is
max(y0 - y_g, 0) with y0 = c_g^-1(r).  A final scan picks the smallest rung
whose profit is within a fixed factor of the optimum welfare; that rung
provably also keeps a constant fraction of the welfare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    mm_profit_factor,
    mm_welfare_factor,
    selection_base_factor,
    threshold_coefficients,
    threshold_price,
)
from .market import MarketInstance, PricingSolution
from .solver import SolverConfig, SolverError, _solve_flow
from .tolerances import BOUNDARY_SLACK, BOUND_TOL, FLOOR_MARGIN

__all__ = [
    "BoundCheck",
    "LadderSolution",
    "augmented_we",
    "certify_ladder",
    "certify_selection",
    "deviation_violations",
    "dummy_price_at",
    "ladder",
    "rung_count",
    "select_index",
]


@dataclass
class LadderSolution:
    """One rung: the stripped equilibrium at a given dummy (reserve) price.

    index -1 denotes the plain welfare optimum, which has no dummies: its
    saturated and dummy_allocation are None.  On a rung, both hold one entry
    per good of good_ids: saturated marks goods priced strictly above the
    dummy price (their price equals marginal cost), and dummy_allocation is
    what each good's dummy buyer would take.  Like PricingSolution's, these
    are keyed by id only in cli.py's records.
    """

    index: int
    dummy_price: float | None
    solution: PricingSolution
    saturated: np.ndarray | None = None
    dummy_allocation: np.ndarray | None = None


class _ReserveFloored:
    """Costs C~ with marginal max(r, c(y)): C plus a dummy buyer valuing each good at r.

    Below y0 = c^-1(r) the dummy takes y0 - y and C~ is linear at slope r;
    from y0 on the dummy takes nothing and C~ is C.  Batched like the
    instance's CostBatch: one value per good in, one per good out.
    """

    def __init__(self, inst: MarketInstance, reserve: float):
        self.costs = inst.cost_batch
        self.reserve = reserve
        self.y0 = self.costs.marginal_inverse(reserve)
        self._total_at_y0 = self.costs.total(self.y0)

    def at(self, y):
        """(marginal, slope, total) from one CostBatch call.

        The slope of the floored marginal is 0 below y0 and c'(y) from y0 on.
        """
        marginal, slope, total = self.costs.at(y)
        below = y < self.y0
        return (
            np.maximum(self.reserve, marginal),
            np.where(below, 0.0, slope),
            np.where(below, self._total_at_y0 + self.reserve * (y - self.y0), total),
        )


def augmented_we(
    inst: MarketInstance, dummy_price: float, cfg: SolverConfig, start
) -> LadderSolution:
    """Welfare optimum with a flat-valuation dummy buyer per good, dummies stripped.

    The dummies enter as reserve-floored costs, so the posted prices are
    exactly max(dummy price, marginal cost) at the real buyers' allocation.
    start is the solver's first split (see _solve_flow).  Prices and demand
    do not depend on it.  Where the reserve binds on goods shared by tied
    bundles the floored cost is linear, the optimal split is not unique, and
    neither are the allocation, sw and profit (measured with the instance's
    own costs): which optimum is returned depends on start.
    """
    if not dummy_price > 0:
        raise ValueError("dummy price must be positive")
    floored = _ReserveFloored(inst, dummy_price)
    solution = _solve_flow(inst, floored, cfg, start)
    margin = FLOOR_MARGIN * (1.0 + dummy_price)
    return LadderSolution(
        index=0,
        dummy_price=dummy_price,
        solution=solution,
        saturated=solution.prices > dummy_price + margin,
        dummy_allocation=np.maximum(floored.y0 - solution.allocation, 0.0),
    )


def rung_count(inst: MarketInstance) -> int:
    """Number of doubling steps: ceil(log2 of the bundle size ratio)."""
    return int(math.ceil(math.log2(inst.bundle_size_ratio) - BOUNDARY_SLACK))


def dummy_price_at(inst: MarketInstance, j: int, alpha: float) -> float:
    primary = threshold_price(alpha, inst.lambda_max)
    return 2.0**j * primary / (2.0 * inst.max_bundle_size)


def ladder(
    inst: MarketInstance, opt: PricingSolution, cfg: SolverConfig, alpha: float
) -> list[LadderSolution]:
    """All augmented equilibria at dummy prices 2^j * threshold / (2 * max size).

    Every rung's solve starts from the welfare optimum opt's split, so the
    rungs do not depend on each other or on their order.  A rung that fails
    to certify raises SolverError naming its index and reserve price.
    alpha = 1 puts the threshold, and so every reserve, at 0: ValueError.
    """
    if not alpha < 1.0:
        raise ValueError(f"alpha={alpha}: the reserve-price ladder needs alpha < 1")
    rungs = []
    for j in range(rung_count(inst) + 2):
        price = dummy_price_at(inst, j, alpha)
        try:
            rung = augmented_we(inst, price, cfg, opt.split)
        except SolverError as e:
            message = f"ladder rung {j} at reserve price {price:.12g}: {e}"
            raise SolverError(message, e.best_splits, e.residual, e.history) from e
        rung.index = j
        rungs.append(rung)
    return rungs


def _optimum_rung(opt: PricingSolution) -> LadderSolution:
    return LadderSolution(index=-1, dummy_price=None, solution=opt)


def select_index(
    inst: MarketInstance,
    rungs: list[LadderSolution],
    opt: PricingSolution,
    alpha: float,
) -> LadderSolution:
    """Smallest index (optimum first, then the rungs) meeting the profit threshold.

    At least one index qualifies for exact solutions; a numerical miss raises
    with every rung's profit attached.
    """
    threshold = mm_profit_factor(alpha, inst.bundle_size_ratio)
    sw_star = opt.sw
    candidates = [_optimum_rung(opt)] + sorted(rungs, key=lambda r: r.index)
    if sw_star <= BOUND_TOL:
        return candidates[0]
    slack = BOUND_TOL * (1.0 + sw_star)
    for rung in candidates:
        profit = rung.solution.profit
        if profit > 0 and sw_star <= threshold * profit + slack:
            return rung
    profits = {r.index: r.solution.profit for r in candidates}
    raise SolverError(
        f"no ladder index met SW*/profit <= {threshold}; rung profits: {profits}"
    )


@dataclass
class BoundCheck:
    """One inequality lhs <= rhs + tol with its measured sides."""

    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tol": self.tol,
            "ok": self.ok,
        }


def certify_ladder(
    inst: MarketInstance,
    opt: PricingSolution,
    rungs: list[LadderSolution],
    alpha: float,
) -> list[BoundCheck]:
    """Evaluate every structural inequality the ladder construction promises."""
    sw_star = opt.sw
    tol = BOUND_TOL * (1.0 + abs(sw_star))
    c1, c2 = threshold_coefficients(alpha)
    checks = []
    by_index = {r.index: r for r in rungs}
    last = max(by_index)

    for r in rungs:
        sol = r.solution
        cost = inst.total_cost(sol.allocation)
        checks.append(BoundCheck(f"profit_covers_cost[{r.index}]", cost, sol.profit, tol))

    start = by_index[0].solution
    checks.append(
        BoundCheck(
            "welfare_gap_at_start",
            sw_star - start.sw,
            (5.0 + 6.0 * c2) * (start.profit + opt.profit),
            tol,
        )
    )
    for j in range(last):
        a, b = by_index[j].solution, by_index[j + 1].solution
        checks.append(
            BoundCheck(
                f"welfare_step[{j}->{j + 1}]",
                a.sw - b.sw,
                3.0 * a.profit + 3.0 * b.profit,
                tol,
            )
        )
    top = by_index[last].solution
    checks.append(
        BoundCheck(
            "welfare_at_last_rung",
            top.sw,
            c1 * top.profit,
            tol,
        )
    )
    checks.append(
        BoundCheck(
            "welfare_vs_total_profit",
            sw_star,
            selection_base_factor(alpha)
            * (sum(by_index[j].solution.profit for j in by_index) + opt.profit),
            tol,
        )
    )
    return checks


def certify_selection(
    inst: MarketInstance,
    opt: PricingSolution,
    selected: LadderSolution,
    alpha: float,
) -> list[BoundCheck]:
    """The two guarantees of the selected rung: profit and welfare factors."""
    sw_star = opt.sw
    tol = BOUND_TOL * (1.0 + abs(sw_star))
    return [
        BoundCheck(
            "selected_profit",
            sw_star,
            mm_profit_factor(alpha, inst.bundle_size_ratio) * selected.solution.profit,
            tol,
        ),
        BoundCheck(
            "selected_welfare", sw_star, mm_welfare_factor(alpha) * selected.solution.sw, tol
        ),
    ]


def deviation_violations(
    inst: MarketInstance,
    opt: PricingSolution,
    rung: LadderSolution,
) -> list[str]:
    """Saturation charging check for one rung.

    Against the rung's own scaled benchmark (welfare optimum truncated at
    2^j * threshold), any buyer whose price rose past the benchmark must see a
    saturated good in every desired bundle, and the saturated part of each
    bundle must cover at least half the buyer's price.  Rungs whose scaled
    threshold exceeds the demand peak have no applicable benchmark.
    """
    floor = rung.dummy_price * 2.0 * inst.max_bundle_size
    if floor > inst.lambda_max * (1.0 - BOUNDARY_SLACK):
        return []
    # The benchmark: the optimum's demand, capped at what each type buys at the floor.
    x_a = np.minimum(
        opt.demand, inst.demand_batch.demand_at_price(np.full(len(inst.buyer_types), floor))
    )
    prices, saturated = rung.solution.prices.tolist(), rung.saturated.tolist()
    problems = []
    margin = BOUND_TOL * (1.0 + inst.lambda_max)
    for t, lam_now, lam_bench in zip(
        inst.buyer_types,
        inst.demand_batch.eval(rung.solution.demand).tolist(),
        inst.demand_batch.eval(x_a).tolist(),
    ):
        if lam_now <= lam_bench + margin:
            continue
        for b in t.bundles:
            sat_part = sum(prices[k] for k in (inst.good_index[g] for g in b) if saturated[k])
            if sat_part == 0.0:
                problems.append(
                    f"type {t.type_id} deviated but bundle {list(b)} has no saturated good"
                )
            elif lam_now > 2.0 * sat_part + margin:
                problems.append(
                    f"type {t.type_id}: price {lam_now:.6f} exceeds twice the "
                    f"saturated share {sat_part:.6f} of bundle {list(b)}"
                )
    return problems
