"""Thresholded pricing for unit-demand markets.

Each good is priced at the larger of its welfare-optimal price and a single
threshold derived from the demand peak and the regularity parameter.  The
resulting market splits into a high cluster that behaves exactly like the
welfare optimum and a low cluster whose buyers all pay the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import threshold_price
from .market import (
    MarketInstance,
    PricingSolution,
    buyer_marginal_costs,
    evaluate,
    split_kkt_violation,
)
from .tolerances import DIAG_TOL, FLOOR_MARGIN, KKT_TOL, SPLIT_DUST, TINY

__all__ = [
    "ThresholdedPrices",
    "UnitDemandError",
    "cluster_diagnostics",
    "low_cluster_hazard_condition",
    "price_unit_demand",
]


class UnitDemandError(ValueError):
    """Raised when a non-unit-demand instance hits the unit-demand algorithm."""


@dataclass
class ThresholdedPrices:
    """Thresholded price vector and the induced market partition.

    Goods strictly above the primary price keep their welfare-optimal price
    (cluster H); the rest sit exactly at the primary price (cluster L).
    """

    primary_price: float
    prices: dict[str, float]
    good_cluster: dict[str, str]
    type_cluster: dict[str, str]


def price_unit_demand(inst: MarketInstance, opt: PricingSolution, alpha: float):
    """Thresholded prices above the welfare optimum opt, and the evaluated market outcome.

    Returns (ThresholdedPrices, PricingSolution).
    """
    if not inst.is_unit_demand():
        raise UnitDemandError("instance has multi-good bundles; use the ladder pricer")
    primary = threshold_price(alpha, inst.lambda_max)
    prices = {g: max(primary, opt.prices[g]) for g in inst.good_ids}
    sol = evaluate(inst, prices)
    margin = FLOOR_MARGIN * (1.0 + inst.lambda_max)
    good_cluster = {
        g: "H" if prices[g] > primary + margin else "L" for g in inst.good_ids
    }
    type_cluster = {
        t.type_id: "H" if sol.paid[t.type_id] > primary + margin else "L"
        for t in inst.buyer_types
    }
    tp = ThresholdedPrices(primary, prices, good_cluster, type_cluster)
    return tp, sol


def cluster_diagnostics(
    inst: MarketInstance,
    tp: ThresholdedPrices,
    sol: PricingSolution,
    opt: PricingSolution,
) -> list[str]:
    """Violations of the two-cluster structure of a thresholded solution.

    High-cluster buyers and goods must replicate the welfare optimum exactly;
    low-cluster demand may only shrink and low-cluster marginal costs may only
    drop; nobody may buy across the clusters; and the allocation must stay
    cost minimal for the realized demand.
    """
    violations = []
    scale = 1.0 + inst.lambda_max
    for t in inst.buyer_types:
        cl = tp.type_cluster[t.type_id]
        x_new, x_opt = sol.demand[t.type_id], opt.demand[t.type_id]
        if cl == "H" and abs(x_new - x_opt) > DIAG_TOL * scale:
            violations.append(
                f"H type {t.type_id}: demand {x_new} differs from optimal {x_opt}"
            )
        if cl == "L" and x_new > x_opt + DIAG_TOL * scale:
            violations.append(
                f"L type {t.type_id}: demand {x_new} above optimal {x_opt}"
            )
    marg_new = inst.cost_batch.marginal(sol.allocation_vector(inst)).tolist()
    marg_opt = inst.cost_batch.marginal(opt.allocation_vector(inst)).tolist()
    for g, c_new, c_opt in zip(inst.good_ids, marg_new, marg_opt):
        cl = tp.good_cluster[g]
        y_new, y_opt = sol.allocation[g], opt.allocation[g]
        if cl == "H" and abs(y_new - y_opt) > DIAG_TOL * scale:
            violations.append(
                f"H good {g}: allocation {y_new} differs from optimal {y_opt}"
            )
        if cl == "L" and c_new > c_opt + DIAG_TOL * scale:
            violations.append(
                f"L good {g}: marginal cost rose above the optimum's"
            )
    for (tid, bundle), v in sol.split.items():
        if v <= SPLIT_DUST:
            continue
        for g in bundle:
            if tp.good_cluster[g] != tp.type_cluster[tid]:
                violations.append(
                    f"type {tid} ({tp.type_cluster[tid]}) buys good {g} "
                    f"({tp.good_cluster[g]}) across clusters"
                )
    kkt = split_kkt_violation(inst, sol.allocation, sol.split)
    if kkt > KKT_TOL:
        violations.append(
            f"allocation is not cost-minimal for the demand (gap {kkt:.2e})"
        )
    return violations


def low_cluster_hazard_condition(
    inst: MarketInstance,
    tp: ThresholdedPrices,
    sol: PricingSolution,
) -> list[str]:
    """Check the hazard condition behind the welfare-loss bound.

    For every low-cluster buyer, the cost-shifted demand curve must have
    hazard ratio at most the realized demand:
    (lambda_i(x) - r_i) / |lambda_i'(x)| <= x.
    """
    rates = buyer_marginal_costs(inst, sol.allocation, sol.split)
    xvec = np.array([sol.demand[tid] for tid in inst.type_ids])
    lam = inst.demand_batch.eval(xvec).tolist()
    slopes = np.abs(inst.demand_batch.derivative(xvec)).tolist()
    problems = []
    for t, x, lam_x, slope in zip(inst.buyer_types, xvec.tolist(), lam, slopes):
        if tp.type_cluster[t.type_id] != "L" or x <= SPLIT_DUST or slope < TINY:
            continue
        shifted = lam_x - rates[t.type_id]
        if shifted / slope > x + DIAG_TOL * (1.0 + x):
            problems.append(
                f"type {t.type_id}: shifted hazard {shifted / slope:.6f} exceeds demand {x:.6f}"
            )
    return problems
