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
    prices and good_cluster hold one entry per good of good_ids, and
    type_cluster one per type of type_ids; the clusters are "H"/"L" arrays.
    Like PricingSolution's, these are keyed by id only in cli.py's records.
    """

    primary_price: float
    prices: np.ndarray
    good_cluster: np.ndarray
    type_cluster: np.ndarray


def price_unit_demand(inst: MarketInstance, opt: PricingSolution, alpha: float):
    """Thresholded prices above the welfare optimum opt, and the evaluated market outcome.

    Returns (ThresholdedPrices, PricingSolution).
    """
    if not inst.is_unit_demand():
        raise UnitDemandError("instance has multi-good bundles; use the ladder pricer")
    primary = threshold_price(alpha, inst.lambda_max)
    prices = np.maximum(primary, opt.prices)
    sol = evaluate(inst, prices)
    margin = FLOOR_MARGIN * (1.0 + inst.lambda_max)
    good_cluster = np.where(prices > primary + margin, "H", "L")
    type_cluster = np.where(sol.paid > primary + margin, "H", "L")
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
    for tid, cl, x_new, x_opt in zip(
        inst.type_ids, tp.type_cluster.tolist(), sol.demand.tolist(), opt.demand.tolist()
    ):
        if cl == "H" and abs(x_new - x_opt) > DIAG_TOL * scale:
            violations.append(
                f"H type {tid}: demand {x_new} differs from optimal {x_opt}"
            )
        if cl == "L" and x_new > x_opt + DIAG_TOL * scale:
            violations.append(
                f"L type {tid}: demand {x_new} above optimal {x_opt}"
            )
    marg_new = inst.cost_batch.marginal(sol.allocation).tolist()
    marg_opt = inst.cost_batch.marginal(opt.allocation).tolist()
    for g, cl, y_new, y_opt, c_new, c_opt in zip(
        inst.good_ids, tp.good_cluster.tolist(), sol.allocation.tolist(),
        opt.allocation.tolist(), marg_new, marg_opt,
    ):
        if cl == "H" and abs(y_new - y_opt) > DIAG_TOL * scale:
            violations.append(
                f"H good {g}: allocation {y_new} differs from optimal {y_opt}"
            )
        if cl == "L" and c_new > c_opt + DIAG_TOL * scale:
            violations.append(
                f"L good {g}: marginal cost rose above the optimum's"
            )
    good_cluster = tp.good_cluster.tolist()
    row_cluster = np.repeat(tp.type_cluster, inst.bundle_sizes).tolist()
    for (tid, bundle), cl, v in zip(inst.bundle_keys, row_cluster, sol.split.tolist()):
        if v <= SPLIT_DUST:
            continue
        for g in bundle:
            good_cl = good_cluster[inst.good_index[g]]
            if good_cl != cl:
                violations.append(f"type {tid} ({cl}) buys good {g} ({good_cl}) across clusters")
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
    rates = buyer_marginal_costs(inst, sol.allocation, sol.split).tolist()
    lam = inst.demand_batch.eval(sol.demand).tolist()
    slopes = np.abs(inst.demand_batch.derivative(sol.demand)).tolist()
    problems = []
    for tid, cl, x, lam_x, slope, rate in zip(
        inst.type_ids, tp.type_cluster.tolist(), sol.demand.tolist(), lam, slopes, rates
    ):
        if cl != "L" or x <= SPLIT_DUST or slope < TINY:
            continue
        shifted = lam_x - rate
        if shifted / slope > x + DIAG_TOL * (1.0 + x):
            problems.append(
                f"type {tid}: shifted hazard {shifted / slope:.6f} exceeds demand {x:.6f}"
            )
    return problems
