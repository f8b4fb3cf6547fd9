"""Market instances, envy-free buyer response, and minimum-cost allocation.

A market couples goods (each with a production cost) and buyer types (each
with a set of acceptable bundles and an inverse demand curve).  Populations
are continuous: demand quantities are real masses of infinitesimal buyers.

An instance caches its struct-of-arrays forms: one dense 0/1 incidence,
stacked_masks, with a row per (type, bundle) of bundle_keys (type i's rows
from bundle_offsets[i]; any one type's incidence is a row slice of it),
its curves and costs compiled into a DemandBatch and a CostBatch, and its
one welfare program (a flow.FlowProgram, for every welfare solve).  Bundle
prices, envy-free demand and welfare are computed over these in one pass
per price vector, not type by type.  A split is a vector over the same rows,
and _solution is the one place that turns prices, demand, split and
allocation into a PricingSolution: for evaluate and for the solver's
welfare and ladder solves alike.

Every value is a vector in the instance's own order: prices and allocations
one entry per good of good_ids, demand and paid prices one per type of
type_ids, splits one per stacked_masks row.  Good and type ids are read only
where text comes in or goes out (instances.py and cli.py), in messages that
name a type or good, and to look up a bundle's goods.

The min-cost split fixes in one pass every type with one tied bundle or no
mass; only the types a tie splits reach the welfare program's fixed-mass
limit, one flow.FlowProgram on top of the fixed types' allocation, run and
certified by flow.solve as the welfare solve is; a miss raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .costs import CostBatch, CostFunction
from .demand import DemandBatch, InverseDemand
from .flow import FlowProgram, solve
from .tolerances import NEWTON_STEPS, PRICE_TIE_REL, SOLVER_TOL, SPLIT_DUST, STATED_REL

__all__ = [
    "BuyerType",
    "MarketInstance",
    "MarketValidationError",
    "PricingSolution",
    "best_response",
    "buyer_marginal_costs",
    "evaluate",
    "min_cost_allocation",
]


class MarketValidationError(ValueError):
    """Instance validation failure carrying every detected problem."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class BuyerType:
    type_id: str
    bundles: tuple[tuple[str, ...], ...]
    demand: InverseDemand


def _canonical_bundles(bundles) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(set(str(g) for g in b))) for b in bundles))


@dataclass(frozen=True)
class MarketInstance:
    goods: tuple[tuple[str, CostFunction], ...]
    buyer_types: tuple[BuyerType, ...]

    def __post_init__(self):
        problems = []
        ids = [g for g, _ in self.goods]
        if len(set(ids)) != len(ids):
            problems.append("duplicate good ids")
        if not self.goods:
            problems.append("instance has no goods")
        if not self.buyer_types:
            problems.append("instance has no buyer types")
        tids = [t.type_id for t in self.buyer_types]
        if len(set(tids)) != len(tids):
            problems.append("duplicate buyer type ids")
        known = set(ids)
        peak = self.buyer_types[0].demand.lambda_max if self.buyer_types else None
        for t in self.buyer_types:
            if not t.bundles:
                problems.append(f"type {t.type_id}: no bundles")
            if len(set(t.bundles)) != len(t.bundles):
                problems.append(f"type {t.type_id}: duplicate bundles")
            for b in t.bundles:
                if not b:
                    problems.append(f"type {t.type_id}: empty bundle")
                unknown = [g for g in b if g not in known]
                if unknown:
                    problems.append(
                        f"type {t.type_id}: bundle {list(b)} references unknown goods {unknown}"
                    )
            if peak is not None and abs(t.demand.lambda_max - peak) > STATED_REL * max(peak, 1.0):
                problems.append(
                    f"type {t.type_id}: peak {t.demand.lambda_max} breaks the uniform "
                    f"peak {peak}"
                )
        if problems:
            raise MarketValidationError(problems)

    @staticmethod
    def create(goods, buyer_types) -> "MarketInstance":
        """Build an instance from (id, cost) pairs and (id, bundles, demand) triples."""
        goods_t = tuple((str(g), c) for g, c in goods)
        types_t = tuple(
            BuyerType(str(tid), _canonical_bundles(bundles), demand)
            for tid, bundles, demand in buyer_types
        )
        return MarketInstance(goods_t, types_t)

    # -- derived structure -------------------------------------------------

    @cached_property
    def good_ids(self) -> tuple[str, ...]:
        return tuple(g for g, _ in self.goods)

    @cached_property
    def good_index(self) -> dict[str, int]:
        return {g: k for k, g in enumerate(self.good_ids)}

    @cached_property
    def cost_functions(self) -> tuple[CostFunction, ...]:
        return tuple(c for _, c in self.goods)

    @cached_property
    def type_ids(self) -> tuple[str, ...]:
        return tuple(t.type_id for t in self.buyer_types)

    @cached_property
    def bundle_keys(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(type id, bundle) of each row of stacked_masks."""
        return tuple((t.type_id, b) for t in self.buyer_types for b in t.bundles)

    @cached_property
    def bundle_sizes(self) -> np.ndarray:
        return np.array([len(t.bundles) for t in self.buyer_types])

    @cached_property
    def bundle_offsets(self) -> np.ndarray:
        """Row of stacked_masks where each type's bundles start, then the row count."""
        return np.concatenate([[0], np.cumsum(self.bundle_sizes)])

    @cached_property
    def stacked_masks(self) -> np.ndarray:
        """The 0/1 bundle x good incidence: one row per bundle_keys entry."""
        entries = [(row, self.good_index[g]) for row, (_, b) in enumerate(self.bundle_keys) for g in b]
        masks = np.zeros((len(self.bundle_keys), len(self.goods)))
        masks[tuple(np.array(entries).T)] = 1.0
        return masks

    @cached_property
    def demand_batch(self) -> DemandBatch:
        return DemandBatch(t.demand for t in self.buyer_types)

    @cached_property
    def cost_batch(self) -> CostBatch:
        return _cost_batch(self.cost_functions)

    @cached_property
    def welfare_program(self) -> FlowProgram:
        """The one welfare program, which solve_welfare and every ladder rung run against their costs."""
        return FlowProgram(self.stacked_masks, self.bundle_sizes, demand=self.demand_batch)

    @cached_property
    def lambda_max(self) -> float:
        return self.buyer_types[0].demand.lambda_max

    @cached_property
    def alpha(self) -> float:
        return max(t.demand.alpha for t in self.buyer_types)

    @cached_property
    def max_bundle_size(self) -> int:
        return max(len(b) for t in self.buyer_types for b in t.bundles)

    @cached_property
    def min_bundle_size(self) -> int:
        return min(len(b) for t in self.buyer_types for b in t.bundles)

    @property
    def bundle_size_ratio(self) -> float:
        return self.max_bundle_size / self.min_bundle_size

    def is_unit_demand(self) -> bool:
        return self.max_bundle_size == 1

    def price_vector(self, prices: dict[str, float]) -> np.ndarray:
        return np.array([float(prices[g]) for g in self.good_ids])

    def prices_dict(self, pvec) -> dict[str, float]:
        return {g: float(pvec[k]) for k, g in enumerate(self.good_ids)}

    def total_cost(self, yvec) -> float:
        return float(np.sum(self.cost_batch.total(yvec)))


@dataclass
class PricingSolution:
    """Evaluated outcome of posting a price vector, in the instance's orders.

    prices and allocation (the produced quantities) hold one entry per good
    of good_ids; demand (the purchased masses) and paid (the bundle price
    each type faces) one per type of type_ids; split the mass routed through
    each stacked_masks row, entries up to SPLIT_DUST zeroed.  No field is
    keyed by id: cli.py maps the vectors to good and type ids when it writes
    a record.
    """

    prices: np.ndarray
    demand: np.ndarray
    split: np.ndarray
    allocation: np.ndarray
    sw: float
    profit: float
    paid: np.ndarray


def best_response(inst: MarketInstance, pvec) -> np.ndarray:
    """Envy-free demand: each type buys its cheapest bundle up to its valuation."""
    cheapest, _ = _bundle_prices(inst, pvec)
    return inst.demand_batch.demand_at_price(cheapest)


def _bundle_prices(inst: MarketInstance, pvec):
    """One pass over the stacked incidence at price vector pvec: the one tie rule.

    pvec is one price vector or a stack of them (one per row).  Returns, over
    the last axis, each type's cheapest bundle price (in type_ids order) and
    the mask of stacked_masks rows whose bundle ties with its type's
    cheapest: priced within PRICE_TIE_REL * (1 + lambda_max) of it.
    min_cost_allocation and evaluate split over this mask, and oracle._sweep
    reads it too, so the oracle audits exactly the bundle sets the code
    splits over.
    """
    sums = pvec @ inst.stacked_masks.T
    cheapest = np.minimum.reduceat(sums, inst.bundle_offsets[:-1], axis=-1)
    band = np.repeat(cheapest, inst.bundle_sizes, axis=-1) + PRICE_TIE_REL * (1.0 + inst.lambda_max)
    return cheapest, sums <= band


@lru_cache(maxsize=16)
def _cost_batch(cost_fns: tuple[CostFunction, ...]) -> CostBatch:
    """CostBatch of cost_fns, compiled once per set of costs."""
    return CostBatch(cost_fns)


def split_min_cost(cost_fns, masks, totals, base):
    """Distribute each type's total mass over the bundles its mask allows at least cost, on top of base.

    masks is one (m_i, n_goods) incidence matrix per type and totals the mass
    each type must route.  They form one fixed-mass FlowProgram over all
    goods, started from even splits and certified at SOLVER_TOL within
    NEWTON_STEPS steps; a miss raises SolverError.

    Returns (list of per-type split vectors, allocation vector y); ([], base) for no masks.
    """
    if not masks:
        return [], base
    sizes = np.array([m.shape[0] for m in masks])
    masses = np.array(totals, dtype=float)
    program = FlowProgram(np.vstack(masks), sizes, masses=masses, base=base)
    z = solve(program, _cost_batch(tuple(cost_fns)), np.repeat(masses / sizes, sizes), NEWTON_STEPS, SOLVER_TOL)
    return np.split(z, program.offsets[1:-1]), program.allocation(z)


def min_cost_allocation(inst: MarketInstance, pvec, demand):
    """Cheapest way to serve the given demand using only argmin-priced bundles.

    demand holds each type's mass and is expected to be a best response to
    the prices pvec.  Returns (split, allocation) as a PricingSolution holds them.
    """
    cheapest, tied = _bundle_prices(inst, pvec)
    sol = _solution(inst, pvec, cheapest, demand, *_min_cost_split(inst, tied, demand))
    return sol.split, sol.allocation


def _min_cost_split(inst: MarketInstance, tied, xvec):
    """min_cost_allocation over the stacked tie mask tied, the types' masses xvec.

    A type with one tied row puts its mass there; the fixed rows' allocation,
    in row order, is the base split_min_cost routes the types a tie splits on.
    Returns (z, y): the split in stacked_masks row order, zero off the tied
    rows, and the allocation vector.
    """
    sizes = inst.bundle_sizes
    counts = np.add.reduceat(tied, inst.bundle_offsets[:-1])
    positive = xvec > 0.0
    split = (counts > 1) & positive
    free = tied & np.repeat(split, sizes)
    z = np.where(tied & np.repeat((counts == 1) & positive, sizes), np.repeat(xvec, sizes), 0.0)
    # Cutting at every split type's end leaves one empty piece after the last.
    masks = np.split(inst.stacked_masks[free], np.cumsum(counts[split]))[:-1]
    splits, y = split_min_cost(inst.cost_functions, masks, xvec[split].tolist(), inst.welfare_program.allocation(z))
    if splits:
        z[free] = np.concatenate(splits)
    return z, y


def _solution(inst: MarketInstance, pvec, cheapest, xvec, z, yvec) -> PricingSolution:
    """The PricingSolution of posting pvec, the one place that builds one.

    cheapest is each type's cheapest bundle price at pvec, xvec the types'
    demand, z the split in stacked_masks row order (entries up to SPLIT_DUST
    are zeroed) and yvec the allocation.  Welfare and profit are measured
    with the instance's own costs.  The solution owns its arrays: it keeps
    copies of pvec, xvec and yvec, never the caller's arrays or views of them.
    """
    pvec, xvec, yvec = np.array(pvec), np.array(xvec), np.array(yvec)
    cost = inst.total_cost(yvec)
    utility = float(np.sum(inst.demand_batch.utility_integral(xvec)))
    return PricingSolution(
        prices=pvec,
        demand=xvec,
        split=np.where(z > SPLIT_DUST, z, 0.0),
        allocation=yvec,
        sw=float(utility - cost),
        profit=float(pvec @ yvec) - cost,
        paid=cheapest,
    )


def evaluate(inst: MarketInstance, pvec) -> PricingSolution:
    """Full market outcome at the posted price vector pvec."""
    cheapest, tied = _bundle_prices(inst, pvec)
    xvec = inst.demand_batch.demand_at_price(cheapest)
    return _solution(inst, pvec, cheapest, xvec, *_min_cost_split(inst, tied, xvec))


def _marginal_sums(inst: MarketInstance, allocation, split):
    """Each stacked_masks row's marginal-cost sum at allocation, and the rows split uses."""
    return inst.stacked_masks @ inst.cost_batch.marginal(allocation), split > SPLIT_DUST


def buyer_marginal_costs(inst: MarketInstance, allocation, split) -> np.ndarray:
    """Per-type marginal cost of one extra unit at the given allocation and split.

    In a cost-minimal solution every bundle a type actually uses carries the
    same marginal-cost sum, so this is well defined up to solver tolerance;
    the minimum over used bundles is reported.  Types using nothing (every
    type, for a zero split) fall back to the cheapest bundle by marginal
    cost.
    """
    sums, used = _marginal_sums(inst, allocation, split)
    starts = inst.bundle_offsets[:-1]
    best_used = np.minimum.reduceat(np.where(used, sums, np.inf), starts)
    return np.where(np.logical_or.reduceat(used, starts), best_used, np.minimum.reduceat(sums, starts))


def split_kkt_violation(inst: MarketInstance, allocation, split) -> float:
    """Largest gap between a used bundle's marginal-cost sum and the type's best.

    Zero (up to KKT_TOL) certifies the split is cost minimal over all of each
    type's bundles.
    """
    sums, used = _marginal_sums(inst, allocation, split)
    best = np.minimum.reduceat(sums, inst.bundle_offsets[:-1])
    gaps = sums - np.repeat(best, inst.bundle_sizes)
    return float(np.max(gaps, where=used, initial=0.0))
