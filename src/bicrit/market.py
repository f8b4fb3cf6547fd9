"""Market instances, envy-free buyer response, and minimum-cost allocation.

A market couples goods (each with a production cost) and buyer types (each
with a set of acceptable bundles and an inverse demand curve).  Populations
are continuous: demand quantities are real masses of infinitesimal buyers.

An instance caches its struct-of-arrays forms: one dense 0/1 incidence,
stacked_masks, with a row per (type, bundle) of bundle_keys (type i's rows
from bundle_offsets[i]; any one type's incidence is a row slice of it), and
its curves and costs compiled into a DemandBatch and a CostBatch.  Bundle
prices, envy-free demand and welfare are computed over these in one pass
per price vector, not type by type.  A split is a vector over the same rows,
and _solution is the one place that turns prices, demand, split and
allocation into a PricingSolution: for evaluate and for the solver's
welfare and ladder solves alike.

The min-cost split is the welfare program's fixed-mass limit: one
flow.FlowProgram over all goods, run by the same Newton loop as the welfare
solve.  It stops only once split_kkt_violation's used-bundle spread is at
most 0.1 * KKT_TOL, or after flow.ROUNDS rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .costs import CostBatch, CostFunction
from .demand import DemandBatch, InverseDemand
from .flow import ROUNDS, FlowProgram, _run_newton

__all__ = [
    "BuyerType",
    "MarketInstance",
    "MarketValidationError",
    "PricingSolution",
    "best_response",
    "buyer_marginal_costs",
    "evaluate",
    "min_bundle_price",
    "min_cost_allocation",
    "tied_bundles",
]

# Bundles whose price is within this (times 1 + lambda_max) of the cheapest
# count as tied.  Solver-produced prices equalize marginal costs only to about
# 1e-8, and breaking those near-ties routes whole buyer populations onto one
# pseudo-cheapest good, so this must sit well above the solver tolerance.
PRICE_TIE_REL = 1e-7
# Reported splits below this are numeric dust and get dropped.
SPLIT_DUST = 1e-12
# Marginal-cost sums of used bundles must agree within this at a cost optimum.
KKT_TOL = 1e-6

_PEAK_TOL = 1e-9
# Newton steps per round of the min-cost split: a safety cap.
_SPLIT_STEPS = 500


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
            if peak is not None and abs(t.demand.lambda_max - peak) > _PEAK_TOL * max(
                peak, 1.0
            ):
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
    def bundle_rows(self) -> dict[tuple[str, tuple[str, ...]], int]:
        """(type id, bundle) -> its row of stacked_masks."""
        return {key: row for row, key in enumerate(self.bundle_keys)}

    @cached_property
    def demand_batch(self) -> DemandBatch:
        return DemandBatch(t.demand for t in self.buyer_types)

    @cached_property
    def cost_batch(self) -> CostBatch:
        return _cost_batch(self.cost_functions)

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

    def marginal_vector(self, yvec) -> np.ndarray:
        return self.cost_batch.marginal(yvec)


@dataclass
class PricingSolution:
    """Evaluated outcome of posting a price vector.

    demand maps type id -> purchased mass, split maps (type id, bundle) ->
    mass routed through that bundle, allocation maps good id -> produced
    quantity, and paid maps type id -> the bundle price that type faces.
    """

    prices: dict[str, float]
    demand: dict[str, float]
    split: dict[tuple[str, tuple[str, ...]], float]
    allocation: dict[str, float]
    sw: float
    profit: float
    paid: dict[str, float]

    def allocation_vector(self, inst: MarketInstance) -> np.ndarray:
        return np.array([self.allocation[g] for g in inst.good_ids])


def min_bundle_price(inst: MarketInstance, prices: dict[str, float], type_id: str):
    """Cheapest bundle price for the type and one argmin bundle.

    Ties, decided by tied_bundles, resolve to the lexicographically smallest
    bundle (bundles are stored as sorted good-id tuples, themselves sorted).
    """
    pvec = inst.price_vector(prices)
    for idx, t in enumerate(inst.buyer_types):
        if t.type_id == type_id:
            sums = inst.stacked_masks[inst.bundle_offsets[idx] : inst.bundle_offsets[idx + 1]] @ pvec
            first = int(np.flatnonzero(tied_bundles(sums, inst.lambda_max))[0])
            return float(np.min(sums)), t.bundles[first]
    raise KeyError(f"unknown buyer type {type_id!r}")


def best_response(inst: MarketInstance, prices: dict[str, float]) -> dict[str, float]:
    """Envy-free demand: each type buys its cheapest bundle up to its valuation."""
    _, cheapest, _ = _bundle_prices(inst, inst.price_vector(prices))
    demand = inst.demand_batch.demand_at_price(cheapest)
    return {t.type_id: float(x) for t, x in zip(inst.buyer_types, demand)}


def _within_tie_band(sums, cheapest, lambda_max: float):
    return sums <= cheapest + PRICE_TIE_REL * (1.0 + lambda_max)


def tied_bundles(sums, lambda_max: float) -> np.ndarray:
    """Mask of the bundle prices tied with the cheapest, over the last axis.

    A bundle ties when its price lies within PRICE_TIE_REL * (1 + lambda_max)
    of the row minimum.  sums is one type's bundle prices (1-D) or a stack of
    them (2-D, one row per price vector).
    This is the one tie rule: oracle._sweep and oracle.oracle_min_split_cost
    decide ties with it, and _bundle_prices applies the same band to all
    types at once for min_cost_allocation and evaluate, so the oracles audit
    exactly the bundle sets the optimizing code splits over.
    """
    return _within_tie_band(sums, sums.min(axis=-1, keepdims=True), lambda_max)


def _bundle_prices(inst: MarketInstance, pvec):
    """One pass over the stacked incidence at price vector pvec.

    Returns every bundle's price (in stacked_masks row order), each type's
    cheapest bundle price, and the mask of bundles tied with their type's
    cheapest.
    """
    sums = inst.stacked_masks @ pvec
    cheapest = np.minimum.reduceat(sums, inst.bundle_offsets[:-1])
    tied = _within_tie_band(sums, np.repeat(cheapest, inst.bundle_sizes), inst.lambda_max)
    return sums, cheapest, tied


@lru_cache(maxsize=16)
def _cost_batch(cost_fns: tuple[CostFunction, ...]) -> CostBatch:
    """CostBatch of cost_fns, compiled once per set of costs."""
    return CostBatch(cost_fns)


def split_min_cost(cost_fns, masks, totals):
    """Distribute each type's total mass over its admissible bundles at least cost.

    masks is one (m_i, n_goods) incidence matrix per type and totals the mass
    each type must route.  Types with a single admissible bundle are folded
    into the fixed base allocation.  The others, the free types, form one
    fixed-mass FlowProgram over all goods, started from even splits.

    Returns (list of per-type split vectors, allocation vector y).
    """
    n_goods = masks[0].shape[1] if masks else len(cost_fns)
    base = np.zeros(n_goods)
    splits = [np.zeros(m.shape[0]) for m in masks]
    free = []
    for i, (m, tot) in enumerate(zip(masks, totals)):
        if tot <= 0.0:
            continue
        if m.shape[0] == 1:
            splits[i][0] = tot
            base = base + tot * m[0]
        else:
            free.append(i)
    if not free:
        return splits, base

    sizes = np.array([masks[i].shape[0] for i in free])
    masses = np.array([totals[i] for i in free], dtype=float)
    stacked = np.vstack([masks[i] for i in free])
    program = FlowProgram(stacked, sizes, _cost_batch(tuple(cost_fns)), masses=masses, base=base)
    z = np.repeat(masses / sizes, sizes)
    for _ in range(ROUNDS):
        z = _run_newton(program, z, _SPLIT_STEPS)
        # The used-bundle spread, as split_kkt_violation measures it.
        if np.max(-program.gradient(z), where=z > SPLIT_DUST, initial=0.0) <= 0.1 * KKT_TOL:
            break
    for i, part in zip(free, np.split(z, program.offsets[1:-1])):
        splits[i] = part
    return splits, program.allocation(z)


def min_cost_allocation(inst: MarketInstance, prices: dict[str, float], demand):
    """Cheapest way to serve the given demand using only argmin-priced bundles.

    demand maps type id -> mass and is expected to be a best response to the
    prices.  Returns (split dict, allocation dict).
    """
    pvec = inst.price_vector(prices)
    _, cheapest, tied = _bundle_prices(inst, pvec)
    xvec = np.array([float(demand[tid]) for tid in inst.type_ids])
    sol = _solution(inst, pvec, cheapest, xvec, *_min_cost_split(inst, tied, xvec))
    return sol.split, sol.allocation


def _min_cost_split(inst: MarketInstance, tied, totals):
    """min_cost_allocation over the stacked tie mask tied, one mass per type.

    Returns (z, y): the split in stacked_masks row order, zero off the tied
    rows, and the allocation vector.
    """
    rows = inst.stacked_masks[tied]
    # A type's tied rows end at the running count of tied rows on its last row.
    ends = np.cumsum(tied)[inst.bundle_offsets[1:] - 1].tolist()
    masks = [rows[start:end] for start, end in zip([0, *ends], ends)]
    splits, y = split_min_cost(inst.cost_functions, masks, totals)
    z = np.zeros(len(tied))
    z[tied] = np.concatenate(splits)
    return z, y


def _solution(inst: MarketInstance, pvec, cheapest, xvec, z, yvec) -> PricingSolution:
    """The PricingSolution of posting pvec, the one place that builds one.

    cheapest is each type's cheapest bundle price at pvec, xvec the types'
    demand, z the split in stacked_masks row order (entries up to SPLIT_DUST
    are dropped) and yvec the allocation.  Welfare and profit are measured
    with the instance's own costs.
    """
    cost = inst.total_cost(yvec)
    utility = float(np.sum(inst.demand_batch.utility_integral(xvec)))
    used = np.flatnonzero(z > SPLIT_DUST)
    return PricingSolution(
        prices=inst.prices_dict(pvec),
        demand=dict(zip(inst.type_ids, xvec.tolist())),
        split=dict(zip([inst.bundle_keys[r] for r in used], z[used].tolist())),
        allocation=inst.prices_dict(yvec),
        sw=float(utility - cost),
        profit=float(pvec @ yvec) - cost,
        paid=dict(zip(inst.type_ids, cheapest.tolist())),
    )


def evaluate(inst: MarketInstance, prices: dict[str, float]) -> PricingSolution:
    """Full market outcome at the posted prices."""
    pvec = inst.price_vector(prices)
    _, cheapest, tied = _bundle_prices(inst, pvec)
    xvec = inst.demand_batch.demand_at_price(cheapest)
    return _solution(inst, pvec, cheapest, xvec, *_min_cost_split(inst, tied, xvec.tolist()))


def buyer_marginal_costs(
    inst: MarketInstance, allocation: dict[str, float], split=None
) -> dict[str, float]:
    """Per-type marginal cost of one extra unit at the given allocation.

    In a cost-minimal solution every bundle a type actually uses carries the
    same marginal-cost sum, so this is well defined up to solver tolerance;
    the minimum over used bundles is reported.  Types using nothing fall back
    to the cheapest bundle by marginal cost.
    """
    yvec = np.array([allocation[g] for g in inst.good_ids])
    sums = inst.stacked_masks @ inst.marginal_vector(yvec)
    starts = inst.bundle_offsets[:-1]
    best = np.minimum.reduceat(sums, starts)
    if split is not None:
        used = np.zeros(len(sums), dtype=bool)
        used[[inst.bundle_rows[key] for key, v in split.items() if v > SPLIT_DUST]] = True
        best_used = np.minimum.reduceat(np.where(used, sums, np.inf), starts)
        best = np.where(np.logical_or.reduceat(used, starts), best_used, best)
    return dict(zip(inst.type_ids, best.tolist()))


def split_kkt_violation(inst: MarketInstance, allocation, split, admissible=None) -> float:
    """Largest gap between a used bundle's marginal-cost sum and the type's best.

    Zero (up to KKT_TOL) certifies the split is cost minimal.  admissible may
    map type id -> the bundles the split was allowed to use (e.g. only the
    argmin-priced ones); by default every bundle of the type competes.
    """
    yvec = np.array([allocation[g] for g in inst.good_ids])
    sums = inst.stacked_masks @ inst.marginal_vector(yvec)
    used = np.zeros(len(sums), dtype=bool)
    used[[inst.bundle_rows[key] for key, v in split.items() if v > SPLIT_DUST]] = True
    allowed = sums
    if admissible is not None:
        allowed = np.full(len(sums), np.inf)
        rows = [inst.bundle_rows[(tid, b)] for tid, bs in admissible.items() for b in bs]
        allowed[rows] = sums[rows]
    best = np.minimum.reduceat(allowed, inst.bundle_offsets[:-1])
    gaps = sums - np.repeat(best, inst.bundle_sizes)
    return float(np.max(gaps, where=used, initial=0.0))
