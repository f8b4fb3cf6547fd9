"""Market instances, envy-free buyer response, and minimum-cost allocation.

A market couples goods (each with a production cost) and buyer types (each
with a set of acceptable bundles and an inverse demand curve).  Populations
are continuous: demand quantities are real masses of infinitesimal buyers.

An instance caches its struct-of-arrays forms: every type's bundles stacked
into one incidence matrix (rows of type i from bundle_offsets[i]), and its
curves and costs compiled into a DemandBatch and a CostBatch.  Bundle
prices, envy-free demand, welfare and the min-cost split are computed over
these in one pass per price vector, not type by type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .costs import CostBatch, CostFunction
from .demand import DemandBatch, InverseDemand

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
    def bundle_masks(self) -> tuple[np.ndarray, ...]:
        """Per type, a (bundle count, good count) 0/1 incidence matrix."""
        n = len(self.goods)
        masks = []
        for t in self.buyer_types:
            m = np.zeros((len(t.bundles), n))
            for j, b in enumerate(t.bundles):
                for g in b:
                    m[j, self.good_index[g]] = 1.0
            masks.append(m)
        return tuple(masks)

    @cached_property
    def bundle_sizes(self) -> np.ndarray:
        return np.array([len(t.bundles) for t in self.buyer_types])

    @cached_property
    def bundle_offsets(self) -> np.ndarray:
        """Row of stacked_masks where each type's bundles start, then the row count."""
        return np.concatenate([[0], np.cumsum(self.bundle_sizes)])

    @cached_property
    def stacked_masks(self) -> np.ndarray:
        """Every type's bundle_masks, stacked in type order."""
        return np.vstack(self.bundle_masks)

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

    def demand_vector(self, inst: MarketInstance) -> np.ndarray:
        return np.array([self.demand[t.type_id] for t in inst.buyer_types])

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
            sums = inst.bundle_masks[idx] @ pvec
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
    This is the one tie rule: _argmin_bundle_sets (hence min_cost_allocation
    and evaluate), oracle._sweep and oracle.oracle_min_split_cost all decide
    ties with it, so the oracles audit exactly the bundle sets the optimizing
    code splits over; _bundle_prices applies the same band to all types at
    once.
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


def _argmin_bundle_sets(inst, pvec):
    """Per type: indices of the bundles tied at the cheapest price."""
    _, _, tied = _bundle_prices(inst, pvec)
    offsets = inst.bundle_offsets
    return [np.flatnonzero(tied[offsets[i] : offsets[i + 1]]) for i in range(len(offsets) - 1)]


def argmin_bundles(inst: MarketInstance, prices: dict[str, float]):
    """Per type id, the bundles tied at the cheapest price."""
    pvec = inst.price_vector(prices)
    return {
        t.type_id: [t.bundles[j] for j in tied]
        for t, tied in zip(inst.buyer_types, _argmin_bundle_sets(inst, pvec))
    }


@lru_cache(maxsize=16)
def _cost_batch(cost_fns: tuple[CostFunction, ...]) -> CostBatch:
    """CostBatch of cost_fns, compiled once per set of costs."""
    return CostBatch(cost_fns)


def split_min_cost(cost_fns, masks, totals):
    """Distribute each type's total mass over its admissible bundles at least cost.

    masks is one (m_i, n_goods) incidence matrix per type and totals the mass
    each type must route.  Types with a single admissible bundle are folded
    into the fixed base allocation; the rest are optimized by projected
    gradient on the product of scaled simplices.  Costs and gradients are
    evaluated over all goods at once (a CostBatch of cost_fns), and the
    blocks of each size are projected together, as the rows of one matrix.

    Returns (list of per-type split vectors, allocation vector y).
    """
    costs = _cost_batch(tuple(cost_fns))
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

    block_totals = np.array([totals[i] for i in free])
    sizes = np.array([masks[i].shape[0] for i in free])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    starts = offsets[:-1]
    stacked = np.vstack([masks[i] for i in free])
    groups = _size_groups(starts, sizes, block_totals)

    def allocation(z):
        return base + stacked.T @ z

    def cost(y):
        return float(costs.total(y).sum())

    def grad(y):
        return stacked @ costs.marginal(y)

    def used_spread(z, y):
        # Largest gap between a used bundle's marginal-cost sum and the
        # type's cheapest; zero certifies optimality.
        sums = grad(y)
        cheapest = np.minimum.reduceat(sums, starts)
        used_max = np.maximum.reduceat(np.where(z > SPLIT_DUST, sums, -np.inf), starts)
        return max(0.0, float(np.max(used_max - cheapest)))

    z = np.repeat(block_totals / sizes, sizes)
    y = allocation(z)
    f = cost(y)
    step = 1.0
    stalled = 0
    for _ in range(10_000):
        g = grad(y)
        while True:
            z_new = _project_blocks(z - step * g, groups)
            dz = z_new - z
            sq = float(dz @ dz)
            if sq == 0.0:
                break
            y_new = allocation(z_new)
            f_new = cost(y_new)
            if f_new <= f + float(g @ dz) + sq / (2.0 * step) + 1e-18:
                break
            step *= 0.5
        if sq == 0.0:
            break
        improved = f - f_new
        z, y, f = z_new, y_new, f_new
        step *= 1.25
        # A vanishing objective improvement alone is not proof of optimality:
        # stop only once the used bundles' marginal sums have equalized too.
        if improved < 1e-10 * (1.0 + abs(f)):
            stalled += 1
            if stalled > 2000 or used_spread(z, y) <= 0.1 * KKT_TOL:
                break
        else:
            stalled = 0

    for k, i in enumerate(free):
        splits[i] = z[offsets[k] : offsets[k + 1]]
    return splits, allocation(z)


def _size_groups(starts, sizes, totals):
    """Per block size: the positions of those blocks (one row each) and their totals."""
    return [
        (starts[sizes == s][:, None] + np.arange(s), totals[sizes == s])
        for s in np.unique(sizes)
    ]


def _project_blocks(z, groups):
    """Project each block of z onto its scaled simplex, one matrix per block size."""
    out = np.empty_like(z)
    for rows, row_totals in groups:
        out[rows] = _project_rows(z[rows], row_totals)
    return out


def _project_rows(v: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto {w >= 0, sum w = its total}."""
    u = np.sort(v, axis=1)[:, ::-1]
    cumsum = u.cumsum(axis=1) - totals[:, None]
    positive = u - cumsum / np.arange(1, v.shape[1] + 1) > 0
    # rho: the last position where the sorted row stays above its threshold.
    rho = v.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = cumsum[np.arange(len(rho)), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def min_cost_allocation(inst: MarketInstance, prices: dict[str, float], demand):
    """Cheapest way to serve the given demand using only argmin-priced bundles.

    demand maps type id -> mass and is expected to be a best response to the
    prices.  Returns (split dict, allocation dict).
    """
    pvec = inst.price_vector(prices)
    argmins = _argmin_bundle_sets(inst, pvec)
    masks = []
    keys = []
    totals = []
    for t, full_mask, tied in zip(inst.buyer_types, inst.bundle_masks, argmins):
        masks.append(full_mask[tied])
        keys.append([t.bundles[j] for j in tied])
        totals.append(float(demand[t.type_id]))
    splits, y = split_min_cost(inst.cost_functions, masks, totals)
    split_dict = {}
    for t, ks, sp in zip(inst.buyer_types, keys, splits):
        for b, v in zip(ks, sp):
            if v > SPLIT_DUST:
                split_dict[(t.type_id, b)] = float(v)
    return split_dict, inst.prices_dict(y)


def evaluate(inst: MarketInstance, prices: dict[str, float]) -> PricingSolution:
    """Full market outcome at the posted prices."""
    pvec = inst.price_vector(prices)
    _, cheapest, _ = _bundle_prices(inst, pvec)
    xvec = inst.demand_batch.demand_at_price(cheapest)
    type_ids = [t.type_id for t in inst.buyer_types]
    demand = dict(zip(type_ids, xvec.tolist()))
    split, allocation = min_cost_allocation(inst, prices, demand)
    yvec = np.array([allocation[g] for g in inst.good_ids])
    utility = float(np.sum(inst.demand_batch.utility_integral(xvec)))
    cost = inst.total_cost(yvec)
    income = float(pvec @ yvec)
    return PricingSolution(
        prices={g: float(prices[g]) for g in inst.good_ids},
        demand=demand,
        split=split,
        allocation=allocation,
        sw=float(utility - cost),
        profit=income - cost,
        paid=dict(zip(type_ids, cheapest.tolist())),
    )


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
    marg = inst.marginal_vector(yvec)
    out = {}
    for t, mask in zip(inst.buyer_types, inst.bundle_masks):
        sums = mask @ marg
        used = None
        if split is not None:
            used = [j for j, b in enumerate(t.bundles) if split.get((t.type_id, b), 0.0) > SPLIT_DUST]
        if used:
            out[t.type_id] = float(min(sums[j] for j in used))
        else:
            out[t.type_id] = float(np.min(sums))
    return out


def split_kkt_violation(inst: MarketInstance, allocation, split, admissible=None) -> float:
    """Largest gap between a used bundle's marginal-cost sum and the type's best.

    Zero (up to KKT_TOL) certifies the split is cost minimal.  admissible may
    map type id -> the bundles the split was allowed to use (e.g. only the
    argmin-priced ones); by default every bundle of the type competes.
    """
    yvec = np.array([allocation[g] for g in inst.good_ids])
    marg = inst.marginal_vector(yvec)
    worst = 0.0
    for t, mask in zip(inst.buyer_types, inst.bundle_masks):
        sums = mask @ marg
        if admissible is not None:
            allowed = set(admissible[t.type_id])
            candidates = [float(sums[j]) for j, b in enumerate(t.bundles) if b in allowed]
        else:
            candidates = [float(s) for s in sums]
        best = min(candidates)
        for j, b in enumerate(t.bundles):
            if split.get((t.type_id, b), 0.0) > SPLIT_DUST:
                worst = max(worst, float(sums[j]) - best)
    return worst
