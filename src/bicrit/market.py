"""Market instances, envy-free buyer response, and minimum-cost allocation.

A market couples goods (each with a production cost) and buyer types (each
with a set of acceptable bundles and an inverse demand curve).  Populations
are continuous: demand quantities are real masses of infinitesimal buyers.

An instance caches its struct-of-arrays forms: every type's bundles stacked
into one incidence matrix (rows of type i from bundle_offsets[i]), and its
curves and costs compiled into a DemandBatch and a CostBatch.  Bundle
prices, envy-free demand and welfare are computed over these in one pass
per price vector, not type by type.

The min-cost split solves each connected component of the goods that the
types free to split touch by active-set Newton, and stops only when
split_kkt_violation's used-bundle spread is at most 0.1 * KKT_TOL.
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
    def bundle_rows(self) -> dict[tuple[str, tuple[str, ...]], int]:
        """(type id, bundle) -> its row of stacked_masks."""
        keys = ((t.type_id, b) for t in self.buyer_types for b in t.bundles)
        return {key: row for row, key in enumerate(keys)}

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


def _argmin_bundle_sets(inst, tied):
    """Per type: indices of its bundles in the stacked tie mask tied."""
    offsets = inst.bundle_offsets
    return [np.flatnonzero(tied[offsets[i] : offsets[i + 1]]) for i in range(len(offsets) - 1)]


def argmin_bundles(inst: MarketInstance, prices: dict[str, float]):
    """Per type id, the bundles tied at the cheapest price."""
    _, _, tied = _bundle_prices(inst, inst.price_vector(prices))
    return {
        t.type_id: [t.bundles[j] for j in sets]
        for t, sets in zip(inst.buyer_types, _argmin_bundle_sets(inst, tied))
    }


@lru_cache(maxsize=16)
def _cost_batch(cost_fns: tuple[CostFunction, ...]) -> CostBatch:
    """CostBatch of cost_fns, compiled once per set of costs."""
    return CostBatch(cost_fns)


def split_min_cost(cost_fns, masks, totals):
    """Distribute each type's total mass over its admissible bundles at least cost.

    masks is one (m_i, n_goods) incidence matrix per type and totals the mass
    each type must route.  Types with a single admissible bundle are folded
    into the fixed base allocation.  The others, the free types, are grouped
    by connected component of the goods their bundles touch; costs are
    separable over goods, so _newton_split solves each component apart.

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
    stacked = np.vstack([masks[i] for i in free])
    owner = np.repeat(np.arange(len(free)), sizes)
    rows, cols = np.nonzero(stacked)
    good_label = _linked_goods(n_goods, owner[rows], cols)
    # np.nonzero lists the entries row by row, so each type's entries form
    # one run; all its goods share a label, the label of its first.
    type_label = good_label[cols[np.searchsorted(owner[rows], np.arange(len(free)))]]
    y = base.copy()
    for comp in np.unique(type_label):
        members = np.flatnonzero(type_label == comp)
        goods = np.flatnonzero(good_label == comp)
        mask = stacked[np.ix_(type_label[owner] == comp, goods)]
        costs = CostBatch([cost_fns[g] for g in goods])
        masses = np.array([totals[free[k]] for k in members])
        z = _newton_split(costs, mask, base[goods], sizes[members], masses)
        y[goods] += mask.T @ z
        for k, part in zip(members, np.split(z, np.cumsum(sizes[members])[:-1])):
            splits[free[k]] = part
    return splits, y


def _linked_goods(n_goods, owner, goods):
    """Component label of each good, linking the goods that one owner touches.

    owner[e] and goods[e] are the incidence's nonzeros.  The label is the
    component's root good, found by union-find with union by size and path
    halving: no recursion, and near-linear time in the nonzeros.
    """
    parent = list(range(n_goods))
    size = [1] * n_goods

    def find(g):
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    first = {}
    for o, g in zip(owner.tolist(), goods.tolist()):
        a, b = find(first.setdefault(o, g)), find(g)
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
    return np.array([find(g) for g in range(n_goods)], dtype=np.intp)


def _newton_split(costs, mask, base, sizes, totals):
    """Active-set Newton for min sum C(base + mask^T z), z >= 0, block sums = totals.

    z holds each type's bundle masses, sizes[i] of them per type.  Each step
    solves the equality-constrained Newton system over the working set W, the
    used bundles plus those at their type's cheapest marginal-cost sum: the
    Hessian is mask_W diag(c'(y)) mask_W^T and each type's mass stays fixed.
    Armijo backtracking then searches along the projection arc: the step is
    clipped at z >= 0 and each block rescaled to its exact total, so one step
    can empty many bundles, where a ratio test would stop at the first, and a
    zero-mass bundle that the step would drive negative just stays at zero.
    The loop ends only on the used-bundle spread, never on a small change in
    cost.
    """
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    z = np.repeat(totals / sizes, sizes)
    for _ in range(500):  # a safety cap: no component has needed over 14 steps
        y = base + mask.T @ z
        sums = mask @ costs.marginal(y)
        if _used_spread(sums, z > SPLIT_DUST, starts) <= 0.1 * KKT_TOL:
            break
        # Each bundle's excess over its type's cheapest: the gradient, less
        # a per-type constant that the fixed masses make irrelevant.
        gaps = sums - np.repeat(np.minimum.reduceat(sums, starts), sizes)
        work = (z > 0.0) | (gaps == 0.0)
        d = _newton_direction(mask, costs.slope(y), gaps, work, z, starts, owner)
        if not gaps @ d < 0.0:
            break
        step = 1.0
        cost = float(costs.total(y).sum())
        while True:
            z_new = np.maximum(z + step * d, 0.0)
            z_new *= np.repeat(totals / np.add.reduceat(z_new, starts), sizes)
            cost_new = float(costs.total(base + mask.T @ z_new).sum())
            # The slack is rounding in the cost sums: near the optimum a
            # Newton step's decrease falls below it.
            if cost_new <= cost + 1e-4 * float(gaps @ (z_new - z)) + 1e-15 * cost:
                break
            step *= 0.5
        z = z_new
    return z


def _newton_direction(mask, curvature, gaps, work, z, starts, owner):
    """Newton step on the working set: zero outside it, zero net mass per type.

    Mass moves between each type's largest bundle and its other working
    bundles, so every block keeps its total.  Exchanges between types that
    leave y unchanged make the system singular; least squares takes the
    smallest such step.
    """
    ref = np.lexsort((-z, owner))[starts]
    w = np.flatnonzero(work)
    w = w[w != ref[owner[w]]]
    r = ref[owner[w]]
    rows = mask[w] - mask[r]
    u = np.linalg.lstsq((rows * curvature) @ rows.T, gaps[r] - gaps[w], rcond=None)[0]
    d = np.zeros(len(z))
    d[w] = u
    d[ref] = -np.bincount(owner[w], weights=u, minlength=len(starts))
    return d


def _used_spread(sums, used, starts, allowed=None):
    """Largest gap between a used bundle's marginal-cost sum and its type's cheapest.

    sums holds every bundle's marginal-cost sum, each type's bundles in one
    run from starts; allowed, if given, masks the bundles the cheapest is
    taken over.  Zero certifies that the split is cost minimal.
    """
    best = np.minimum.reduceat(sums if allowed is None else np.where(allowed, sums, np.inf), starts)
    gaps = sums - np.repeat(best, np.diff(starts, append=len(sums)))
    return float(np.max(gaps, where=used, initial=0.0))


def min_cost_allocation(inst: MarketInstance, prices: dict[str, float], demand):
    """Cheapest way to serve the given demand using only argmin-priced bundles.

    demand maps type id -> mass and is expected to be a best response to the
    prices.  Returns (split dict, allocation dict).
    """
    _, _, tied = _bundle_prices(inst, inst.price_vector(prices))
    return _min_cost_split(inst, tied, [float(demand[t.type_id]) for t in inst.buyer_types])


def _min_cost_split(inst: MarketInstance, tied, totals):
    """min_cost_allocation over the stacked tie mask tied, one mass per type."""
    sets = _argmin_bundle_sets(inst, tied)
    masks = [full_mask[rows] for full_mask, rows in zip(inst.bundle_masks, sets)]
    splits, y = split_min_cost(inst.cost_functions, masks, totals)
    split_dict = {}
    for t, rows, sp in zip(inst.buyer_types, sets, splits):
        for j, v in zip(rows, sp):
            if v > SPLIT_DUST:
                split_dict[(t.type_id, t.bundles[j])] = float(v)
    return split_dict, inst.prices_dict(y)


def evaluate(inst: MarketInstance, prices: dict[str, float]) -> PricingSolution:
    """Full market outcome at the posted prices."""
    pvec = inst.price_vector(prices)
    _, cheapest, tied = _bundle_prices(inst, pvec)
    xvec = inst.demand_batch.demand_at_price(cheapest)
    type_ids = [t.type_id for t in inst.buyer_types]
    demand = dict(zip(type_ids, xvec.tolist()))
    split, allocation = _min_cost_split(inst, tied, xvec.tolist())
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
    sums = inst.stacked_masks @ inst.marginal_vector(yvec)
    used = np.zeros(len(sums), dtype=bool)
    used[[inst.bundle_rows[key] for key, v in split.items() if v > SPLIT_DUST]] = True
    allowed = None
    if admissible is not None:
        allowed = np.zeros(len(sums), dtype=bool)
        allowed[[inst.bundle_rows[(tid, b)] for tid, bs in admissible.items() for b in bs]] = True
    return _used_spread(sums, used, inst.bundle_offsets[:-1], allowed)
