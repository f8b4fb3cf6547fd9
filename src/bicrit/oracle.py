"""Brute-force references for tiny instances.

Two independent checks back the optimizing code: an exhaustive sweep over a
price grid (demand responses stay exact; only prices are discretized) and an
exhaustive enumeration of bundle splits on a fraction grid (to audit the
minimum-cost allocation).  Both are deterministic: sweeps enumerate price
vectors lexicographically and ties resolve to the first maximizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .market import (
    MarketInstance,
    evaluate,
    tied_bundles,
)

__all__ = [
    "GridSpec",
    "OracleCapError",
    "oracle_max_profit",
    "oracle_max_welfare",
    "oracle_min_split_cost",
]

# Exact re-evaluation is run on this many top grid candidates, which repairs
# the slight cost overestimate the fast pass makes on tied-price points.
_REFINE_TOP = 16

_MAX_SPLIT_COMBOS = 3_000_000


class OracleCapError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass
class GridSpec:
    """Resolution and size caps for the brute-force sweeps."""

    price_step: float | None = None
    split_step: float | None = None
    max_goods: int = 3
    max_types: int = 3

    def resolve_price_step(self, lambda_max: float) -> float:
        step = self.price_step if self.price_step is not None else lambda_max / 100.0
        if not step > 0:
            raise ValueError("price step must be positive")
        return step

    def check_caps(self, inst: MarketInstance):
        if len(inst.goods) > self.max_goods:
            raise OracleCapError(
                f"{len(inst.goods)} goods exceed the oracle cap {self.max_goods}"
            )
        if len(inst.buyer_types) > self.max_types:
            raise OracleCapError(
                f"{len(inst.buyer_types)} types exceed the oracle cap {self.max_types}"
            )


def _price_grid(inst: MarketInstance, grid: GridSpec) -> np.ndarray:
    lam = inst.lambda_max
    step = grid.resolve_price_step(lam)
    n = max(1, int(round(lam / step)))
    values = np.linspace(0.0, lam, n + 1)
    mesh = np.meshgrid(*([values] * len(inst.goods)), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(inst.goods))


def _sweep(inst: MarketInstance, grid: GridSpec):
    """Vectorized (social welfare, profit) for every grid price vector.

    Demand is the exact envy-free response.  On tied cheapest bundles the
    allocation averages over the tied bundles, which can only overstate cost;
    the caller re-evaluates its top candidates exactly.
    """
    grid.check_caps(inst)
    P = _price_grid(inst, grid)
    n_combos = P.shape[0]
    Y = np.zeros_like(P)
    utility = np.zeros(n_combos)
    income = np.zeros(n_combos)
    offsets = inst.bundle_offsets
    for t, lo, hi in zip(inst.buyer_types, offsets[:-1], offsets[1:]):
        mask = inst.stacked_masks[lo:hi]
        sums = P @ mask.T
        q = sums.min(axis=1)
        d = t.demand
        with np.errstate(divide="ignore", over="ignore"):
            x = np.where(
                q >= d.lambda_max,
                0.0,
                np.where(
                    q <= 0.0,
                    d.support_ceiling,
                    d._inverse_clamped(np.clip(q, 1e-300, d.lambda_max)),
                ),
            )
        tied = tied_bundles(sums, inst.lambda_max)
        weights = tied / tied.sum(axis=1, keepdims=True)
        Y += x[:, None] * (weights @ mask)
        utility += d.utility_integral(x)
        income += q * x
    cost = np.zeros(n_combos)
    for k, c in enumerate(inst.cost_functions):
        cost += c.total(Y[:, k])
    return P, utility - cost, income - cost


def _refine(inst: MarketInstance, P, values, objective: str):
    """Exactly re-evaluate the top grid candidates and return the best."""
    top = np.argsort(-values, kind="stable")[:_REFINE_TOP]
    best_value, best_prices = -np.inf, None
    for idx in top:
        prices = inst.prices_dict(P[idx])
        sol = evaluate(inst, prices)
        value = sol.sw if objective == "sw" else sol.profit
        if value > best_value + 1e-15:
            best_value, best_prices = value, prices
    return best_value, best_prices


def oracle_max_welfare(inst: MarketInstance, grid: GridSpec | None = None):
    """Best social welfare over the price grid: (welfare, prices)."""
    grid = grid or GridSpec()
    P, sw, _ = _sweep(inst, grid)
    return _refine(inst, P, sw, "sw")


def oracle_max_profit(inst: MarketInstance, grid: GridSpec | None = None):
    """Best profit over the price grid: (profit, prices)."""
    grid = grid or GridSpec()
    P, _, profit = _sweep(inst, grid)
    return _refine(inst, P, profit, "profit")


def _compositions(total_levels: int, parts: int):
    """All non-negative integer vectors of the given length summing to total_levels."""
    for cuts in itertools.combinations(range(total_levels + parts - 1), parts - 1):
        prev = -1
        comp = []
        for c in cuts:
            comp.append(c - prev - 1)
            prev = c
        comp.append(total_levels + parts - 2 - prev)
        yield comp


def oracle_min_split_cost(
    inst: MarketInstance,
    prices: dict[str, float],
    demand: dict[str, float],
    levels: int = 100,
) -> float:
    """Cheapest total cost over a fraction grid of argmin-bundle splits.

    Each type's demand is distributed over its cheapest-priced bundles (tied
    by the same rule min_cost_allocation uses) in multiples of demand/levels;
    all combinations across types are enumerated.
    An upper bound on the true minimum cost within O(levels^-2).
    """
    pvec = inst.price_vector(prices)
    per_type = []
    n = len(inst.good_ids)
    offsets = inst.bundle_offsets
    for t, lo, hi in zip(inst.buyer_types, offsets[:-1], offsets[1:]):
        mask = inst.stacked_masks[lo:hi]
        x = float(demand[t.type_id])
        tied = np.flatnonzero(tied_bundles(mask @ pvec, inst.lambda_max))
        if x <= 0.0:
            per_type.append(np.zeros((1, n)))
            continue
        if len(tied) == 1:
            per_type.append((x * mask[tied[0]])[None, :])
            continue
        comps = np.array(list(_compositions(levels, len(tied))), dtype=float)
        per_type.append((comps / levels * x) @ mask[tied])
    combos = math.prod(a.shape[0] for a in per_type)
    if combos > _MAX_SPLIT_COMBOS:
        raise OracleCapError(f"{combos} split combinations exceed the enumeration cap")
    Y = per_type[0]
    for block in per_type[1:]:
        Y = (Y[:, None, :] + block[None, :, :]).reshape(-1, n)
    cost = np.zeros(Y.shape[0])
    for k, c in enumerate(inst.cost_functions):
        cost += c.total(Y[:, k])
    return float(cost.min())
