"""Brute-force reference for tiny instances.

An exhaustive sweep over a price grid backs the optimizing code: demand
responses stay exact; only prices are discretized.  It decides bundle ties
with market._bundle_prices, the rule evaluate splits over.  It is
deterministic: it enumerates price vectors lexicographically and ties
resolve to the first maximizer.

The price sweep values every grid point in one vectorized pass, through the
instance's DemandBatch and CostBatch, the one evaluation kernel of each
family, as evaluate does.  Where every type has a single cheapest bundle,
the allocation is forced and the pass computes it exactly; only grid points
where some type ties two or more bundles, whose allocation the pass averages
over the tie, are re-evaluated with evaluate's min-cost split, and only among
the top candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import MarketInstance, _bundle_prices, evaluate
from .tolerances import GRID_TIE

__all__ = [
    "GridSpec",
    "OracleCapError",
    "oracle_max_profit",
    "oracle_max_welfare",
]

# The best grid point is chosen among this many top candidates of the sweep:
# exact re-evaluation repairs the cost the sweep overstates on tied points.
_REFINE_TOP = 16
# The sweep refuses instances with more goods or more types than this.
MAX_GOODS = 3
MAX_TYPES = 3
# ... and price grids of more entries (grid points times goods) than this:
# verify's largest grids hold 27,783 (3 goods at lambda_max / 20) and 20,402
# (2 goods at lambda_max / 100), and the sweep keeps a few arrays that size.
MAX_GRID_ENTRIES = 1_000_000


class OracleCapError(ValueError):
    """Instance too large for exhaustive search."""


@dataclass
class GridSpec:
    """Price resolution of the brute-force sweeps."""

    price_step: float | None = None

    def resolve_price_step(self, lambda_max: float) -> float:
        step = self.price_step if self.price_step is not None else lambda_max / 100.0
        if not 0 < step < math.inf:
            raise ValueError("price step must be finite and positive")
        return step

    def levels(self, lambda_max: float) -> int:
        """Price steps per good, at most MAX_GRID_ENTRIES: levels + 1 prices from 0 to lambda_max."""
        return max(1, round(min(lambda_max / self.resolve_price_step(lambda_max), MAX_GRID_ENTRIES)))

    def check_caps(self, inst: MarketInstance):
        goods = len(inst.goods)
        if goods > MAX_GOODS:
            raise OracleCapError(f"{goods} goods exceed the oracle cap {MAX_GOODS}")
        if len(inst.buyer_types) > MAX_TYPES:
            raise OracleCapError(
                f"{len(inst.buyer_types)} types exceed the oracle cap {MAX_TYPES}"
            )
        n = self.levels(inst.lambda_max)  # counted before any grid is built
        if (n + 1) ** goods * goods > MAX_GRID_ENTRIES:
            raise OracleCapError(
                f"a grid of {n + 1} prices on each of {goods} goods exceeds the oracle "
                f"cap of {MAX_GRID_ENTRIES} entries"
            )


def _price_grid(inst: MarketInstance, grid: GridSpec) -> np.ndarray:
    lam = inst.lambda_max
    values = np.linspace(0.0, lam, grid.levels(lam) + 1)
    mesh = np.meshgrid(*([values] * len(inst.goods)), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(inst.goods))


def _sweep(inst: MarketInstance, grid: GridSpec):
    """Vectorized (social welfare, profit) for every grid price vector.

    Demand is the exact envy-free response.  Returns the grid, both values
    and the mask of split rows: grid points where some type ties two or more
    bundles.  There the allocation averages over the tied bundles, which can
    only overstate cost, so _refine re-evaluates them exactly.  On every other
    row each type buys its one cheapest bundle, so the allocation is the one
    evaluate finds, accumulated type by type as evaluate's is.  Demand,
    utility and cost come from the instance's DemandBatch and CostBatch with
    one row per grid point, and sum over the last axis as evaluate's do, so
    the welfare there is evaluate's bit for bit.  Its profit (sum of q x, not
    p . y) agrees to rounding.
    """
    grid.check_caps(inst)
    P = _price_grid(inst, grid)
    cheapest, tied = _bundle_prices(inst, P)
    # Types and goods first in memory, so that the kernels' broadcasts run
    # long inner loops (see CostBatch).
    cheapest = np.asfortranarray(cheapest)
    X = inst.demand_batch.demand_at_price(cheapest)
    utility = inst.demand_batch.utility_integral(X).sum(axis=-1)
    Y = np.zeros_like(P, order="F")
    income = np.zeros(P.shape[0])
    split = np.zeros(P.shape[0], dtype=bool)
    masks = inst.stacked_masks
    offsets = inst.bundle_offsets
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        x = X[:, i]
        income += cheapest[:, i] * x
        if hi - lo == 1:
            # Weight 1 on the one bundle: its goods' columns take x as is,
            # which is also far cheaper than broadcasting x over every good.
            for k in np.flatnonzero(masks[lo]):
                Y[:, k] += x
        else:
            counts = tied[:, lo:hi].sum(axis=1)
            split |= counts > 1
            Y += x[:, None] * ((tied[:, lo:hi] / counts[:, None]) @ masks[lo:hi])
    del cheapest, tied, X, x  # freed before the cost's temporaries, for the same reason
    cost = inst.cost_batch.total(Y).sum(axis=-1)
    return P, utility - cost, income - cost, split


def _top_indices(values, k: int):
    """argsort(-values, kind="stable")[:k] without sorting the whole array.

    Every value at or above the k-th largest, found by np.partition, then a
    stable sort of those only, which keeps equal values in index order.
    """
    if len(values) <= k:
        return np.argsort(-values, kind="stable")
    kth = np.partition(values, len(values) - k)[len(values) - k]
    candidates = np.flatnonzero(values >= kth)
    return candidates[np.argsort(-values[candidates], kind="stable")][:k]


def _refine(inst: MarketInstance, P, values, split, objective: str):
    """The best of the top grid candidates: (value, price vector).

    Only candidates on split rows are re-evaluated with evaluate; on the rest
    the sweep's value is already exact.  The first of equal values wins.
    The price vector is a copy of its grid row, so it does not hold the grid.
    """
    best_value, best_row = -np.inf, None
    for idx in _top_indices(values, _REFINE_TOP):
        value = values[idx]
        if split[idx]:
            sol = evaluate(inst, P[idx])
            value = sol.sw if objective == "sw" else sol.profit
        if value > best_value + GRID_TIE:
            best_value, best_row = value, idx
    return float(best_value), None if best_row is None else P[best_row].copy()


def oracle_max_welfare(inst: MarketInstance, grid: GridSpec | None = None):
    """Best social welfare over the price grid: (welfare, price vector)."""
    grid = grid or GridSpec()
    P, sw, _, split = _sweep(inst, grid)
    return _refine(inst, P, sw, split, "sw")


def oracle_max_profit(inst: MarketInstance, grid: GridSpec | None = None):
    """Best profit over the price grid: (profit, price vector)."""
    grid = grid or GridSpec()
    P, _, profit, split = _sweep(inst, grid)
    return _refine(inst, P, profit, split, "profit")
