"""Reference min-cost split for tests: exhaustive enumeration on a fraction grid.

The min-cost split (market.split_min_cost) is compared with this brute
force: every type's demand is spread over its tied bundles, as decided by
market._bundle_prices, in every combination of multiples of demand/levels.
"""

import itertools
import math

import numpy as np

from bicrit.market import MarketInstance, _bundle_prices
from bicrit.oracle import OracleCapError

# The enumeration refuses more split combinations than this.
_MAX_SPLIT_COMBOS = 3_000_000


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
    pvec,
    demand,
    levels: int = 100,
) -> float:
    """Cheapest total cost over a fraction grid of argmin-bundle splits.

    Each type's demand (one entry per type) is distributed over its
    cheapest-priced bundles at the price vector pvec (tied by the same rule
    min_cost_allocation uses) in multiples of demand/levels;
    all combinations across types are enumerated.
    An upper bound on the true minimum cost within O(levels^-2).
    """
    _, tied = _bundle_prices(inst, pvec)
    per_type = []
    n = len(inst.good_ids)
    offsets = inst.bundle_offsets
    for x, lo, hi in zip(demand.tolist(), offsets[:-1], offsets[1:]):
        rows = inst.stacked_masks[lo:hi][tied[lo:hi]]
        if x <= 0.0:
            per_type.append(np.zeros((1, n)))
            continue
        if len(rows) == 1:
            per_type.append(x * rows)
            continue
        comps = np.array(list(_compositions(levels, len(rows))), dtype=float)
        per_type.append((comps / levels * x) @ rows)
    combos = math.prod(a.shape[0] for a in per_type)
    if combos > _MAX_SPLIT_COMBOS:
        raise OracleCapError(f"{combos} split combinations exceed the enumeration cap")
    Y = per_type[0]
    for block in per_type[1:]:
        Y = (Y[:, None, :] + block[None, :, :]).reshape(-1, n)
    return float(inst.cost_batch.total(Y).sum(axis=-1).min())
