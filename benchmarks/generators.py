"""Seeded instance generators for the benchmark workloads.

Every generator takes a seed and returns an instance document in the
`bicrit` instance schema (a JSON-ready dict).  Nothing here imports `bicrit`:
the program only ever sees the files written from these documents.

Two kinds of instance make up a workload:

* seeded instances, drawn from `--seed`, from families on which the program
  certifies (the faults F1 and F2 of the README do not occur on them);
* a fixed corpus, drawn from constant seeds of the conftest-like families,
  the same in every run.  It keeps the tie splits, the binding reserve
  ladders and the fault F1 / F2 instances in every round, whatever `--seed`
  is.
"""

from __future__ import annotations

import math

import numpy as np

LAMBDA_MAX = 1.0
# The demand families are truncated where the curve drops below this share
# of the peak; the generator writes the resulting support ceiling explicitly
# so the reference checks know it without asking the program.
PRICE_FLOOR = 1e-6
ALPHAS = (0.0, 0.3, 0.6)
# The alpha = 0 families; at alpha > 0 every curve is generalized Pareto.
FAMILIES = ("linear", "exponential", "generalized-pareto")
# Share of the conftest cost draws that are piecewise power.
CONFTEST_PIECEWISE_SHARE = 0.15

# Unit-demand grids: blocks of goods alternate between light costs (whose
# welfare prices fall below every threshold, cluster L) and the conftest
# costs (cluster H).
UD_GOODS, UD_TYPES, UD_BLOCK = 20, 100, 5
UD_LIGHT_A, UD_LIGHT_BETA = (0.005, 0.02), (1.0, 1.5)
UD_L_SHARE = 0.4
# Multi-minded markets.
MM_GOODS, MM_TYPES = 10, 30
MM_HEAVY_A, MM_HEAVY_BETA = (5.0, 10.0), (1.0, 1.5)
MM_RATIOS = (2, 4)


def support_ceiling(family: str, alpha: float, scale: float) -> float:
    if family == "linear":
        return scale
    if family == "exponential" or alpha == 0.0:
        return scale * math.log(1.0 / PRICE_FLOOR)
    return scale / alpha * ((1.0 / PRICE_FLOOR) ** alpha - 1.0)


def _strata(rng, n, lo, hi) -> list[float]:
    """n draws from [lo, hi), one in each of n equal strata, in random order."""
    return [lo + (hi - lo) * (p + u) / n for p, u in zip(rng.permutation(n), rng.random(n))]


def demand(rng: np.random.Generator, alpha: float) -> dict:
    """An alpha-regular demand curve, as conftest.random_demand draws them."""
    scale = float(rng.uniform(0.4, 1.8))
    family = FAMILIES[int(rng.integers(0, 3))] if alpha == 0.0 else "generalized-pareto"
    return {"family": family, "lambda_max": LAMBDA_MAX, "alpha": alpha, "scale": scale,
            "support_ceiling": support_ceiling(family, alpha, scale)}


def power_cost(rng, a_range, beta_range) -> dict:
    return {"family": "power", "a": float(rng.uniform(*a_range)), "beta": float(rng.uniform(*beta_range))}


def conftest_cost(rng: np.random.Generator) -> dict:
    """The cost draw of conftest.random_cost: power, sometimes piecewise."""
    a = float(rng.uniform(0.4, 2.0))
    beta = float(rng.uniform(1.0, 2.5))
    if rng.random() < CONFTEST_PIECEWISE_SHARE:
        y_break = float(rng.uniform(0.3, 1.5))
        return {"family": "piecewise-power", "a": a, "beta": beta,
                "breakpoints": [[y_break, beta + float(rng.uniform(0.5, 2.0))]]}
    return {"family": "power", "a": a, "beta": beta}


def _document(goods, types, **metadata) -> dict:
    return {
        "schema_version": "1",
        "goods": [{"id": g, "cost": c} for g, c in goods],
        "buyer_types": [{"id": t, "bundles": b, "demand": d} for t, b, d in types],
        "metadata": metadata,
    }


def _pick(rng, pool, k):
    return sorted(pool[int(j)] for j in rng.choice(len(pool), size=k, replace=False))


def ud_grid(seed, alpha: float, n_goods=UD_GOODS, n_types=UD_TYPES, choices=1) -> dict:
    """Unit-demand grid with both a threshold cluster L and a cluster H.

    Goods come in blocks of UD_BLOCK, alternating light (L) and conftest (H)
    costs.  A share UD_L_SHARE of the types wants light goods, the rest
    heavy ones; each type has a home good, dealt round-robin so that every
    good of a kind has as many types, and with choices > 1 up to choices - 1
    more goods of the home's block, over which it splits at tied prices.
    """
    rng = np.random.default_rng(seed)
    ids = [f"g{k:03d}" for k in range(n_goods)]
    blocks = [ids[k:k + UD_BLOCK] for k in range(0, n_goods, UD_BLOCK)]
    light = [g for b, block in enumerate(blocks) if b % 2 == 0 for g in block]
    heavy = [g for b, block in enumerate(blocks) if b % 2 == 1 for g in block]
    # The light costs are stratified so that every grid has light goods near
    # the light end of the ranges: at alpha = 0.6 the light goods' welfare
    # prices lie close to the threshold, and with plain draws one seeded grid
    # in 200 had no L cluster.
    costs = {g: {"family": "power", "a": a, "beta": b} for g, a, b in
             zip(light, _strata(rng, len(light), *UD_LIGHT_A), _strata(rng, len(light), *UD_LIGHT_BETA))}
    costs.update((g, conftest_cost(rng)) for g in heavy)
    n_light = round(UD_L_SHARE * n_types)
    types = []
    for i in range(n_types):
        home = light[i % len(light)] if i < n_light else heavy[(i - n_light) % len(heavy)]
        block = blocks[ids.index(home) // UD_BLOCK]
        extra = _pick(rng, [g for g in block if g != home], int(rng.integers(0, choices)))
        types.append((f"t{i:04d}", [[g] for g in sorted([home] + extra)], demand(rng, alpha)))
    return _document([(g, costs[g]) for g in ids], types, family="ud-grid", alpha=alpha)


def _mm_types(rng, ids, n_types, ratio, alpha, one_bundle: bool):
    """Buyer types whose bundle sizes span 1..ratio, both extremes present.

    With one_bundle, type i < len(ids) wants the one-good bundle {ids[i]}
    (so every good is demanded on its own), type len(ids) a bundle of size
    ratio, and every type exactly one bundle.  Otherwise each type wants one
    to three bundles of random sizes, as conftest draws them.
    """
    types = []
    for i in range(n_types):
        if one_bundle:
            size = 1 if i < len(ids) else ratio if i == len(ids) else int(rng.integers(1, ratio + 1))
            bundles = [[ids[i]] if i < len(ids) else _pick(rng, ids, size)]
        else:
            sizes = [int(rng.integers(1, ratio + 1)) for _ in range(int(rng.integers(1, 4)))]
            if i == 0:
                sizes[0] = 1
            if i == 1:
                sizes[-1] = ratio
            bundles = []
            for size in sizes:
                b = _pick(rng, ids, size)
                if b not in bundles:
                    bundles.append(b)
        types.append((f"t{i:03d}", bundles, demand(rng, alpha)))
    return types


def mm_market(seed, alpha: float, ratio: int, n_goods=MM_GOODS, n_types=MM_TYPES) -> dict:
    """Market with bundle ratio `ratio` whose reserves never bind.

    Costs are heavy and every good is wanted alone by some type, so each
    good's marginal cost at the optimum exceeds the threshold price, the
    largest dummy price of the ladder.  Each type wants one bundle.
    """
    rng = np.random.default_rng(seed)
    ids = [f"g{k:02d}" for k in range(n_goods)]
    goods = [(g, power_cost(rng, MM_HEAVY_A, MM_HEAVY_BETA)) for g in ids]
    types = _mm_types(rng, ids, n_types, ratio, alpha, one_bundle=True)
    return _document(goods, types, family="mm-market", alpha=alpha, ratio=ratio)


def mm_conftest_market(seed, alpha: float, ratio: int, n_goods=MM_GOODS, n_types=MM_TYPES) -> dict:
    """Multi-minded market with conftest costs: reserves bind on some rungs."""
    rng = np.random.default_rng(seed)
    ids = [f"g{k:02d}" for k in range(n_goods)]
    goods = [(g, conftest_cost(rng)) for g in ids]
    types = _mm_types(rng, ids, n_types, ratio, alpha, one_bundle=False)
    return _document(goods, types, family="mm-conftest-market", alpha=alpha, ratio=ratio)


def tiny_ud(seed, alpha: float, n_goods: int, n_types: int) -> dict:
    """Unit demand on at most 3 goods x 3 types with conftest costs.

    Each type wants one good: with a choice of goods, `verify` fails on
    about 1 in 750 such instances (fault F2).
    """
    rng = np.random.default_rng(seed)
    ids = [f"g{k}" for k in range(n_goods)]
    goods = [(g, conftest_cost(rng)) for g in ids]
    types = [(f"b{i}", [[ids[int(rng.integers(0, n_goods))]]], demand(rng, alpha)) for i in range(n_types)]
    return _document(goods, types, family="tiny-ud", alpha=alpha)


def tiny_mm(seed, alpha: float, conftest: bool) -> dict:
    """At most 3 goods x 3 types with bundle ratio 2 or 3.

    Without conftest: 2 goods with heavy costs, each wanted alone, and a
    third type wanting both (ratio 2), so no reserve binds.
    """
    rng = np.random.default_rng(seed)
    if conftest:
        ratio = int(rng.integers(2, 4))
        n_goods, n_types = int(rng.integers(ratio, 4)), int(rng.integers(2, 4))
    else:
        ratio, n_goods, n_types = 2, 2, 3
    ids = [f"g{k}" for k in range(n_goods)]
    goods = [(g, conftest_cost(rng) if conftest else power_cost(rng, MM_HEAVY_A, MM_HEAVY_BETA)) for g in ids]
    types = _mm_types(rng, ids, n_types, ratio, alpha, one_bundle=not conftest)
    return _document(goods, types, family="tiny-mm", alpha=alpha, ratio=ratio)
