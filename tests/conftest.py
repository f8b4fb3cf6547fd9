"""Shared fixtures: analytic micro-instances, seeded random market generators
and the reference writer of result records."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from bicrit import CostFunction, InverseDemand, MarketInstance


@pytest.fixture
def linear_demand():
    return InverseDemand.linear(1.0, 1.0)


@pytest.fixture
def quadratic_cost():
    # C(y) = y^2 / 2, c(y) = y
    return CostFunction.power(1.0, 1.0)


@pytest.fixture
def single_good_instance(linear_demand, quadratic_cost):
    return MarketInstance.create(
        [("g1", quadratic_cost)], [("b1", [["g1"]], linear_demand)]
    )


@pytest.fixture
def light_cost_instance(linear_demand):
    # C(y) = 0.005 y^2, the near-flat marginal used by the analytic fixtures.
    return MarketInstance.create(
        [("g1", CostFunction.power(0.01, 1.0))], [("b1", [["g1"]], linear_demand)]
    )


@pytest.fixture
def twin_goods_instance(linear_demand, quadratic_cost):
    return MarketInstance.create(
        [("g1", quadratic_cost), ("g2", quadratic_cost)],
        [("b1", [["g1"], ["g2"]], linear_demand)],
    )


def random_demand(rng: np.random.Generator, alpha: float, lambda_max: float = 1.0):
    """A demand curve that is alpha-regular (exactly so when alpha > 0)."""
    scale = float(rng.uniform(0.4, 1.8))
    if alpha < 1e-12:
        family = rng.integers(0, 3)
        if family == 0:
            return InverseDemand.linear(lambda_max, scale)
        if family == 1:
            return InverseDemand.exponential(lambda_max, scale)
        return InverseDemand.generalized_pareto(lambda_max, 0.0, scale)
    return InverseDemand.generalized_pareto(lambda_max, alpha, scale)


def random_cost(rng: np.random.Generator, piecewise_share: float = 0.15):
    a = float(rng.uniform(0.4, 2.0))
    beta = float(rng.uniform(1.0, 2.5))
    if rng.random() < piecewise_share:
        y_break = float(rng.uniform(0.3, 1.5))
        return CostFunction.piecewise_power(a, beta, [(y_break, beta + rng.uniform(0.5, 2.0))])
    return CostFunction.power(a, beta)


def random_unit_demand_instance(
    rng: np.random.Generator,
    alpha: float,
    max_goods: int = 5,
    max_types: int = 5,
) -> MarketInstance:
    n_goods = int(rng.integers(1, max_goods + 1))
    n_types = int(rng.integers(1, max_types + 1))
    goods = [(f"g{k}", random_cost(rng)) for k in range(n_goods)]
    types = []
    for i in range(n_types):
        k = int(rng.integers(1, n_goods + 1))
        chosen = rng.choice(n_goods, size=k, replace=False)
        bundles = [[f"g{j}"] for j in sorted(int(v) for v in chosen)]
        types.append((f"b{i}", bundles, random_demand(rng, alpha)))
    return MarketInstance.create(goods, types)


def random_multi_minded_instance(
    rng: np.random.Generator,
    alpha: float,
    size_ratio: int,
    max_types: int = 4,
) -> MarketInstance:
    """Bundle sizes span [1, size_ratio] with both extremes present."""
    n_goods = int(rng.integers(max(2, size_ratio), size_ratio + 3))
    n_types = int(rng.integers(2, max_types + 1))
    goods = [(f"g{k}", random_cost(rng)) for k in range(n_goods)]

    def bundle_of(size):
        chosen = rng.choice(n_goods, size=size, replace=False)
        return [f"g{j}" for j in sorted(int(v) for v in chosen)]

    types = []
    for i in range(n_types):
        n_bundles = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, size_ratio + 1)) for _ in range(n_bundles)]
        if i == 0:
            sizes[0] = 1
        if i == 1 or (i == 0 and n_types == 1):
            sizes[-1] = size_ratio
        bundles = []
        for s in sizes:
            b = bundle_of(s)
            if b not in bundles:
                bundles.append(b)
        types.append((f"b{i}", bundles, random_demand(rng, alpha)))
    inst = MarketInstance.create(goods, types)
    assert inst.max_bundle_size == size_ratio and inst.min_bundle_size == 1
    return inst


def random_prices(rng: np.random.Generator, inst: MarketInstance, low=0.05, high=1.0):
    lam = inst.lambda_max
    return {g: float(rng.uniform(low * lam, high * lam)) for g in inst.good_ids}


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return obj
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def reference_dump_record(obj) -> str:
    """instances.dump_record's reference: json's own writer on a copy of obj
    with every float rounded to 12 significant digits."""
    return json.dumps(_round_floats(obj), sort_keys=True, indent=2) + "\n"
