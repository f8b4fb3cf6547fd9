"""Reserve-price ladder: closed-form rungs and certified ladders on random markets."""

from functools import lru_cache

import numpy as np
import pytest

from bicrit import solve_welfare
from bicrit.analysis import BOUND_TOL, mm_profit_factor
from bicrit.multi_minded import (
    augmented_we,
    certify_ladder,
    certify_selection,
    deviation_violations,
    ladder,
    select_index,
)

from conftest import random_multi_minded_instance

N_LADDERS = 30


class TestAugmentedWelfareClosedForm:
    # lambda(x) = 1 - x and c(y) = y: the rung clears where 1 - x = max(r, x),
    # and the dummy buyer takes c^-1(r) - x whenever the reserve binds.

    def test_binding_reserve(self, single_good_instance):
        rung = augmented_we(single_good_instance, 0.7)
        assert rung.solution.prices["g1"] == 0.7
        assert rung.solution.demand["b1"] == pytest.approx(0.3, abs=1e-6)
        assert rung.dummy_allocation["g1"] == pytest.approx(0.4, abs=1e-6)
        assert rung.saturated == frozenset()

    def test_slack_reserve(self, single_good_instance):
        rung = augmented_we(single_good_instance, 0.2)
        assert rung.solution.prices["g1"] == pytest.approx(0.5, abs=1e-6)
        assert rung.solution.demand["b1"] == pytest.approx(0.5, abs=1e-6)
        assert rung.dummy_allocation["g1"] == 0.0
        assert rung.saturated == frozenset({"g1"})

    def test_nonpositive_reserve_rejected(self, single_good_instance):
        with pytest.raises(ValueError):
            augmented_we(single_good_instance, 0.0)


@lru_cache(maxsize=None)
def _instances():
    """Seeded multi-minded markets, bundle size ratios 2 to 4."""
    rng = np.random.default_rng(2024)
    return [
        random_multi_minded_instance(rng, alpha=(0.0, 0.3, 0.6)[k % 3], size_ratio=2 + k % 3)
        for k in range(N_LADDERS)
    ]


@lru_cache(maxsize=None)
def _ladder(k):
    """(instance, optimum, rungs) of the k-th seeded market."""
    inst = _instances()[k]
    opt = solve_welfare(inst)
    return inst, opt, ladder(inst, opt)


@pytest.mark.parametrize("k", range(N_LADDERS))
class TestRandomLadders:
    def test_rung_prices_are_floored_marginal_costs(self, k):
        inst, _, rungs = _ladder(k)
        for rung in rungs:
            sol = rung.solution
            for g, cost in zip(inst.good_ids, inst.cost_functions):
                assert sol.prices[g] == max(rung.dummy_price, cost.marginal(sol.allocation[g]))

    def test_every_bound_check_holds(self, k):
        inst, opt, rungs = _ladder(k)
        selected = select_index(inst, rungs, opt)
        checks = certify_ladder(inst, opt, rungs) + certify_selection(inst, opt, selected)
        assert [c.name for c in checks if not c.ok] == []

    def test_no_deviation_violations(self, k):
        inst, opt, rungs = _ladder(k)
        for rung in rungs:
            assert deviation_violations(inst, opt, rung) == []

    def test_selects_smallest_qualifying_index(self, k):
        inst, opt, rungs = _ladder(k)
        factor = mm_profit_factor(inst.alpha, inst.bundle_size_ratio)
        slack = BOUND_TOL * (1.0 + opt.sw)
        qualifying = [
            index
            for index, sol in [(-1, opt)] + [(r.index, r.solution) for r in rungs]
            if sol.profit > 0 and opt.sw <= factor * sol.profit + slack
        ]
        assert select_index(inst, rungs, opt).index == qualifying[0]
