"""Thresholded unit-demand pricing: examples, clusters, and theorem bounds."""

import math

import numpy as np
import pytest

from bicrit import CostFunction, InverseDemand, MarketInstance, solve_welfare
from bicrit.analysis import resolve_alpha, threshold_coefficients, threshold_price, welfare_factor, zeta
from bicrit.unit_demand import (
    UnitDemandError,
    cluster_diagnostics,
    low_cluster_hazard_condition,
    price_unit_demand,
)

from conftest import random_unit_demand_instance


class TestThresholdPrice:
    def test_half_regular(self):
        assert threshold_price(0.5, 1.0) == pytest.approx(0.25)

    def test_mhr_limit(self):
        assert threshold_price(0.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_equal_revenue_limit(self):
        assert threshold_price(1.0, 1.0) == 0.0

    def test_scales_with_peak(self):
        assert threshold_price(0.5, 3.0) == pytest.approx(0.75)


class TestPricing:
    def test_high_marginal_keeps_optimum(self, single_good_instance):
        opt = solve_welfare(single_good_instance)
        tp, sol = price_unit_demand(single_good_instance, opt, single_good_instance.alpha)
        assert tp.prices[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.sw == pytest.approx(0.25, abs=1e-8)
        assert sol.profit == pytest.approx(0.125, abs=1e-8)
        assert opt.sw / sol.profit <= 2.0 * math.e

    def test_threshold_binds_on_light_costs(self, light_cost_instance):
        opt = solve_welfare(light_cost_instance)
        tp, sol = price_unit_demand(light_cost_instance, opt, light_cost_instance.alpha)
        assert tp.prices[0] == pytest.approx(math.exp(-1.0))
        assert sol.demand[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
        assert sol.profit == pytest.approx(0.230546, abs=1e-6)
        assert sol.sw == pytest.approx(0.430334, abs=1e-6)
        assert opt.sw / sol.profit == pytest.approx(2.1473, abs=1e-3)
        assert opt.sw / sol.sw == pytest.approx(1.1504, abs=1e-3)

    def test_identity_when_all_prices_clear_threshold(self, single_good_instance):
        opt = solve_welfare(single_good_instance)
        _, sol = price_unit_demand(single_good_instance, opt, single_good_instance.alpha)
        assert sol.prices == pytest.approx(opt.prices)
        assert sol.sw == pytest.approx(opt.sw, abs=1e-9)

    def test_rejects_multi_good_bundles(self, linear_demand, quadratic_cost):
        inst = MarketInstance.create(
            [("g1", quadratic_cost), ("g2", quadratic_cost)],
            [("b1", [["g1", "g2"]], linear_demand)],
        )
        with pytest.raises(UnitDemandError):
            price_unit_demand(inst, solve_welfare(inst), inst.alpha)

    def test_alpha_override_must_dominate(self, single_good_instance):
        gp = InverseDemand.generalized_pareto(1.0, 0.5, 1.0)
        inst = MarketInstance.create(
            [("g1", CostFunction.power(1.0, 1.0))], [("b1", [["g1"]], gp)]
        )
        with pytest.raises(ValueError):
            resolve_alpha(inst, 0.25)


@pytest.fixture
def mixed_cluster_instance(linear_demand):
    # g1 is nearly free to produce (lands in the threshold cluster), g2 is
    # expensive (keeps its optimal price); the two buyer pools are disjoint.
    return MarketInstance.create(
        [("g1", CostFunction.power(0.01, 1.0)), ("g2", CostFunction.power(3.0, 1.0))],
        [("b1", [["g1"]], linear_demand), ("b2", [["g2"]], linear_demand)],
    )


class TestClusters:
    def test_all_high(self, single_good_instance):
        opt = solve_welfare(single_good_instance)
        tp, sol = price_unit_demand(single_good_instance, opt, single_good_instance.alpha)
        np.testing.assert_array_equal(tp.good_cluster, ["H"])
        np.testing.assert_array_equal(tp.type_cluster, ["H"])
        assert cluster_diagnostics(single_good_instance, tp, sol, opt) == []

    def test_all_low(self, light_cost_instance):
        opt = solve_welfare(light_cost_instance)
        tp, sol = price_unit_demand(light_cost_instance, opt, light_cost_instance.alpha)
        np.testing.assert_array_equal(tp.good_cluster, ["L"])
        assert sol.demand[0] <= opt.demand[0] + 1e-9
        assert cluster_diagnostics(light_cost_instance, tp, sol, opt) == []

    def test_mixed_clusters_have_no_cross_purchases(self, mixed_cluster_instance):
        inst = mixed_cluster_instance
        opt = solve_welfare(inst)
        tp, sol = price_unit_demand(inst, opt, inst.alpha)
        assert tp.good_cluster[0] == "L"
        assert tp.good_cluster[1] == "H"
        np.testing.assert_array_equal(tp.type_cluster, ["L", "H"])
        violations = cluster_diagnostics(inst, tp, sol, opt)
        assert not violations, violations

    def test_low_cluster_hazard_condition(self):
        rng = np.random.default_rng(101)
        for alpha in (0.0, 0.5):
            for _ in range(8):
                inst = random_unit_demand_instance(rng, alpha=alpha)
                opt = solve_welfare(inst)
                tp, sol = price_unit_demand(inst, opt, inst.alpha)
                assert low_cluster_hazard_condition(inst, tp, sol) == []

    def test_high_cluster_allocation_is_the_welfare_optimum(self):
        # H goods keep their welfare prices, so the evaluated split must
        # rebuild the optimum's allocation on them to the split's precision,
        # far inside the 1e-7 price tie band.
        rng = np.random.default_rng(2024)
        for k in range(120):
            inst = random_unit_demand_instance(rng, (0.0, 0.3, 0.6)[k % 3], max_goods=6, max_types=40)
            opt = solve_welfare(inst)
            tp, sol = price_unit_demand(inst, opt, inst.alpha)
            for j, g in enumerate(inst.good_ids):
                if tp.good_cluster[j] == "H":
                    y = opt.allocation[j]
                    assert abs(sol.allocation[j] - y) <= 1e-10 * (1.0 + abs(y)), (k, g)


class TestTheoremBounds:
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5])
    def test_randomized_bicriteria(self, alpha):
        rng = np.random.default_rng(int(1000 * alpha) + 7)
        c1, c2 = threshold_coefficients(alpha)
        for _ in range(12):
            inst = random_unit_demand_instance(rng, alpha=alpha)
            opt = solve_welfare(inst)
            tp, sol = price_unit_demand(inst, opt, alpha)
            tol = 1e-6 * (1.0 + opt.sw)
            assert sol.sw <= c1 * sol.profit + tol
            assert opt.sw - sol.sw <= c2 * sol.profit + tol
            assert opt.sw <= zeta(alpha) * sol.profit + tol
            assert opt.sw <= welfare_factor(alpha) * sol.sw + tol
            violations = cluster_diagnostics(inst, tp, sol, opt)
            assert not violations, violations


def test_thresholded_prices_and_solution_do_not_share_arrays():
    inst = random_unit_demand_instance(np.random.default_rng(5), 0.3)
    opt = solve_welfare(inst)
    tp, sol = price_unit_demand(inst, opt, inst.alpha)
    assert tp.prices is not sol.prices
    np.testing.assert_array_equal(tp.prices, sol.prices)
    for field in (sol.prices, sol.demand, sol.split, sol.allocation, opt.prices, opt.allocation):
        assert field.base is None
    before = sol.prices.copy()
    tp.prices += 1.0
    np.testing.assert_array_equal(sol.prices, before)
