"""Grid-search oracles: analytic targets and cross-checks against the solver."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicrit import (
    CostFunction,
    InverseDemand,
    MarketInstance,
    evaluate,
    instances,
    oracle,
    solve_welfare,
)
from bicrit.analysis import zeta
from bicrit.oracle import (
    GridSpec,
    OracleCapError,
    oracle_max_profit,
    oracle_max_welfare,
)
from bicrit.unit_demand import price_unit_demand

from conftest import random_unit_demand_instance

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class TestWelfareOracle:
    def test_single_good_target(self, single_good_instance):
        sw, prices = oracle_max_welfare(single_good_instance)
        assert sw == pytest.approx(0.25, abs=0.003)
        assert prices[0] == pytest.approx(0.5, abs=0.01)

    def test_twin_goods_target(self, twin_goods_instance):
        sw, _ = oracle_max_welfare(twin_goods_instance)
        assert sw == pytest.approx(1.0 / 3.0, abs=0.005)

    def test_degenerate_instance_yields_zero(self, linear_demand):
        steep = CostFunction.power(1e6, 1.0)
        inst = MarketInstance.create([("g1", steep)], [("b1", [["g1"]], linear_demand)])
        sw, _ = oracle_max_welfare(inst)
        assert sw == pytest.approx(0.0, abs=1e-6)

    def test_never_beats_solver(self):
        rng = np.random.default_rng(83)
        for _ in range(6):
            inst = random_unit_demand_instance(rng, alpha=0.0, max_goods=2, max_types=3)
            opt = solve_welfare(inst)
            sw, _ = oracle_max_welfare(inst)
            assert sw <= opt.sw + 1e-9 * (1.0 + abs(opt.sw))

    def test_determinism(self, twin_goods_instance):
        a = oracle_max_welfare(twin_goods_instance)
        b = oracle_max_welfare(twin_goods_instance)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])


class TestProfitOracle:
    def test_near_free_production_profit_peak(self, linear_demand):
        # C(y) = 1e-4 y^2: essentially free production, so profit peaks at
        # half the demand peak with value about a quarter.
        inst = MarketInstance.create(
            [("g1", CostFunction.power(2e-4, 1.0))], [("b1", [["g1"]], linear_demand)]
        )
        profit, prices = oracle_max_profit(inst)
        assert profit == pytest.approx(0.25, abs=1e-3)
        assert prices[0] == pytest.approx(0.5, abs=0.01)

    def test_welfare_prices_earn_almost_nothing(self, linear_demand):
        inst = MarketInstance.create(
            [("g1", CostFunction.power(2e-4, 1.0))], [("b1", [["g1"]], linear_demand)]
        )
        opt = solve_welfare(inst)
        assert evaluate(inst, opt.prices).profit < 0.01

    def test_peak_price_grid_point_is_profitless(self, single_good_instance):
        sol = evaluate(single_good_instance, np.array([1.0]))
        assert sol.profit == 0.0


class TestCrossChecks:
    def test_thresholded_profit_covers_oracle_welfare(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            inst = random_unit_demand_instance(rng, alpha=0.0, max_goods=2, max_types=3)
            opt = solve_welfare(inst)
            _, sol = price_unit_demand(inst, opt, inst.alpha)
            sw_oracle, _ = oracle_max_welfare(inst)
            assert sol.profit >= sw_oracle / zeta(inst.alpha) - 5e-3

    def test_profit_argmax_keeps_welfare(self):
        # Any pricing earning at least our guarantee keeps a 1/zeta welfare
        # share; the grid profit maximizer is such a pricing.
        rng = np.random.default_rng(97)
        for _ in range(5):
            inst = random_unit_demand_instance(rng, alpha=0.25, max_goods=2, max_types=3)
            _, prices = oracle_max_profit(inst)
            sw_at_argmax = evaluate(inst, prices).sw
            sw_oracle, _ = oracle_max_welfare(inst)
            assert sw_at_argmax >= sw_oracle / zeta(inst.alpha) - 5e-3


class TestCaps:
    def test_too_many_goods(self, linear_demand):
        goods = [(f"g{k}", CostFunction.power(1.0, 1.0)) for k in range(4)]
        inst = MarketInstance.create(goods, [("b1", [["g0"]], linear_demand)])
        with pytest.raises(OracleCapError):
            oracle_max_welfare(inst, GridSpec())

    def test_too_many_types(self, linear_demand):
        goods = [("g0", CostFunction.power(1.0, 1.0))]
        types = [(f"b{k}", [["g0"]], linear_demand) for k in range(4)]
        inst = MarketInstance.create(goods, types)
        with pytest.raises(OracleCapError):
            oracle_max_profit(inst, GridSpec())

    def test_three_goods_with_coarse_grid(self, linear_demand):
        goods = [(f"g{k}", CostFunction.power(1.0, 1.0)) for k in range(3)]
        types = [
            ("b1", [["g0"], ["g1"]], linear_demand),
            ("b2", [["g2"]], linear_demand),
        ]
        inst = MarketInstance.create(goods, types)
        sw, _ = oracle_max_welfare(inst, GridSpec(price_step=1.0 / 20.0))
        opt = solve_welfare(inst)
        assert sw <= opt.sw + 1e-9
        assert sw >= opt.sw - 5e-3


def _refine_all(inst, grid, objective):
    """The earlier rule, kept as the reference: evaluate every top candidate."""
    P, sw, profit, _ = oracle._sweep(inst, grid)
    values = sw if objective == "sw" else profit
    best_value, best_prices = -np.inf, None
    for idx in np.argsort(-values, kind="stable")[: oracle._REFINE_TOP]:
        prices = P[idx]
        sol = evaluate(inst, prices)
        value = sol.sw if objective == "sw" else sol.profit
        if value > best_value + 1e-15:
            best_value, best_prices = value, prices
    return best_value, best_prices


def _verify_grid(inst):
    # The grid verify uses: step lambda_max / 20 from three goods on.
    return GridSpec(inst.lambda_max / 20.0 if len(inst.goods) >= 3 else None)


def _seeded_draws():
    rng = np.random.default_rng(113)
    return [random_unit_demand_instance(rng, alpha=a, max_goods=2, max_types=3)
            for a in (0.0, 0.3, 0.6) * 4]


def _count_evaluate(monkeypatch):
    calls = []

    def counted(inst, prices):
        calls.append(prices)
        return evaluate(inst, prices)

    monkeypatch.setattr(oracle, "evaluate", counted)
    return calls


class TestRefineOnlySplitRows:
    """The oracles re-evaluate only the top candidates where a type ties bundles."""

    @pytest.mark.parametrize("name", ["tiny-09", "tiny-05"])
    @pytest.mark.parametrize("objective", ["sw", "profit"])
    def test_golden_tied_instances_match_full_reevaluation(self, name, objective):
        # Every top candidate is split here, and exact re-evaluation lifts the
        # sweep's best welfare by 0.069 (tiny-09) and 0.053 (tiny-05).
        inst = instances.load(os.path.join(GOLDEN, name + ".json"))
        grid = _verify_grid(inst)
        _, sw, _, split = oracle._sweep(inst, grid)
        assert split[np.argsort(-sw, kind="stable")[: oracle._REFINE_TOP]].all()
        ref, _ = _refine_all(inst, grid, "sw")
        assert ref > sw.max() + 0.05
        find = oracle_max_welfare if objective == "sw" else oracle_max_profit
        value, _ = find(inst, grid)
        expected, _ = _refine_all(inst, grid, objective)
        assert value == pytest.approx(expected, rel=0, abs=1e-12 * (1.0 + abs(expected)))

    @pytest.mark.parametrize("objective", ["sw", "profit"])
    def test_seeded_draws_match_full_reevaluation(self, objective):
        find = oracle_max_welfare if objective == "sw" else oracle_max_profit
        for inst in _seeded_draws():
            value, _ = find(inst, GridSpec())
            expected, _ = _refine_all(inst, GridSpec(), objective)
            # Profit on untied rows: the sweep's sum of q x - C and evaluate's
            # p . y - C differ in the last bits.
            assert value == pytest.approx(expected, rel=0, abs=1e-12 * (1.0 + abs(expected)))

    def test_two_point_grid_matches_full_reevaluation(self, twin_goods_instance):
        # A step at or above lambda_max leaves the grid {0, lambda_max} per good.
        grid = GridSpec(price_step=2.0)
        assert oracle._sweep(twin_goods_instance, grid)[0].shape == (4, 2)
        for objective, find in (("sw", oracle_max_welfare), ("profit", oracle_max_profit)):
            expected = _refine_all(twin_goods_instance, grid, objective)
            value, prices = find(twin_goods_instance, grid)
            assert value == expected[0]
            np.testing.assert_array_equal(prices, expected[1])

    def test_evaluate_runs_only_on_split_top_rows(self, monkeypatch):
        expected = 0
        for inst in _seeded_draws():
            _, sw, _, split = oracle._sweep(inst, GridSpec())
            expected += int(split[np.argsort(-sw, kind="stable")[: oracle._REFINE_TOP]].sum())
        assert expected > 0
        calls = _count_evaluate(monkeypatch)
        for inst in _seeded_draws():
            oracle_max_welfare(inst, GridSpec())
        assert len(calls) == expected

    def test_one_bundle_types_never_reach_evaluate(self, monkeypatch):
        draws = [inst for inst in _seeded_draws()
                 if all(len(t.bundles) == 1 for t in inst.buyer_types)]
        assert draws
        expected = [(_refine_all(inst, GridSpec(), "sw"), _refine_all(inst, GridSpec(), "profit"))
                    for inst in draws]
        calls = _count_evaluate(monkeypatch)
        for inst, refs in zip(draws, expected):
            # No row is split: the sweep's own values pick the same grid point.
            for find, (ref_value, ref_prices) in zip((oracle_max_welfare, oracle_max_profit), refs):
                value, prices = find(inst, GridSpec())
                assert value == pytest.approx(ref_value, rel=0, abs=1e-12 * (1.0 + abs(ref_value)))
                np.testing.assert_array_equal(prices, ref_prices)
        assert calls == []


@pytest.mark.parametrize("beta, alpha", [(1.0, 0.5), (2.0, 1.0)])
def test_sweep_welfare_equals_evaluate_on_rows_without_a_split(beta, alpha):
    # Exponents 2.0, 0.5 and -1.0 are where a scalar power and an elementwise
    # one round apart: the sweep and evaluate must share one kernel.
    curves = [InverseDemand.generalized_pareto(1.0, alpha, scale) for scale in (0.6, 0.9, 1.3)]
    goods = [("g1", CostFunction.power(0.8, beta)), ("g2", CostFunction.power(1.7, beta))]
    types = [("b1", [["g1"]], curves[0]), ("b2", [["g1"], ["g2"]], curves[1]),
             ("b3", [["g1", "g2"]], curves[2])]
    inst = MarketInstance.create(goods, types)
    P, sw, _, split = oracle._sweep(inst, GridSpec(price_step=1.0 / 60.0))
    assert split.any() and not split.all()
    want = [evaluate(inst, p).sw for p in P[~split]]
    np.testing.assert_array_equal(sw[~split], want)


class TestGridCap:
    @pytest.mark.parametrize("step", [0.0, -1.0, float("inf"), float("nan")])
    def test_a_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="finite and positive"):
            GridSpec(price_step=step).resolve_price_step(1.0)

    def test_verify_grids_fit(self, linear_demand):
        for n_goods, step, points in ((3, 1.0 / 20.0, 9261), (2, 1.0 / 100.0, 10201)):
            goods = [(f"g{k}", CostFunction.power(1.0, 1.0)) for k in range(n_goods)]
            inst = MarketInstance.create(goods, [("b1", [["g0"]], linear_demand)])
            GridSpec(price_step=step).check_caps(inst)
            assert oracle._price_grid(inst, GridSpec(price_step=step)).shape == (points, n_goods)

    @pytest.mark.parametrize("step", [1e-4, 1e-320])
    def test_finer_grids_are_refused_before_they_are_built(self, step, linear_demand, monkeypatch):
        goods = [(f"g{k}", CostFunction.power(1.0, 1.0)) for k in range(2)]
        inst = MarketInstance.create(goods, [("b1", [["g0"]], linear_demand)])

        def unbuilt(*args):
            raise AssertionError("grid built")

        monkeypatch.setattr(oracle, "_price_grid", unbuilt)
        with pytest.raises(OracleCapError):
            oracle_max_welfare(inst, GridSpec(price_step=step))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.5]), min_size=1, max_size=60)
       | st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=60))
def test_top_indices_match_a_stable_argsort(values):
    values = np.array(values)
    got = oracle._top_indices(values, oracle._REFINE_TOP)
    np.testing.assert_array_equal(got, np.argsort(-values, kind="stable")[: oracle._REFINE_TOP])


@pytest.mark.parametrize("find", [oracle_max_welfare, oracle_max_profit])
def test_best_price_vector_is_a_copy_of_its_grid_row(find):
    # On tiny-00 at step lambda / 20 the grid is (21, 21, 21, 3); a view of
    # one row would keep all of it alive.
    inst = instances.load(os.path.join(GOLDEN, "tiny-00.json"))
    _, prices = find(inst, GridSpec(inst.lambda_max / 20.0))
    assert prices.shape == (3,)
    assert prices.base is None
