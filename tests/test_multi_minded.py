"""Reserve-price ladder: closed-form rungs and certified ladders on random markets."""

from functools import lru_cache

import numpy as np
import pytest

from bicrit import multi_minded, solve_welfare
from bicrit.analysis import mm_profit_factor
from bicrit.multi_minded import (
    _ReserveFloored,
    augmented_we,
    certify_ladder,
    certify_selection,
    deviation_violations,
    ladder,
    select_index,
)
from bicrit.solver import SolverConfig, SolverError
from bicrit.tolerances import BOUND_TOL

from conftest import random_multi_minded_instance

N_LADDERS = 30


class TestReserveFlooredCosts:
    """The batched floored costs against CostFunction's scalar methods."""

    @pytest.mark.parametrize("reserve", [0.05, 0.3, 0.9])
    def test_matches_scalar_closed_form_on_both_sides_of_y0(self, reserve):
        inst = random_multi_minded_instance(np.random.default_rng(17), alpha=0.3, size_ratio=2)
        floored = _ReserveFloored(inst, reserve)
        costs = inst.cost_functions
        y0 = np.array([c.marginal_inverse(reserve) for c in costs])
        assert np.all(floored.y0 == y0) and np.all(y0 > 0)
        for factor in (0.0, 0.25, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.7, 3.0):
            y = factor * y0
            want_marginal = [max(reserve, c.marginal(v)) for c, v in zip(costs, y)]
            want_total = [
                c.total(w) + reserve * (v - w) if v < w else c.total(v)
                for c, v, w in zip(costs, y, y0)
            ]
            marginal, _, total = floored.at(y)
            np.testing.assert_allclose(marginal, want_marginal, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(total, want_total, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("reserve", [0.05, 0.3, 0.9])
    def test_slope_is_zero_below_y0_and_the_cost_slope_from_y0(self, reserve):
        inst = random_multi_minded_instance(np.random.default_rng(17), alpha=0.3, size_ratio=2)
        floored = _ReserveFloored(inst, reserve)
        y0 = floored.y0
        for factor in (0.0, 0.25, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.7, 3.0):
            y = factor * y0
            want = np.where(y < y0, 0.0, inst.cost_batch.at(y)[1])
            np.testing.assert_array_equal(floored.at(y)[1], want)
        # Away from the kink at y0, the slope is the marginal's derivative.
        for factor in (0.25, 0.9, 1.1, 1.7, 3.0):
            y, h = factor * y0, 1e-7 * factor * y0
            want = (floored.at(y + h)[0] - floored.at(y - h)[0]) / (2.0 * h)
            np.testing.assert_allclose(floored.at(y)[1], want, rtol=1e-5, atol=1e-9)


class TestAugmentedWelfareClosedForm:
    # lambda(x) = 1 - x and c(y) = y: the rung clears where 1 - x = max(r, x),
    # and the dummy buyer takes c^-1(r) - x whenever the reserve binds.

    def test_binding_reserve(self, single_good_instance):
        rung = augmented_we(single_good_instance, 0.7, SolverConfig(), np.zeros(1))
        assert rung.solution.prices[0] == 0.7
        assert rung.solution.demand[0] == pytest.approx(0.3, abs=1e-6)
        assert rung.dummy_allocation[0] == pytest.approx(0.4, abs=1e-6)
        np.testing.assert_array_equal(rung.saturated, [False])

    def test_slack_reserve(self, single_good_instance):
        rung = augmented_we(single_good_instance, 0.2, SolverConfig(), np.zeros(1))
        assert rung.solution.prices[0] == pytest.approx(0.5, abs=1e-6)
        assert rung.solution.demand[0] == pytest.approx(0.5, abs=1e-6)
        assert rung.dummy_allocation[0] == 0.0
        np.testing.assert_array_equal(rung.saturated, [True])

    def test_nonpositive_reserve_rejected(self, single_good_instance):
        with pytest.raises(ValueError):
            augmented_we(single_good_instance, 0.0, SolverConfig(), np.zeros(1))


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
    return inst, opt, ladder(inst, opt, SolverConfig(), inst.alpha)


@lru_cache(maxsize=None)
def _cold_rungs(k):
    """The k-th market's rungs, each solved from zero instead of the optimum's split."""
    inst, _, rungs = _ladder(k)
    cold_rungs = []
    for rung in rungs:
        cold = augmented_we(inst, rung.dummy_price, SolverConfig(), np.zeros(int(inst.bundle_offsets[-1])))
        cold.index = rung.index
        cold_rungs.append(cold)
    return cold_rungs


@pytest.mark.parametrize("k", range(N_LADDERS))
class TestRandomLadders:
    def test_rung_prices_are_floored_marginal_costs(self, k):
        inst, _, rungs = _ladder(k)
        for rung in rungs:
            sol = rung.solution
            for k, cost in enumerate(inst.cost_functions):
                assert sol.prices[k] == max(rung.dummy_price, cost.marginal(sol.allocation[k]))

    def test_every_bound_check_holds(self, k):
        inst, opt, rungs = _ladder(k)
        selected = select_index(inst, rungs, opt, inst.alpha)
        checks = certify_ladder(inst, opt, rungs, inst.alpha)
        checks += certify_selection(inst, opt, selected, inst.alpha)
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
        assert select_index(inst, rungs, opt, inst.alpha).index == qualifying[0]

    def test_warm_rungs_agree_with_cold_where_unique(self, k):
        """Each rung, started from the optimum's split, against a cold solve from zero.

        Prices and demand are unique, so they must agree.  Allocation, sw and
        profit are not compared: where a reserve binds on goods shared by tied
        bundles the floored cost is linear and the rung's optimal split (and
        with it the allocation, and sw and profit measured with the instance's
        own costs) is not unique, so it depends on where the solve starts.
        """
        inst, opt, rungs = _ladder(k)
        cold_rungs = _cold_rungs(k)
        for rung, cold in zip(rungs, cold_rungs):
            for warm_v, cold_v in (
                (rung.solution.prices, cold.solution.prices),
                (rung.solution.demand, cold.solution.demand),
            ):
                for key, v in enumerate(cold_v):
                    assert abs(warm_v[key] - v) <= 1e-7 * (1.0 + abs(v))
            np.testing.assert_array_equal(rung.saturated, cold.saturated)
        selected = select_index(inst, cold_rungs, opt, inst.alpha)
        assert selected.index == select_index(inst, rungs, opt, inst.alpha).index
        checks = certify_ladder(inst, opt, cold_rungs, inst.alpha)
        checks += certify_selection(inst, opt, selected, inst.alpha)
        assert [c.name for c in checks if not c.ok] == []

    def test_warm_and_cold_rungs_agree_to_solver_precision(self, k):
        """Prices and demand of warm and cold rungs, to the Newton solve's precision.

        Both solves end at a projected gradient of about 1e-12, so the unique
        prices and demand agree far below the weak-duality certificate's
        resolution, which bounds them only by about sqrt(gap / curvature).
        """
        _, _, rungs = _ladder(k)
        for rung, cold in zip(rungs, _cold_rungs(k)):
            for warm_v, cold_v in (
                (rung.solution.prices, cold.solution.prices),
                (rung.solution.demand, cold.solution.demand),
            ):
                for key, v in enumerate(cold_v):
                    assert abs(warm_v[key] - v) <= 1e-10 * (1.0 + abs(v))


def test_failing_rung_names_its_index_and_reserve_price(monkeypatch):
    inst, opt, _ = _ladder(0)
    best, history = np.arange(3.0), [0.25, 0.125]
    real = multi_minded._solve_flow
    calls = []

    def fail_on_second_rung(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise SolverError("welfare solver gap above tolerance", best_splits=best, residual=0.5, history=history)
        return real(*args, **kwargs)

    monkeypatch.setattr(multi_minded, "_solve_flow", fail_on_second_rung)
    with pytest.raises(SolverError) as exc:
        ladder(inst, opt, SolverConfig(), inst.alpha)
    message = str(exc.value)
    assert "rung 1" in message
    assert f"{multi_minded.dummy_price_at(inst, 1, inst.alpha):.12g}" in message
    assert "welfare solver gap above tolerance" in message
    assert exc.value.best_splits is best
    assert exc.value.residual == 0.5
    assert exc.value.history is history


def test_rungs_own_their_arrays():
    # No rung's vectors are views into the solver's or another rung's arrays.
    inst, _, rungs = _ladder(3)
    assert len(rungs) >= 3
    for rung in rungs:
        sol = rung.solution
        for field in (sol.prices, sol.demand, sol.split, sol.allocation, rung.saturated, rung.dummy_allocation):
            assert field.base is None
