"""Market model: best response, allocation, bookkeeping, and cost lemmas."""

import os
import time

import numpy as np
import pytest

from bicrit import (
    CostFunction,
    InverseDemand,
    MarketInstance,
    MarketValidationError,
    SolverError,
    best_response,
    buyer_marginal_costs,
    evaluate,
    min_cost_allocation,
    solve_welfare,
)
from bicrit import cli, flow, instances, market
from bicrit.market import _bundle_prices, split_kkt_violation
from bicrit.tolerances import KKT_TOL, SPLIT_DUST

from conftest import (
    random_cost,
    random_demand,
    random_multi_minded_instance,
    random_prices,
    random_unit_demand_instance,
)
from split_oracle import oracle_min_split_cost


@pytest.fixture
def substitutes(linear_demand, quadratic_cost):
    return MarketInstance.create(
        [("g1", quadratic_cost), ("g2", quadratic_cost)],
        [("b1", [["g1"], ["g2"]], linear_demand)],
    )


class TestBundlePrices:
    def test_cheapest_is_the_cheaper_singleton(self, substitutes):
        cheapest, tied = _bundle_prices(substitutes, np.array([0.3, 0.5]))
        assert cheapest[0] == pytest.approx(0.3)
        np.testing.assert_array_equal(tied, [True, False])

    def test_a_pair_bundle_costs_its_goods_sum(self, linear_demand, quadratic_cost):
        inst = MarketInstance.create(
            [("g1", quadratic_cost), ("g2", quadratic_cost)],
            [("b1", [["g1", "g2"]], linear_demand)],
        )
        cheapest, _ = _bundle_prices(inst, np.array([0.3, 0.5]))
        assert cheapest[0] == pytest.approx(0.8)

    @pytest.mark.parametrize("g1_price", [0.4, 0.4 + 5e-8], ids=["exact-tie", "near-tie"])
    def test_ties_within_the_band_are_both_cheapest(self, substitutes, g1_price):
        # 5e-8 lies inside the tie band, so both bundles tie at the cheaper price.
        cheapest, tied = _bundle_prices(substitutes, np.array([g1_price, 0.4]))
        assert cheapest[0] == pytest.approx(0.4)
        np.testing.assert_array_equal(tied, [True, True])

    def test_a_stack_of_price_vectors_matches_row_by_row_calls(self, linear_demand, quadratic_cost):
        inst = MarketInstance.create(
            [("g1", quadratic_cost), ("g2", quadratic_cost), ("g3", quadratic_cost)],
            [
                ("b1", [["g1"], ["g2"]], linear_demand),
                ("b2", [["g1", "g2"], ["g3"]], linear_demand),
                ("b3", [["g2", "g3"]], linear_demand),
            ],
        )
        prices = np.random.default_rng(41).uniform(0.0, 0.5, size=(5, 3))
        # Row 0 holds a near tie for b1: g1 costs 5e-8 more than g2.
        prices[0] = [0.4 + 5e-8, 0.4, 0.3]
        stacked = _bundle_prices(inst, prices)
        for k, pvec in enumerate(prices):
            for whole, row in zip(stacked, _bundle_prices(inst, pvec)):
                np.testing.assert_array_equal(whole[k], row)
        np.testing.assert_array_equal(stacked[1][0], [True, True, False, True, True])


class TestBestResponse:
    def test_single_good(self, single_good_instance):
        assert best_response(single_good_instance, np.array([0.25]))[0] == pytest.approx(0.75)

    def test_peak_price_kills_demand(self, single_good_instance):
        assert best_response(single_good_instance, np.array([1.0]))[0] == 0.0

    def test_only_cheapest_substitute_matters(self, substitutes):
        x = best_response(substitutes, np.array([0.5, 0.9]))
        assert x[0] == pytest.approx(0.5)


def _assert_matches_enumeration_oracle(inst, prices):
    pvec = inst.price_vector(prices)
    x = best_response(inst, pvec)
    _, y = min_cost_allocation(inst, pvec, x)
    cost = inst.total_cost(y)
    reference = oracle_min_split_cost(inst, pvec, x, levels=100)
    assert cost <= reference + 1e-9
    assert cost >= reference - 1e-3


class TestMinCostAllocation:
    def test_symmetric_tie_splits_evenly(self, substitutes):
        x = np.array([1.0])
        split, y = min_cost_allocation(substitutes, np.array([0.4, 0.4]), x)
        assert y[0] == pytest.approx(0.5, abs=1e-9)
        assert y[1] == pytest.approx(0.5, abs=1e-9)

    def test_unique_argmin_takes_everything(self, substitutes):
        split, y = min_cost_allocation(substitutes, np.array([0.3, 0.4]), np.array([0.7]))
        np.testing.assert_array_equal(y, [0.7, 0.0])
        # Rows: b1 buying g1, then b1 buying g2.
        np.testing.assert_array_equal(split, [0.7, 0.0])

    def test_shared_good_matches_enumeration_oracle(self, linear_demand):
        inst = MarketInstance.create(
            [
                ("g1", CostFunction.power(1.0, 1.0)),
                ("g2", CostFunction.power(0.7, 2.0)),
                ("g3", CostFunction.power(2.0, 1.0)),
            ],
            [
                ("b1", [["g1"], ["g2"]], linear_demand),
                ("b2", [["g2"], ["g3"]], linear_demand),
            ],
        )
        _assert_matches_enumeration_oracle(inst, {"g1": 0.35, "g2": 0.35, "g3": 0.35})

    def test_oracle_shares_the_relative_tie_band(self, substitutes):
        # The 5e-8 gap lies inside PRICE_TIE_REL * (1 + lambda_max) but outside
        # an absolute 1e-9 slack: both sides must still split over both goods
        # (cost 0.09), not route everything onto g1 (cost 0.18).
        _assert_matches_enumeration_oracle(substitutes, {"g1": 0.4, "g2": 0.4 + 5e-8})


class TestSplitKKT:
    @pytest.mark.parametrize("seed", range(60))
    def test_all_tied_split_meets_kkt_target(self, seed):
        # At zero prices every bundle ties, so each type with several goods
        # is free to split; the split must end on its KKT test.
        rng = np.random.default_rng(seed)
        inst = random_unit_demand_instance(rng, 0.0, max_goods=6, max_types=40)
        demand = np.array([float(rng.uniform(0.1, 1.0)) for t in inst.buyer_types])
        split, y = min_cost_allocation(inst, np.zeros(len(inst.goods)), demand)
        assert split_kkt_violation(inst, y, split) <= 0.1 * KKT_TOL
        for tid, mass in zip(inst.type_ids, demand):
            routed = sum(v for (t, _), v in zip(inst.bundle_keys, split) if t == tid)
            assert routed == pytest.approx(mass, rel=1e-12)

    def test_chain_of_four_hundred_goods_splits_exactly_within_two_seconds(self):
        # Four types per adjacent pair of goods, each wanting g_k or g_k+1:
        # at equal prices every bundle ties and all 1,596 types form one
        # chain through the goods, which the split solves as one program.
        rng = np.random.default_rng(29)
        n_goods = 400
        goods = [(f"g{k:03d}", random_cost(rng)) for k in range(n_goods)]
        types = [
            (f"b{k:03d}{j}", [[f"g{k:03d}"], [f"g{k + 1:03d}"]], random_demand(rng, 0.0))
            for k in range(n_goods - 1)
            for j in range(4)
        ]
        inst = MarketInstance.create(goods, types)
        start = time.perf_counter()
        sol = evaluate(inst, np.full(n_goods, 0.5))
        assert time.perf_counter() - start < 2.0
        assert split_kkt_violation(inst, sol.allocation, sol.split) <= 0.1 * KKT_TOL
        routed = dict.fromkeys(inst.type_ids, 0.0)
        for (tid, _), v in zip(inst.bundle_keys, sol.split):
            routed[tid] += v
        for tid, mass in zip(inst.type_ids, sol.demand):
            assert routed[tid] == pytest.approx(mass, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_type_of_tiny_mass_follows_its_cheapest_bundle(self, linear_demand):
        # From even splits b0's g0 is the dearer bundle, and b0's mass lies
        # below the step's active-set threshold, so g0 is fixed at zero.  b1
        # then drains g0 onto g2 and b2 fills g1: b0's whole mass sits on
        # its dearer bundle.  Unless the block's largest entry stays free,
        # that step empties the block (a division by zero) and b0 stays put.
        inst = MarketInstance.create(
            [(f"g{k}", CostFunction.power(a, 1.0)) for k, a in enumerate((3.0, 1.0, 0.1, 5.0))],
            [
                ("b0", [["g0"], ["g1"]], linear_demand),
                ("b1", [["g0"], ["g2"]], linear_demand),
                ("b2", [["g1"], ["g3"]], linear_demand),
            ],
        )
        demand = np.array([1e-8, 1.0, 1.0])
        split, y = min_cost_allocation(inst, np.zeros(len(inst.goods)), demand)
        assert split_kkt_violation(inst, y, split) <= 0.1 * KKT_TOL
        # Row 0: b0 buying g0.
        assert split[0] == pytest.approx(1e-8, rel=1e-12)

    def test_split_short_of_its_target_raises(self, monkeypatch):
        # At ud-00's welfare prices 47 types with positive demand tie on two
        # goods each; one Newton step leaves their split's gap far above
        # SOLVER_TOL * (1 + C(y)).
        inst = instances.load(os.path.join(os.path.dirname(__file__), "golden", "ud-00.json"))
        prices = solve_welfare(inst).prices
        cheapest, tied = _bundle_prices(inst, prices)
        tied_per_type = np.add.reduceat(tied, inst.bundle_offsets[:-1])
        free = (tied_per_type > 1) & (inst.demand_batch.demand_at_price(cheapest) > 0.0)
        monkeypatch.setattr(market, "NEWTON_STEPS", 1)
        with pytest.raises(SolverError) as err:
            evaluate(inst, prices)
        assert str(err.value).startswith("min-cost split gap ")
        assert err.value.best_splits.shape == (tied_per_type[free].sum(),) == (94,)
        assert err.value.residual > 0.1

    def test_split_miss_carries_its_projected_gradient_history(self, monkeypatch):
        # The one step's history is the projected gradient at the start: the
        # even split of ud-00's tied types at its welfare prices.
        inst = instances.load(os.path.join(os.path.dirname(__file__), "golden", "ud-00.json"))
        prices = solve_welfare(inst).prices
        monkeypatch.setattr(market, "NEWTON_STEPS", 1)
        starts = []
        run_newton = flow._run_newton

        def recorded(program, costs, z, max_iters):
            starts.append((program, costs, program.project(z)))
            return run_newton(program, costs, z, max_iters)

        monkeypatch.setattr(flow, "_run_newton", recorded)
        with pytest.raises(SolverError) as err:
            evaluate(inst, prices)
        program, costs, z = starts[-1]
        assert err.value.history == [program.projected_gradient(z, program.at(z, costs).gradient)]
        assert err.value.history[0] > 0.0

    def test_violation_matches_per_type_loop(self):
        # Random splits over random bundles.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            inst = random_multi_minded_instance(rng, 0.3, 1 + seed % 3)
            allocation = np.array([float(rng.uniform(0.0, 2.0)) for g in inst.good_ids])
            split = np.array([
                float(rng.choice([0.0, 1e-13, rng.uniform(0.1, 1.0)]))
                for t in inst.buyer_types
                for b in t.bundles
            ])
            assert split_kkt_violation(inst, allocation, split) == pytest.approx(
                _violation_by_type(inst, allocation, split, None), rel=1e-12, abs=1e-15
            )

    def test_buyer_marginal_costs_match_per_type_loop(self):
        # The least marginal-cost sum over each type's used bundles, or over
        # all of them where the type uses none (every type, for an empty split).
        for seed in range(20):
            rng = np.random.default_rng(seed)
            inst = random_multi_minded_instance(rng, 0.3, 1 + seed % 3)
            allocation = np.array([float(rng.uniform(0.0, 2.0)) for g in inst.good_ids])
            split = np.array([
                float(rng.choice([0.0, 1e-13, rng.uniform(0.1, 1.0)]))
                for t in inst.buyer_types
                for b in t.bundles
            ])
            marg = inst.cost_batch.marginal(allocation)
            for given in (np.zeros(len(split)), split):
                expected = []
                for t, lo in zip(inst.buyer_types, inst.bundle_offsets):
                    sums = {b: sum(float(marg[inst.good_index[g]]) for g in b) for b in t.bundles}
                    used = [b for j, b in enumerate(t.bundles) if given[lo + j] > SPLIT_DUST]
                    expected.append(min(sums[b] for b in used or t.bundles))
                assert buyer_marginal_costs(inst, allocation, given) == pytest.approx(expected, rel=1e-12)


class TestSplitContract:
    """split_min_cost receives only the types a tie splits, on top of the fixed types' base."""

    @staticmethod
    def _record(monkeypatch):
        """Record each _min_cost_split call's (inst, tied, xvec) and its split_min_cost call's arguments."""
        calls, splits = [], []
        min_cost_split, split_min_cost = market._min_cost_split, market.split_min_cost

        def recorded_split(inst, tied, xvec):
            calls.append((inst, tied, xvec))
            return min_cost_split(inst, tied, xvec)

        def recorded_min_cost(cost_fns, masks, totals, base):
            splits.append((masks, totals, base))
            return split_min_cost(cost_fns, masks, totals, base)

        monkeypatch.setattr(market, "_min_cost_split", recorded_split)
        monkeypatch.setattr(market, "split_min_cost", recorded_min_cost)
        return calls, splits

    @pytest.mark.parametrize("case, most", [("ud-00", 53), ("ud-03", 49)])
    def test_price_ud_passes_exactly_the_split_types(self, monkeypatch, tmp_path, case, most):
        calls, splits = self._record(monkeypatch)
        infile = os.path.join(os.path.dirname(__file__), "golden", case + ".json")
        argv = ["price-ud", "--diagnostics", "--in", infile, "--out", str(tmp_path / "out.json")]
        assert cli.main(argv) == cli.EXIT_OK
        assert len(calls) == len(splits) > 0
        for (inst, tied, xvec), (masks, totals, _) in zip(calls, splits):
            counts = np.add.reduceat(tied, inst.bundle_offsets[:-1])
            split = (counts >= 2) & (xvec > 0.0)
            assert [mask.shape[0] for mask in masks] == counts[split].tolist()
            assert totals == xvec[split].tolist()
            assert all(mask.shape[0] >= 2 for mask in masks) and all(total > 0.0 for total in totals)
            rows = tied & np.repeat(split, inst.bundle_sizes)
            np.testing.assert_array_equal(np.concatenate([*masks, np.zeros((0, len(inst.goods)))]),
                                          inst.stacked_masks[rows])
        assert max(len(masks) for masks, _, _ in splits) == most

    def test_one_bundle_per_type_passes_no_masks_and_sums_in_type_order(self, monkeypatch):
        _, splits = self._record(monkeypatch)
        rng = np.random.default_rng(17)
        goods = [(f"g{k}", random_cost(rng)) for k in range(6)]
        types = [
            (f"b{i:02d}", [[f"g{k}" for k in sorted(rng.choice(6, size=int(rng.integers(1, 4)), replace=False))]],
             random_demand(rng, 0.3))
            for i in range(40)
        ]
        inst = MarketInstance.create(goods, types)
        sol = evaluate(inst, inst.price_vector(random_prices(rng, inst, high=0.6)))
        assert [masks for masks, _, _ in splits] == [[]]
        expected = np.zeros(len(inst.goods))
        for t, x in zip(inst.buyer_types, sol.demand.tolist()):
            for g in t.bundles[0]:
                expected[inst.good_index[g]] += x
        np.testing.assert_array_equal(sol.allocation, expected)

    def test_no_masks_returns_the_base(self, twin_goods_instance):
        base = np.array([0.25, 0.5])
        splits, y = market.split_min_cost(twin_goods_instance.cost_functions, [], [], base)
        assert splits == [] and y is base

    def test_twin_goods_split_on_top_of_the_base(self, twin_goods_instance):
        base = np.array([0.25, 0.0, 0.5])
        cost_fns = (*twin_goods_instance.cost_functions, CostFunction.power(1.0, 1.0))
        masks = [np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
        totals = [0.6, 0.9]
        splits, y = market.split_min_cost(cost_fns, masks, totals, base)
        for split, total in zip(splits, totals):
            assert split.sum() == pytest.approx(total, rel=1e-14)
        np.testing.assert_allclose(y, base + sum(s @ m for s, m in zip(splits, masks)), rtol=1e-14)
        # Equal marginals c(y) = y on every good a split uses: 0.25 + 1.5 + 0.5 over three goods.
        np.testing.assert_allclose(y, np.full(3, 0.75), rtol=1e-9)


def _violation_by_type(inst, allocation, split, admissible):
    """The largest used bundle's marginal-cost sum above its type's best.

    admissible marks the stacked_masks rows whose bundles compete for their
    type's best (every row if None).
    """
    marg = inst.cost_batch.marginal(allocation)
    worst = 0.0
    for t, lo in zip(inst.buyer_types, inst.bundle_offsets):
        rows = range(lo, lo + len(t.bundles))
        sums = [sum(float(marg[inst.good_index[g]]) for g in b) for b in t.bundles]
        best = min(float(s) for s, r in zip(sums, rows) if admissible is None or admissible[r])
        for s, r in zip(sums, rows):
            if split[r] > SPLIT_DUST:
                worst = max(worst, float(s) - best)
    return worst


class TestEvaluate:
    def test_analytic_midpoint(self, single_good_instance):
        sol = evaluate(single_good_instance, np.array([0.5]))
        assert sol.demand[0] == pytest.approx(0.5)
        assert sol.allocation[0] == pytest.approx(0.5)
        assert sol.sw == pytest.approx(0.25)
        assert sol.profit == pytest.approx(0.125)

    def test_peak_price_is_inert(self, single_good_instance):
        sol = evaluate(single_good_instance, np.array([1.0]))
        assert sol.sw == 0.0
        assert sol.profit == 0.0

    def test_analytic_high_price(self, single_good_instance):
        sol = evaluate(single_good_instance, np.array([0.75]))
        assert sol.demand[0] == pytest.approx(0.25)
        assert sol.sw == pytest.approx(0.1875)
        assert sol.profit == pytest.approx(0.15625)


class TestValidation:
    def test_unknown_good_in_bundle(self, linear_demand, quadratic_cost):
        with pytest.raises(MarketValidationError, match="unknown goods"):
            MarketInstance.create(
                [("g1", quadratic_cost)], [("b1", [["g1"], ["zzz"]], linear_demand)]
            )

    def test_uniform_peak_enforced(self, quadratic_cost):
        with pytest.raises(MarketValidationError, match="uniform"):
            MarketInstance.create(
                [("g1", quadratic_cost)],
                [
                    ("b1", [["g1"]], InverseDemand.linear(1.0, 1.0)),
                    ("b2", [["g1"]], InverseDemand.linear(0.9, 1.0)),
                ],
            )

    def test_all_problems_reported(self, quadratic_cost):
        with pytest.raises(MarketValidationError) as err:
            MarketInstance.create(
                [("g1", quadratic_cost)],
                [
                    ("b1", [["nope"]], InverseDemand.linear(1.0, 1.0)),
                    ("b2", [["g1"]], InverseDemand.linear(0.5, 1.0)),
                ],
            )
        assert len(err.value.problems) == 2

    def test_bundle_size_ratio(self, linear_demand, quadratic_cost):
        inst = MarketInstance.create(
            [("g1", quadratic_cost), ("g2", quadratic_cost)],
            [("b1", [["g1"], ["g1", "g2"]], linear_demand)],
        )
        assert inst.max_bundle_size == 2
        assert inst.min_bundle_size == 1
        assert inst.bundle_size_ratio == 2.0


class TestSolutionIdentities:
    def test_income_identity_random(self):
        # Income booked on goods equals income booked on buyers.
        rng = np.random.default_rng(43)
        for _ in range(20):
            inst = random_unit_demand_instance(rng, alpha=0.0)
            sol = evaluate(inst, inst.price_vector(random_prices(rng, inst)))
            income_goods = sum(sol.prices[k] * sol.allocation[k] for k in range(len(inst.goods)))
            income_buyers = sum(
                sol.paid[i] * sol.demand[i] for i in range(len(inst.buyer_types))
            )
            assert income_goods == pytest.approx(income_buyers, abs=1e-9)
            lam_income = sum(
                t.demand.eval(sol.demand[i]) * sol.demand[i]
                for i, t in enumerate(inst.buyer_types)
            )
            assert income_goods == pytest.approx(lam_income, abs=1e-6)

    def test_flow_conservation_and_kkt(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            inst = random_unit_demand_instance(rng, alpha=0.25)
            sol = evaluate(inst, inst.price_vector(random_prices(rng, inst)))
            for i, t in enumerate(inst.buyer_types):
                routed = sum(
                    v for (tid, _), v in zip(inst.bundle_keys, sol.split) if tid == t.type_id
                )
                assert routed == pytest.approx(sol.demand[i], abs=1e-9)
            per_good = {g: 0.0 for g in inst.good_ids}
            for (tid, bundle), v in zip(inst.bundle_keys, sol.split):
                for g in bundle:
                    per_good[g] += v
            for k, g in enumerate(inst.good_ids):
                assert per_good[g] == pytest.approx(sol.allocation[k], abs=1e-9)
            # Cost minimality holds within the argmin-priced bundles the
            # envy-free response is allowed to use.
            _, tied = _bundle_prices(inst, sol.prices)
            assert _violation_by_type(inst, sol.allocation, sol.split, tied) <= 1e-6


def _constrained(inst, demand):
    y = min_cost_allocation(inst, np.zeros(len(inst.goods)), demand)[1]
    rates = buyer_marginal_costs(inst, y, np.zeros(len(inst.bundle_keys)))
    return y, rates


class TestCostLemmas:
    def test_lower_prices_raise_demand_and_marginals(self):
        # Componentwise lower prices mean weakly more demand everywhere and
        # weakly higher marginal costs in the min-cost allocations.
        rng = np.random.default_rng(53)
        for _ in range(20):
            inst = random_unit_demand_instance(rng, alpha=0.0)
            p_low = random_prices(rng, inst, low=0.05, high=0.7)
            p_high = {
                g: v + float(rng.uniform(0.0, 0.3)) for g, v in p_low.items()
            }
            x_high = best_response(inst, inst.price_vector(p_high))
            x_low = best_response(inst, inst.price_vector(p_low))
            for i in range(len(inst.buyer_types)):
                assert x_low[i] >= x_high[i] - 1e-12
            y_high, _ = _constrained(inst, x_high)
            y_low, _ = _constrained(inst, x_low)
            for k, cost in enumerate(inst.cost_functions):
                assert cost.marginal(y_high[k]) <= cost.marginal(y_low[k]) + 1e-6
            r_high = buyer_marginal_costs(inst, y_high, np.zeros(len(inst.bundle_keys)))
            r_low = buyer_marginal_costs(inst, y_low, np.zeros(len(inst.bundle_keys)))
            for i in range(len(inst.buyer_types)):
                assert r_high[i] <= r_low[i] + 1e-6

    def test_cost_difference_bounded_by_marginal_rates(self):
        # Raising demand costs at least the current marginal rate per buyer.
        rng = np.random.default_rng(59)
        for _ in range(20):
            inst = random_unit_demand_instance(rng, alpha=0.5)
            x1 = np.array([
                float(rng.uniform(0.0, 0.8)) for t in inst.buyer_types
            ])
            x2 = np.array([
                v + float(rng.uniform(0.0, 0.8)) for v in x1
            ])
            y1, rates1 = _constrained(inst, x1)
            y2, _ = _constrained(inst, x2)
            c1 = inst.total_cost(y1)
            c2 = inst.total_cost(y2)
            lower = sum(
                rates1[i] * (x2[i] - x1[i])
                for i in range(len(inst.buyer_types))
            )
            assert c2 - c1 >= lower - 1e-6

    def test_income_cost_sandwich(self):
        # Whenever prices sit at or above marginal costs: buyer income covers
        # twice the cost, profit covers the cost, and income is at most twice
        # the profit.
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(20):
            inst = random_unit_demand_instance(rng, alpha=0.25)
            prices = random_prices(rng, inst, low=0.2, high=1.0)
            for _ in range(50):
                sol = evaluate(inst, inst.price_vector(prices))
                marg = {
                    g: cost.marginal(sol.allocation[k]) for k, (g, cost) in enumerate(inst.goods)
                }
                if all(prices[g] >= marg[g] - 1e-12 for g in inst.good_ids):
                    break
                prices = {g: max(prices[g], marg[g]) for g in inst.good_ids}
            else:
                pytest.fail("price raising did not reach the marginal-cost premise")
            income = sum(
                t.demand.eval(sol.demand[i]) * sol.demand[i]
                for i, t in enumerate(inst.buyer_types)
            )
            cost_total = inst.total_cost(sol.allocation)
            assert income >= 2.0 * cost_total - 1e-8
            assert sol.profit >= cost_total - 1e-8
            assert income <= 2.0 * sol.profit + 1e-6
            checked += 1
        assert checked == 20
