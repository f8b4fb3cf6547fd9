"""Market model: best response, allocation, bookkeeping, and cost lemmas."""

import time

import numpy as np
import pytest

from bicrit import (
    CostFunction,
    InverseDemand,
    MarketInstance,
    MarketValidationError,
    best_response,
    buyer_marginal_costs,
    evaluate,
    min_bundle_price,
    min_cost_allocation,
)
from bicrit.market import KKT_TOL, SPLIT_DUST, _bundle_prices, split_kkt_violation
from bicrit.oracle import oracle_min_split_cost

from conftest import (
    random_cost,
    random_demand,
    random_multi_minded_instance,
    random_prices,
    random_unit_demand_instance,
)


@pytest.fixture
def substitutes(linear_demand, quadratic_cost):
    return MarketInstance.create(
        [("g1", quadratic_cost), ("g2", quadratic_cost)],
        [("b1", [["g1"], ["g2"]], linear_demand)],
    )


class TestMinBundlePrice:
    def test_picks_cheaper_singleton(self, substitutes):
        q, bundle = min_bundle_price(substitutes, {"g1": 0.3, "g2": 0.5}, "b1")
        assert q == pytest.approx(0.3)
        assert bundle == ("g1",)

    def test_sums_pair_bundle(self, linear_demand, quadratic_cost):
        inst = MarketInstance.create(
            [("g1", quadratic_cost), ("g2", quadratic_cost)],
            [("b1", [["g1", "g2"]], linear_demand)],
        )
        q, bundle = min_bundle_price(inst, {"g1": 0.3, "g2": 0.5}, "b1")
        assert q == pytest.approx(0.8)
        assert bundle == ("g1", "g2")

    @pytest.mark.parametrize(
        "g1_price", [0.4, 0.4 + 5e-8], ids=["exact-tie", "near-tie"]
    )
    def test_tie_breaks_lexicographically(self, substitutes, g1_price):
        # 5e-8 lies inside the tie band of tied_bundles, so both bundles tie.
        q, bundle = min_bundle_price(substitutes, {"g1": g1_price, "g2": 0.4}, "b1")
        assert q == pytest.approx(0.4)
        assert bundle == ("g1",)


class TestBestResponse:
    def test_single_good(self, single_good_instance):
        assert best_response(single_good_instance, {"g1": 0.25})["b1"] == pytest.approx(0.75)

    def test_peak_price_kills_demand(self, single_good_instance):
        assert best_response(single_good_instance, {"g1": 1.0})["b1"] == 0.0

    def test_only_cheapest_substitute_matters(self, substitutes):
        x = best_response(substitutes, {"g1": 0.5, "g2": 0.9})
        assert x["b1"] == pytest.approx(0.5)


def _assert_matches_enumeration_oracle(inst, prices):
    x = best_response(inst, prices)
    _, y = min_cost_allocation(inst, prices, x)
    cost = inst.total_cost([y[g] for g in inst.good_ids])
    reference = oracle_min_split_cost(inst, prices, x, levels=100)
    assert cost <= reference + 1e-9
    assert cost >= reference - 1e-3


class TestMinCostAllocation:
    def test_symmetric_tie_splits_evenly(self, substitutes):
        x = {"b1": 1.0}
        split, y = min_cost_allocation(substitutes, {"g1": 0.4, "g2": 0.4}, x)
        assert y["g1"] == pytest.approx(0.5, abs=1e-9)
        assert y["g2"] == pytest.approx(0.5, abs=1e-9)

    def test_unique_argmin_takes_everything(self, substitutes):
        split, y = min_cost_allocation(substitutes, {"g1": 0.3, "g2": 0.4}, {"b1": 0.7})
        assert y == {"g1": 0.7, "g2": 0.0}
        assert split == {("b1", ("g1",)): 0.7}

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
        demand = {t.type_id: float(rng.uniform(0.1, 1.0)) for t in inst.buyer_types}
        split, y = min_cost_allocation(inst, dict.fromkeys(inst.good_ids, 0.0), demand)
        assert split_kkt_violation(inst, y, split) <= 0.1 * KKT_TOL
        for tid, mass in demand.items():
            routed = sum(v for (t, _), v in split.items() if t == tid)
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
        sol = evaluate(inst, dict.fromkeys(inst.good_ids, 0.5))
        assert time.perf_counter() - start < 2.0
        assert split_kkt_violation(inst, sol.allocation, sol.split) <= 0.1 * KKT_TOL
        routed = dict.fromkeys(sol.demand, 0.0)
        for (tid, _), v in sol.split.items():
            routed[tid] += v
        for tid, mass in sol.demand.items():
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
        demand = {"b0": 1e-8, "b1": 1.0, "b2": 1.0}
        split, y = min_cost_allocation(inst, dict.fromkeys(inst.good_ids, 0.0), demand)
        assert split_kkt_violation(inst, y, split) <= 0.1 * KKT_TOL
        assert split[("b0", ("g0",))] == pytest.approx(1e-8, rel=1e-12)

    def test_violation_matches_per_type_loop(self):
        # Random splits over random bundles, some outside the admissible sets.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            inst = random_multi_minded_instance(rng, 0.3, 1 + seed % 3)
            allocation = {g: float(rng.uniform(0.0, 2.0)) for g in inst.good_ids}
            split = {
                (t.type_id, b): float(rng.choice([0.0, 1e-13, rng.uniform(0.1, 1.0)]))
                for t in inst.buyer_types
                for b in t.bundles
            }
            admissible = {
                t.type_id: [b for b in t.bundles if rng.uniform() < 0.6] or [t.bundles[0]]
                for t in inst.buyer_types
            }
            for allowed in (None, admissible):
                assert split_kkt_violation(inst, allocation, split, allowed) == pytest.approx(
                    _violation_by_type(inst, allocation, split, allowed), rel=1e-12, abs=1e-15
                )

    def test_buyer_marginal_costs_match_per_type_loop(self):
        # The least marginal-cost sum over each type's used bundles, or over
        # all of them where the type uses none (or no split is given).
        for seed in range(20):
            rng = np.random.default_rng(seed)
            inst = random_multi_minded_instance(rng, 0.3, 1 + seed % 3)
            allocation = {g: float(rng.uniform(0.0, 2.0)) for g in inst.good_ids}
            split = {
                (t.type_id, b): float(rng.choice([0.0, 1e-13, rng.uniform(0.1, 1.0)]))
                for t in inst.buyer_types
                for b in t.bundles
            }
            marg = inst.marginal_vector(np.array([allocation[g] for g in inst.good_ids]))
            for given in (None, split):
                expected = {}
                for t in inst.buyer_types:
                    sums = {b: sum(float(marg[inst.good_index[g]]) for g in b) for b in t.bundles}
                    used = [b for b in t.bundles if given is not None and given[(t.type_id, b)] > SPLIT_DUST]
                    expected[t.type_id] = min(sums[b] for b in used or t.bundles)
                assert buyer_marginal_costs(inst, allocation, given) == pytest.approx(expected, rel=1e-12)


def _violation_by_type(inst, allocation, split, admissible):
    marg = inst.marginal_vector(np.array([allocation[g] for g in inst.good_ids]))
    worst = 0.0
    for t in inst.buyer_types:
        sums = [sum(float(marg[inst.good_index[g]]) for g in b) for b in t.bundles]
        allowed = t.bundles if admissible is None else admissible[t.type_id]
        best = min(float(s) for s, b in zip(sums, t.bundles) if b in allowed)
        for s, b in zip(sums, t.bundles):
            if split.get((t.type_id, b), 0.0) > SPLIT_DUST:
                worst = max(worst, float(s) - best)
    return worst


class TestEvaluate:
    def test_analytic_midpoint(self, single_good_instance):
        sol = evaluate(single_good_instance, {"g1": 0.5})
        assert sol.demand["b1"] == pytest.approx(0.5)
        assert sol.allocation["g1"] == pytest.approx(0.5)
        assert sol.sw == pytest.approx(0.25)
        assert sol.profit == pytest.approx(0.125)

    def test_peak_price_is_inert(self, single_good_instance):
        sol = evaluate(single_good_instance, {"g1": 1.0})
        assert sol.sw == 0.0
        assert sol.profit == 0.0

    def test_analytic_high_price(self, single_good_instance):
        sol = evaluate(single_good_instance, {"g1": 0.75})
        assert sol.demand["b1"] == pytest.approx(0.25)
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
            sol = evaluate(inst, random_prices(rng, inst))
            income_goods = sum(sol.prices[g] * sol.allocation[g] for g in inst.good_ids)
            income_buyers = sum(
                sol.paid[t.type_id] * sol.demand[t.type_id] for t in inst.buyer_types
            )
            assert income_goods == pytest.approx(income_buyers, abs=1e-9)
            lam_income = sum(
                t.demand.eval(sol.demand[t.type_id]) * sol.demand[t.type_id]
                for t in inst.buyer_types
            )
            assert income_goods == pytest.approx(lam_income, abs=1e-6)

    def test_flow_conservation_and_kkt(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            inst = random_unit_demand_instance(rng, alpha=0.25)
            sol = evaluate(inst, random_prices(rng, inst))
            for t in inst.buyer_types:
                routed = sum(
                    v for (tid, _), v in sol.split.items() if tid == t.type_id
                )
                assert routed == pytest.approx(sol.demand[t.type_id], abs=1e-9)
            per_good = {g: 0.0 for g in inst.good_ids}
            for (tid, bundle), v in sol.split.items():
                for g in bundle:
                    per_good[g] += v
            for g in inst.good_ids:
                assert per_good[g] == pytest.approx(sol.allocation[g], abs=1e-9)
            # Cost minimality holds within the argmin-priced bundles the
            # envy-free response is allowed to use.
            _, _, tied = _bundle_prices(inst, inst.price_vector(sol.prices))
            admissible = {
                t.type_id: [b for b in t.bundles if tied[inst.bundle_rows[(t.type_id, b)]]]
                for t in inst.buyer_types
            }
            assert split_kkt_violation(inst, sol.allocation, sol.split, admissible) <= 1e-6


def _constrained(inst, demand):
    y = min_cost_allocation(inst, {g: 0.0 for g in inst.good_ids}, demand)[1]
    rates = buyer_marginal_costs(inst, y)
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
            x_high = best_response(inst, p_high)
            x_low = best_response(inst, p_low)
            for t in inst.buyer_types:
                assert x_low[t.type_id] >= x_high[t.type_id] - 1e-12
            y_high, _ = _constrained(inst, x_high)
            y_low, _ = _constrained(inst, x_low)
            for g, cost in inst.goods:
                assert cost.marginal(y_high[g]) <= cost.marginal(y_low[g]) + 1e-6
            r_high = buyer_marginal_costs(inst, y_high)
            r_low = buyer_marginal_costs(inst, y_low)
            for t in inst.buyer_types:
                assert r_high[t.type_id] <= r_low[t.type_id] + 1e-6

    def test_cost_difference_bounded_by_marginal_rates(self):
        # Raising demand costs at least the current marginal rate per buyer.
        rng = np.random.default_rng(59)
        for _ in range(20):
            inst = random_unit_demand_instance(rng, alpha=0.5)
            x1 = {
                t.type_id: float(rng.uniform(0.0, 0.8)) for t in inst.buyer_types
            }
            x2 = {
                tid: v + float(rng.uniform(0.0, 0.8)) for tid, v in x1.items()
            }
            y1, rates1 = _constrained(inst, x1)
            y2, _ = _constrained(inst, x2)
            c1 = inst.total_cost([y1[g] for g in inst.good_ids])
            c2 = inst.total_cost([y2[g] for g in inst.good_ids])
            lower = sum(
                rates1[t.type_id] * (x2[t.type_id] - x1[t.type_id])
                for t in inst.buyer_types
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
                sol = evaluate(inst, prices)
                marg = {
                    g: cost.marginal(sol.allocation[g]) for g, cost in inst.goods
                }
                if all(prices[g] >= marg[g] - 1e-12 for g in inst.good_ids):
                    break
                prices = {g: max(prices[g], marg[g]) for g in inst.good_ids}
            else:
                pytest.fail("price raising did not reach the marginal-cost premise")
            income = sum(
                t.demand.eval(sol.demand[t.type_id]) * sol.demand[t.type_id]
                for t in inst.buyer_types
            )
            cost_total = inst.total_cost([sol.allocation[g] for g in inst.good_ids])
            assert income >= 2.0 * cost_total - 1e-8
            assert sol.profit >= cost_total - 1e-8
            assert income <= 2.0 * sol.profit + 1e-6
            checked += 1
        assert checked == 20
