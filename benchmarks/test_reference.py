"""Hand-derived cases for the reference checks.

    python3 -m pytest benchmarks/test_reference.py

The main case is one good with linear demand lambda(x) = 1 - x and cost
C(y) = y^2 / 2: the optimum sells x = y = 1/2 at price 1/2, with welfare
U(1/2) - C(1/2) = 3/8 - 1/8 = 1/4 and profit 1/4 - 1/8 = 1/8.
"""

import copy
import math

import pytest

import reference as ref

LINEAR = {"family": "linear", "lambda_max": 1.0, "alpha": 0.0, "scale": 1.0, "support_ceiling": 1.0}
QUADRATIC = {"family": "power", "a": 1.0, "beta": 1.0}
ONE_GOOD = {
    "schema_version": "1",
    "goods": [{"id": "g1", "cost": QUADRATIC}],
    "buyer_types": [{"id": "b1", "bundles": [["g1"]], "demand": LINEAR}],
    "metadata": {},
}
OPTIMUM = {
    "prices": {"g1": 0.5}, "demand": {"b1": 0.5}, "allocation": {"g1": 0.5}, "paid": {"b1": 0.5},
    "split": [{"type": "b1", "bundle": ["g1"], "quantity": 0.5}], "sw": 0.25, "profit": 0.125,
}


def test_linear_demand_closed_forms():
    d = ref.Demand(LINEAR)
    assert d.price(0.25) == pytest.approx(0.75)
    assert d.quantity(0.5) == pytest.approx(0.5)
    assert d.quantity(1.5) == 0.0
    assert d.utility(0.5) == pytest.approx(0.375)
    assert d.surplus(0.5) == pytest.approx(0.125)


def test_exponential_and_pareto_closed_forms():
    e = ref.Demand({"family": "exponential", "lambda_max": 1.0, "alpha": 0.0, "scale": 1.0,
                    "support_ceiling": math.log(1e6)})
    assert e.quantity(math.exp(-1.0)) == pytest.approx(1.0)
    assert e.utility(1.0) == pytest.approx(1.0 - math.exp(-1.0))
    # lambda(x) = (1 + x/2)^-2: price 1/4 at x = 2, and the integral to 2 is 1.
    p = ref.Demand({"family": "generalized-pareto", "lambda_max": 1.0, "alpha": 0.5, "scale": 1.0,
                    "support_ceiling": 1e6})
    assert p.price(2.0) == pytest.approx(0.25)
    assert p.quantity(0.25) == pytest.approx(2.0)
    assert p.utility(2.0) == pytest.approx(1.0)


def test_piecewise_cost_keeps_the_marginal_continuous():
    # Marginal y below 1 and y^2 above: C(2) = 1/2 + (8 - 1)/3.
    c = ref.Cost({"family": "piecewise-power", "a": 1.0, "beta": 1.0, "breakpoints": [[1.0, 2.0]]})
    assert c.marginal(0.5) == pytest.approx(0.5)
    assert c.marginal(2.0) == pytest.approx(4.0)
    assert c.total(2.0) == pytest.approx(0.5 + 7.0 / 3.0)
    assert c.supply(4.0) == pytest.approx(2.0)
    assert c.supply(0.5) == pytest.approx(0.5)


def test_dual_value_equals_welfare_at_the_optimum():
    m = ref.Market(ONE_GOOD)
    # D(1/2) = buyer surplus 1/8 + seller profit 1/8; any other price is above 1/4.
    assert ref.dual_value(m, {"g1": 0.5}) == pytest.approx(0.25)
    assert ref.dual_value(m, {"g1": 0.4}) > 0.25
    assert ref.check_optimum(m, OPTIMUM) == []


@pytest.mark.parametrize("field, key, value, needle", [
    ("sw", None, 0.26, "sw"),
    ("profit", None, 0.1, "profit"),
    ("allocation", "g1", 0.6, "allocation[g1]"),
    ("demand", "b1", 0.4, "envy-free"),
    ("prices", "g1", 0.45, "duality gap"),
])
def test_optimum_check_catches_a_perturbed_record(field, key, value, needle):
    rec = copy.deepcopy(OPTIMUM)
    if key is None:
        rec[field] = value
    else:
        rec[field][key] = value
    problems = ref.check_optimum(ref.Market(ONE_GOOD), rec)
    assert any(needle in p for p in problems), problems


def test_evaluated_solution_must_buy_the_exact_demand():
    m = ref.Market(ONE_GOOD)
    rec = copy.deepcopy(OPTIMUM)
    rec["demand"]["b1"] = 0.5 + 1e-6
    rec["split"][0]["quantity"] = 0.5 + 1e-6
    rec["allocation"]["g1"] = 0.5 + 1e-6
    assert ref.check_solution(m, rec, "solution", solved=True) == []
    assert any("demand[b1]" in p for p in ref.check_solution(m, rec, "solution", solved=False))


def test_split_on_a_dearer_bundle_is_flagged():
    doc = copy.deepcopy(ONE_GOOD)
    doc["goods"].append({"id": "g2", "cost": QUADRATIC})
    doc["buyer_types"][0]["bundles"] = [["g1"], ["g2"]]
    rec = copy.deepcopy(OPTIMUM)
    rec["prices"]["g2"] = 0.7
    rec["allocation"]["g2"] = 0.0
    rec["profit"] = 0.125
    rec["sw"] = 0.25
    assert ref.check_solution(ref.Market(doc), rec, "s", solved=False) == []
    rec["split"] = [{"type": "b1", "bundle": ["g2"], "quantity": 0.5}]
    rec["allocation"] = {"g1": 0.0, "g2": 0.5}
    problems = ref.check_solution(ref.Market(doc), rec, "s", solved=False)
    assert any("above its cheapest bundle" in p for p in problems), problems


def test_paper_factors():
    assert ref.zeta(0.0) == pytest.approx(2.0 * math.e)
    assert ref.zeta(0.5) == pytest.approx(9.0)
    assert ref.ud_welfare_factor(0.5) == pytest.approx(3.0)
    assert ref.threshold(0.5, 1.0) == pytest.approx(0.25)
    assert ref.threshold(0.0, 1.0) == pytest.approx(math.exp(-1.0))
    assert ref.mm_profit_factor(0.0, 2) == pytest.approx(6.0 * (12.0 + 2.0 * math.e))
    assert ref.mm_profit_factor(0.5, 4) == pytest.approx(8.0 * (8.0 + 8.0 + 8.0))
    assert ref.mm_welfare_factor(0.0) == pytest.approx(24.0)


def test_selection_takes_the_smallest_qualifying_index():
    # SW* = 10 and factor 5: an index qualifies with profit >= 2.
    candidates = [(-1, 1.0), (0, 2.5), (1, 3.0)]
    assert ref._selection_ok(candidates, 0, 10.0, 5.0)
    assert not ref._selection_ok(candidates, 1, 10.0, 5.0)
    assert not ref._selection_ok(candidates, -1, 10.0, 5.0)
    # A candidate on the boundary may go either way.
    assert ref._selection_ok([(-1, 2.0), (0, 3.0)], 0, 10.0, 5.0)


def test_price_ud_rules_on_one_light_good():
    # lambda(x) = 1 - x and c(y) = 0.01 y: the optimum sells 1/1.01 at
    # 1/101, below the threshold 1/e, so the good is priced at 1/e and the
    # buyer takes 1 - 1/e.  With one good there is no cluster H.
    doc = copy.deepcopy(ONE_GOOD)
    doc["goods"][0]["cost"] = {"family": "power", "a": 0.01, "beta": 1.0}
    x_opt, p_opt, t = 1.0 / 1.01, 1.0 / 101.0, math.exp(-1.0)
    x = 1.0 - t
    opt = {"prices": {"g1": p_opt}, "demand": {"b1": x_opt}, "allocation": {"g1": x_opt},
           "paid": {"b1": p_opt}, "split": [{"type": "b1", "bundle": ["g1"], "quantity": x_opt}],
           "sw": x_opt - x_opt ** 2 / 2 - 0.005 * x_opt ** 2, "profit": 0.005 * x_opt ** 2}
    sol = {"prices": {"g1": t}, "demand": {"b1": x}, "allocation": {"g1": x}, "paid": {"b1": t},
           "split": [{"type": "b1", "bundle": ["g1"], "quantity": x}],
           "sw": x - x * x / 2 - 0.005 * x * x, "profit": t * x - 0.005 * x * x}
    rec = {"alpha": 0.0, "primary_price": t, "prices": {"g1": t},
           "clusters": {"goods": {"g1": "L"}, "types": {"b1": "L"}}, "solution": sol, "optimum": opt,
           "certificate": {"zeta": 2 * math.e, "welfare_factor": 2.0,
                           "achieved_profit_ratio": opt["sw"] / sol["profit"],
                           "achieved_welfare_ratio": opt["sw"] / sol["sw"]}}
    problems = ref.check_price_ud(doc, rec)
    assert problems == [
        "clusters: 1 of 1 goods at the threshold; the grid needs both L and H",
        "clusters: 1 of 1 types at the threshold; the grid needs both L and H",
    ]
    rec["prices"]["g1"] = p_opt
    assert any("max(threshold, optimum price)" in p for p in ref.check_price_ud(doc, rec))
