"""The trade-off curve of thresholded pricing, and the guarantee certificate."""

import math

import numpy as np
import pytest

from bicrit.analysis import (
    certificate,
    mm_profit_factor,
    mm_welfare_factor,
    threshold_coefficients,
    tradeoff_bound,
    welfare_factor,
    zeta,
)
from bicrit.market import PricingSolution

ALPHAS = [0.0, 1e-10, 5e-10, 9.9e-10, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
REL = 1e-15


@pytest.mark.parametrize("alpha", ALPHAS)
def test_revenue_factor_never_exceeds_zeta(alpha):
    for c in np.linspace(1.0, welfare_factor(alpha), 41)[1:]:
        revenue, returned_c = tradeoff_bound(float(c), alpha)
        assert returned_c == c
        assert revenue <= zeta(alpha) * (1.0 + REL)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_revenue_factor_reaches_zeta_where_both_sides_meet(alpha):
    c1, c2 = threshold_coefficients(alpha)
    c = 1.0 + c2 / c1
    revenue, returned_c = tradeoff_bound(c, alpha)
    assert returned_c == c
    assert revenue == pytest.approx(zeta(alpha), rel=REL)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("where", ["at_one", "below_one", "above_welfare_factor", "nan"])
def test_c_outside_the_curve_raises(alpha, where):
    c = {"at_one": 1.0, "below_one": 0.5, "above_welfare_factor": welfare_factor(alpha) * 1.01,
         "nan": math.nan}[where]
    with pytest.raises(ValueError):
        tradeoff_bound(c, alpha)


def test_infinite_c_raises_even_where_the_welfare_factor_is_unbounded():
    with pytest.raises(ValueError, match="finite"):
        tradeoff_bound(math.inf, 1.0)


def _solution(sw, profit):
    return PricingSolution(prices={}, demand={}, split={}, allocation={}, sw=sw, profit=profit, paid={})


class TestCertificate:
    def test_alpha_one_is_unbounded(self):
        cert = certificate(1.0, 2.0, _solution(1.0, 0.5))
        assert cert.verdicts == {
            "profit_vs_optimal_welfare": "unbounded",
            "welfare_vs_optimal_welfare": "unbounded",
        }
        record = cert.to_dict()
        assert record["zeta"] == record["welfare_factor"] == "unbounded"

    @pytest.mark.parametrize("sw_star", [0.0, -0.5])
    def test_no_optimum_welfare_makes_both_ratios_one(self, sw_star):
        cert = certificate(0.5, sw_star, _solution(-1.0, -1.0))
        assert cert.achieved_profit_ratio == cert.achieved_welfare_ratio == 1.0
        assert set(cert.verdicts.values()) == {"PASS"}

    def test_no_profit_fails_the_profit_factor(self):
        cert = certificate(0.5, 2.0, _solution(1.0, 0.0))
        assert cert.achieved_profit_ratio == math.inf
        assert cert.verdicts["profit_vs_optimal_welfare"] == "FAIL"
        assert cert.verdicts["welfare_vs_optimal_welfare"] == "PASS"

    def test_bundle_ratio_judges_by_the_ladder_factors(self):
        alpha, ratio, sw_star = 0.5, 4.0, 1.0
        # Profit and welfare ratios above zeta and welfare_factor but within
        # the ladder's factors: only the ladder's verdicts pass them.
        sol = _solution(sw_star / (welfare_factor(alpha) + 1.0), sw_star / (zeta(alpha) + 1.0))
        unit = certificate(alpha, sw_star, sol)
        ladder = certificate(alpha, sw_star, sol, bundle_size_ratio=ratio)
        assert set(unit.verdicts.values()) == {"FAIL"}
        assert set(ladder.verdicts.values()) == {"PASS"}
        assert ladder.mm_profit_factor == mm_profit_factor(alpha, ratio)
        assert ladder.mm_welfare_factor == mm_welfare_factor(alpha)
        assert unit.mm_profit_factor is None and unit.mm_welfare_factor is None
