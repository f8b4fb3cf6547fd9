"""The instance trade-off curve of thresholded pricing (analysis.tradeoff_bound)."""

import numpy as np
import pytest

from bicrit.analysis import threshold_coefficients, tradeoff_bound, welfare_factor, zeta

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
@pytest.mark.parametrize("where", ["at_one", "below_one", "above_welfare_factor"])
def test_c_outside_the_curve_raises(alpha, where):
    c = {"at_one": 1.0, "below_one": 0.5, "above_welfare_factor": welfare_factor(alpha) * 1.01}[where]
    with pytest.raises(ValueError):
        tradeoff_bound(c, alpha)
