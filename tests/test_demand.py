"""Demand curve families: pointwise examples, invariants, and regularity lemmas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bicrit.analysis import peak_ratio
from bicrit.demand import (
    DemandBatch,
    DemandDomainError,
    InverseDemand,
    _hazard,
    _regularity_grid,
    verify_regularity,
)
from bicrit.tolerances import ALPHA_LIMIT, BOUNDARY_SLACK, REGULARITY_TOL, TINY


def make_tabulated_concave(rng, n_segments=8, lambda_max=1.0):
    """Random concave, strictly decreasing piecewise-linear curve (0-regular)."""
    drops = np.sort(rng.uniform(0.2, 1.5, size=n_segments))  # |slope| per segment
    widths = rng.uniform(0.05, 0.4, size=n_segments)
    xs = [0.0]
    ls = [lambda_max]
    for w, s in zip(widths, drops):
        # Stop before the curve would cross zero.
        w = min(w, (ls[-1] - 1e-3) / s) if ls[-1] - s * w < 1e-3 else w
        if w <= 1e-6:
            break
        xs.append(xs[-1] + w)
        ls.append(ls[-1] - s * w)
    return InverseDemand.tabulated(list(zip(xs, ls)), alpha=0.0)


def sample_family(family, rng):
    """(demand, alpha it is exactly regular for)."""
    scale = float(rng.uniform(0.4, 1.8))
    if family == "linear":
        return InverseDemand.linear(1.0, scale), 0.0
    if family == "exponential":
        return InverseDemand.exponential(1.0, scale), 0.0
    if family == "generalized-pareto":
        alpha = float(rng.uniform(0.05, 0.9))
        return InverseDemand.generalized_pareto(1.0, alpha, scale), alpha
    return make_tabulated_concave(rng), 0.0


FAMILIES = ["linear", "exponential", "generalized-pareto", "tabulated"]


def make_tabulated_with_flats(rng, n_segments=6):
    """Random non-increasing piecewise-linear curve, neither concave nor convex,
    with some segments flat (an infinite hazard ratio at positive price)."""
    drops = rng.uniform(0.0, 0.3, size=n_segments) * (rng.random(n_segments) > 0.2)
    drops *= min(1.0, 0.9 / max(drops.sum(), TINY))
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, size=n_segments))])
    ls = 1.0 - np.concatenate([[0.0], np.cumsum(drops)])
    return InverseDemand.tabulated(list(zip(xs, ls)), alpha=0.0)


def pairwise_regularity(d, alpha, grid_n, shift=0.0, tol=REGULARITY_TOL):
    """verify_regularity's reference: h(x2) - h(x1) <= alpha (x2 - x1) + tol
    tested on every node pair x1 < x2 of the same grid, an n x n matrix."""
    xs = _regularity_grid(d, grid_n)
    lam = np.asarray(d.eval(xs)) - shift
    der = np.abs(np.asarray(d.derivative(xs)))
    keep = (lam >= -BOUNDARY_SLACK) & ~((lam <= 0.0) & (der < TINY))
    xs, lam, der = xs[keep], np.maximum(lam[keep], 0.0), der[keep]
    if xs.size < 2:
        return True
    h = _hazard(lam, der)
    upper = np.triu_indices(xs.size, k=1)
    with np.errstate(invalid="ignore"):
        # inf - inf pairs compare as NaN, so False.
        ok = (h[None, :] - h[:, None])[upper] <= alpha * (xs[None, :] - xs[:, None])[upper] + tol
    return bool(np.all(ok))


class TestPointwiseExamples:
    def test_linear_uniform_peak(self):
        d = InverseDemand.linear(1.0, 1.0)
        assert d.eval(0.0) == 1.0

    def test_gpareto_direct_formula(self):
        d = InverseDemand.generalized_pareto(1.0, 1.0, 1.0)
        assert d.eval(1.0) == pytest.approx(0.5)

    def test_exponential_halving(self):
        d = InverseDemand.exponential(1.0, 1.0)
        assert d.eval(math.log(2.0)) == pytest.approx(0.5)

    def test_eval_negative_raises(self):
        with pytest.raises(DemandDomainError):
            InverseDemand.linear(1.0, 1.0).eval(-0.1)

    def test_inverse_linear(self):
        assert InverseDemand.linear(1.0, 1.0).inverse(0.25) == pytest.approx(0.75)

    def test_inverse_gpareto_half(self):
        d = InverseDemand.generalized_pareto(1.0, 0.5, 1.0)
        assert d.inverse(0.25) == pytest.approx(2.0)

    def test_inverse_at_peak_is_zero(self):
        for d in (InverseDemand.linear(1.0, 1.0), InverseDemand.exponential(1.0, 0.7)):
            assert d.inverse(d.lambda_max) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_domain_errors(self):
        d = InverseDemand.linear(1.0, 1.0)
        with pytest.raises(DemandDomainError):
            d.inverse(1.5)
        with pytest.raises(DemandDomainError):
            d.inverse(0.0)

    def test_utility_linear(self):
        assert InverseDemand.linear(1.0, 1.0).utility_integral(0.5) == pytest.approx(0.375)

    def test_utility_empty(self):
        assert InverseDemand.exponential(1.0, 1.0).utility_integral(0.0) == 0.0

    def test_utility_exponential(self):
        d = InverseDemand.exponential(1.0, 1.0)
        assert d.utility_integral(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)

    def test_hazard_linear(self):
        assert InverseDemand.linear(1.0, 1.0).hazard_ratio(0.3) == pytest.approx(0.7)

    def test_hazard_gpareto_affine(self):
        d = InverseDemand.generalized_pareto(1.0, 1.0, 1.0)
        assert d.hazard_ratio(2.0) == pytest.approx(3.0)

    def test_hazard_exponential_constant(self):
        d = InverseDemand.exponential(1.0, 0.8)
        for x in (0.0, 0.5, 2.0):
            assert d.hazard_ratio(x) == pytest.approx(0.8)

    def test_hazard_flat_segment_is_infinite(self):
        d = InverseDemand.tabulated([(0.0, 1.0), (1.0, 1.0), (2.0, 0.0)], alpha=1.0)
        assert math.isinf(d.hazard_ratio(0.5))

    def test_eval_beyond_ceiling_is_zero(self):
        d = InverseDemand.exponential(1.0, 1.0)
        assert d.eval(d.support_ceiling) == 0.0
        assert d.eval(d.support_ceiling + 5.0) == 0.0


class TestRegularityCheck:
    def test_linear_is_mhr(self):
        assert verify_regularity(InverseDemand.linear(1.0, 1.0), 0.0)

    def test_equal_revenue_like_is_one_regular(self):
        d = InverseDemand.generalized_pareto(1.0, 1.0, 1.0)
        assert verify_regularity(d, 1.0)

    def test_equal_revenue_like_is_not_half_regular(self):
        d = InverseDemand.generalized_pareto(1.0, 1.0, 1.0)
        assert not verify_regularity(d, 0.5)

    def test_grid_n_validation(self):
        with pytest.raises(ValueError):
            verify_regularity(InverseDemand.linear(1.0, 1.0), 0.0, grid_n=1)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_pass_their_own_alpha(self, family):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d, alpha = sample_family(family, rng)
            assert verify_regularity(d, alpha, grid_n=200)

    @pytest.mark.parametrize("family", [*FAMILIES, "tabulated-with-flats"])
    def test_running_minimum_matches_every_pair(self, family):
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(12):
            if family == "tabulated-with-flats":
                d, own = make_tabulated_with_flats(rng), 0.0
            else:
                d, own = sample_family(family, rng)
            for alpha in (own - 1.5, own - 0.25, 0.5 * own, own, own + 0.5):
                for shift in (0.0, float(rng.uniform(0.05, 0.8)) * d.lambda_max):
                    want = pairwise_regularity(d, alpha, 120, shift)
                    assert verify_regularity(d, alpha, grid_n=120, shift=shift) == want, (d, alpha, shift)
                    verdicts.add(want)
        assert verdicts == {True, False}

    def test_flat_stretch_fails_after_the_first_node_only(self):
        # The pairwise form compares an infinite h(x2) with every earlier node,
        # infinite ones too (inf - inf), and an infinite h(x1) with no later one.
        flat_first = InverseDemand.tabulated([(0.0, 1.0), (1.0, 1.0), (2.0, 0.5), (3.0, 0.0)], 1.0)
        flat_twice = InverseDemand.tabulated([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.0)], 1.0)
        flat_inside = InverseDemand.tabulated([(0.0, 1.0), (1.0, 0.5), (2.0, 0.5), (3.0, 0.0)], 1.0)
        for d, want in ((flat_first, True), (flat_twice, False), (flat_inside, False)):
            assert pairwise_regularity(d, 1.0, 2) is want
            assert verify_regularity(d, 1.0) is want


class TestInvariants:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_monotone_non_increasing(self, family):
        rng = np.random.default_rng(11)
        d, _ = sample_family(family, rng)
        xs = np.linspace(0.0, d.support_ceiling * 1.05, 1000)
        vals = d.eval(xs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_inverse_roundtrip(self, family):
        rng = np.random.default_rng(13)
        for _ in range(5):
            d, _ = sample_family(family, rng)
            hi = min(d.support_ceiling, d.inverse(max(d._batch._floor[0], 1e-5)))
            xs = np.linspace(1e-6, hi * 0.999, 50)
            for x in xs:
                p = d.eval(float(x))
                if p <= 0:
                    continue
                assert d.inverse(p) == pytest.approx(float(x), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_utility_matches_quadrature(self, family):
        rng = np.random.default_rng(17)
        d, _ = sample_family(family, rng)
        hi = min(d.support_ceiling, 5.0)
        kinks = [x for x, _ in d.points] if d.family == "tabulated" else None
        for x in np.linspace(0.1, hi, 7):
            pts = [k for k in kinks if k < x] if kinks else None
            ref, _ = quad(lambda z: d.eval(float(z)), 0.0, float(x), limit=200, points=pts)
            assert d.utility_integral(float(x)) == pytest.approx(ref, rel=1e-7, abs=1e-9)

    @given(
        intercept=st.floats(0.2, 5.0),
        lam=st.floats(0.2, 4.0),
        frac=st.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_roundtrip_property(self, intercept, lam, frac):
        d = InverseDemand.linear(lam, intercept)
        x = frac * intercept
        p = d.eval(x)
        if p > 0:
            assert d.inverse(p) == pytest.approx(x, rel=1e-9, abs=1e-12)

    @given(
        alpha=st.floats(0.0, 0.95),
        scale=st.floats(0.2, 3.0),
        frac=st.floats(0.0, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_gpareto_hazard_is_affine(self, alpha, scale, frac):
        d = InverseDemand.generalized_pareto(1.0, alpha, scale)
        x = frac * min(d.support_ceiling, 50.0)
        expected = scale + (alpha if alpha >= 1e-9 else 0.0) * x
        assert d.hazard_ratio(x) == pytest.approx(expected, rel=1e-7)


def _grid_inside(d, n=40):
    hi = min(d.support_ceiling, d.inverse(max(d._batch._floor[0], 1e-4 * d.lambda_max)))
    if d.family == "tabulated":
        xs = np.array([x for x, _ in d.points])
        return 0.5 * (xs[:-1] + xs[1:])
    return np.linspace(0.0, hi * 0.999, n)


class TestRegularityLemmas:
    """Structural consequences of bounded hazard-ratio growth, per family."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_shift_preserves_regularity(self, family):
        # Subtracting a constant keeps the curve regular where non-negative.
        rng = np.random.default_rng(23)
        for _ in range(10):
            d, alpha = sample_family(family, rng)
            c = float(rng.uniform(0.05, 0.8)) * d.lambda_max
            assert verify_regularity(d, alpha, grid_n=150, shift=c)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_integral_bound(self, family):
        # The area under the curve past x1 is controlled by the hazard at x1.
        rng = np.random.default_rng(29)
        for _ in range(10):
            d, alpha = sample_family(family, rng)
            if alpha >= 1.0:
                continue
            xs = _grid_inside(d)
            for i in range(0, len(xs) - 1, 3):
                for j in range(i + 1, len(xs), 5):
                    x1, x2 = float(xs[i]), float(xs[j])
                    h1 = d.hazard_ratio(x1)
                    if not math.isfinite(h1):
                        continue
                    integral = d.utility_integral(x2) - d.utility_integral(x1)
                    bound = h1 * (d.eval(x1) - d.eval(x2)) / (1.0 - alpha)
                    assert integral <= bound + 1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_hazard_threshold_propagates(self, family):
        # Once the hazard ratio falls below the quantity, it stays below.
        rng = np.random.default_rng(31)
        for _ in range(10):
            d, _ = sample_family(family, rng)
            xs = _grid_inside(d)
            hit = None
            for x in xs:
                x = float(x)
                if hit is None and d.hazard_ratio(x) <= x:
                    hit = x
                if hit is not None and x >= hit:
                    assert d.hazard_ratio(x) <= x + 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_peak_ratio_forces_hazard_below_quantity(self, family):
        # If the curve has dropped by the critical peak ratio, the hazard
        # ratio at that point cannot exceed the quantity.
        rng = np.random.default_rng(37)
        for _ in range(10):
            d, alpha = sample_family(family, rng)
            ratio = peak_ratio(alpha)
            if not math.isfinite(ratio):
                continue
            for x in _grid_inside(d):
                x = float(x)
                lam = d.eval(x)
                if lam <= 0:
                    continue
                if d.eval(0.0) >= ratio * lam:
                    assert d.hazard_ratio(x) <= x + 1e-9


class TestTabulated:
    def test_nodes_must_increase(self):
        with pytest.raises(ValueError):
            InverseDemand.tabulated([(0.0, 1.0), (0.0, 0.5)], alpha=0.0)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            InverseDemand.tabulated([(0.5, 1.0), (1.0, 0.5)], alpha=0.0)

    def test_interpolation_and_segment_slopes(self):
        d = InverseDemand.tabulated([(0.0, 1.0), (1.0, 0.6), (3.0, 0.0)], alpha=0.0)
        assert d.eval(0.5) == pytest.approx(0.8)
        assert d.derivative(0.5) == pytest.approx(-0.4)
        assert d.derivative(2.0) == pytest.approx(-0.3)
        assert d.eval(4.0) == 0.0

    def test_inverse_flat_run_takes_right_end(self):
        d = InverseDemand.tabulated(
            [(0.0, 1.0), (1.0, 0.5), (2.0, 0.5), (3.0, 0.1)], alpha=1.0
        )
        assert d.inverse(0.5) == pytest.approx(2.0)

    def test_utility_is_exact_piecewise_quadratic(self):
        d = InverseDemand.tabulated([(0.0, 1.0), (2.0, 0.0)], alpha=0.0)
        assert d.utility_integral(1.0) == pytest.approx(0.75)
        assert d.utility_integral(2.0) == pytest.approx(1.0)
        assert d.utility_integral(5.0) == pytest.approx(1.0)


def batch_curves():
    """One curve per formula branch, each family with two parameter sets."""
    rng = np.random.default_rng(29)
    curves = []
    for scale in (0.6, 1.4):
        curves += [
            InverseDemand.linear(1.0, scale),
            InverseDemand.exponential(1.0, scale),
            InverseDemand.generalized_pareto(1.0, 0.5 * ALPHA_LIMIT, scale),
            InverseDemand.generalized_pareto(1.0, float(rng.uniform(0.05, 0.95)), scale),
            InverseDemand.generalized_pareto(1.0, 1.0, scale),
            make_tabulated_concave(rng),
            # Exponents -2.0, -1.0 and 0.5, where a scalar power and an
            # elementwise one round apart.
            InverseDemand.generalized_pareto(1.0, 0.5, scale),
        ]
    return curves


class TestDemandBatch:
    """InverseDemand evaluates through DemandBatch: both give the same bits."""

    def _points(self, curves, rng, n=40):
        # Rows of one quantity per curve, from 0 to past the support ceiling.
        ceilings = np.array([d.support_ceiling for d in curves])
        xs = rng.uniform(0.0, 1.2, size=(n, len(curves))) * ceilings
        return np.vstack([np.zeros(len(curves)), 1e-7 * ceilings, xs, ceilings])

    def test_curves_cover_every_formula_branch(self):
        kinds = {d._kind for d in batch_curves()}
        assert kinds == {"linear", "exponential", "generalized-pareto", "gp-log", "tabulated"}

    @pytest.mark.parametrize("method", ["eval", "utility_integral"])
    def test_matches_scalar_methods(self, method):
        curves = batch_curves()
        batch = DemandBatch(curves)
        for row in self._points(curves, np.random.default_rng(3)):
            got = getattr(batch, method)(row)
            want = [getattr(d, method)(float(x)) for d, x in zip(curves, row)]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("method", ["eval", "derivative", "utility_integral", "demand_at_price"])
    def test_leading_axes_match_rows(self, method):
        curves = batch_curves()
        batch = DemandBatch(curves)
        grid = self._points(curves, np.random.default_rng(7))
        want = [getattr(batch, method)(row) for row in grid]
        np.testing.assert_array_equal(getattr(batch, method)(grid), want)
        np.testing.assert_array_equal(getattr(batch, method)(np.asfortranarray(grid)), want)
        np.testing.assert_array_equal(getattr(batch, method)(grid[:40].reshape(20, 2, -1)),
                                      np.reshape(want[:40], (20, 2, -1)))

    def test_derivative_matches_scalar_bit_for_bit(self):
        curves = batch_curves()
        batch = DemandBatch(curves)
        for row in self._points(curves, np.random.default_rng(5)):
            want = [d.derivative(float(x)) for d, x in zip(curves, row)]
            np.testing.assert_array_equal(batch.derivative(row), want)

    def test_derivative_matches_differences_of_eval(self):
        curves = batch_curves()
        batch = DemandBatch(curves)
        ceilings = np.array([d.support_ceiling for d in curves])
        # Within 20 hazard scales of 0, where lambda keeps enough digits for
        # differences; the steps are 1e-7 of that span.
        scales = np.array([d.scale if d.scale > 0 else d.support_ceiling for d in curves])
        span = np.minimum(ceilings, 20.0 * scales)
        # Right differences: a tabulated curve's slope is its right segment's.
        for frac in np.random.default_rng(6).uniform(0.0, 0.95, size=40):
            x, h = frac * span, 1e-7 * span
            want = (batch.eval(x + h) - batch.eval(x)) / h
            np.testing.assert_allclose(batch.derivative(x), want, rtol=1e-5, atol=0.0)
            scalar = [d.derivative(float(v)) for d, v in zip(curves, x)]
            np.testing.assert_allclose(scalar, want, rtol=1e-5, atol=0.0)
        assert np.all(batch.derivative(ceilings) == 0.0)
        assert np.all(batch.derivative(1.5 * ceilings) == 0.0)
        with pytest.raises(DemandDomainError):
            batch.derivative(np.full(len(curves), -1e-12))

    def test_demand_at_price_is_the_clamped_inverse(self):
        curves = batch_curves()
        batch = DemandBatch(curves)
        rng = np.random.default_rng(4)
        # 1e-9 and 1e-7 lie below every analytic curve's truncation floor.
        for q in [1e-9, 1e-7, *rng.uniform(0.0, 1.0, size=40)]:
            got = batch.demand_at_price(np.full(len(curves), q))
            want = [float(d._inverse_clamped(np.asarray(q))) for d in curves]
            np.testing.assert_array_equal(got, want)

    def test_demand_at_price_edges(self):
        curves = batch_curves()
        batch = DemandBatch(curves)
        n = len(curves)
        assert np.all(batch.demand_at_price(np.full(n, 1.0)) == 0.0)
        assert np.all(batch.demand_at_price(np.full(n, 1.5)) == 0.0)
        ceilings = [d.support_ceiling for d in curves]
        assert list(batch.demand_at_price(np.zeros(n))) == ceilings
        assert list(batch.demand_at_price(np.full(n, -0.5))) == ceilings

    @pytest.mark.parametrize("method", ["eval", "utility_integral"])
    def test_negative_quantity_raises(self, method):
        curves = batch_curves()
        x = np.full(len(curves), 0.5)
        x[3] = -1e-12
        with pytest.raises(DemandDomainError):
            getattr(DemandBatch(curves), method)(x)
