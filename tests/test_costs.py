"""Cost function families: examples, convexity structure, and inverses."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicrit import cli, instances
from bicrit.costs import CostBatch, CostDomainError, CostFunction

GOLDEN = Path(__file__).parent / "golden"


def sample_costs():
    rng = np.random.default_rng(5)
    out = []
    for _ in range(8):
        out.append(CostFunction.power(float(rng.uniform(0.3, 3.0)), float(rng.uniform(1.0, 3.0))))
    for _ in range(4):
        beta = float(rng.uniform(1.0, 2.0))
        out.append(
            CostFunction.piecewise_power(
                float(rng.uniform(0.3, 2.0)),
                beta,
                [(float(rng.uniform(0.2, 1.0)), beta + float(rng.uniform(0.2, 1.5))),
                 (float(rng.uniform(1.2, 2.5)), beta + float(rng.uniform(1.6, 3.0)))],
            )
        )
    return out


class TestExamples:
    def test_total_quadratic(self):
        assert CostFunction.power(1.0, 1.0).total(0.5) == pytest.approx(0.125)

    def test_total_at_zero(self):
        assert CostFunction.power(1.0, 1.0).total(0.0) == 0.0

    def test_total_cubic(self):
        assert CostFunction.power(2.0, 2.0).total(1.0) == pytest.approx(2.0 / 3.0)

    def test_marginal(self):
        c = CostFunction.power(1.0, 1.0)
        assert c.marginal(0.75) == pytest.approx(0.75)
        assert c.marginal(0.0) == 0.0
        assert CostFunction.power(2.0, 2.0).marginal(0.5) == pytest.approx(0.5)

    def test_marginal_inverse(self):
        assert CostFunction.power(1.0, 1.0).marginal_inverse(0.75) == pytest.approx(0.75)
        assert CostFunction.power(1.0, 1.0).marginal_inverse(0.0) == 0.0
        assert CostFunction.power(2.0, 2.0).marginal_inverse(2.0) == pytest.approx(1.0)

    def test_negative_quantity_raises(self):
        with pytest.raises(CostDomainError):
            CostFunction.power(1.0, 1.0).total(-0.1)


class TestValidation:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(CostDomainError):
            CostFunction.power(0.0, 1.0)

    def test_sublinear_marginal_rejected(self):
        with pytest.raises(CostDomainError):
            CostFunction.power(1.0, 0.5)

    def test_breakpoints_must_increase(self):
        with pytest.raises(CostDomainError):
            CostFunction.piecewise_power(1.0, 1.0, [(1.0, 2.0), (0.5, 3.0)])

    def test_exponents_must_not_drop(self):
        with pytest.raises(CostDomainError):
            CostFunction.piecewise_power(1.0, 2.0, [(1.0, 1.0)])


class TestStructure:
    @pytest.mark.parametrize("cf", sample_costs())
    def test_marginal_is_total_derivative(self, cf):
        ys = np.linspace(1e-3, 4.0, 1000)
        h = 1e-6
        numeric = (cf.total(ys + h) - cf.total(ys - h)) / (2.0 * h)
        analytic = cf.marginal(ys)
        err = np.abs(numeric - analytic) / (1.0 + np.abs(analytic))
        assert np.max(err) < 1e-6

    @pytest.mark.parametrize("cf", sample_costs())
    def test_half_income_inequality(self, cf):
        ys = np.linspace(0.0, 4.0, 200)
        total = np.asarray(cf.total(ys))
        half = 0.5 * np.asarray(cf.marginal(ys)) * ys
        assert np.all(total <= half + 1e-12)

    @given(
        a=st.floats(1e-3, 1e3),
        beta=st.floats(1.0, 6.0),
        breaks=st.lists(st.tuples(st.floats(1e-3, 1e2), st.floats(0.0, 2.0)), max_size=3,
                        unique_by=lambda b: b[0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_parameter_rules_imply_half_income_inequality(self, a, beta, breaks):
        # Breakpoints at increasing quantities, each raising the exponent by
        # its drawn step: the rules CostFunction checks, and nothing else.
        starts = sorted(y for y, _ in breaks)
        exps = list(itertools.accumulate([beta] + [step for _, step in breaks]))[1:]
        cf = CostFunction.piecewise_power(a, beta, zip(starts, exps)) if breaks else CostFunction.power(a, beta)
        top = 2.0 * starts[-1] + 10.0 if breaks else 10.0
        ys = np.linspace(0.0, top, 257)[:, None]
        batch = CostBatch([cf])
        assert np.all(batch.total(ys) <= 0.5 * batch.marginal(ys) * ys * (1.0 + 1e-9))

    def test_half_income_equality_only_for_linear_marginal(self):
        ys = np.linspace(0.1, 3.0, 50)
        linear = CostFunction.power(1.3, 1.0)
        assert np.allclose(linear.total(ys), 0.5 * linear.marginal(ys) * ys)
        steep = CostFunction.power(1.3, 2.0)
        assert np.all(steep.total(ys) < 0.5 * steep.marginal(ys) * ys - 1e-9)

    @pytest.mark.parametrize("cf", sample_costs())
    def test_marginal_inverse_roundtrip(self, cf):
        ys = np.linspace(1e-4, 4.0, 97)
        back = cf.marginal_inverse(cf.marginal(ys))
        assert np.max(np.abs(back - ys) / ys) < 1e-9

    @pytest.mark.parametrize("cf", sample_costs())
    def test_convex_and_continuous(self, cf):
        ys = np.linspace(0.0, 4.0, 2000)
        marg = np.asarray(cf.marginal(ys))
        assert np.all(np.diff(marg) >= -1e-12)
        # Continuity across breakpoints by construction.
        for y_break, _ in cf.breakpoints:
            left = cf.marginal(y_break * (1.0 - 1e-9))
            right = cf.marginal(y_break * (1.0 + 1e-9))
            assert right - left < 1e-6 * (1.0 + right)


class TestConstruction:
    @pytest.mark.parametrize("cf", [
        CostFunction.power(1.3, 2.0),
        CostFunction.piecewise_power(0.9, 1.0, [(0.6, 2.0), (1.5, 3.0)]),
        CostFunction.from_dict({"family": "piecewise-power", "a": 0.5, "beta": 1.5,
                                "breakpoints": [[2.0, 2.5]]}),
    ], ids=["power", "piecewise-power", "from-dict"])
    def test_construction_evaluates_nothing(self, cf):
        assert "_pieces" not in vars(cf) and "_batch" not in vars(cf)

    def test_verify_builds_no_one_good_batch(self, tmp_path, monkeypatch):
        # Every evaluation of a command goes through the instance's batches:
        # no cost or demand curve builds a batch of its own.
        loaded = []
        original = instances.load

        def load(*args, **kwargs):
            loaded.append(original(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(instances, "load", load)
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--in", str(GOLDEN / "tiny-00.json"), "--out", str(out)]) == cli.EXIT_OK
        (inst,) = loaded
        assert all("_batch" not in vars(c) for c in inst.cost_functions)
        assert all("_batch" not in vars(t.demand) for t in inst.buyer_types)


def batch_costs():
    """sample_costs and three with exponents 1 and 2, where a scalar power and
    an elementwise one round apart."""
    return sample_costs() + [
        CostFunction.power(1.3, 1.0),
        CostFunction.power(0.7, 2.0),
        CostFunction.piecewise_power(0.9, 1.0, [(0.6, 2.0), (1.5, 3.0)]),
    ]


def _batch_method(batch, name):
    """CostBatch's method of that name; "slope" is the second of at's results."""
    return (lambda y: batch.at(y)[1]) if name == "slope" else getattr(batch, name)


class TestCostBatch:
    """CostFunction evaluates through CostBatch: both give the same bits."""

    def _points(self, costs, rng, n=40):
        # Quantities from 0 to past the last breakpoint; for piecewise goods
        # also exactly at each breakpoint and just either side of it.
        rows = [np.zeros(len(costs)), *rng.uniform(0.0, 4.0, size=(n, len(costs)))]
        for j in range(2):
            at = np.array([c.breakpoints[j][0] if c.breakpoints else 1.0 for c in costs])
            rows += [at, at * (1.0 - 1e-12), at * (1.0 + 1e-12)]
        return rows

    @pytest.mark.parametrize("method", ["marginal", "total"])
    def test_matches_scalar_methods(self, method):
        costs = batch_costs()
        assert {c.family for c in costs} == {"power", "piecewise-power"}
        batch = CostBatch(costs)
        for row in self._points(costs, np.random.default_rng(8)):
            got = getattr(batch, method)(row)
            want = [getattr(c, method)(float(y)) for c, y in zip(costs, row)]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("method", ["marginal", "total"])
    def test_power_only_batch_matches(self, method):
        costs = [c for c in batch_costs() if c.family == "power"]
        batch = CostBatch(costs)
        for row in self._points(costs, np.random.default_rng(9)):
            want = [getattr(c, method)(float(y)) for c, y in zip(costs, row)]
            np.testing.assert_array_equal(getattr(batch, method)(row), want)

    @pytest.mark.parametrize("method", ["marginal", "slope", "total", "marginal_inverse"])
    def test_leading_axes_match_rows(self, method):
        costs = batch_costs()
        batch = CostBatch(costs)
        grid = np.array(self._points(costs, np.random.default_rng(12)))
        call = _batch_method(batch, method)
        want = [call(row) for row in grid]
        np.testing.assert_array_equal(call(grid), want)
        np.testing.assert_array_equal(call(np.asfortranarray(grid)), want)
        np.testing.assert_array_equal(call(grid[:40].reshape(20, 2, -1)), np.reshape(want[:40], (20, 2, -1)))

    def test_marginal_inverse_matches_scalar(self):
        costs = batch_costs()
        batch = CostBatch(costs)
        # Prices at the sample quantities' marginals, so at each breakpoint's
        # marginal and just either side of it too.
        for row in self._points(costs, np.random.default_rng(10)):
            p = np.array([c.marginal(float(y)) for c, y in zip(costs, row)])
            want = [c.marginal_inverse(float(q)) for c, q in zip(costs, p)]
            np.testing.assert_array_equal(batch.marginal_inverse(p), want)
        with pytest.raises(CostDomainError):
            batch.marginal_inverse(np.full(len(costs), -1e-12))

    def test_slope_matches_differences_of_marginal(self):
        costs = sample_costs()
        batch = CostBatch(costs)
        rng = np.random.default_rng(11)
        breaks = [c.breakpoints[j][0] if c.breakpoints else 1.0 for c in costs for j in range(2)]
        for y in [*rng.uniform(0.05, 4.0, size=40), *breaks]:
            for point in (y * (1.0 - 1e-4), y, y * (1.0 + 1e-4)):
                h = 1e-7 * point
                row = np.full(len(costs), point)
                # At a breakpoint the slope is the next piece's, a right derivative.
                at_break = np.array([point in (b for b, _ in c.breakpoints) for c in costs])
                low = np.where(at_break, row, row - h)
                want = (batch.marginal(row + h) - batch.marginal(low)) / (row + h - low)
                np.testing.assert_allclose(batch.at(row)[1], want, rtol=1e-5)
        # At y = 0: the coefficient for a linear marginal, zero for a steeper one.
        pair = CostBatch([CostFunction.power(1.7, 1.0), CostFunction.power(1.7, 2.3)])
        np.testing.assert_array_equal(pair.at(np.zeros(2))[1], [1.7, 0.0])

    @pytest.mark.parametrize("method", ["slope", "marginal", "total"])
    def test_negative_quantity_raises(self, method):
        costs = sample_costs()
        y = np.full(len(costs), 0.5)
        y[-1] = -1e-12
        with pytest.raises(CostDomainError):
            _batch_method(CostBatch(costs), method)(y)
