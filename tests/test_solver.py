"""Welfare solver: analytic optima, optimality certificates, and configs."""

import numpy as np
import pytest

from bicrit import (
    CostFunction,
    InverseDemand,
    MarketInstance,
    SolverConfig,
    SolverError,
    best_response,
    evaluate,
    min_cost_allocation,
    solve_welfare,
)
from bicrit import flow, solver
from bicrit.flow import FlowProgram
from bicrit.multi_minded import _ReserveFloored
from bicrit.oracle import oracle_min_split_cost
from bicrit.solver import _FlowProgram, _run_newton

from conftest import random_unit_demand_instance, random_multi_minded_instance


class TestAnalyticFixtures:
    def test_balanced_quadratic(self, single_good_instance):
        opt = solve_welfare(single_good_instance)
        assert opt.demand["b1"] == pytest.approx(0.5, abs=1e-6)
        assert opt.prices["g1"] == pytest.approx(0.5, abs=1e-6)
        assert opt.sw == pytest.approx(0.25, abs=1e-6)

    def test_near_flat_marginal(self, light_cost_instance):
        opt = solve_welfare(light_cost_instance)
        assert opt.demand["b1"] == pytest.approx(1.0 / 1.01, abs=1e-6)
        assert opt.prices["g1"] == pytest.approx(0.01 / 1.01, abs=1e-6)
        assert opt.sw == pytest.approx(0.5 / 1.01, abs=1e-6)

    def test_twin_goods_split(self, twin_goods_instance):
        opt = solve_welfare(twin_goods_instance)
        assert opt.demand["b1"] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert opt.allocation["g1"] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert opt.allocation["g2"] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert opt.prices["g1"] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert opt.sw == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_prices_equal_marginal_costs_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inst = random_unit_demand_instance(rng, alpha=0.25)
            opt = solve_welfare(inst)
            for g, cost in inst.goods:
                assert opt.prices[g] == cost.marginal(opt.allocation[g])

    def test_reevaluation_reproduces_optimum(self, twin_goods_instance):
        opt = solve_welfare(twin_goods_instance)
        sol = evaluate(twin_goods_instance, opt.prices)
        assert sol.sw == pytest.approx(opt.sw, abs=1e-8)
        assert sol.demand["b1"] == pytest.approx(opt.demand["b1"], abs=1e-6)


class TestOptimalityCertificates:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_first_order_condition(self, alpha):
        rng = np.random.default_rng(19)
        for _ in range(8):
            inst = random_unit_demand_instance(rng, alpha=alpha)
            opt = solve_welfare(inst)
            splits = []
            for t in inst.buyer_types:
                splits.append(
                    np.array([opt.split.get((t.type_id, b), 0.0) for b in t.bundles])
                )
            norm = _FlowProgram(inst, inst.cost_batch).projected_gradient(np.concatenate(splits))
            assert norm <= 1e-6 * (1.0 + abs(opt.sw))

    def test_solutions_meet_kkt_to_solver_precision(self):
        rng = np.random.default_rng(23)
        for k in range(12):
            if k % 2:
                inst = random_unit_demand_instance(rng, alpha=(0.0, 0.5, 0.9)[k % 3])
            else:
                inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=1 + k % 4)
            opt = solve_welfare(inst)
            splits = [
                np.array([opt.split.get((t.type_id, b), 0.0) for b in t.bundles])
                for t in inst.buyer_types
            ]
            norm = _FlowProgram(inst, inst.cost_batch).projected_gradient(np.concatenate(splits))
            assert norm <= 1e-10 * (1.0 + abs(opt.sw))

    def test_round_with_bundles_tied_at_zero_cost_slope_reaches_full_precision(self):
        # Draw 24: b0 wants {g0}, {g0, g3} or {g2}, b1 {g0, g1} or {g2}.  At
        # the optimum b0 uses {g0} and {g2}, and both zero-mass bundles tie
        # with them (c(0) = c'(0) = 0 on g1 and g3).  While b1's {g0, g1}
        # drained, b0's {g0, g3} was fixed at zero, released and given half of
        # b0's shifting mass, and the round stalled at 1.2e-8.
        rng = np.random.default_rng(12345)
        for _ in range(600):
            random_unit_demand_instance(rng, 0.5)
        draws = [(0.0, 2), (0.3, 2), (0.6, 2), (0.0, 3), (0.3, 3), (0.6, 3)]
        for k in range(25):
            inst = random_multi_minded_instance(rng, *draws[k % 6])
        assert (len(inst.goods), len(inst.buyer_types)) == (4, 2)
        program = _FlowProgram(inst, inst.cost_batch)
        z = _run_newton(program, np.zeros(program.caps.size), SolverConfig().max_iters)
        assert program.projected_gradient(z) <= 1e-12

    def test_multi_minded_instances_certify(self):
        rng = np.random.default_rng(71)
        for ratio in (1, 2, 4):
            inst = random_multi_minded_instance(rng, alpha=0.5, size_ratio=ratio)
            opt = solve_welfare(inst)
            assert opt.sw > 0.0

    def test_nonconvergence_carries_best_iterate(self):
        inst = random_multi_minded_instance(np.random.default_rng(71), alpha=0.5, size_ratio=2)
        with pytest.raises(SolverError) as err:
            solve_welfare(inst, SolverConfig(max_iters=1))
        assert err.value.best_splits.shape == (int(inst.bundle_offsets[-1]),)
        assert err.value.residual > SolverConfig().tol

    def test_later_round_certifies_at_marginal_cost_prices(self, monkeypatch):
        # At 4 Newton steps a round the gap at p = c(y) misses its target
        # twice; the third round certifies there, with no search over p.
        def no_price_search(*args, **kwargs):
            raise AssertionError("the certificate searched over prices")

        rounds = []

        def counted(*args):
            rounds.append(args)
            return flow._run_newton(*args)

        monkeypatch.setattr(solver, "minimize", no_price_search)
        monkeypatch.setattr(solver, "_run_newton", counted)
        inst = random_multi_minded_instance(np.random.default_rng(71), alpha=0.5, size_ratio=2)
        opt = solve_welfare(inst, SolverConfig(max_iters=4))
        assert len(rounds) == 3
        for g, cost in inst.goods:
            assert opt.prices[g] == cost.marginal(opt.allocation[g])

    # Unit-demand draws on which L-BFGS-B primal rounds never certified at
    # the marginal-cost prices, so that only a better dual price did; the
    # Newton rounds certify them at p = c(y).
    @pytest.mark.parametrize(
        "seed, alphas, shape",
        [(5, (0.0, 0.3), (4, 20)), (3, (0.0, 0.3), (4, 26)), (0, (0.0,), (6, 26))],
    )
    def test_unit_demand_choices_certify(self, seed, alphas, shape):
        rng = np.random.default_rng(seed)
        for alpha in alphas:
            inst = random_unit_demand_instance(rng, alpha, max_goods=6, max_types=40)
        assert (len(inst.goods), len(inst.buyer_types)) == shape
        opt = solve_welfare(inst)
        for g, cost in inst.goods:
            assert opt.prices[g] == cost.marginal(opt.allocation[g])


def _zero_price_allocation(inst, demand):
    """Cheapest allocation serving demand over every bundle: zero prices tie them all."""
    return min_cost_allocation(inst, {g: 0.0 for g in inst.good_ids}, demand)[1]


class TestConstrainedWelfare:
    def test_zero_demand_costs_nothing(self, twin_goods_instance):
        y = _zero_price_allocation(twin_goods_instance, {"b1": 0.0})
        assert y == {"g1": 0.0, "g2": 0.0}

    def test_single_bundle_is_forced(self, linear_demand):
        inst = MarketInstance.create(
            [("g1", CostFunction.power(1.0, 1.0)), ("g2", CostFunction.power(1.0, 1.0))],
            [("b1", [["g1", "g2"]], linear_demand)],
        )
        y = _zero_price_allocation(inst, {"b1": 0.4})
        assert y["g1"] == pytest.approx(0.4)
        assert y["g2"] == pytest.approx(0.4)

    def test_shared_goods_match_enumeration(self, linear_demand):
        inst = MarketInstance.create(
            [
                ("g1", CostFunction.power(0.8, 1.0)),
                ("g2", CostFunction.power(1.1, 2.0)),
                ("g3", CostFunction.power(1.5, 1.0)),
            ],
            [
                ("b1", [["g1"], ["g2"]], linear_demand),
                ("b2", [["g2"], ["g3"]], linear_demand),
                ("b3", [["g1"], ["g3"]], linear_demand),
            ],
        )
        demand = {"b1": 0.7, "b2": 0.5, "b3": 0.6}
        y = _zero_price_allocation(inst, demand)
        cost = inst.total_cost([y[g] for g in inst.good_ids])
        # Free prices let every bundle compete, which zero prices replicate.
        reference = oracle_min_split_cost(
            inst, {g: 0.0 for g in inst.good_ids}, demand, levels=60
        )
        assert cost <= reference + 1e-9
        assert cost >= reference - 1e-3


class TestConfig:
    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    def test_bad_iteration_cap_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)


class TestDualGap:
    """D(p) - SW(z) at p = c(y(z)), against targets inf and 0."""

    # lambda(x) = 1 - x and c(y) = y on both goods: the optimum splits x = 2/3
    # evenly; at reserve 0.5 the marginals floor at 0.5 and it splits x = 1/2.
    def test_gap_bounds_true_suboptimality(self, twin_goods_instance):
        inst = twin_goods_instance
        for reserve, z_opt in ((None, (1 / 3, 1 / 3)), (0.5, (0.25, 0.25))):
            costs = inst.cost_batch if reserve is None else _ReserveFloored(inst, reserve)
            program = _FlowProgram(inst, costs)
            f_opt = program.objective(np.array(z_opt))
            for tol in (np.inf, 0.0):
                for z in (z_opt, (0.0, 0.0), (0.5, 0.1), (0.2, 0.2), (0.6, 0.3)):
                    z = np.array(z)
                    gap, target = program.certificate(z, tol)
                    assert target == tol * (1.0 + abs(program.objective(z)))
                    assert f_opt - program.objective(z) <= gap + 1e-12
                    assert gap <= program.certificate(z, np.inf)[0]
                assert program.certificate(np.array(z_opt), tol)[0] <= 1e-12


class TestValueAndGradient:
    """The fused evaluation the Newton rounds use, on instance and reserve-floored costs."""

    @pytest.mark.parametrize("reserve", [None, 0.3])
    def test_equals_objective_and_gradient_and_finite_differences(self, reserve):
        rng = np.random.default_rng(41)
        for ratio in (1, 2, 4):
            inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=ratio)
            costs = inst.cost_batch if reserve is None else _ReserveFloored(inst, reserve)
            program = _FlowProgram(inst, costs)
            z = rng.uniform(0.05, 1.0, size=program.caps.size)
            assert np.all(program.totals(z) < program.type_caps)
            f, g = program.value_and_gradient(z)
            assert f == program.objective(z)
            assert np.array_equal(g, program.gradient(z))
            h = 1e-6
            for j in range(z.size):
                step = np.zeros_like(z)
                step[j] = h
                fd = (program.objective(z + step) - program.objective(z - step)) / (2.0 * h)
                assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-7)


class TestNewtonStep:
    """The goods-space Newton step against a dense solve over the splits."""

    @pytest.mark.parametrize("reserve", [None, 0.3])
    def test_matches_dense_damped_newton_system(self, reserve):
        # The welfare program, then the min-cost split of the same masses
        # (w = inf), at the same points of the same instances.
        for fixed_mass in (False, True):
            rng = np.random.default_rng(47)
            for ratio in (1, 2, 4):
                inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=ratio)
                costs = inst.cost_batch if reserve is None else _ReserveFloored(inst, reserve)
                program = _FlowProgram(inst, costs)
                n = program.caps.size
                # Some coordinates at zero, so that a reserve binds on some goods.
                z = rng.uniform(0.0, 0.6, size=n) * (rng.random(n) < 0.7)
                x = program.totals(z)
                owner = np.repeat(np.arange(len(x)), program.sizes)
                types = (owner[:, None] == owner[None, :]).astype(float)
                if fixed_mass:
                    # The split routes on top of a base: the single-bundle types' goods.
                    base = rng.uniform(0.0, 0.5, size=len(inst.goods))
                    program = FlowProgram(inst.stacked_masks, inst.bundle_sizes, costs, masses=x, base=base)
                    curvature = 0.0
                else:
                    curvature = -inst.demand_batch.derivative(x)[owner][:, None] * types
                y = program.allocation(z)
                hessian = curvature + (inst.stacked_masks * costs.slope(y)) @ inst.stacked_masks.T
                grad = program.gradient(z)
                # Within a type, B^-1 is 1 / damping across the 1 direction, so
                # rounding in the goods-space correction grows like 1 / damping.
                for damping in (1.0, 1e-3, 1e-6):
                    free = rng.random(n) < 0.8
                    want = np.zeros(n)
                    system = hessian[np.ix_(free, free)] + damping * np.eye(free.sum())
                    if fixed_mass:
                        # w = inf holds each type's mass: [[H_c + mu I, E^T], [E, 0]] on the free coordinates.
                        e = (np.unique(owner[free])[:, None] == owner[free]).astype(float)
                        system = np.block([[system, e.T], [e, np.zeros((len(e), len(e)))]])
                        want[free] = np.linalg.solve(system, np.concatenate([grad[free], np.zeros(len(e))]))[: free.sum()]
                    else:
                        want[free] = np.linalg.solve(system, grad[free])
                    got = program.newton_step(z, grad, free, damping)
                    scale = np.abs(want).max()
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * (1.0 + 1.0 / damping) * scale)
                    assert np.all(got[~free] == 0.0)


class TestProjectedGradient:
    def test_is_the_clipped_gradient_residual(self):
        rng = np.random.default_rng(53)
        inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=2)
        program = _FlowProgram(inst, inst.cost_batch)
        z = rng.uniform(0.0, 0.5, size=program.caps.size) * (rng.random(program.caps.size) < 0.6)
        g = program.gradient(z)
        want = np.max(np.abs(z - np.clip(z + g, 0.0, program.caps)))
        assert program.projected_gradient(z) == want
        assert program.projected_gradient(z, g) == want
        assert _FlowProgram(inst, inst.cost_batch).projected_gradient(z) == want

    def test_vanishes_at_the_analytic_optimum(self, twin_goods_instance):
        # lambda(x) = 1 - x and c(y) = y on both goods: the optimum splits 2/3 evenly.
        program = _FlowProgram(twin_goods_instance, twin_goods_instance.cost_batch)
        assert program.projected_gradient(np.array([1 / 3, 1 / 3])) <= 1e-15
        assert program.projected_gradient(np.array([0.5, 0.1])) > 0.1
        # At zero every bundle is worth entering: the residual is the full gradient.
        assert program.projected_gradient(np.zeros(2)) == pytest.approx(1.0)
