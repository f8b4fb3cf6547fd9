"""Welfare solver: analytic optima, optimality certificates, and configs."""

import dataclasses
import os

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
from bicrit import flow, instances, solver
from bicrit.flow import FlowProgram, _run_newton
from bicrit.multi_minded import _ReserveFloored
from bicrit.tolerances import NEWTON_STEPS, SOLVER_TOL, SPLIT_DUST

from conftest import random_cost, random_unit_demand_instance, random_multi_minded_instance
from split_oracle import oracle_min_split_cost


def _objective(program, costs, z):
    return program.at(z, costs).value


def _certificate(program, costs, z, tol):
    """(gap, target) of the program against costs at the split z."""
    return program.certificate(program.at(np.asarray(z, dtype=float), costs), tol)


def _residual(program, costs, z):
    """The program's projected gradient against costs at z."""
    return program.projected_gradient(z, program.at(z, costs).gradient)


def _newton_run(program, costs, z, max_iters):
    """The last iterate of one Newton run against costs from z."""
    return _run_newton(program, costs, z, max_iters)[0].z


class TestAnalyticFixtures:
    def test_balanced_quadratic(self, single_good_instance):
        opt = solve_welfare(single_good_instance)
        assert opt.demand[0] == pytest.approx(0.5, abs=1e-6)
        assert opt.prices[0] == pytest.approx(0.5, abs=1e-6)
        assert opt.sw == pytest.approx(0.25, abs=1e-6)

    def test_near_flat_marginal(self, light_cost_instance):
        opt = solve_welfare(light_cost_instance)
        assert opt.demand[0] == pytest.approx(1.0 / 1.01, abs=1e-6)
        assert opt.prices[0] == pytest.approx(0.01 / 1.01, abs=1e-6)
        assert opt.sw == pytest.approx(0.5 / 1.01, abs=1e-6)

    def test_twin_goods_split(self, twin_goods_instance):
        opt = solve_welfare(twin_goods_instance)
        assert opt.demand[0] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert opt.allocation[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert opt.allocation[1] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert opt.prices[0] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert opt.sw == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_prices_equal_marginal_costs_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            inst = random_unit_demand_instance(rng, alpha=0.25)
            opt = solve_welfare(inst)
            for k, cost in enumerate(inst.cost_functions):
                assert opt.prices[k] == cost.marginal(opt.allocation[k])

    def test_reevaluation_reproduces_optimum(self, twin_goods_instance):
        opt = solve_welfare(twin_goods_instance)
        sol = evaluate(twin_goods_instance, opt.prices)
        assert sol.sw == pytest.approx(opt.sw, abs=1e-8)
        assert sol.demand[0] == pytest.approx(opt.demand[0], abs=1e-6)


class TestOptimalityCertificates:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_first_order_condition(self, alpha):
        rng = np.random.default_rng(19)
        for _ in range(8):
            inst = random_unit_demand_instance(rng, alpha=alpha)
            opt = solve_welfare(inst)
            norm = _residual(inst.welfare_program, inst.cost_batch, opt.split)
            assert norm <= 1e-6 * (1.0 + abs(opt.sw))

    def test_solutions_meet_kkt_to_solver_precision(self):
        rng = np.random.default_rng(23)
        for k in range(12):
            if k % 2:
                inst = random_unit_demand_instance(rng, alpha=(0.0, 0.5, 0.9)[k % 3])
            else:
                inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=1 + k % 4)
            opt = solve_welfare(inst)
            norm = _residual(inst.welfare_program, inst.cost_batch, opt.split)
            assert norm <= 1e-10 * (1.0 + abs(opt.sw))

    def test_round_with_bundles_tied_at_zero_cost_slope_reaches_full_precision(self):
        # Draw 24: b0 wants {g0}, {g0, g3} or {g2}, b1 {g0, g1} or {g2}.  At
        # the optimum b0 uses {g0} and {g2}, and both zero-mass bundles tie
        # with them (c(0) = c'(0) = 0 on g1 and g3).  While b1's {g0, g1}
        # drained, b0's {g0, g3} was fixed at zero, released and given half of
        # b0's shifting mass, and the run stalled at 1.2e-8.
        rng = np.random.default_rng(12345)
        for _ in range(600):
            random_unit_demand_instance(rng, 0.5)
        draws = [(0.0, 2), (0.3, 2), (0.6, 2), (0.0, 3), (0.3, 3), (0.6, 3)]
        for k in range(25):
            inst = random_multi_minded_instance(rng, *draws[k % 6])
        assert (len(inst.goods), len(inst.buyer_types)) == (4, 2)
        program = inst.welfare_program
        z = _newton_run(program, inst.cost_batch, np.zeros(program.caps.size), SolverConfig().max_iters)
        assert _residual(program, inst.cost_batch, z) <= 1e-12

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

    def test_nonconvergence_carries_the_projected_gradient_history(self):
        # ud-00 with one Newton step: the history is the projected gradient
        # at the start, z = 0, and the step ran no further.
        inst = instances.load(os.path.join(os.path.dirname(__file__), "golden", "ud-00.json"))
        with pytest.raises(SolverError) as err:
            solve_welfare(inst, SolverConfig(max_iters=1))
        start = np.zeros(int(inst.bundle_offsets[-1]))
        assert err.value.history == [_residual(inst.welfare_program, inst.cost_batch, start)]
        assert err.value.residual > SolverConfig().tol
        # Every step of a longer run adds its projected gradient.
        with pytest.raises(SolverError) as err:
            solve_welfare(inst, SolverConfig(max_iters=3))
        assert len(err.value.history) == 3

    def test_max_iters_caps_the_whole_solve(self, monkeypatch):
        # This draw needs about ten Newton steps: four do not certify, and a
        # solve runs no further steps after its cap.  At the default cap it
        # certifies at p = c(y), with no search over p.
        def no_price_search(*args, **kwargs):
            raise AssertionError("the certificate searched over prices")

        monkeypatch.setattr(solver, "minimize", no_price_search)
        inst = random_multi_minded_instance(np.random.default_rng(71), alpha=0.5, size_ratio=2)
        with pytest.raises(SolverError) as err:
            solve_welfare(inst, SolverConfig(max_iters=4))
        assert err.value.best_splits.shape == (int(inst.bundle_offsets[-1]),)
        opt = solve_welfare(inst)
        for k, cost in enumerate(inst.cost_functions):
            assert opt.prices[k] == cost.marginal(opt.allocation[k])

    # Unit-demand draws on which L-BFGS-B primal rounds never certified at
    # the marginal-cost prices, so that only a better dual price did; the
    # Newton run certifies them at p = c(y).
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
        for k, cost in enumerate(inst.cost_functions):
            assert opt.prices[k] == cost.marginal(opt.allocation[k])

    def test_an_entry_at_split_dust_is_dust_in_allocation_and_split_alike(self, monkeypatch):
        # A solve that leaves an entry exactly at SPLIT_DUST: the split drops
        # it, so the allocation must not count it either.
        inst = random_multi_minded_instance(np.random.default_rng(71), alpha=0.5, size_ratio=2)
        solve = solver.solve

        def dusty(program, costs, z, max_iters, tol):
            z = solve(program, costs, z, max_iters, tol)
            z[np.argmin(z)] = SPLIT_DUST
            return z

        monkeypatch.setattr(solver, "solve", dusty)
        sol = solve_welfare(inst)
        np.testing.assert_array_equal(sol.allocation, inst.welfare_program.allocation(sol.split))


def _scaled(inst, scale):
    """inst with lambda_max and every cost coefficient a times scale.

    The optimum's split is unchanged, and its prices and SW scale by scale.
    """
    goods = [(g, dataclasses.replace(c, a=c.a * scale)) for g, c in inst.goods]
    types = [
        (t.type_id, [list(b) for b in t.bundles], dataclasses.replace(t.demand, lambda_max=t.demand.lambda_max * scale))
        for t in inst.buyer_types
    ]
    return MarketInstance.create(goods, types)


class TestPriceScale:
    """At prices of 1e6 and above, rounding in F keeps the projected gradient
    above PG_STOP: the stall clause of the stopping test ends each run."""

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_scaled_markets_certify_in_few_steps(self, scale, monkeypatch):
        steps = []

        def counted(self, *args):
            steps.append(1)
            return newton_step(self, *args)

        newton_step = FlowProgram.newton_step
        monkeypatch.setattr(FlowProgram, "newton_step", counted)
        cfg = SolverConfig(max_iters=200)
        rng = np.random.default_rng(61)
        for k in range(8):
            if k % 2:
                inst = random_multi_minded_instance(rng, alpha=0.3, size_ratio=1 + k % 4)
            else:
                inst = random_unit_demand_instance(rng, alpha=0.3)
            opt = solve_welfare(inst, cfg)
            steps.clear()
            big = solve_welfare(_scaled(inst, scale), cfg)
            assert len(steps) <= 60
            for want, got in [(opt.sw, big.sw), *((opt.prices[k], big.prices[k]) for k in range(len(inst.goods)))]:
                assert abs(got / scale - want) <= 1e-6 * (1.0 + abs(want))


def _tabulated_draw(k):
    """1-3 goods, 2-7 types of 1-2 single-good bundles on tabulated curves.

    Each curve falls from (0, 1) through 2-5 nodes to an end price drawn
    from U[0.05, 0.6], or to 0 on every fourth draw.
    """
    rng = np.random.default_rng(1000 + k)
    n_goods = int(rng.integers(1, 4))
    goods = [(f"g{j}", random_cost(rng)) for j in range(n_goods)]
    end = 0.0 if k % 4 == 3 else float(rng.uniform(0.05, 0.6))
    types = []
    for i in range(int(rng.integers(2, 8))):
        chosen = rng.choice(n_goods, size=int(rng.integers(1, min(2, n_goods) + 1)), replace=False)
        n = int(rng.integers(2, 6))
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n - 1))])
        ls = 1.0 - (1.0 - end) * np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
        curve = InverseDemand.tabulated(list(zip(xs.tolist(), ls.tolist())), 0.0)
        types.append((f"b{i}", [[f"g{int(j)}"] for j in sorted(chosen)], curve))
    return MarketInstance.create(goods, types)


class TestSupportCeiling:
    """A tabulated curve that ends at a positive price reads 0 at its ceiling.

    A type whose optimum is the ceiling then has a projected gradient of
    c(y) there and a rising SW just below it; the run fixes it at the cap
    instead of stepping back and forth.
    """

    def test_runs_at_the_ceiling_stop_in_few_steps(self, monkeypatch):
        steps = []

        def counted(self, *args):
            steps.append(1)
            return newton_step(self, *args)

        newton_step = FlowProgram.newton_step
        monkeypatch.setattr(FlowProgram, "newton_step", counted)
        cfg = SolverConfig(max_iters=200)
        one = MarketInstance.create(
            [("g0", CostFunction.power(0.1, 1.0))],
            [("t0", [["g0"]], InverseDemand.tabulated([(0.0, 1.0), (1.0, 0.5)], 0.0))],
        )
        opt = solve_welfare(one, cfg)
        assert len(steps) <= 30
        # lambda stays above c(y) = 0.1 y up to the ceiling x = 1.
        assert [opt.demand[0], opt.prices[0], opt.sw] == pytest.approx([1.0, 0.1, 0.7], abs=1e-12)
        for k in range(24):
            steps.clear()
            solve_welfare(_tabulated_draw(k), cfg)
            assert len(steps) <= 30, k


def _zero_price_allocation(inst, demand):
    """Cheapest allocation serving demand over every bundle: zero prices tie them all."""
    return min_cost_allocation(inst, np.zeros(len(inst.goods)), demand)[1]


class TestConstrainedWelfare:
    def test_zero_demand_costs_nothing(self, twin_goods_instance):
        y = _zero_price_allocation(twin_goods_instance, np.array([0.0]))
        np.testing.assert_array_equal(y, [0.0, 0.0])

    def test_single_bundle_is_forced(self, linear_demand):
        inst = MarketInstance.create(
            [("g1", CostFunction.power(1.0, 1.0)), ("g2", CostFunction.power(1.0, 1.0))],
            [("b1", [["g1", "g2"]], linear_demand)],
        )
        y = _zero_price_allocation(inst, np.array([0.4]))
        assert y[0] == pytest.approx(0.4)
        assert y[1] == pytest.approx(0.4)

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
        demand = np.array([0.7, 0.5, 0.6])
        y = _zero_price_allocation(inst, demand)
        cost = inst.total_cost(y)
        # Free prices let every bundle compete, which zero prices replicate.
        reference = oracle_min_split_cost(
            inst, np.zeros(len(inst.goods)), demand, levels=60
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
    """D(p) - SW(z) at p = c(y(z)): against targets inf and 0, and against its conjugate form."""

    # lambda(x) = 1 - x and c(y) = y on both goods: the optimum splits x = 2/3
    # evenly; at reserve 0.5 the marginals floor at 0.5 and it splits x = 1/2.
    def test_gap_bounds_true_suboptimality(self, twin_goods_instance):
        inst = twin_goods_instance
        for reserve, z_opt in ((None, (1 / 3, 1 / 3)), (0.5, (0.25, 0.25))):
            costs = inst.cost_batch if reserve is None else _ReserveFloored(inst, reserve)
            program = inst.welfare_program
            f_opt = _objective(program, costs, np.array(z_opt))
            for tol in (np.inf, 0.0):
                for z in (z_opt, (0.0, 0.0), (0.5, 0.1), (0.2, 0.2), (0.6, 0.3)):
                    z = np.array(z)
                    gap, target = _certificate(program, costs, z, tol)
                    assert target == tol * (1.0 + abs(_objective(program, costs, z)))
                    assert f_opt - _objective(program, costs, z) <= gap + 1e-12
                    assert gap <= _certificate(program, costs, z, np.inf)[0]
                assert _certificate(program, costs, z_opt, tol)[0] <= 1e-12

    # The same market with the type's mass held fixed: C(y) = y^2 / 2 per
    # good, so a mass m on top of base b splits to equal allocations.
    def test_fixed_mass_gap_bounds_true_suboptimality(self, twin_goods_instance):
        inst = twin_goods_instance
        cases = [
            (None, 2 / 3, 0.0, (1 / 3, 1 / 3)),
            (0.5, 2 / 3, 0.0, (1 / 3, 1 / 3)),
            (None, 1.0, np.array([0.2, 0.0]), (0.4, 0.6)),
        ]
        for reserve, mass, base, z_opt in cases:
            costs = inst.cost_batch if reserve is None else _ReserveFloored(inst, reserve)
            program = FlowProgram(inst.stacked_masks, inst.bundle_sizes, masses=np.array([mass]), base=base)
            cost_opt = -_objective(program, costs, np.array(z_opt))
            for tol in (np.inf, 0.0):
                for share in (0.0, 0.1, 0.3, 0.75, 1.0):
                    z = mass * np.array([share, 1.0 - share])
                    gap, target = _certificate(program, costs, z, tol)
                    cost = -_objective(program, costs, z)
                    assert _certificate(program, costs, z, 0.5)[1] == 0.5 * (1.0 + abs(cost))
                    assert cost - cost_opt <= gap + 1e-12
                assert _certificate(program, costs, z_opt, tol)[0] <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_fixed_mass_gap_bounds_the_excess_over_the_split_oracle(self, seed):
        # At zero prices every bundle ties, so the oracle enumerates all splits
        # of the fixed masses; its least cost is at least min C.  The 1e-12 is
        # rounding in C at a certified optimum, whose gap is near zero.
        rng = np.random.default_rng(seed)
        inst = random_unit_demand_instance(rng, 0.0, max_goods=3, max_types=3)
        masses = rng.uniform(0.2, 1.0, size=len(inst.buyer_types))
        program, costs = FlowProgram(inst.stacked_masks, inst.bundle_sizes, masses=masses), inst.cost_batch
        reference = oracle_min_split_cost(
            inst, np.zeros(len(inst.goods)), masses, levels=10
        )
        n = program.caps.size
        z_opt = flow.solve(program, costs, np.repeat(masses / program.sizes, program.sizes), NEWTON_STEPS, SOLVER_TOL)
        points = [program.project(rng.uniform(0.0, 1.0, size=n) * rng.random(n).round() + 1e-3) for _ in range(4)]
        for z in [z_opt, *points]:
            gap, _ = _certificate(program, costs, z, 1.0)
            assert -_objective(program, costs, z) - reference <= gap + 1e-12

    @staticmethod
    def _conjugate_gap(program, costs, inst, reserve, z):
        """D(p) - SW(z) at p = c(y(z)), with each cost's conjugate in closed form.

        For power costs C*(p) = p y0 - C(y0) at y0 = (p / a)^(1 / beta); the
        reserve-floored cost's conjugate is C*(max(p, r)).
        """
        a = np.array([c.a for _, c in inst.goods])
        beta = np.array([c.beta for _, c in inst.goods])
        p = costs.at(program.allocation(z))[0]
        p_c = p if reserve is None else np.maximum(p, reserve)
        y0 = (p_c / a) ** (1.0 / beta)
        conjugate = p_c * y0 - a * y0 ** (beta + 1.0) / (beta + 1.0)
        q = np.minimum.reduceat(inst.stacked_masks @ p, program.offsets[:-1])
        t = program.demand.demand_at_price(q)
        dual = conjugate.sum() + (program.demand.utility_integral(t) - q * t).sum()
        return dual - _objective(program, costs, z)

    @pytest.mark.parametrize("reserve", [None, 0.2, 0.6])
    def test_matches_the_conjugate_form_of_the_gap(self, reserve):
        rng = np.random.default_rng(83)
        for k in range(12):
            if k % 3 == 0:
                drawn = random_unit_demand_instance(rng, alpha=(0.0, 0.5)[k % 2])
            else:
                drawn = random_multi_minded_instance(rng, alpha=0.4, size_ratio=1 + k % 4)
            inst = MarketInstance(
                tuple((g, CostFunction.power(c.a, c.beta)) for g, c in drawn.goods), drawn.buyer_types
            )
            costs = inst.cost_batch if reserve is None else _ReserveFloored(inst, reserve)
            program = inst.welfare_program
            n = program.caps.size
            z_opt = _newton_run(program, costs, np.zeros(n), SolverConfig().max_iters)
            points = [np.zeros(n), z_opt, program.project(z_opt * rng.uniform(0.9, 1.1, size=n))]
            points += [rng.uniform(0.0, 1.0, size=n) * rng.random(n).round() for _ in range(4)]
            for z in points:
                gap, _ = _certificate(program, costs, z, 1.0)
                f = _objective(program, costs, z)
                assert abs(gap - self._conjugate_gap(program, costs, inst, reserve, z)) <= 1e-12 * (1.0 + abs(f))


class TestValueAndGradient:
    """The fused evaluation the Newton run uses, on instance and reserve-floored costs."""

    @pytest.mark.parametrize("reserve", [None, 0.3])
    def test_gradient_matches_finite_differences(self, reserve):
        rng = np.random.default_rng(41)
        for ratio in (1, 2, 4):
            inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=ratio)
            costs = inst.cost_batch if reserve is None else _ReserveFloored(inst, reserve)
            program = inst.welfare_program
            z = rng.uniform(0.05, 1.0, size=program.caps.size)
            assert np.all(program.totals(z) < inst.demand_batch.support_ceiling)
            g = program.at(z, costs).gradient
            h = 1e-6
            for j in range(z.size):
                step = np.zeros_like(z)
                step[j] = h
                fd = (_objective(program, costs, z + step) - _objective(program, costs, z - step)) / (2.0 * h)
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
                program = inst.welfare_program
                n = program.caps.size
                # Some coordinates at zero, so that a reserve binds on some goods.
                z = rng.uniform(0.0, 0.6, size=n) * (rng.random(n) < 0.7)
                x = program.totals(z)
                owner = np.repeat(np.arange(len(x)), program.sizes)
                types = (owner[:, None] == owner[None, :]).astype(float)
                if fixed_mass:
                    # The split routes on top of a base: the single-bundle types' goods.
                    base = rng.uniform(0.0, 0.5, size=len(inst.goods))
                    program = FlowProgram(inst.stacked_masks, inst.bundle_sizes, masses=x, base=base)
                    curvature = 0.0
                else:
                    curvature = -inst.demand_batch.derivative(x)[owner][:, None] * types
                point = program.at(z, costs)
                hessian = curvature + (inst.stacked_masks * costs.at(point.y)[1]) @ inst.stacked_masks.T
                grad = point.gradient
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
                    got = program.newton_step(point, free, damping)
                    scale = np.abs(want).max()
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * (1.0 + 1.0 / damping) * scale)
                    assert np.all(got[~free] == 0.0)


class TestIndexForm:
    """A program's index form against the dense incidence products it replaces."""

    @pytest.mark.parametrize("fixed_mass", [False, True])
    def test_matches_the_dense_products(self, fixed_mass):
        rng = np.random.default_rng(59)
        for k in range(8):
            if k % 2:
                inst = random_unit_demand_instance(rng, alpha=0.3)
            else:
                inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=1 + k % 4)
            stacked = inst.stacked_masks
            n = stacked.shape[0]
            z = rng.uniform(0.0, 0.6, size=n) * (rng.random(n) < 0.7)
            if fixed_mass:
                base = rng.uniform(0.1, 0.5, size=len(inst.goods))
                program = FlowProgram(stacked, inst.bundle_sizes, masses=np.add.reduceat(z, inst.bundle_offsets[:-1]), base=base)
            else:
                base, program = 0.0, inst.welfare_program
            y = program.allocation(z)
            np.testing.assert_allclose(y, base + stacked.T @ z, rtol=1e-14, atol=0.0)
            sums = program.at(z, inst.cost_batch).sums
            np.testing.assert_allclose(sums, stacked @ inst.cost_batch.marginal(y), rtol=1e-14, atol=0.0)


class TestProjectedGradient:
    def test_is_the_clipped_gradient_residual(self):
        rng = np.random.default_rng(53)
        inst = random_multi_minded_instance(rng, alpha=0.4, size_ratio=2)
        program = inst.welfare_program
        z = rng.uniform(0.0, 0.5, size=program.caps.size) * (rng.random(program.caps.size) < 0.6)
        g = program.at(z, inst.cost_batch).gradient
        want = np.max(np.abs(z - np.clip(z + g, 0.0, program.caps)))
        assert program.projected_gradient(z, g) == want
        assert _residual(inst.welfare_program, inst.cost_batch, z) == want

    def test_vanishes_at_the_analytic_optimum(self, twin_goods_instance):
        # lambda(x) = 1 - x and c(y) = y on both goods: the optimum splits 2/3 evenly.
        program, costs = twin_goods_instance.welfare_program, twin_goods_instance.cost_batch
        assert _residual(program, costs, np.array([1 / 3, 1 / 3])) <= 1e-15
        assert _residual(program, costs, np.array([0.5, 0.1])) > 0.1
        # At zero every bundle is worth entering: the residual is the full gradient.
        assert _residual(program, costs, np.zeros(2)) == pytest.approx(1.0)
