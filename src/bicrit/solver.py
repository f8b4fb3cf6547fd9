"""Welfare-maximizing solver for the market's concave flow program.

The program maximizes total buyer surplus minus production cost over bundle
splits x_i(S) >= 0, with x_i and y_t induced linearly.  The feasible set is a
product of scaled simplices (one per buyer type, capped at the demand
support), so the linear subproblem of conditional gradient is just a
cheapest-bundle assignment.  Plain conditional gradient stalls at tight
tolerances when the optimum sits on a face, so the default strategy runs a
projected quasi-Newton pass (L-BFGS-B) and uses the conditional-gradient
duality gap as the optimality certificate, falling back to explicit
conditional-gradient rounds if the gap is still too large.

The program works on the instance's struct-of-arrays forms: the stacked
bundle incidence, the DemandBatch of its curves and a batched cost (the
instance's CostBatch, or reserve-floored costs on a ladder rung).  Each
objective or gradient evaluation is one kernel call per family, and
L-BFGS-B gets both from one fused value_and_gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .market import (
    MarketInstance,
    PricingSolution,
    SPLIT_DUST,
    _bundle_prices,
    split_min_cost,
)

__all__ = [
    "SolverConfig",
    "SolverError",
    "solve_constrained_welfare",
    "solve_welfare",
]


@dataclass
class SolverConfig:
    """Iteration and tolerance knobs for the welfare solver.

    tol is the relative duality-gap target; method is "auto" (quasi-Newton
    with conditional-gradient certification), "cg", or "pg"; step_rule picks
    the conditional-gradient step ("line-search" or the classic diminishing
    2/(k+2) schedule).
    """

    max_iters: int = 50_000
    tol: float = 1e-8
    method: str = "auto"
    step_rule: str = "line-search"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.method not in ("auto", "cg", "pg"):
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.step_rule not in ("line-search", "diminishing"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")


class SolverError(RuntimeError):
    """Solver failed to certify optimality; carries the best iterate found."""

    def __init__(self, message, best_splits=None, residual=None):
        super().__init__(message)
        self.best_splits = best_splits
        self.residual = residual


@dataclass
class FlowResult:
    splits: list[np.ndarray]
    y: np.ndarray
    objective: float
    gap: float
    iterations: int
    history: list[float] = field(default_factory=list)


class _FlowProgram:
    """The welfare program of the instance's buyer types against costs.

    costs is a batched cost over the instance's goods (marginal and total
    take and return one value per good): usually inst.cost_batch, or
    reserve-floored costs on a ladder rung.  Each type's total is capped at
    its demand support.
    """

    def __init__(self, inst: MarketInstance, costs):
        self.demand = inst.demand_batch
        self.costs = costs
        self.sizes = inst.bundle_sizes
        self.offsets = inst.bundle_offsets
        self.stacked = inst.stacked_masks
        self.type_caps = self.demand.support_ceiling
        self.caps = np.repeat(self.type_caps, self.sizes)
        # Each split coordinate's (type, bundle) cell in a types x bundles grid.
        self._cells = (
            np.repeat(np.arange(len(self.sizes)), self.sizes),
            np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], self.sizes),
        )

    def totals(self, z):
        return np.add.reduceat(z, self.offsets[:-1])

    def allocation(self, z):
        return self.stacked.T @ z

    def _value(self, x, y):
        utility = self.demand.utility_integral(x).sum()
        cost = self.costs.total(y).sum()
        return float(utility - cost)

    def _gradient(self, x, y):
        return np.repeat(self.demand.eval(x), self.sizes) - self.stacked @ self.costs.marginal(y)

    def objective(self, z):
        return self._value(self.totals(z), self.allocation(z))

    def gradient(self, z):
        return self._gradient(self.totals(z), self.allocation(z))

    def value_and_gradient(self, z):
        """(objective(z), gradient(z)) from one pass of totals and allocation."""
        x, y = self.totals(z), self.allocation(z)
        return self._value(x, y), self._gradient(x, y)

    def vertex_and_gap(self, z, g):
        """Conditional-gradient vertex and the duality gap g . (v - z)."""
        grid = np.full((len(self.sizes), int(self.sizes.max())), -np.inf)
        grid[self._cells] = g
        best = np.argmax(grid, axis=1)
        types = np.flatnonzero(grid[np.arange(len(best)), best] > 0.0)
        v = np.zeros_like(z)
        v[self.offsets[types] + best[types]] = self.type_caps[types]
        return v, float(g @ (v - z))

    def dual_gap(self, z) -> float:
        """Upper bound on the remaining improvement via marginal-cost prices.

        Concavity gives, per buyer type, at most the surplus of the best
        response to its cheapest bundle's current marginal cost, plus the
        slack from mass routed over costlier bundles.  Unlike the linearized
        conditional-gradient gap this does not scale with the demand caps.
        """
        x = self.totals(z)
        bundle_costs = self.stacked @ self.costs.marginal(self.allocation(z))
        starts = self.offsets[:-1]
        cheapest = np.minimum.reduceat(bundle_costs, starts)
        # The best response never exceeds the support, which is the cap.
        target = self.demand.demand_at_price(cheapest)
        utility = self.demand.utility_integral
        surplus = utility(target) - utility(x) - cheapest * (target - x)
        misrouted = np.add.reduceat((bundle_costs - np.repeat(cheapest, self.sizes)) * z, starts)
        return float(np.sum(np.maximum(surplus, 0.0) + misrouted))


def _line_search(program, z, direction, f0):
    """Maximize the concave 1-D restriction along z + gamma * direction."""
    lo, hi = 0.0, 1.0
    # Golden-section on the derivative sign is overkill; bisection on the
    # directional derivative converges fast and needs only gradient calls.
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        slope = float(program.gradient(z + mid * direction) @ direction)
        if slope > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    gamma = 0.5 * (lo + hi)
    f1 = program.objective(z + gamma * direction)
    if f1 < f0:
        return 0.0, f0
    return gamma, f1


def _run_cg(program, z, cfg, budget, history):
    f = program.objective(z)
    gap = np.inf
    it = 0
    for it in range(1, budget + 1):
        g = program.gradient(z)
        v, gap = program.vertex_and_gap(z, g)
        if gap <= cfg.tol * (1.0 + abs(f)):
            break
        gap = min(gap, program.dual_gap(z))
        if gap <= cfg.tol * (1.0 + abs(f)):
            break
        direction = v - z
        if cfg.step_rule == "diminishing":
            gamma = 2.0 / (it + 2.0)
            f_new = program.objective(z + gamma * direction)
            if f_new < f:
                gamma, f_new = _line_search(program, z, direction, f)
        else:
            gamma, f_new = _line_search(program, z, direction, f)
        if gamma == 0.0:
            break
        z = z + gamma * direction
        f = f_new
        history.append(f)
    return z, f, gap, it


def _run_quasi_newton(program, z, cfg):
    def neg(zv):
        f, g = program.value_and_gradient(zv)
        return -f, -g

    res = minimize(
        neg,
        z,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, c) for c in program.caps],
        options={"maxiter": 20_000, "ftol": 1e-18, "gtol": 1e-14},
    )
    return np.maximum(res.x, 0.0)


def _solve_flow(inst: MarketInstance, costs, cfg: SolverConfig) -> FlowResult:
    program = _FlowProgram(inst, costs)
    z = np.zeros(int(program.offsets[-1]))
    history = [program.objective(z)]
    total_iters = 0
    gap = np.inf

    if cfg.method == "cg":
        z, f, gap, it = _run_cg(program, z, cfg, cfg.max_iters, history)
        total_iters = it
    else:
        rounds = 1 if cfg.method == "pg" else 4
        for attempt in range(rounds):
            z = _run_quasi_newton(program, z, cfg)
            f = program.objective(z)
            history.append(f)
            g = program.gradient(z)
            _, gap = program.vertex_and_gap(z, g)
            gap = min(gap, program.dual_gap(z))
            total_iters += 1
            if gap <= cfg.tol * (1.0 + abs(f)):
                break
            if cfg.method == "auto" and attempt < rounds - 1:
                budget = max(200, cfg.max_iters // 100)
                z, f, gap, it = _run_cg(program, z, cfg, budget, history)
                total_iters += it
                if gap <= cfg.tol * (1.0 + abs(f)):
                    break
        f = program.objective(z)

    if gap > cfg.tol * (1.0 + abs(f)):
        raise SolverError(
            f"welfare solver gap {gap:.3e} above tolerance after {total_iters} rounds",
            best_splits=z,
            residual=gap,
        )
    z[z < SPLIT_DUST] = 0.0
    splits = [
        z[program.offsets[k] : program.offsets[k + 1]]
        for k in range(len(program.sizes))
    ]
    return FlowResult(
        splits=splits,
        y=program.allocation(z),
        objective=program.objective(z),
        gap=gap,
        iterations=total_iters,
        history=history,
    )


def _solution_from_splits(inst: MarketInstance, splits, y, costs) -> PricingSolution:
    """Assemble a solved program's solution, pricing at the marginals of costs.

    costs is the batched cost the program was solved against; welfare and
    profit are always measured with the instance's own costs.
    """
    yvec = np.asarray(y, dtype=float)
    prices = costs.marginal(yvec)
    _, cheapest, _ = _bundle_prices(inst, prices)
    xvec = np.array([float(np.sum(sp)) for sp in splits])
    demand = {}
    split_dict = {}
    for t, sp, x in zip(inst.buyer_types, splits, xvec.tolist()):
        demand[t.type_id] = x
        for b, v in zip(t.bundles, sp):
            if v > SPLIT_DUST:
                split_dict[(t.type_id, b)] = float(v)
    utility = float(np.sum(inst.demand_batch.utility_integral(xvec)))
    cost = inst.total_cost(yvec)
    income = float(prices @ yvec)
    return PricingSolution(
        prices=inst.prices_dict(prices),
        demand=demand,
        split=split_dict,
        allocation=inst.prices_dict(yvec),
        sw=float(utility - cost),
        profit=income - cost,
        paid={t.type_id: float(q) for t, q in zip(inst.buyer_types, cheapest)},
    )


def solve_welfare(inst: MarketInstance, cfg: SolverConfig | None = None) -> PricingSolution:
    """Welfare-maximizing solution with each good priced at its marginal cost."""
    cfg = cfg or SolverConfig()
    result = _solve_flow(inst, inst.cost_batch, cfg)
    return _solution_from_splits(inst, result.splits, result.y, inst.cost_batch)


def solve_constrained_welfare(inst: MarketInstance, demand_fixed) -> dict[str, float]:
    """Cheapest allocation serving the fixed per-type demand, prices ignored.

    Every bundle of a type is admissible; this is the welfare maximizer
    constrained to the given demand vector.  Returns the allocation dict.
    """
    totals = [float(demand_fixed[t.type_id]) for t in inst.buyer_types]
    _, y = split_min_cost(inst.cost_functions, list(inst.bundle_masks), totals)
    return inst.prices_dict(y)


def projected_gradient_norm(inst: MarketInstance, splits) -> float:
    """Infinity norm of the objective gradient projected on the feasible cone."""
    program = _FlowProgram(inst, inst.cost_batch)
    z = np.concatenate([np.asarray(s, dtype=float) for s in splits])
    g = program.gradient(z)
    active = z <= SPLIT_DUST
    residual = np.where(active, np.maximum(g, 0.0), np.abs(g))
    return float(np.max(residual)) if residual.size else 0.0
