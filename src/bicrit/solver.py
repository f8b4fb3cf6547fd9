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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .market import (
    MarketInstance,
    PricingSolution,
    SPLIT_DUST,
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
    """The welfare program of the instance's buyer types against cost_fns.

    Each type's total is capped at its demand support; cost_fns are usually
    the instance's own costs, or reserve-floored ones on a ladder rung.
    """

    def __init__(self, inst: MarketInstance, cost_fns):
        self.demands = [t.demand for t in inst.buyer_types]
        self.cost_fns = cost_fns
        self.sizes = [m.shape[0] for m in inst.bundle_masks]
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.stacked = np.vstack(inst.bundle_masks)
        self.type_caps = [d.support_ceiling for d in self.demands]
        self.caps = np.repeat(self.type_caps, self.sizes)

    def totals(self, z):
        return np.add.reduceat(z, self.offsets[:-1])

    def allocation(self, z):
        return self.stacked.T @ z

    def objective(self, z):
        x = self.totals(z)
        y = self.allocation(z)
        utility = sum(d.utility_integral(v) for d, v in zip(self.demands, x))
        cost = sum(c.total(v) for c, v in zip(self.cost_fns, y))
        return float(utility - cost)

    def gradient(self, z):
        x = self.totals(z)
        y = self.allocation(z)
        lam = np.array([d.eval(v) for d, v in zip(self.demands, x)])
        marg = np.array([c.marginal(v) for c, v in zip(self.cost_fns, y)])
        return np.repeat(lam, self.sizes) - self.stacked @ marg

    def vertex_and_gap(self, z, g):
        """Conditional-gradient vertex and the duality gap g . (v - z)."""
        v = np.zeros_like(z)
        for k, cap in enumerate(self.type_caps):
            sl = slice(self.offsets[k], self.offsets[k + 1])
            gk = g[sl]
            j = int(np.argmax(gk))
            if gk[j] > 0.0:
                block = np.zeros(self.sizes[k])
                block[j] = cap
                v[sl] = block
        return v, float(g @ (v - z))

    def dual_gap(self, z) -> float:
        """Upper bound on the remaining improvement via marginal-cost prices.

        Concavity gives, per buyer type, at most the surplus of the best
        response to its cheapest bundle's current marginal cost, plus the
        slack from mass routed over costlier bundles.  Unlike the linearized
        conditional-gradient gap this does not scale with the demand caps.
        """
        x = self.totals(z)
        y = self.allocation(z)
        marg = np.array([c.marginal(v) for c, v in zip(self.cost_fns, y)])
        bundle_costs = self.stacked @ marg
        total = 0.0
        for k, (d, cap) in enumerate(zip(self.demands, self.type_caps)):
            sl = slice(self.offsets[k], self.offsets[k + 1])
            mc = bundle_costs[sl]
            cheapest = float(np.min(mc))
            if cheapest >= d.lambda_max:
                target = 0.0
            elif cheapest <= 0.0:
                target = cap
            else:
                target = min(float(d._inverse_clamped(np.asarray(cheapest))), cap)
            xi = float(x[k])
            surplus = (
                float(d.utility_integral(target))
                - float(d.utility_integral(xi))
                - cheapest * (target - xi)
            )
            misrouted = float((mc - cheapest) @ z[sl])
            total += max(surplus, 0.0) + misrouted
        return total


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
        return -program.objective(zv), -program.gradient(zv)

    res = minimize(
        neg,
        z,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, c) for c in program.caps],
        options={"maxiter": 20_000, "ftol": 1e-18, "gtol": 1e-14},
    )
    return np.maximum(res.x, 0.0)


def _solve_flow(inst: MarketInstance, cost_fns, cfg: SolverConfig) -> FlowResult:
    program = _FlowProgram(inst, cost_fns)
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


def _solution_from_splits(inst: MarketInstance, splits, y, cost_fns) -> PricingSolution:
    """Assemble a solved program's solution, pricing at the marginals of cost_fns.

    cost_fns are the costs the program was solved against; welfare and profit
    are always measured with the instance's own costs.
    """
    yvec = np.asarray(y, dtype=float)
    prices = np.array([c.marginal(v) for c, v in zip(cost_fns, yvec)])
    demand = {}
    paid = {}
    split_dict = {}
    for t, sp, mask in zip(inst.buyer_types, splits, inst.bundle_masks):
        x = float(np.sum(sp))
        demand[t.type_id] = x
        paid[t.type_id] = float(np.min(mask @ prices))
        for b, v in zip(t.bundles, sp):
            if v > SPLIT_DUST:
                split_dict[(t.type_id, b)] = float(v)
    utility = sum(
        t.demand.utility_integral(demand[t.type_id]) for t in inst.buyer_types
    )
    cost = inst.total_cost(yvec)
    income = float(prices @ yvec)
    return PricingSolution(
        prices=inst.prices_dict(prices),
        demand=demand,
        split=split_dict,
        allocation=inst.prices_dict(yvec),
        sw=float(utility - cost),
        profit=income - cost,
        paid=paid,
    )


def solve_welfare(inst: MarketInstance, cfg: SolverConfig | None = None) -> PricingSolution:
    """Welfare-maximizing solution with each good priced at its marginal cost."""
    cfg = cfg or SolverConfig()
    result = _solve_flow(inst, inst.cost_functions, cfg)
    return _solution_from_splits(inst, result.splits, result.y, inst.cost_functions)


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
    program = _FlowProgram(inst, inst.cost_functions)
    z = np.concatenate([np.asarray(s, dtype=float) for s in splits])
    g = program.gradient(z)
    active = z <= SPLIT_DUST
    residual = np.where(active, np.maximum(g, 0.0), np.abs(g))
    return float(np.max(residual)) if residual.size else 0.0
