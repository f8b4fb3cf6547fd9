"""Welfare-maximizing solver for the market's concave flow program.

The program maximizes total buyer surplus minus production cost over bundle
splits x_i(S) >= 0, with x_i and y_t induced linearly; each type's total is
capped at its demand support.  Its Lagrangian dual in the goods' prices p,

    D(p) = sum_g C*_g(p_g) + sum_i max_t [U_i(t) - q_i t],  q_i = min_S p(S),

is convex and bounds the optimum from above at every p >= 0 (weak duality),
so D(p) - SW(z) bounds how far an iterate z is from optimal.

A solve runs up to four rounds of projected quasi-Newton (L-BFGS-B), each
restarted from the last iterate; the first starts from zero or a given split
(ladder rungs start from the welfare optimum's).  After each round the gap is
tried at the marginal-cost prices p = c(y(z)); only if that misses the target
is p improved by L-BFGS-B on D, with a subgradient.  The posted prices are
always c(y); the improved p only certifies.

The program works on the instance's struct-of-arrays forms: the stacked
bundle incidence, the DemandBatch of its curves and a batched cost (the
instance's CostBatch, or reserve-floored costs on a ladder rung).  Each
objective, gradient or dual evaluation is one kernel call per family, and
L-BFGS-B gets value and gradient from one fused call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .market import (
    MarketInstance,
    PricingSolution,
    SPLIT_DUST,
    _bundle_prices,
)

__all__ = [
    "SolverConfig",
    "SolverError",
    "solve_welfare",
]

_ROUNDS = 4


@dataclass
class SolverConfig:
    """Tolerance and iteration cap of the welfare solver.

    tol is the relative target of the weak-duality gap: a solve is certified
    once D(p) - SW(z) <= tol * (1 + |SW(z)|).  max_iters caps the iterations
    of each L-BFGS-B call, in every round.
    """

    max_iters: int = 20_000
    tol: float = 1e-8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


class _FlowProgram:
    """The welfare program of the instance's buyer types against costs.

    costs is a batched cost over the instance's goods (marginal, total and
    conjugate take and return one value per good): usually inst.cost_batch,
    or reserve-floored costs on a ladder rung.  Each type's total is capped
    at its demand support.
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

    def dual(self, p):
        """(D(p), a subgradient of D at p), for prices p >= 0.

        A subgradient is the supply c^-1(p) that the conjugates pick, less
        the goods of each type's best response routed to one cheapest bundle.
        """
        conjugate, supply = self.costs.conjugate(p)
        grid = np.full((len(self.sizes), int(self.sizes.max())), np.inf)
        grid[self._cells] = self.stacked @ p
        best = np.argmin(grid, axis=1)
        q = grid[np.arange(len(best)), best]
        t = self.demand.demand_at_price(q)
        value = conjugate.sum() + (self.demand.utility_integral(t) - q * t).sum()
        return float(value), supply - self.stacked[self.offsets[:-1] + best].T @ t

    def certificate(self, z, tol, max_iters):
        """(gap, target): the best weak-duality gap D(p) - SW(z) found, and tol * (1 + |SW(z)|).

        The gap is tried at p = c(y(z)) first; only if it misses the target
        is p improved by L-BFGS-B on D, run until it makes no progress: the
        default stopping tests end it long before the gap is near the target.
        """
        f = self.objective(z)
        target = tol * (1.0 + abs(f))
        p = self.costs.marginal(self.allocation(z))
        gap = self.dual(p)[0] - f
        if gap > target:
            res = minimize(
                self.dual,
                p,
                jac=True,
                method="L-BFGS-B",
                bounds=[(0.0, None)] * p.size,
                options={"maxiter": max_iters, "ftol": 0.0, "gtol": 0.0},
            )
            gap = min(gap, res.fun - f)
        return gap, target


def _run_quasi_newton(program, z, max_iters):
    def neg(zv):
        f, g = program.value_and_gradient(zv)
        return -f, -g

    res = minimize(
        neg,
        z,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, c) for c in program.caps],
        options={"maxiter": max_iters, "ftol": 1e-18, "gtol": 1e-14},
    )
    return np.maximum(res.x, 0.0)


def _solve_flow(inst: MarketInstance, costs, cfg: SolverConfig, start=None) -> FlowResult:
    """Certified optimum of the program against costs.

    The first round starts from start, a split in stacked_masks row order
    (zero if None); the bounds clip it into [0, cap].
    """
    program = _FlowProgram(inst, costs)
    z = np.zeros(int(program.offsets[-1])) if start is None else start
    for _ in range(_ROUNDS):
        z = _run_quasi_newton(program, z, cfg.max_iters)
        gap, target = program.certificate(z, cfg.tol, cfg.max_iters)
        if gap <= target:
            break
    else:
        raise SolverError(
            f"welfare solver gap {gap:.3e} above tolerance after {_ROUNDS} rounds",
            best_splits=z,
            residual=gap,
        )
    z[z < SPLIT_DUST] = 0.0
    splits = [
        z[program.offsets[k] : program.offsets[k + 1]]
        for k in range(len(program.sizes))
    ]
    return FlowResult(splits=splits, y=program.allocation(z))


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


def projected_gradient_norm(inst: MarketInstance, splits) -> float:
    """Infinity norm of the objective gradient projected on the feasible cone."""
    program = _FlowProgram(inst, inst.cost_batch)
    z = np.concatenate([np.asarray(s, dtype=float) for s in splits])
    g = program.gradient(z)
    active = z <= SPLIT_DUST
    residual = np.where(active, np.maximum(g, 0.0), np.abs(g))
    return float(np.max(residual)) if residual.size else 0.0
