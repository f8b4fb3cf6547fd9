"""Welfare-maximizing solver for the market's concave flow program.

The program maximizes total buyer surplus minus production cost over bundle
splits x_i(S) >= 0, with x_i and y_t induced linearly; each type's total is
capped at its demand support.  Its Lagrangian dual in the goods' prices p,

    D(p) = sum_g C*_g(p_g) + sum_i max_t [U_i(t) - q_i t],  q_i = min_S p(S),

is convex and bounds the optimum from above at every p >= 0 (weak duality),
so D(p) - SW(z) bounds how far an iterate z is from optimal.

A solve runs up to flow.ROUNDS rounds of the Newton core in flow.py on
F = -SW over the box 0 <= z <= cap, each round continuing from the last
iterate; the first starts from zero or a given split (ladder rungs start from
the welfare optimum's).

After each round the gap is tried at the marginal-cost prices p = c(y(z));
only if that misses the target is p improved by L-BFGS-B on D, with a
subgradient (SciPy's, imported on that first use, so that a solve that never
needs it loads NumPy only).  The posted prices are always c(y); the improved
p only certifies.

The program works on the instance's struct-of-arrays forms: the stacked
bundle incidence, the DemandBatch of its curves and a batched cost (the
instance's CostBatch, or reserve-floored costs on a ladder rung).  Each dual
evaluation is one kernel call per family.  A solve returns its split, in
stacked_masks row order, and its allocation; market._solution turns them
into the PricingSolution, posted at the marginals of the solved costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import ROUNDS, FlowProgram, _run_newton
from .market import MarketInstance, PricingSolution, SPLIT_DUST, _bundle_prices, _solution

__all__ = [
    "SolverConfig",
    "SolverError",
    "solve_welfare",
]

@dataclass
class SolverConfig:
    """Tolerance and iteration cap of the welfare solver.

    tol is the relative target of the weak-duality gap: a solve is certified
    once D(p) - SW(z) <= tol * (1 + |SW(z)|).  max_iters caps the Newton
    steps of each round, and the iterations of the dual price search.
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


class _FlowProgram(FlowProgram):
    """The welfare program of the instance's buyer types against costs, with its dual.

    costs is a batched cost over the instance's goods (marginal, total and
    conjugate take and return one value per good): usually inst.cost_batch,
    or reserve-floored costs on a ladder rung.
    """

    def __init__(self, inst: MarketInstance, costs):
        super().__init__(inst.stacked_masks, inst.bundle_sizes, costs, demand=inst.demand_batch)
        owner = np.repeat(np.arange(len(self.sizes)), self.sizes)
        # Each split coordinate's (type, bundle) cell in a types x bundles grid.
        self._cells = (owner, np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], self.sizes))

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


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    Only certificate's dual price search calls it, and only when the gap at
    p = c(y) misses its target, so no command imports SciPy unless that
    happens.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _solve_flow(inst: MarketInstance, costs, cfg: SolverConfig, start=None):
    """Certified optimum (z, y) of the program against costs.

    z is the split in stacked_masks row order, entries below SPLIT_DUST
    zeroed, and y the allocation.  The first round starts from start, a
    split in the same order (zero if None), clipped into [0, cap].
    """
    program = _FlowProgram(inst, costs)
    z = np.zeros(int(program.offsets[-1])) if start is None else start
    for _ in range(ROUNDS):
        z = _run_newton(program, z, cfg.max_iters)
        gap, target = program.certificate(z, cfg.tol, cfg.max_iters)
        if gap <= target:
            break
    else:
        raise SolverError(
            f"welfare solver gap {gap:.3e} above tolerance after {ROUNDS} rounds",
            best_splits=z,
            residual=gap,
        )
    z[z < SPLIT_DUST] = 0.0
    return z, program.allocation(z)


def _marginal_solution(inst: MarketInstance, z, y, costs) -> PricingSolution:
    """The solution of a solved program (z, y), posted at the marginals of its costs."""
    prices = costs.marginal(y)
    _, cheapest, _ = _bundle_prices(inst, prices)
    return _solution(inst, prices, cheapest, np.add.reduceat(z, inst.bundle_offsets[:-1]), z, y)


def solve_welfare(inst: MarketInstance, cfg: SolverConfig | None = None) -> PricingSolution:
    """Welfare-maximizing solution with each good priced at its marginal cost."""
    z, y = _solve_flow(inst, inst.cost_batch, cfg or SolverConfig())
    return _marginal_solution(inst, z, y, inst.cost_batch)
