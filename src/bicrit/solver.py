"""Welfare-maximizing solver for the market's concave flow program.

The program maximizes total buyer surplus minus production cost over bundle
splits x_i(S) >= 0, with x_i and y_t induced linearly; each type's total is
capped at its demand support.  Its Lagrangian dual in the goods' prices p,

    D(p) = sum_g C*_g(p_g) + sum_i max_t [U_i(t) - q_i t],  q_i = min_S p(S),

is convex and bounds the optimum from above at every p >= 0 (weak duality),
so D(p) - SW(z) bounds how far an iterate z is from optimal.

A solve is one run of the Newton core in flow.py on F = -SW over the box
0 <= z <= cap, from zero or a given split (ladder rungs start from the
welfare optimum's), certified once.

The run's last iterate is certified by the gap at the posted prices
p = c(y(z)), the costs' gradient at y, where Fenchel's equality
C*(p) = p y - C(y) (Rockafellar, Convex Analysis, 1970, Thm 23.5) cancels
the cost terms:

    D(c(y)) - SW(z) = sum_r z_r (p(S_r) - q_i) + sum_i [U_i(t_i) - U_i(x_i) - q_i (t_i - x_i)]

over the split's rows r (type i, bundle S_r), t_i the demand at q_i.  Both
sums are non-negative, and both vanish exactly at the KKT point: each used
bundle's marginal-cost sum is its type's cheapest, and x_i = t_i.  A gap
above its target raises SolverError.

The program works on the instance's struct-of-arrays forms: the stacked
bundle incidence, the DemandBatch of its curves and a batched cost (the
instance's CostBatch, or reserve-floored costs on a ladder rung).  A solve
returns its split, in stacked_masks row order, and its allocation;
market._solution turns them into the PricingSolution, posted at the
marginals of the solved costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import FlowProgram, _run_newton
from .market import MarketInstance, PricingSolution, _bundle_prices, _solution
from .tolerances import NEWTON_STEPS, SOLVER_TOL, SPLIT_DUST

__all__ = [
    "SolverConfig",
    "SolverError",
    "solve_welfare",
]

@dataclass
class SolverConfig:
    """Tolerance and iteration cap of the welfare solver.

    tol is the relative target of the weak-duality gap: a solve is certified
    once D(p) - SW(z) <= tol * (1 + |SW(z)|) at the marginal-cost prices
    p = c(y(z)).  max_iters caps the Newton steps of the solve.
    """

    max_iters: int = NEWTON_STEPS
    tol: float = SOLVER_TOL

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class SolverError(RuntimeError):
    """Solver failed to certify optimality; carries the best iterate found."""

    def __init__(self, message, best_splits=None, residual=None):
        super().__init__(message)
        self.best_splits = best_splits
        self.residual = residual


class _FlowProgram(FlowProgram):
    """The welfare program of the instance's buyer types against costs, with its certificate.

    costs is a batched cost over the instance's goods (marginal, slope and
    total take and return one value per good): usually inst.cost_batch, or
    reserve-floored costs on a ladder rung.
    """

    def __init__(self, inst: MarketInstance, costs):
        super().__init__(inst.stacked_masks, inst.bundle_sizes, costs, demand=inst.demand_batch)

    def certificate(self, z, tol):
        """(gap, target): the module docstring's D(c(y)) - SW(z), and tol * (1 + |SW(z)|)."""
        x, y = self.totals(z), self.allocation(z)
        sums = self.stacked @ self.costs.marginal(y)
        q = np.minimum.reduceat(sums, self.offsets[:-1])
        t = self.demand.demand_at_price(q)
        utility = self.demand.utility_integral
        gap = z @ (sums - np.repeat(q, self.sizes)) + (utility(t) - utility(x) - q * (t - x)).sum()
        return float(gap), tol * (1.0 + abs(self._value(x, y)))


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    No code in src/ calls it: it stays only as the name that
    benchmarks/tracing.py rebinds to count its calls.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _solve_flow(inst: MarketInstance, costs, cfg: SolverConfig, start=None):
    """Certified optimum (z, y) of the program against costs.

    z is the split in stacked_masks row order, entries below SPLIT_DUST
    zeroed, and y the allocation.  The run starts from start, a split in
    the same order (zero if None), clipped into [0, cap].
    """
    program = _FlowProgram(inst, costs)
    z = _run_newton(program, np.zeros(int(program.offsets[-1])) if start is None else start, cfg.max_iters)
    gap, target = program.certificate(z, cfg.tol)
    if gap > target:
        raise SolverError(
            f"welfare solver gap {gap:.3e} above tolerance {target:.3e}",
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
