"""Welfare-maximizing solver for the market's concave flow program.

The program maximizes total buyer surplus minus production cost over bundle
splits x_i(S) >= 0, with x_i and y_t induced linearly; each type's total is
capped at its demand support.  A solve is one run of flow.solve on F = -SW
over the box 0 <= z <= cap, from zero or a given split (ladder rungs start
from the welfare optimum's), certified by the weak-duality gap at the posted
prices p = c(y(z)) that flow.py's docstring derives.

Every solve runs the one program the instance caches,
MarketInstance.welfare_program, against a batched cost passed to it: the
instance's CostBatch, or reserve-floored costs on a ladder rung.  A solve
returns its PricingSolution (built by market._solution), posted at the
marginals of the solved costs at its allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import SolverError, solve
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

    tol is the relative target of the gap that flow.solve certifies, and
    max_iters caps the Newton steps of the solve.
    """

    max_iters: int = NEWTON_STEPS
    tol: float = SOLVER_TOL

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    No code in src/ calls it: it stays only as the name that
    benchmarks/tracing.py rebinds to count its calls.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _solve_flow(inst: MarketInstance, costs, cfg: SolverConfig, start) -> PricingSolution:
    """The certified optimum of the instance's welfare program against costs, posted at their marginals.

    The run starts from start, a split in stacked_masks row order, clipped
    into [0, cap].  Split entries up to SPLIT_DUST are zeroed before the
    allocation y is taken, and the solution posts the marginals of costs at y.
    """
    program = inst.welfare_program
    z = solve(program, costs, start, cfg.max_iters, cfg.tol)
    z[z <= SPLIT_DUST] = 0.0
    y = program.allocation(z)
    prices = costs.at(y)[0]
    cheapest, _ = _bundle_prices(inst, prices)
    return _solution(inst, prices, cheapest, program.totals(z), z, y)


def solve_welfare(inst: MarketInstance, cfg: SolverConfig | None = None) -> PricingSolution:
    """Welfare-maximizing solution with each good priced at its marginal cost."""
    return _solve_flow(inst, inst.cost_batch, cfg or SolverConfig(), np.zeros(int(inst.bundle_offsets[-1])))
