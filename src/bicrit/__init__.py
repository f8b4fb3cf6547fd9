"""Envy-free posted item pricing with joint profit and welfare guarantees."""

from .costs import CostFunction
from .demand import InverseDemand, verify_regularity
from .market import (
    BuyerType,
    MarketInstance,
    MarketValidationError,
    PricingSolution,
    best_response,
    buyer_marginal_costs,
    evaluate,
    min_cost_allocation,
)
from .solver import SolverConfig, SolverError, solve_welfare

__version__ = "0.1.0"

__all__ = [
    "BuyerType",
    "CostFunction",
    "InverseDemand",
    "MarketInstance",
    "MarketValidationError",
    "PricingSolution",
    "SolverConfig",
    "SolverError",
    "best_response",
    "buyer_marginal_costs",
    "evaluate",
    "min_cost_allocation",
    "solve_welfare",
    "verify_regularity",
]
