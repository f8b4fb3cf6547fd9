"""Closed-form guarantee factors, trade-off curves, and guarantee certificates.

All factors are functions of the demand regularity parameter alpha and, for
multi-bundle markets, of the bundle size ratio.  alpha = 1 makes every factor
unbounded; alpha below ALPHA_LIMIT uses the analytic alpha -> 0 limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .market import MarketInstance, PricingSolution
from .tolerances import ALPHA_LIMIT, BOUNDARY_SLACK, BOUND_TOL

__all__ = [
    "GuaranteeCertificate",
    "certificate",
    "mm_profit_factor",
    "mm_welfare_factor",
    "peak_decay",
    "peak_ratio",
    "resolve_alpha",
    "selection_base_factor",
    "threshold_price",
    "tradeoff_bound",
    "welfare_factor",
    "zeta",
]


def _check_alpha(alpha: float):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")


def peak_decay(alpha: float) -> float:
    """(1 - alpha)^(1/alpha): the peak-price fraction kept by thresholding.

    Tends to 1/e as alpha -> 0 and to 0 at alpha = 1.
    """
    _check_alpha(alpha)
    if alpha < ALPHA_LIMIT:
        return math.exp(-1.0)
    return math.exp(math.log1p(-alpha) / alpha) if alpha < 1.0 else 0.0


def threshold_price(alpha: float, lambda_max: float) -> float:
    """The uniform price floor lambda_max * (1 - alpha)^(1/alpha).

    lambda_max / e in the alpha -> 0 limit and 0 at alpha = 1.
    """
    return lambda_max * peak_decay(alpha)


def resolve_alpha(inst: MarketInstance, alpha: float | None) -> float:
    """The regularity parameter to price with; overrides may only enlarge it.

    The CLI calls it once per pricing command; the pricers take its result.
    """
    if alpha is None:
        return inst.alpha
    if alpha < inst.alpha - BOUNDARY_SLACK:
        raise ValueError(
            f"alpha={alpha} is below the instance's regularity {inst.alpha}"
        )
    return alpha


def peak_ratio(alpha: float) -> float:
    """(1/(1 - alpha))^(1/alpha), the reciprocal of peak_decay; e at the limit."""
    _check_alpha(alpha)
    if alpha < ALPHA_LIMIT:
        return math.e
    return math.inf if alpha >= 1.0 else math.exp(-math.log1p(-alpha) / alpha)


def zeta(alpha: float) -> float:
    """Profit factor c1 + c2 = 2 * peak_ratio + alpha/(1-alpha); 2e at alpha = 0.

    Unbounded (inf) at alpha = 1, where thresholded pricing keeps a
    vanishing revenue share.
    """
    return sum(threshold_coefficients(alpha))


def welfare_factor(alpha: float) -> float:
    """Welfare factor (2 - alpha) / (1 - alpha) of thresholded pricing."""
    _check_alpha(alpha)
    if alpha >= 1.0:
        return math.inf
    return (2.0 - alpha) / (1.0 - alpha)


def selection_base_factor(alpha: float) -> float:
    """8 + 2 * peak_ratio + 4/(1-alpha): per-rung factor in the ladder bound."""
    _check_alpha(alpha)
    if alpha >= 1.0:
        return math.inf
    return 8.0 + 2.0 * peak_ratio(alpha) + 4.0 / (1.0 - alpha)


def mm_profit_factor(alpha: float, bundle_size_ratio: float) -> float:
    """Profit factor 2 * (log2(ratio) + 2) * selection_base_factor."""
    if bundle_size_ratio < 1.0:
        raise ValueError("bundle size ratio must be at least 1")
    return 2.0 * (math.log2(bundle_size_ratio) + 2.0) * selection_base_factor(alpha)


def mm_welfare_factor(alpha: float) -> float:
    """Welfare factor 12 * (2 - alpha) / (1 - alpha) of the ladder selection."""
    return 12.0 * welfare_factor(alpha)


def threshold_coefficients(alpha: float) -> tuple[float, float]:
    """(c1, c2) with SW <= c1 * profit and SW* - SW <= c2 * profit.

    These are the two sides of the thresholded-pricing analysis:
    c1 = 2 * peak_ratio - 1 and c2 = 1/(1 - alpha); zeta is c1 + c2 and
    c2 + 1 = welfare_factor.
    """
    _check_alpha(alpha)
    if alpha >= 1.0:
        return math.inf, math.inf
    return 2.0 * peak_ratio(alpha) - 1.0, 1.0 / (1.0 - alpha)


def tradeoff_bound(c: float, alpha: float) -> tuple[float, float]:
    """Instance trade-off (revenue factor, welfare factor) at measured c.

    c = SW*/SW(s) is measured from a thresholded solution, never chosen; it
    always lies in (1, welfare_factor(alpha)], and is finite.  The revenue
    factor min(c * c1, c * c2 / (c - 1)) never exceeds zeta(alpha).
    """
    _check_alpha(alpha)
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, not {c}")
    if not c > 1.0:
        raise ValueError(
            "c <= 1 is the welfare-optimal degenerate point; no trade-off applies"
        )
    if not c <= welfare_factor(alpha) * (1.0 + BOUNDARY_SLACK):
        raise ValueError("c exceeds the welfare factor bound")
    c1, c2 = threshold_coefficients(alpha)
    return min(c * c1, c * c2 / (c - 1.0)), c


def _verdict(achieved: float, factor: float, tol: float) -> str:
    if math.isinf(factor):
        return "unbounded"
    return "PASS" if achieved <= factor + tol else "FAIL"


@dataclass
class GuaranteeCertificate:
    """Measured performance of a concrete solution against its factors."""

    alpha: float
    zeta: float
    welfare_factor: float
    mm_profit_factor: float | None
    mm_welfare_factor: float | None
    achieved_profit_ratio: float
    achieved_welfare_ratio: float
    verdicts: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "zeta": "unbounded" if math.isinf(self.zeta) else self.zeta,
            "welfare_factor": "unbounded"
            if math.isinf(self.welfare_factor)
            else self.welfare_factor,
            "mm_profit_factor": self.mm_profit_factor,
            "mm_welfare_factor": self.mm_welfare_factor,
            "achieved_profit_ratio": self.achieved_profit_ratio,
            "achieved_welfare_ratio": self.achieved_welfare_ratio,
            "verdicts": dict(self.verdicts),
        }


def _ratios(sw_star: float, sol: PricingSolution) -> tuple[float, float]:
    profit_ratio = sw_star / sol.profit if sol.profit > 0 else math.inf
    welfare_ratio = sw_star / sol.sw if sol.sw > 0 else math.inf
    if sw_star <= 0:
        profit_ratio = welfare_ratio = 1.0
    return profit_ratio, welfare_ratio


def certificate(
    alpha: float, sw_star: float, sol: PricingSolution, bundle_size_ratio: float | None = None
) -> GuaranteeCertificate:
    """Certificate of a solution against its pricer's profit and welfare factors.

    bundle_size_ratio None means thresholded unit-demand pricing, judged by
    zeta and welfare_factor; otherwise the ladder selection at that ratio,
    judged by mm_profit_factor and mm_welfare_factor.
    """
    tol = BOUND_TOL * (1.0 + abs(sw_star))
    pr, wr = _ratios(sw_star, sol)
    z, w = zeta(alpha), welfare_factor(alpha)
    pf = wf = None
    if bundle_size_ratio is not None:
        pf, wf = mm_profit_factor(alpha, bundle_size_ratio), mm_welfare_factor(alpha)
    return GuaranteeCertificate(
        alpha=alpha,
        zeta=z,
        welfare_factor=w,
        mm_profit_factor=pf,
        mm_welfare_factor=wf,
        achieved_profit_ratio=pr,
        achieved_welfare_ratio=wr,
        verdicts={
            "profit_vs_optimal_welfare": _verdict(pr, z if pf is None else pf, tol),
            "welfare_vs_optimal_welfare": _verdict(wr, w if wf is None else wf, tol),
        },
    )
