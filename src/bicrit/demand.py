"""Parametric families of inverse demand curves with bounded hazard-ratio growth.

An inverse demand curve lambda(x) gives the price at which exactly x mass of
buyers is willing to purchase.  All families here are non-increasing,
non-negative, and truncated to a finite support.  The regularity parameter
``alpha`` bounds how fast the ratio lambda/|lambda'| may grow: alpha = 0 is
the monotone-hazard-rate class, alpha = 1 admits equal-revenue-like curves.

DemandBatch is the one evaluation kernel, of every family: it holds the one
ceiling mask and the one clamped inverse.  InverseDemand validates and
stores one type's curve, and its methods evaluate through a one-curve
DemandBatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import one
from .tolerances import (
    ALPHA_LIMIT,
    BOUNDARY_SLACK,
    DEFAULT_PRICE_FLOOR,
    NONINCREASING_SLACK,
    REGULARITY_TOL,
    STATED_REL,
    TINY,
)

__all__ = [
    "DemandBatch",
    "DemandDomainError",
    "InverseDemand",
    "verify_regularity",
]

_FAMILIES = ("linear", "exponential", "generalized-pareto", "tabulated")


class DemandDomainError(ValueError):
    """Raised when an evaluation point or price is outside the curve's domain."""


def _nonnegative(x, message):
    """x as a float array; DemandDomainError(message) if an entry is negative."""
    arr = np.asarray(x, dtype=float)
    if (arr < 0).any():
        raise DemandDomainError(message)
    return arr


# -- family formulas ---------------------------------------------------------
# One (eval, utility integral, inverse, derivative) tuple per kind of curve.
# Every formula broadcasts over its parameters and argument, and DemandBatch
# applies it with one parameter array per kind, so each expression is
# written once and never sees a scalar exponent (NumPy rounds x ** 2.0, say,
# differently from an elementwise power).  The kinds are the families,
# except that a generalized Pareto below ALPHA_LIMIT is "exponential" (its
# alpha -> 0 limit) and one at alpha = 1 is "gp-log" (its utility integral
# is a log).  The tabulated kind's parameters are one ragged table of its
# curves' nodes; its eval keeps np.interp's rules (a node's own lambda at a
# node, 0 past the last node).


def _linear_eval(lam, alpha, scale, x):
    return lam * np.maximum(0.0, 1.0 - x / scale)


def _linear_utility(lam, alpha, scale, z):
    return lam * (z - z * z / (2.0 * scale))


def _linear_inverse(lam, alpha, scale, p):
    return scale * (1.0 - p / lam)


def _linear_derivative(lam, alpha, scale, x):
    return np.zeros_like(x) - lam / scale


def _exp_eval(lam, alpha, scale, x):
    return lam * np.exp(-x / scale)


def _exp_utility(lam, alpha, scale, z):
    return lam * scale * (1.0 - np.exp(-z / scale))


def _exp_inverse(lam, alpha, scale, p):
    return scale * np.log(lam / p)


def _exp_derivative(lam, alpha, scale, x):
    return -lam / scale * np.exp(-x / scale)


def _gp_eval(lam, alpha, scale, x):
    return lam * (1.0 + alpha * x / scale) ** (-1.0 / alpha)


def _gp_utility(lam, alpha, scale, z):
    base = 1.0 + alpha * z / scale
    return lam * scale / (1.0 - alpha) * (1.0 - base ** (1.0 - 1.0 / alpha))


def _gp_log_utility(lam, alpha, scale, z):
    return lam * scale * np.log1p(z / scale)


def _gp_inverse(lam, alpha, scale, p):
    return scale / alpha * ((lam / p) ** alpha - 1.0)


def _gp_derivative(lam, alpha, scale, x):
    return -lam / scale * (1.0 + alpha * x / scale) ** (-1.0 / alpha - 1.0)


def _node_table(curves):
    """The curves' nodes end to end: each curve's first and last node, and per node
    x, lambda, the slope of the segment it starts (0 at a last node) and U(x)."""
    last = np.cumsum([len(d.points) for d in curves]) - 1
    first = np.append(0, last[:-1] + 1)
    xs, ls = np.array([p for d in curves for p in d.points]).T.copy()
    j = np.setdiff1d(np.arange(len(xs)), last)  # the nodes that start a segment
    slope, area, cum = np.zeros((3, len(xs)))
    slope[j] = (ls[j + 1] - ls[j]) / (xs[j + 1] - xs[j])
    area[j] = 0.5 * (ls[j] + ls[j + 1]) * (xs[j + 1] - xs[j])
    for f, l in zip(first, last):
        np.cumsum(area[f:l], out=cum[f + 1:l + 1])
    return first, last, xs, ls, slope, cum


def _last_node(first, last, keys, v):
    """Per element of v, the last node j of its curve with keys[j] <= v, else the
    first: np.searchsorted(side="right") - 1 on the curve's sorted keys (NaN past
    every key), by one binary search of halving steps over each curve's nodes."""
    end = first + np.zeros_like(v, dtype=np.intp)
    step = 1 << (int(np.max(last - first)) + 1).bit_length() - 1
    while step:
        probe = end + (step - 1)
        take = probe <= last
        take &= ~(v < keys[np.minimum(probe, last, out=probe)])
        np.add(end, step, out=end, where=take)
        step >>= 1
    return np.maximum(end - 1, first)


def _tab_eval(first, last, xs, ls, slope, cum, x):
    j = _last_node(first, last, xs, x)
    between = slope[j] * (x - xs[j]) + ls[j]
    return np.where(x > xs[last], 0.0, np.where(x == xs[j], ls[j], between))


def _tab_utility(first, last, xs, ls, slope, cum, z):
    j = np.minimum(_last_node(first, last, xs, z), last - 1)
    dz = z - xs[j]
    return cum[j] + ls[j] * dz + 0.5 * slope[j] * dz * dz


def _tab_inverse(first, last, xs, ls, slope, cum, p):
    # The last node with lambda >= p: the right end of any flat run, so the
    # segment at k is strictly decreasing whenever k is interior.
    k = _last_node(first, last, -ls, -p)
    kk = np.minimum(k, last - 1)
    x = xs[kk] + (p - ls[kk]) / np.minimum(slope[kk], -TINY)
    return np.where(k == last, xs[last], x)


def _tab_derivative(first, last, xs, ls, slope, cum, x):
    return slope[np.minimum(_last_node(first, last, xs, x), last - 1)]


_EVAL, _UTILITY, _INVERSE, _DERIVATIVE = range(4)
_FORMULAS = {
    "linear": (_linear_eval, _linear_utility, _linear_inverse, _linear_derivative),
    "exponential": (_exp_eval, _exp_utility, _exp_inverse, _exp_derivative),
    "generalized-pareto": (_gp_eval, _gp_utility, _gp_inverse, _gp_derivative),
    "gp-log": (_gp_eval, _gp_log_utility, _gp_inverse, _gp_derivative),
    "tabulated": (_tab_eval, _tab_utility, _tab_inverse, _tab_derivative),
}


@dataclass(frozen=True)
class InverseDemand:
    """One buyer type's inverse demand curve.

    Fields
    ------
    family: one of "linear", "exponential", "generalized-pareto", "tabulated".
    lambda_max: the peak price lambda(0); shared across a market instance.
    alpha: regularity parameter in [0, 1] the curve is declared to satisfy.
    scale: the linear intercept, or the hazard scale of the exponential /
        generalized-pareto families; 0 for tabulated curves.
    support_ceiling: quantity beyond which lambda is identically zero.
    points: (x, lambda) nodes for the tabulated family, strictly increasing
        in x; None otherwise.
    """

    family: str
    lambda_max: float
    alpha: float
    scale: float
    support_ceiling: float
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        fields = {name: [getattr(self, name)] for name in ("lambda_max", "alpha", "scale", "support_ceiling")}
        fields["points"] = [v for p in self.points or () for v in p]
        for name, values in fields.items():
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite")
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown demand family {self.family!r}")
        if not self.lambda_max > 0:
            raise ValueError("lambda_max must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.family != "tabulated" and not self.scale > 0:
            raise ValueError("scale must be positive")
        if not self.support_ceiling > 0:
            raise ValueError("support_ceiling must be positive")
        if self.family == "tabulated":
            self._check_points()

    def _check_points(self):
        pts = self.points
        if not pts or len(pts) < 2:
            raise ValueError("tabulated demand needs at least two (x, lambda) points")
        xs, ls = zip(*pts)
        if xs[0] != 0.0:
            raise ValueError("tabulated demand must start at x = 0")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("tabulated x values must be strictly increasing")
        if any(l < 0 for l in ls):
            raise ValueError("tabulated lambda values must be non-negative")
        if any(b > a + NONINCREASING_SLACK for a, b in zip(ls, ls[1:])):
            raise ValueError("tabulated lambda values must be non-increasing")
        if abs(ls[0] - self.lambda_max) > STATED_REL * self.lambda_max:
            raise ValueError(
                f"lambda_max {self.lambda_max!r} is not the tabulated curve's peak {ls[0]!r}"
            )
        if abs(xs[-1] - self.support_ceiling) > STATED_REL * xs[-1]:
            raise ValueError(
                f"support_ceiling {self.support_ceiling!r} is not the tabulated curve's last x {xs[-1]!r}"
            )
        if self.scale != 0.0:
            raise ValueError(f"scale {self.scale!r} must be 0 for a tabulated curve")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def linear(lambda_max: float, intercept: float) -> "InverseDemand":
        """lambda(x) = lambda_max * (1 - x / intercept), zero past the intercept."""
        return InverseDemand("linear", lambda_max, 0.0, intercept, intercept)

    @staticmethod
    def exponential(lambda_max: float, scale: float) -> "InverseDemand":
        """lambda(x) = lambda_max * exp(-x / scale), truncated at the price floor."""
        ceiling = scale * math.log(1.0 / DEFAULT_PRICE_FLOOR)
        return InverseDemand("exponential", lambda_max, 0.0, scale, ceiling)

    @staticmethod
    def generalized_pareto(lambda_max: float, alpha: float, scale: float) -> "InverseDemand":
        """lambda(x) = lambda_max * (1 + alpha x / scale)^(-1/alpha).

        The hazard ratio of this family is exactly scale + alpha * x, so the
        curve is alpha-regular with equality.  alpha below ALPHA_LIMIT falls
        back to the exponential limit.
        """
        if alpha < ALPHA_LIMIT:
            ceiling = scale * math.log(1.0 / DEFAULT_PRICE_FLOOR)
        else:
            ceiling = scale / alpha * ((1.0 / DEFAULT_PRICE_FLOOR) ** alpha - 1.0)
        return InverseDemand("generalized-pareto", lambda_max, alpha, scale, ceiling)

    @staticmethod
    def tabulated(points, alpha: float, **stated) -> "InverseDemand":
        """lambda through the (x, lambda) points; a stated lambda_max, scale or support_ceiling must fit them."""
        pts = tuple((float(x), float(l)) for x, l in points)
        if len(pts) < 2:
            raise ValueError("tabulated demand needs at least two points")
        fields = {"lambda_max": pts[0][1], "scale": 0.0, "support_ceiling": pts[-1][0], **stated}
        return InverseDemand("tabulated", alpha=alpha, points=pts, **fields)

    @cached_property
    def _kind(self) -> str:
        """The curve's key in _FORMULAS."""
        if self.family != "generalized-pareto":
            return self.family
        if self.alpha < ALPHA_LIMIT:
            return "exponential"
        return "gp-log" if self.alpha > 1.0 - BOUNDARY_SLACK else "generalized-pareto"

    # -- evaluations, through a one-curve DemandBatch ------------------------

    @cached_property
    def _batch(self) -> "DemandBatch":
        """This curve as a one-curve DemandBatch: the kernel its methods evaluate on."""
        return DemandBatch((self,))

    def eval(self, x):
        """Price lambda(x); zero at or beyond the support ceiling."""
        return one(self._batch.eval, x)

    def derivative(self, x):
        """Slope lambda'(x); zero beyond the support ceiling."""
        return one(self._batch.derivative, x)

    def inverse(self, p):
        """Largest x with lambda(x) >= p, for prices in (0, lambda_max]."""
        arr = np.asarray(p, dtype=float)
        if np.any(arr <= 0):
            raise DemandDomainError("inverse demand needs a positive price")
        if np.any(arr > self.lambda_max * (1.0 + BOUNDARY_SLACK)):
            raise DemandDomainError("price above the demand peak")
        return one(self._batch._inverse_clamped, arr)

    def _inverse_clamped(self, p):
        """Inverse with prices clipped into [truncation floor, lambda_max]."""
        return one(self._batch._inverse_clamped, p)

    def utility_integral(self, x):
        """Buyer surplus integral of lambda from 0 to x (flat past the ceiling)."""
        return one(self._batch.utility_integral, x)

    def hazard_ratio(self, x):
        """lambda(x) / |lambda'(x)|; +inf where the slope vanishes."""
        out = _hazard(np.asarray(self.eval(x)), np.abs(self.derivative(x)))
        return float(out) if out.ndim == 0 else out

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in ("family", "lambda_max", "alpha", "scale", "support_ceiling")}
        if self.points is not None:
            d["points"] = [list(p) for p in self.points]
        return d


class DemandBatch:
    """A market's demand curves compiled into one parameter array per kind.

    The one evaluation kernel of the curves: InverseDemand's methods are this
    batch on one curve.  Every method takes values with the curves on the
    last axis (in the order the curves were given) and any leading axes,
    checks the domain once and applies each kind's formula in one broadcast
    call, a tabulated curve's on one ragged table of all their nodes.  As
    with CostBatch, callers with many rows pass Fortran-ordered arrays.
    """

    def __init__(self, curves):
        curves = tuple(curves)
        params = [np.array([getattr(d, name) for d in curves]) for name in ("lambda_max", "alpha", "scale")]
        self.lambda_max = params[0]
        self.support_ceiling = np.array([d.support_ceiling for d in curves])
        kinds = [d._kind for d in curves]
        self._kinds = []  # (index, formulas, parameters at index) per kind
        for kind in dict.fromkeys(kinds):
            at = [i for i, k in enumerate(kinds) if k == kind]
            index = slice(None) if len(at) == len(curves) else np.array(at)
            if kind == "tabulated":
                self._kinds.append((index, _FORMULAS[kind], _node_table([curves[i] for i in at])))
            else:
                self._kinds.append((index, _FORMULAS[kind], tuple(a[index] for a in params)))
        # The truncation floor: each curve's price at its support ceiling.
        self._floor = np.maximum(self._apply(_EVAL, self.support_ceiling), TINY)

    def _apply(self, which, x):
        if len(self._kinds) == 1:
            # One kind covers every curve: its formula's result is the answer.
            _, formulas, params = self._kinds[0]
            return formulas[which](*params, x)
        out = np.empty_like(x)
        for index, formulas, params in self._kinds:
            out[..., index] = formulas[which](*params, x[..., index])
        return out

    def _below_ceiling(self, which, x, message):
        """The formula which at x, zero at or beyond each support ceiling."""
        x = _nonnegative(x, message)
        out = self._apply(which, x)
        np.copyto(out, 0.0, where=x >= self.support_ceiling)
        return out

    def at(self, x):
        """(lambda(x), lambda'(x), U(x)): eval, derivative and utility_integral after one domain check.

        All three are formulas at z = min(x, ceiling): below the ceiling z is
        x, and at or beyond it eval and derivative are zero.
        """
        x = _nonnegative(x, "demand evaluated at negative quantity")
        beyond = x >= self.support_ceiling
        z = np.minimum(x, self.support_ceiling)
        price, slope, utility = (self._apply(which, z) for which in (_EVAL, _DERIVATIVE, _UTILITY))
        np.copyto(price, 0.0, where=beyond)
        np.copyto(slope, 0.0, where=beyond)
        return price, slope, utility

    def eval(self, x):
        """Prices lambda_i(x_i); zero at or beyond each support ceiling."""
        return self._below_ceiling(_EVAL, x, "demand evaluated at negative quantity")

    def derivative(self, x):
        """Slopes lambda_i'(x_i); zero at or beyond each support ceiling."""
        return self._below_ceiling(_DERIVATIVE, x, "demand derivative at negative quantity")

    def utility_integral(self, x):
        """Surplus integrals of lambda_i from 0 to x_i (flat past the ceiling)."""
        x = _nonnegative(x, "utility integral over negative quantity")
        return self._apply(_UTILITY, np.minimum(x, self.support_ceiling))

    def _inverse_clamped(self, p):
        """Largest x_i with lambda_i(x_i) >= p_i, capped at the support ceiling.

        Prices are clipped into [truncation floor, lambda_max] first, so a
        price below the floor maps to the whole support.
        """
        x = self._apply(_INVERSE, np.clip(p, self._floor, self.lambda_max))
        return np.minimum(x, self.support_ceiling, out=x)

    def demand_at_price(self, q):
        """Mass each curve buys at price q_i: the clamped inverse.

        Zero at q_i >= lambda_max, the whole support at q_i <= 0 or below the
        truncation floor.
        """
        q = np.asarray(q, dtype=float)
        x = self._inverse_clamped(q)
        np.copyto(x, self.support_ceiling, where=q <= 0.0)
        np.copyto(x, 0.0, where=q >= self.lambda_max)
        return x


def _hazard(lam, der):
    """Hazard ratios lambda / |lambda'| from values and absolute slopes; +inf at zero slope."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(der < TINY, np.inf, lam / np.maximum(der, TINY))


def _regularity_grid(d: InverseDemand, grid_n: int) -> np.ndarray:
    if d.family == "tabulated":
        xs = np.array([x for x, _ in d.points])
        return 0.5 * (xs[:-1] + xs[1:])
    # Exclude the ceiling itself: the truncated curve is zero there.
    return np.linspace(0.0, d.support_ceiling, num=grid_n, endpoint=False)


def verify_regularity(
    d: InverseDemand,
    alpha: float,
    grid_n: int = 400,
    tol: float = REGULARITY_TOL,
    shift: float = 0.0,
) -> bool:
    """Grid check of the regularity inequality for the given alpha.

    Verifies h(x2) - h(x1) <= alpha * (x2 - x1) + tol for all grid pairs
    x1 < x2, where h is the hazard ratio of lambda - shift (shift = 0 checks
    the curve itself).  Tabulated curves are sampled at segment midpoints,
    smooth families on a uniform grid.  With g = h - alpha * x that is
    g(x2) <= min over x1 < x2 of g(x1) + tol, a running minimum.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    xs = _regularity_grid(d, grid_n)
    lam = np.asarray(d.eval(xs)) - shift
    der = np.abs(np.asarray(d.derivative(xs)))
    # Restrict to the region where the (shifted) curve is non-negative and
    # drop points past the support where both value and slope vanish.
    keep = (lam >= -BOUNDARY_SLACK) & ~((lam <= 0.0) & (der < TINY))
    xs, lam, der = xs[keep], np.maximum(lam[keep], 0.0), der[keep]
    if xs.size < 2:
        return True
    h = _hazard(lam, der)
    # An infinite h(x2) fails against every earlier node, an infinite one too
    # (inf - inf is undefined): a flat stretch at positive price has no hazard
    # ratio and fails the definition outright.  A NaN fails every pair.
    if np.isinf(h[1:]).any() or np.isnan(h).any():
        return False
    g = h - alpha * xs
    return bool(np.all(g[1:] <= np.minimum.accumulate(g[:-1]) + tol))
