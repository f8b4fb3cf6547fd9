"""Parametric families of inverse demand curves with bounded hazard-ratio growth.

An inverse demand curve lambda(x) gives the price at which exactly x mass of
buyers is willing to purchase.  All families here are non-increasing,
non-negative, and truncated to a finite support.  The regularity parameter
``alpha`` bounds how fast the ratio lambda/|lambda'| may grow: alpha = 0 is
the monotone-hazard-rate class, alpha = 1 admits equal-revenue-like curves.

DemandBatch is the one evaluation kernel: it holds the one ceiling mask and
the one clamped inverse.  InverseDemand validates and stores one type's
curve, and its methods evaluate through a one-curve DemandBatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import one

__all__ = [
    "ALPHA_LIMIT",
    "DEFAULT_PRICE_FLOOR",
    "DemandBatch",
    "DemandDomainError",
    "InverseDemand",
    "verify_regularity",
]

# Below this value alpha is treated as exactly zero and formulas use their
# analytic alpha -> 0 limits.
ALPHA_LIMIT = 1e-9

# Families with unbounded natural support are cut off where the curve drops
# below DEFAULT_PRICE_FLOOR * lambda_max.
DEFAULT_PRICE_FLOOR = 1e-6

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
# One (eval, utility integral, inverse, derivative) tuple per kind of analytic
# curve.  Every formula broadcasts over its parameters and argument, and
# DemandBatch applies it with one parameter array per kind, so each
# expression is written once and never sees a scalar exponent (NumPy rounds
# x ** 2.0, say, differently from an elementwise power).  The kinds are the
# families, except that a generalized Pareto below ALPHA_LIMIT is
# "exponential" (its alpha -> 0 limit) and one at alpha = 1 is "gp-log" (its
# utility integral is a log).


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


_EVAL, _UTILITY, _INVERSE, _DERIVATIVE = range(4)
_FORMULAS = {
    "linear": (_linear_eval, _linear_utility, _linear_inverse, _linear_derivative),
    "exponential": (_exp_eval, _exp_utility, _exp_inverse, _exp_derivative),
    "generalized-pareto": (_gp_eval, _gp_utility, _gp_inverse, _gp_derivative),
    "gp-log": (_gp_eval, _gp_log_utility, _gp_inverse, _gp_derivative),
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
        xs = [p[0] for p in pts]
        ls = [p[1] for p in pts]
        if xs[0] != 0.0:
            raise ValueError("tabulated demand must start at x = 0")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("tabulated x values must be strictly increasing")
        if any(l < 0 for l in ls):
            raise ValueError("tabulated lambda values must be non-negative")
        if any(b > a + 1e-15 for a, b in zip(ls, ls[1:])):
            raise ValueError("tabulated lambda values must be non-increasing")
        if abs(ls[0] - self.lambda_max) > 1e-9 * self.lambda_max:
            raise ValueError(
                f"lambda_max {self.lambda_max!r} is not the tabulated curve's peak {ls[0]!r}"
            )
        if abs(xs[-1] - self.support_ceiling) > 1e-9 * xs[-1]:
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
    def tabulated(points, alpha: float) -> "InverseDemand":
        pts = tuple((float(x), float(l)) for x, l in points)
        if len(pts) < 2:
            raise ValueError("tabulated demand needs at least two points")
        return InverseDemand(
            "tabulated", pts[0][1], alpha, 0.0, pts[-1][0], points=pts
        )

    # -- cached node arrays for the tabulated family -----------------------

    @cached_property
    def _xs(self):
        return np.array([p[0] for p in self.points])

    @cached_property
    def _ls(self):
        return np.array([p[1] for p in self.points])

    @cached_property
    def _slopes(self):
        return np.diff(self._ls) / np.diff(self._xs)

    @cached_property
    def _cum_utility(self):
        seg = 0.5 * (self._ls[:-1] + self._ls[1:]) * np.diff(self._xs)
        return np.concatenate([[0.0], np.cumsum(seg)])

    @cached_property
    def _kind(self) -> str:
        """The curve's key in _FORMULAS, or "tabulated"."""
        if self.family != "generalized-pareto":
            return self.family
        if self.alpha < ALPHA_LIMIT:
            return "exponential"
        return "gp-log" if self.alpha > 1.0 - 1e-12 else "generalized-pareto"

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
        if np.any(arr > self.lambda_max * (1.0 + 1e-12)):
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

    # -- the tabulated family's formulas, on its node arrays -----------------

    def _tabulated_eval(self, x):
        return np.interp(x, self._xs, self._ls, right=0.0)

    def _tabulated_derivative(self, x):
        seg = np.clip(np.searchsorted(self._xs, x, side="right") - 1, 0, len(self._slopes) - 1)
        return self._slopes[seg]

    def _inverse_tabulated(self, p):
        # Index of the last node with lambda >= p.  searchsorted on the negated
        # (non-decreasing) sequence lands at the right end of any flat run, so
        # the segment at k is strictly decreasing whenever k is interior.
        k = np.searchsorted(-self._ls, -p, side="right") - 1
        k = np.clip(k, 0, len(self._ls) - 1)
        at_end = k >= len(self._slopes)
        kk = np.minimum(k, len(self._slopes) - 1)
        slope = np.minimum(self._slopes[kk], -1e-300)
        interp = self._xs[kk] + (p - self._ls[kk]) / slope
        return np.where(at_end, self._xs[-1], interp)

    def _tabulated_utility(self, z):
        seg = np.clip(np.searchsorted(self._xs, z, side="right") - 1, 0, len(self._slopes) - 1)
        dx = z - self._xs[seg]
        return self._cum_utility[seg] + self._ls[seg] * dx + 0.5 * self._slopes[seg] * dx * dx

    def to_dict(self) -> dict:
        d = {
            "family": self.family,
            "lambda_max": self.lambda_max,
            "alpha": self.alpha,
            "scale": self.scale,
            "support_ceiling": self.support_ceiling,
        }
        if self.points is not None:
            d["points"] = [list(p) for p in self.points]
        return d


class DemandBatch:
    """A market's demand curves compiled into one parameter array per kind.

    The one evaluation kernel of the curves: InverseDemand's methods are this
    batch on one curve.  Every method takes values with the curves on the
    last axis (in the order the curves were given) and any leading axes,
    checks the domain once and applies each kind's formula in one broadcast
    call, looping only over tabulated curves.  As with CostBatch, callers
    with many rows pass Fortran-ordered arrays.
    """

    def __init__(self, curves):
        curves = tuple(curves)
        self.lambda_max = np.array([d.lambda_max for d in curves])
        self.support_ceiling = np.array([d.support_ceiling for d in curves])
        params = (
            self.lambda_max,
            np.array([d.alpha for d in curves]),
            np.array([d.scale for d in curves]),
        )
        kinds = [d._kind for d in curves]
        self._kinds = []  # (index, formulas, parameters at index) per analytic kind
        for kind in dict.fromkeys(k for k in kinds if k != "tabulated"):
            at = [i for i, k in enumerate(kinds) if k == kind]
            index = slice(None) if len(at) == len(curves) else np.array(at)
            self._kinds.append((index, _FORMULAS[kind], tuple(a[index] for a in params)))
        # (index, formulas in _FORMULAS order) per tabulated curve
        self._tabulated = [
            (i, (d._tabulated_eval, d._tabulated_utility, d._inverse_tabulated, d._tabulated_derivative))
            for i, d in enumerate(curves) if d._kind == "tabulated"
        ]
        # The truncation floor: each curve's price at its support ceiling.
        self._floor = np.maximum(self._apply(_EVAL, self.support_ceiling), 1e-300)

    def _apply(self, which, x):
        if len(self._kinds) == 1 and not self._tabulated:
            # One kind covers every curve: its formula's result is the answer.
            _, formulas, params = self._kinds[0]
            return formulas[which](*params, x)
        out = np.empty_like(x)
        for index, formulas, params in self._kinds:
            out[..., index] = formulas[which](*params, x[..., index])
        for i, formulas in self._tabulated:
            out[..., i] = formulas[which](x[..., i])
        return out

    def _below_ceiling(self, which, x, message):
        """The formula which at x, zero at or beyond each support ceiling."""
        x = _nonnegative(x, message)
        out = self._apply(which, x)
        np.copyto(out, 0.0, where=x >= self.support_ceiling)
        return out

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
        return np.where(der < 1e-300, np.inf, lam / np.maximum(der, 1e-300))


def _regularity_grid(d: InverseDemand, grid_n: int) -> np.ndarray:
    if d.family == "tabulated":
        return 0.5 * (d._xs[:-1] + d._xs[1:])
    # Exclude the ceiling itself: the truncated curve is zero there.
    return np.linspace(0.0, d.support_ceiling, num=grid_n, endpoint=False)


def verify_regularity(
    d: InverseDemand,
    alpha: float,
    grid_n: int = 400,
    tol: float = 1e-8,
    shift: float = 0.0,
) -> bool:
    """Grid check of the regularity inequality for the given alpha.

    Verifies h(x2) - h(x1) <= alpha * (x2 - x1) + tol for all grid pairs
    x1 < x2, where h is the hazard ratio of lambda - shift (shift = 0 checks
    the curve itself).  Tabulated curves are sampled at segment midpoints,
    smooth families on a uniform grid.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    xs = _regularity_grid(d, grid_n)
    lam = np.asarray(d.eval(xs)) - shift
    der = np.abs(np.asarray(d.derivative(xs)))
    # Restrict to the region where the (shifted) curve is non-negative and
    # drop points past the support where both value and slope vanish.
    keep = (lam >= -1e-12) & ~((lam <= 0.0) & (der < 1e-300))
    xs, lam, der = xs[keep], np.maximum(lam[keep], 0.0), der[keep]
    if xs.size < 2:
        return True
    h = _hazard(lam, der)
    dh = h[None, :] - h[:, None]
    dx = xs[None, :] - xs[:, None]
    upper = np.triu_indices(xs.size, k=1)
    with np.errstate(invalid="ignore"):
        ok = dh[upper] <= alpha * dx[upper] + tol
    # inf - inf pairs compare as NaN-False; a flat stretch at positive price
    # has an undefined hazard ratio and fails the definition outright.
    return bool(np.all(ok))
