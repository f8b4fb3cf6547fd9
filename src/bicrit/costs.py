"""Doubly convex production cost functions.

A cost function here has marginal c(y) = a * y^beta on each piece, so both
the total cost and its derivative are convex, non-decreasing, and vanish at
zero.  That double convexity yields the inequality C(y) <= c(y) * y / 2 that
the pricing guarantees lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["CostBatch", "CostDomainError", "CostFunction"]


class CostDomainError(ValueError):
    """Raised for negative quantities or invalid cost parameters."""


def _nonnegative(y):
    arr = np.asarray(y, dtype=float)
    if (arr < 0).any():
        raise CostDomainError("cost evaluated at negative quantity")
    return arr


# The piece formulas, written once: they broadcast over the piece parameters
# and the quantity, so CostFunction applies them to one good's piece and
# CostBatch to one piece per good.  A power cost is a single piece starting
# at 0 with nothing accrued before it.


def _piece_marginal(coeff, exp, y):
    return coeff * y**exp


def _piece_slope(coeff, exp, y):
    # 0.0 ** 0.0 is 1, so at y = 0 this is coeff for exp = 1 and 0 for exp > 1.
    return coeff * exp * y ** (exp - 1.0)


def _piece_total(total_at_start, coeff, exp, start_pow, y):
    return total_at_start + coeff * (y ** (exp + 1.0) - start_pow) / (exp + 1.0)


@dataclass(frozen=True)
class CostFunction:
    """Per-good production cost with marginal a * y^beta.

    The power family is the single piece C(y) = a * y^(beta+1) / (beta+1).
    The piecewise-power family switches to a new exponent at each breakpoint
    (quantity, exponent); the piece coefficients are derived so the marginal
    stays continuous, and exponents must be non-decreasing so it stays convex.
    """

    family: str
    a: float
    beta: float
    breakpoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        fields = {"a": [self.a], "beta": [self.beta], "breakpoints": [v for bp in self.breakpoints for v in bp]}
        for name, values in fields.items():
            if not all(map(math.isfinite, values)):
                raise CostDomainError(f"cost {name} must be finite")
        if self.family not in ("power", "piecewise-power"):
            raise CostDomainError(f"unknown cost family {self.family!r}")
        if not self.a > 0:
            raise CostDomainError("cost coefficient must be positive")
        if self.beta < 1.0:
            raise CostDomainError("marginal exponent must be at least 1")
        if self.family == "power" and self.breakpoints:
            raise CostDomainError("power costs take no breakpoints")
        if self.family == "piecewise-power":
            ys = [b[0] for b in self.breakpoints]
            if not self.breakpoints:
                raise CostDomainError("piecewise-power needs at least one breakpoint")
            if any(y <= 0 for y in ys) or any(b <= a for a, b in zip(ys, ys[1:])):
                raise CostDomainError("breakpoints must be positive and increasing")
            exps = [self.beta] + [b[1] for b in self.breakpoints]
            if any(e2 < e1 for e1, e2 in zip(exps, exps[1:])):
                raise CostDomainError(
                    "piece exponents must be non-decreasing to keep the marginal convex"
                )
        self._validate_half_income_bound()

    @staticmethod
    def power(a: float, beta: float) -> "CostFunction":
        return CostFunction("power", a, beta)

    @staticmethod
    def piecewise_power(a: float, beta: float, breakpoints) -> "CostFunction":
        return CostFunction(
            "piecewise-power", a, beta, tuple((float(y), float(b)) for y, b in breakpoints)
        )

    @cached_property
    def _pieces(self):
        """Arrays (start_y, coeff, exponent, total_at_start, start_y^(exponent+1))."""
        starts = [0.0]
        coeffs = [self.a]
        exps = [self.beta]
        totals = [0.0]
        for y_break, new_exp in self.breakpoints:
            a_k, b_k, y_k, c_k = coeffs[-1], exps[-1], starts[-1], totals[-1]
            total_at_break = c_k + a_k * (y_break ** (b_k + 1) - y_k ** (b_k + 1)) / (b_k + 1)
            marginal_at_break = a_k * y_break**b_k
            starts.append(y_break)
            coeffs.append(marginal_at_break / y_break**new_exp)
            exps.append(new_exp)
            totals.append(total_at_break)
        starts, exps = np.array(starts), np.array(exps)
        return starts, np.array(coeffs), exps, np.array(totals), starts ** (exps + 1.0)

    def _piece_index(self, y):
        starts = self._pieces[0]
        if len(starts) == 1:
            return 0
        return np.clip(np.searchsorted(starts, y, side="right") - 1, 0, len(starts) - 1)

    def marginal(self, y):
        """Marginal cost c(y)."""
        arr = _nonnegative(y)
        _, coeffs, exps, _, _ = self._pieces
        k = self._piece_index(arr)
        out = _piece_marginal(coeffs[k], exps[k], arr)
        return float(out) if arr.ndim == 0 else out

    def total(self, y):
        """Total cost C(y), the integral of the marginal."""
        arr = _nonnegative(y)
        _, coeffs, exps, totals, start_pows = self._pieces
        k = self._piece_index(arr)
        out = _piece_total(totals[k], coeffs[k], exps[k], start_pows[k], arr)
        return float(out) if arr.ndim == 0 else out

    def marginal_inverse(self, p):
        """Quantity y with c(y) = p."""
        arr = np.asarray(p, dtype=float)
        if np.any(arr < 0):
            raise CostDomainError("marginal inverse needs a non-negative price")
        starts, coeffs, exps, _, _ = self._pieces
        marg_at_start = coeffs * starts**exps
        k = np.clip(np.searchsorted(marg_at_start, arr, side="right") - 1, 0, len(starts) - 1)
        out = (arr / coeffs[k]) ** (1.0 / exps[k])
        return float(out) if arr.ndim == 0 else out

    def _validate_half_income_bound(self):
        # Double convexity gives C(y) <= c(y) * y / 2; spot-check it on a grid
        # at load time so downstream guarantee arithmetic can rely on it.
        ys = np.linspace(0.0, self._probe_ceiling(), 64)[1:]
        total = np.asarray(self.total(ys))
        marginal = np.asarray(self.marginal(ys))
        if np.any(total > 0.5 * marginal * ys * (1.0 + 1e-9)):
            raise CostDomainError("cost violates C(y) <= c(y) * y / 2")

    def _probe_ceiling(self) -> float:
        if self.family == "power":
            return 10.0
        return 2.0 * self.breakpoints[-1][0] + 10.0

    def to_dict(self) -> dict:
        d = {"family": self.family, "a": self.a, "beta": self.beta}
        if self.breakpoints:
            d["breakpoints"] = [list(b) for b in self.breakpoints]
        return d

    @staticmethod
    def from_dict(d: dict) -> "CostFunction":
        breakpoints = tuple(
            (float(y), float(b)) for y, b in d.get("breakpoints", ())
        )
        return CostFunction(d["family"], float(d["a"]), float(d["beta"]), breakpoints)


class CostBatch:
    """A market's cost functions compiled into piece tables, one row per good.

    marginal, slope and total take one quantity per good (in the order the
    costs were given), check the domain once and evaluate every good in one
    broadcast call of the piece formulas.
    """

    def __init__(self, cost_fns):
        pieces = [c._pieces for c in cost_fns]
        width = max(len(p[0]) for p in pieces)
        # Rows shorter than the widest repeat their last piece behind a start
        # of +inf, which no quantity reaches.
        def padded(j, a):
            return np.concatenate([a, np.full(width - len(a), np.inf if j == 0 else a[-1])])

        table = [[padded(j, a) for j, a in enumerate(p)] for p in pieces]
        self._starts, *params = (np.array(col) for col in zip(*table))
        # (coeff, exponent, total_at_start, start power), each goods x pieces.
        self._params = np.array(params)
        self._rows = np.arange(len(pieces))

    def _piece_params(self, y):
        """(coeff, exponent, total_at_start, start power) of each good's piece at y."""
        if self._starts.shape[1] == 1:
            return self._params[:, :, 0]
        k = (self._starts[:, 1:] <= y[:, None]).sum(axis=1)
        return self._params[:, self._rows, k]

    def marginal(self, y):
        y = _nonnegative(y)
        coeff, exp, _, _ = self._piece_params(y)
        return _piece_marginal(coeff, exp, y)

    def slope(self, y):
        """Derivative c'(y) of the marginal, the cost's curvature."""
        y = _nonnegative(y)
        coeff, exp, _, _ = self._piece_params(y)
        return _piece_slope(coeff, exp, y)

    def total(self, y):
        y = _nonnegative(y)
        coeff, exp, total_at_start, start_pow = self._piece_params(y)
        return _piece_total(total_at_start, coeff, exp, start_pow, y)

    def conjugate(self, p):
        """(C*(p), y0): the convex conjugate max_y [p y - C(y)] and its maximizer.

        y0 = c^-1(p) solves c(y0) = p, so C*(p) = p y0 - C(y0); p is one
        non-negative price per good.
        """
        p = np.asarray(p, dtype=float)
        if (p < 0).any():
            raise CostDomainError("cost conjugate needs non-negative prices")
        coeff, exp = self._params[0], self._params[1]
        # Marginal at each piece's start; the +inf starts of padding are never reached.
        k = (coeff[:, 1:] * self._starts[:, 1:] ** exp[:, 1:] <= p[:, None]).sum(axis=1)
        y0 = (p / coeff[self._rows, k]) ** (1.0 / exp[self._rows, k])
        return p * y0 - self.total(y0), y0
