"""Doubly convex production cost functions.

A cost function here has marginal c(y) = a * y^beta on each piece, so both
the total cost and its derivative are convex, non-decreasing, and vanish at
zero.  That double convexity yields the inequality C(y) <= c(y) * y / 2 that
the pricing guarantees lean on, and the parameter rules CostFunction checks
imply it, so nothing is evaluated to check it.  Each piece's marginal
a_k * y^beta_k is convex because beta_k >= 1.  The piece coefficients keep c
continuous at each breakpoint y_b, where its slope jumps from
c(y_b) * beta_k / y_b to c(y_b) * beta_(k+1) / y_b; the exponents do not
decrease, so the slope never drops.  So c is convex with c(0) = 0, hence
c(t) <= (t / y) * c(y) on [0, y], and integrating over t gives the inequality.

CostBatch is the one evaluation kernel: it compiles the costs into piece
tables and holds the one piece lookup.  CostFunction validates and stores
one good's cost, and its methods evaluate through a one-good CostBatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import one

__all__ = ["CostBatch", "CostDomainError", "CostFunction"]


class CostDomainError(ValueError):
    """Raised for negative quantities or invalid cost parameters."""


# The natural log of the largest float.
_LOG_MAX = math.log(np.finfo(float).max)


def _nonnegative(y):
    arr = np.asarray(y, dtype=float)
    if (arr < 0).any():
        raise CostDomainError("cost evaluated at negative quantity")
    return arr


# The piece formulas, written once: each takes a piece's parameters (see
# _piece_parameters) and broadcasts over them and its argument, so CostBatch
# applies it to one piece per good.  A power cost is a single piece starting
# at 0 with nothing accrued before it.


def _piece_parameters(coeff, exp, total_at_start, start_pow):
    """A piece's (coeff, exponent, total_at_start, start power) and the
    exponent terms its formulas read: exp + 1, exp - 1, coeff * exp and 1 / exp,
    each computed once here exactly as a formula would compute it."""
    return coeff, exp, total_at_start, start_pow, exp + 1.0, exp - 1.0, coeff * exp, 1.0 / exp


def _piece_marginal(coeff, exp, total_at_start, start_pow, exp_up, exp_down, slope_coeff, inv_exp, y):
    return coeff * y**exp


def _piece_slope(coeff, exp, total_at_start, start_pow, exp_up, exp_down, slope_coeff, inv_exp, y):
    # 0.0 ** 0.0 is 1, so at y = 0 this is coeff for exp = 1 and 0 for exp > 1.
    return slope_coeff * y**exp_down


def _piece_total(coeff, exp, total_at_start, start_pow, exp_up, exp_down, slope_coeff, inv_exp, y):
    return total_at_start + coeff * (y**exp_up - start_pow) / exp_up


def _piece_inverse(coeff, exp, total_at_start, start_pow, exp_up, exp_down, slope_coeff, inv_exp, p):
    """The quantity at which the piece's marginal is p."""
    return (p / coeff) ** inv_exp


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
            # The piece table raises each breakpoint y_b to its pieces'
            # exponents (at most e + 1, e the exponent from y_b on), takes
            # c(y_b), derives the next coefficient c(y_b) / y_b^e and accrues
            # a total below c(y_b) * y_b: in log space, each must stay in the
            # float range.
            log_a = math.log(self.a)
            for (y_b, e), prev in zip(self.breakpoints, exps):
                log_y = math.log(y_b)
                log_c = log_a + prev * log_y
                log_a = log_c - e * log_y
                logs = (abs((e + 1.0) * log_y), abs(log_c), abs(log_a), log_c + log_y)
                if not all(v < _LOG_MAX for v in logs):
                    raise CostDomainError(f"breakpoint {y_b!r}: the piece powers leave the float range")

    @staticmethod
    def power(a: float, beta: float) -> "CostFunction":
        return CostFunction("power", a, beta)

    @staticmethod
    def piecewise_power(a: float, beta: float, breakpoints) -> "CostFunction":
        return CostFunction(
            "piecewise-power", a, beta, tuple((float(y), float(b)) for y, b in breakpoints)
        )

    @cached_property
    def _pieces(self) -> np.ndarray:
        """The piece table, a column per piece.

        Rows: start_y, the marginal at start_y, coeff, exponent,
        total_at_start and start_y^(exponent+1).
        """
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
        starts, coeffs, exps = np.array(starts), np.array(coeffs), np.array(exps)
        return np.array([starts, coeffs * starts**exps, coeffs, exps, totals, starts ** (exps + 1.0)])

    @cached_property
    def _batch(self) -> "CostBatch":
        """This cost as a one-good CostBatch: the kernel its methods evaluate on."""
        return CostBatch((self,))

    def marginal(self, y):
        """Marginal cost c(y)."""
        return one(self._batch.marginal, y)

    def total(self, y):
        """Total cost C(y), the integral of the marginal."""
        return one(self._batch.total, y)

    def marginal_inverse(self, p):
        """Quantity y with c(y) = p."""
        return one(self._batch.marginal_inverse, p)

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

    The one evaluation kernel of the costs: CostFunction's methods are this
    batch on a one-good table.  Every method takes values with the goods on
    the last axis (in the order the costs were given) and any leading axes,
    checks the domain once and evaluates every good in one broadcast call of
    the piece formulas.  NumPy runs such a call as one inner loop per row of
    the last axis unless the goods come first in memory: callers with many
    rows pass Fortran-ordered arrays.
    """

    def __init__(self, cost_fns):
        tables = [c._pieces for c in cost_fns]
        width = max(t.shape[1] for t in tables)
        # A good with fewer pieces repeats its last one: the copy starts
        # where that piece does, so evaluating it changes nothing.
        table = np.array([t.take(range(width), axis=1, mode="clip") for t in tables]).transpose(1, 0, 2)
        # Where the pieces start, in quantity and in price (the marginal
        # there), each goods x pieces; then per piece its (coeff, exponent,
        # total_at_start, start power), one value per good.
        self._starts, self._start_marginals = table[:2]
        self._params = [_piece_parameters(*table[2:, :, j]) for j in range(width)]

    def _on_pieces(self, formulas, starts, v):
        """Each of formulas on the piece each good's v lies on: the one piece lookup.

        starts is where each good's pieces start, in v's units: _starts for
        quantities, _start_marginals for prices.  Each piece after the first
        overwrites the results from its start on.  Returns one array per
        formula.
        """
        outs = [formula(*self._params[0], v) for formula in formulas]
        for j in range(1, starts.shape[1]):
            for out, formula in zip(outs, formulas):
                np.copyto(out, formula(*self._params[j], v), where=v >= starts[:, j])
        return outs

    def marginal(self, y):
        return self._on_pieces((_piece_marginal,), self._starts, _nonnegative(y))[0]

    def total(self, y):
        return self._on_pieces((_piece_total,), self._starts, _nonnegative(y))[0]

    def at(self, y):
        """(c(y), c'(y), C(y)) after one domain check."""
        return self._on_pieces((_piece_marginal, _piece_slope, _piece_total), self._starts, _nonnegative(y))

    def marginal_inverse(self, p):
        """Quantities y0 = c^-1(p) with c(y0) = p, for non-negative prices p."""
        p = np.asarray(p, dtype=float)
        if (p < 0).any():
            raise CostDomainError("marginal inverse needs a non-negative price")
        return self._on_pieces((_piece_inverse,), self._start_marginals, p)[0]
