"""The Newton core shared by the market's two convex flow programs.

Both programs route each buyer type's mass over its bundles: z >= 0 holds
one entry per (type, bundle), x the types' totals and y = base + A^T z the
goods' allocation (A the stacked bundle incidence, base a fixed allocation).

* The welfare program maximizes SW(z) = sum_i U_i(x_i) - sum_g C_g(y_g),
  each type's total capped at its demand support (solver.solve_welfare).
* The min-cost split holds each type's total at a fixed mass and minimizes
  the cost sum_g C_g(y_g) alone (market.split_min_cost).  It is the welfare
  program's limit of infinite demand curvature w = -lambda'(x): no cap, each
  block's total fixed, and the type's cheapest marginal-cost sum in place of
  lambda_i(x_i) in the gradient, so that the projected gradient is still
  zero exactly at the optima.

One loop, damped projected Newton (Bertsekas, SIAM J. Control Optim. 20(2),
1982), runs both, on F = -SW (the cost, for the split).  A step fixes the
epsilon-active coordinates, those at most min(1e-6, ||z - P(z - grad F)||)
with F rising in them, and moves them toward 0 (a full step reaches it).  It
also holds at 0 every bundle that gains no more than one its type uses below
the cap; a block of fixed mass keeps its largest entry free.  On the others
it solves (H + mu I) d = -grad F, where

    H = E^T diag(w) E + A diag(c'(y)) A^T

(E the type incidence) and mu is the projected gradient.  The damping is
needed: where costs are linear (c' = 0), H is singular along mass exchanges
between tied bundles, which an undamped step ignores.  The step is solved in
goods space, by Sherman-Morrison on each type's block (at w = inf the block
solve just removes the block's mean, so the step keeps every fixed total)
and one Woodbury solve over the goods: one dense goods x goods solve (LU, by
np.linalg.solve) plus work linear in the incidence's entry pairs, and never
a matrix over the splits.  Armijo backtracking runs along the projection
arc, which clips z into [0, cap] and rescales each fixed-mass block to its
total; a step whose predicted gain (the Newton decrement) is below the
objective's rounding is taken whole.  A round ends once the decrement is at
that level and the projected gradient is at most 1e-12 or has not halved in
three steps.

Each objective, gradient or curvature evaluation is one kernel call per
family of the program's DemandBatch and batched costs.
"""

from __future__ import annotations

import numpy as np

# Rounds of Newton a solve runs before it gives up on its certificate.
ROUNDS = 4
# The Newton step's damping is the projected gradient, but at least this.
_DAMPING_FLOOR = 1e-14
# Armijo backtracking gives up, and ends the round, after this many halvings.
_MAX_HALVINGS = 60


class FlowProgram:
    """A flow program over the bundle incidence stacked, sizes[i] rows per type.

    costs is a batched cost over the goods (marginal, total and slope take
    and return one value per good).  With a DemandBatch demand it is the
    welfare program, each type's total capped at its demand support; with
    fixed masses instead it is the min-cost split of those masses on top of
    the allocation base.
    """

    def __init__(self, stacked, sizes, costs, demand=None, masses=None, base=0.0):
        self.demand = demand
        self.masses = masses
        self.costs = costs
        self.base = base
        self.sizes = sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.stacked = stacked
        self.type_caps = np.full(len(sizes), np.inf) if masses is not None else demand.support_ceiling
        self.caps = np.repeat(self.type_caps, self.sizes)
        n_types, n_goods = len(self.sizes), self.stacked.shape[1]
        owner = np.repeat(np.arange(n_types), self.sizes)
        # The incidence's nonzeros: entry e puts bundle row _rows[e] on good _goods[e].
        self._rows, self._goods = np.nonzero(self.stacked)
        # Every ordered pair of entries (e1, e2) on one type's rows: the
        # nonzeros of newton_step's goods-space matrix A^T B^-1 A.
        per_type = np.bincount(owner[self._rows], minlength=n_types)
        count = per_type * per_type
        self._pair_type = np.repeat(np.arange(n_types), count)
        local = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        first = (np.cumsum(per_type) - per_type)[self._pair_type]
        width = per_type[self._pair_type]
        e1, e2 = first + local // width, first + local % width
        self._pair_rows = self._rows[e1], self._rows[e2]
        self._pair_same = (self._pair_rows[0] == self._pair_rows[1]).astype(float)
        self._pair_cells = self._goods[e1] * n_goods + self._goods[e2]

    def totals(self, z):
        return np.add.reduceat(z, self.offsets[:-1])

    def allocation(self, z):
        return self.base + self.stacked.T @ z

    def _value(self, x, y):
        utility = 0.0 if self.masses is not None else self.demand.utility_integral(x).sum()
        cost = self.costs.total(y).sum()
        return float(utility - cost)

    def _gradient(self, x, y):
        sums = self.stacked @ self.costs.marginal(y)
        # Fixed totals make any per-type term irrelevant; the cheapest sum
        # puts the optimum's gradient at zero on the used bundles.
        price = np.minimum.reduceat(sums, self.offsets[:-1]) if self.masses is not None else self.demand.eval(x)
        return np.repeat(price, self.sizes) - sums

    def objective(self, z):
        return self._value(self.totals(z), self.allocation(z))

    def gradient(self, z):
        return self._gradient(self.totals(z), self.allocation(z))

    def value_and_gradient(self, z):
        """(objective(z), gradient(z)) from one pass of totals and allocation."""
        x, y = self.totals(z), self.allocation(z)
        return self._value(x, y), self._gradient(x, y)

    def projected_gradient(self, z, gradient=None):
        """KKT residual ||z - P(z + grad SW(z))||_inf, P the projection on [0, cap].

        Zero exactly at the program's optima.  gradient is grad SW(z), if
        the caller has it.
        """
        if gradient is None:
            gradient = self.gradient(z)
        return float(np.abs(z - np.clip(z + gradient, 0.0, self.caps)).max())

    def project(self, z):
        """z clipped into [0, cap], each fixed-mass block then rescaled to its total."""
        z = np.clip(z, 0.0, self.caps)
        if self.masses is not None:
            z *= np.repeat(self.masses / self.totals(z), self.sizes)
        return z

    def newton_step(self, z, gradient, free, damping):
        """The d solving (H + damping I) d = gradient on the free coordinates, 0 elsewhere.

        H = E^T diag(w) E + A diag(c'(y)) A^T, w = -lambda'(x), is the Hessian
        of -SW at z (E the type incidence, A the bundle rows), restricted to
        the free coordinates; with fixed masses w = inf, and d is the limit,
        which keeps each block's sum.  B = E^T diag(w) E + damping I has one
        block w_i 11^T + damping I per type, inverted in closed form; the
        cost term then enters through a Woodbury solve in goods space,
        (I + S A^T B^-1 A S) t = S A^T B^-1 gradient with S = diag(sqrt(c')),
        so that goods at c' = 0 drop out.
        """
        n_goods = self.stacked.shape[1]
        on = free.astype(float)
        w = np.inf if self.masses is not None else -self.demand.derivative(self.totals(z))
        s = np.sqrt(self.costs.slope(self.allocation(z)))
        # A type's block on its m free coordinates is damping + w m along 1
        # and damping across it.  Inverting the two parts apart gives a single
        # free bundle 1 / (damping + w) with no cancellation.
        m = np.maximum(np.add.reduceat(on, self.offsets[:-1]), 1.0)
        along = 1.0 / (damping + w * m)

        def solve_b(v):  # B^-1 v on the free coordinates
            v = v * on
            mean = on * np.repeat(np.add.reduceat(v, self.offsets[:-1]) / m, self.sizes)
            return (v - mean) / damping + mean * np.repeat(along, self.sizes)

        u = solve_b(gradient)
        pt = self._pair_type
        b_inv = (self._pair_same - 1.0 / m[pt]) / damping + (along / m)[pt]
        weights = on[self._pair_rows[0]] * on[self._pair_rows[1]] * b_inv
        k = np.bincount(self._pair_cells, weights, minlength=n_goods * n_goods).reshape(n_goods, n_goods)
        k *= s[:, None] * s
        k.flat[:: n_goods + 1] += 1.0
        rhs = s * np.bincount(self._goods, u[self._rows], minlength=n_goods)
        # k is symmetric with every eigenvalue at least 1, but its entries grow
        # like 1 / damping: near rounding, LU can meet an exactly zero pivot,
        # and least squares then gives the smallest solution instead.
        try:
            t = s * np.linalg.solve(k, rhs)
        except np.linalg.LinAlgError:
            t = s * np.linalg.lstsq(k, rhs, rcond=None)[0]
        return u - solve_b(np.bincount(self._rows, t[self._goods], minlength=len(z)))


def _run_newton(program, z, max_iters):
    """One round of damped projected Newton on F = -SW(z) from z (see the module docstring).

    Returns the last iterate after the stopping test or max_iters steps.
    """
    z = program.project(z)
    f, grad = program.value_and_gradient(z)
    history = []
    for _ in range(max_iters):
        pg = program.projected_gradient(z, grad)
        history.append(pg)
        # grad is the gradient of SW, so F rises with z_k where grad_k < 0.
        fixed = (z <= min(1e-6, pg)) & (grad < 0.0)
        # A bundle at zero stays there unless it gains more than every bundle
        # its type uses below the cap, which can take the mass instead.  One
        # that differs from a used bundle only in goods at c'(0) = 0 would
        # otherwise get half of each mass shift, the damped step having no
        # curvature to tell the two apart, and cycle in and out of zero.
        used = (z > 0.0) & (z < program.caps)
        best = np.maximum.reduceat(np.where(used, grad, -np.inf), program.offsets[:-1])
        fixed |= (z == 0.0) & (grad <= np.repeat(best, program.sizes))
        if program.masses is not None:
            # The mass a fixed block's fixed entries give up needs a free
            # entry to go to: its largest (Bertsekas's reference coordinate).
            fixed &= z < np.repeat(np.maximum.reduceat(z, program.offsets[:-1]), program.sizes)
        d = program.newton_step(z, grad, ~fixed, max(pg, _DAMPING_FLOOR))
        # A full step sends the fixed coordinates to 0; a shorter one only
        # moves them toward it, so that every short enough step is a descent.
        d[fixed] = -z[fixed]
        # Below this decrement a step's gain is lost in the objective's rounding.
        unseen = grad @ d <= 1e-15 * (1.0 + abs(f))
        if unseen and (pg <= 1e-12 or (len(history) > 3 and pg > 0.5 * history[-4])):
            break
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            z_new = program.project(z + step * d)
            f_new, grad_new = program.value_and_gradient(z_new)
            # The slack is rounding in the objective; a step whose gain F
            # cannot resolve is taken whole.
            if unseen or f_new >= f + 1e-4 * float(grad @ (z_new - z)) - 1e-15 * abs(f):
                break
            step *= 0.5
        else:
            break
        z, f, grad = z_new, f_new, grad_new
    return z
