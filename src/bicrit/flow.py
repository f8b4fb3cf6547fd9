"""The Newton core shared by the market's two convex flow programs.

Both programs route each buyer type's mass over its bundles: z >= 0 holds
one entry per (type, bundle), x the types' totals and y = base + A^T z the
goods' allocation (A the stacked bundle incidence, base a fixed allocation).
A program keeps A only as its nonzeros' indices and takes its costs per
solve, so one welfare program per instance serves the instance's costs and
every ladder rung's reserve-floored ones.

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
epsilon-active coordinates, those within min(ACTIVE_EPS, ||z - P(z - grad F)||)
of the bound, 0 or the cap, that F falls toward, and moves them toward it (a
full step reaches it).  It also holds at 0 every bundle that gains no more
than one its type uses below the cap; a block of fixed mass keeps its largest
entry free.  On the others it solves (H + mu I) d = -grad F, where

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
objective's rounding is taken whole.  A run ends once the decrement is at
that level and the projected gradient is at most PG_STOP or has not halved in
three steps (at large price scales, rounding in F keeps it above PG_STOP), or
once backtracking fails or max_iters steps are taken.

Each iterate is evaluated once, by FlowProgram.at: one kernel call per
family of the DemandBatch and of the costs gives the value, the gradient
and everything the Newton step and the certificate read of it.

solve runs the loop once and certifies its last iterate z by the
weak-duality gap at the posted prices p = c(y(z)).  The welfare program's
dual D(p) = sum_g C*_g(p_g) + sum_i max_t [U_i(t) - q_i t], q_i = min_S p(S),
bounds SW from above at every p >= 0, and at p = c(y) Fenchel's equality
C*(p) = p y - C(y) (Rockafellar, Convex Analysis, 1970, Thm 23.5) cancels
the cost terms:

    D(c(y)) - SW(z) = sum_r z_r (p(S_r) - q_i) + sum_i [U_i(t_i) - U_i(x_i) - q_i (t_i - x_i)]

over the rows r (type i, bundle S_r), t_i the demand at q_i.  With fixed
masses m_i the utility sum drops out, and the first sum bounds C(y) - min C:
for a split z* of the same masses convexity gives C(y*) - C(y) >= p (y* - y)
= sum_r (z*_r - z_r) p(S_r), and sum_r z*_r p(S_r) >= sum_i m_i q_i =
sum_r z_r q_i.  Both gaps' terms are non-negative and vanish exactly at the
KKT point: each used bundle's sum is its type's cheapest, and x_i = t_i.  A
gap above tol * (1 + |value|), value = SW(z) or -C(y), raises SolverError.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tolerances import ACTIVE_EPS, ARMIJO, DAMPING_FLOOR, MAX_HALVINGS, PG_STOP, ROUNDING_REL


class SolverError(RuntimeError):
    """A Newton run of either program missed its gap's target (see solve).

    best_splits is the run's last iterate, the free types' rows in order for
    a min-cost split, residual its gap and history the projected gradient at
    the start of each Newton step.
    """

    def __init__(self, message, best_splits=None, residual=None, history=None):
        super().__init__(message)
        self.best_splits = best_splits
        self.residual = residual
        self.history = history


class Point(NamedTuple):
    """One evaluation of a program at its iterate z (FlowProgram.at).

    x holds the types' totals, y the allocation, sums each bundle row's
    marginal-cost sum p(S_r) at p = c(y), utility the terms U_i(x_i) (None
    for a split), w the curvature -lambda'(x) (inf for a split), slope c'(y),
    value SW(z) (-C(y) for a split) and gradient grad SW(z).
    """

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    sums: np.ndarray
    utility: np.ndarray | None
    w: np.ndarray | float
    slope: np.ndarray
    value: float
    gradient: np.ndarray


class FlowProgram:
    """A flow program over a 0/1 bundle incidence, sizes[i] rows per type.

    With a DemandBatch demand it is the welfare program, each type's total
    capped at its demand support; with fixed masses instead it is the
    min-cost split of those masses on top of the allocation base.  Its
    costs come with each evaluation (at): a batched cost over the goods
    whose at(y) gives the marginal, slope and total of one value per good.
    """

    def __init__(self, incidence, sizes, demand=None, masses=None, base=0.0):
        self.demand = demand
        self.masses = masses
        self.base = base
        self.sizes = sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        n_types, (n_rows, self.n_goods) = len(sizes), incidence.shape
        self.caps = np.repeat(np.full(n_types, np.inf) if masses is not None else demand.support_ceiling, sizes)
        owner = np.repeat(np.arange(n_types), self.sizes)
        # The incidence's nonzeros, row by row: entry e puts bundle row _rows[e] on good _goods[e].
        self._rows, self._goods = np.nonzero(incidence)
        # Row r's entries start at _starts[r].  Every row has one, because an
        # instance rejects empty bundles, so np.add.reduceat from _starts sums
        # exactly each row's own entries.
        self._starts = np.searchsorted(self._rows, np.arange(n_rows))
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
        self._pair_cells = self._goods[e1] * self.n_goods + self._goods[e2]

    def totals(self, z):
        return np.add.reduceat(z, self.offsets[:-1])

    def allocation(self, z):
        return self.base + np.bincount(self._goods, z[self._rows], minlength=self.n_goods)

    def at(self, z, costs):
        """The Point of z against costs: SW(z) (-C(y) for a split), grad SW(z) and
        what the Newton step and the certificate read, from one kernel call per family."""
        x, y = self.totals(z), self.allocation(z)
        marginal, slope, total = costs.at(y)
        sums = np.add.reduceat(marginal[self._goods], self._starts)
        if self.masses is None:
            price, derivative, utility = self.demand.at(x)
            w, value = -derivative, float(utility.sum() - total.sum())
        else:
            # Fixed totals make any per-type term irrelevant; the cheapest sum
            # puts the optimum's gradient at zero on the used bundles.
            price, utility, w = self.cheapest(sums), None, np.inf
            value = float(0.0 - total.sum())
        return Point(z, x, y, sums, utility, w, slope, value, np.repeat(price, self.sizes) - sums)

    def cheapest(self, sums):
        """Each type's cheapest bundle sum q_i = min over its rows of sums."""
        return np.minimum.reduceat(sums, self.offsets[:-1])

    def projected_gradient(self, z, gradient):
        """KKT residual ||z - P(z + gradient)||_inf, P the projection on [0, cap].

        gradient is grad SW(z); the residual is zero exactly at the
        program's optima.
        """
        return float(np.abs(z - np.clip(z + gradient, 0.0, self.caps)).max())

    def project(self, z):
        """z clipped into [0, cap], each fixed-mass block then rescaled to its total."""
        z = np.clip(z, 0.0, self.caps)
        if self.masses is not None:
            z *= np.repeat(self.masses / self.totals(z), self.sizes)
        return z

    def certificate(self, point, tol):
        """(gap, target) at the Point point: the module docstring's gap at p = c(y(z)), and tol * (1 + |value|)."""
        q, x = self.cheapest(point.sums), point.x
        gap = point.z @ (point.sums - np.repeat(q, self.sizes))
        if self.masses is None:
            t = self.demand.demand_at_price(q)
            gap += (self.demand.utility_integral(t) - point.utility - q * (t - x)).sum()
        return float(gap), tol * (1.0 + abs(point.value))

    def newton_step(self, point, free, damping):
        """The d solving (H + damping I) d = gradient on the free coordinates, 0 elsewhere, at the Point point.

        H = E^T diag(w) E + A diag(c'(y)) A^T, w = -lambda'(x), is the Hessian
        of -SW at z (E the type incidence, A the bundle rows), restricted to
        the free coordinates; with fixed masses w = inf, and d is the limit,
        which keeps each block's sum.  B = E^T diag(w) E + damping I has one
        block w_i 11^T + damping I per type, inverted in closed form; the
        cost term then enters through a Woodbury solve in goods space,
        (I + S A^T B^-1 A S) t = S A^T B^-1 gradient with S = diag(sqrt(c')),
        so that goods at c' = 0 drop out.
        """
        n_goods = self.n_goods
        on = free.astype(float)
        w, s = point.w, np.sqrt(point.slope)
        # A type's block on its m free coordinates is damping + w m along 1
        # and damping across it.  Inverting the two parts apart gives a single
        # free bundle 1 / (damping + w) with no cancellation.
        m = np.maximum(np.add.reduceat(on, self.offsets[:-1]), 1.0)
        along = 1.0 / (damping + w * m)

        def solve_b(v):  # B^-1 v on the free coordinates
            v = v * on
            mean = on * np.repeat(np.add.reduceat(v, self.offsets[:-1]) / m, self.sizes)
            return (v - mean) / damping + mean * np.repeat(along, self.sizes)

        u = solve_b(point.gradient)
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
        return u - solve_b(np.bincount(self._rows, t[self._goods], minlength=len(on)))


def solve(program, costs, z, max_iters, tol):
    """The optimum against costs from z: one run of at most max_iters Newton steps, its gap certified at tol."""
    point, history = _run_newton(program, costs, z, max_iters)
    gap, target = program.certificate(point, tol)
    if gap > target:
        name = "min-cost split" if program.masses is not None else "welfare solver"
        message = f"{name} gap {gap:.3e} above tolerance {target:.3e}"
        raise SolverError(message, best_splits=point.z, residual=gap, history=history)
    return point.z


def _run_newton(program, costs, z, max_iters):
    """Damped projected Newton on F = -SW(z) against costs from z (see the module docstring).

    Returns (point, history): the Point of the last iterate, uncertified
    (solve is the one caller in bicrit), and the projected gradient at the
    start of each step.
    """
    point = program.at(program.project(z), costs)
    history = []
    for _ in range(max_iters):
        z, grad = point.z, point.gradient
        pg = program.projected_gradient(z, grad)
        history.append(pg)
        # grad is the gradient of SW, so F falls toward 0 where grad_k < 0
        # and toward the cap where grad_k > 0.  Without the cap side, a type
        # at the ceiling of a curve that ends at a positive price (the curve
        # reads 0 at the ceiling) steps back below it and returns, forever.
        eps = min(ACTIVE_EPS, pg)
        fixed = (z <= eps) & (grad < 0.0)
        capped = (z >= program.caps - eps) & (grad > 0.0)
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
        d = program.newton_step(point, ~(fixed | capped), max(pg, DAMPING_FLOOR))
        # A full step sends the fixed coordinates to 0 and the capped ones to
        # their cap; a shorter one only moves them toward it, so that every
        # short enough step is a descent.
        d[fixed] = -z[fixed]
        d[capped] = program.caps[capped] - z[capped]
        # Below this decrement a step's gain is lost in the objective's rounding.
        f = point.value
        unseen = grad @ d <= ROUNDING_REL * (1.0 + abs(f))
        if unseen and (pg <= PG_STOP or (len(history) > 3 and pg > 0.5 * history[-4])):
            break
        step = 1.0
        for _ in range(MAX_HALVINGS):
            trial = program.at(program.project(z + step * d), costs)
            # The slack is rounding in the objective; a step whose gain F
            # cannot resolve is taken whole.
            if unseen or trial.value >= f + ARMIJO * float(grad @ (trial.z - z)) - ROUNDING_REL * abs(f):
                break
            step *= 0.5
        else:
            break
        point = trial
    return point, history
