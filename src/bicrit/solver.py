"""Welfare-maximizing solver for the market's concave flow program.

The program maximizes total buyer surplus minus production cost over bundle
splits x_i(S) >= 0, with x_i and y_t induced linearly; each type's total is
capped at its demand support.  Its Lagrangian dual in the goods' prices p,

    D(p) = sum_g C*_g(p_g) + sum_i max_t [U_i(t) - q_i t],  q_i = min_S p(S),

is convex and bounds the optimum from above at every p >= 0 (weak duality),
so D(p) - SW(z) bounds how far an iterate z is from optimal.

A solve runs up to four rounds of damped projected Newton (Bertsekas, SIAM
J. Control Optim. 20(2), 1982) on F = -SW over the box 0 <= z <= cap, each
round continuing from the last iterate; the first starts from zero or a given
split (ladder rungs start from the welfare optimum's).  A step fixes the
epsilon-active coordinates, those at most min(1e-6, ||z - P(z - grad F)||)
with F rising in them, and moves them toward 0 (a full step reaches it).  It
also holds at 0 every bundle that gains no more than one its type uses below
the cap.  On the others it solves (H + mu I) d = -grad F, where

    H = E^T diag(-lambda'(x)) E + A diag(c'(y)) A^T

(E the type incidence, A the bundle rows) and mu is the projected gradient.
The damping is needed: where reserve-floored costs are linear (c' = 0), H is
singular along mass exchanges between tied bundles, which an undamped step
ignores.  The step is solved in goods space, by Sherman-Morrison on each
type's block and one Woodbury solve over the goods: one dense goods x goods
solve (LU, by np.linalg.solve) plus work linear in the incidence's entry
pairs, and never a matrix over the splits.  Armijo backtracking runs along the
projection arc; a step whose predicted gain (the Newton decrement) is below
the objective's rounding is taken whole.  A round ends once the decrement is
at that level and the projected gradient is at most 1e-12 or has not halved
in three steps.

After each round the gap is tried at the marginal-cost prices p = c(y(z));
only if that misses the target is p improved by L-BFGS-B on D, with a
subgradient (SciPy's, imported on that first use, so that a solve that never
needs it loads NumPy only).  The posted prices are always c(y); the improved
p only certifies.

The program works on the instance's struct-of-arrays forms: the stacked
bundle incidence, the DemandBatch of its curves and a batched cost (the
instance's CostBatch, or reserve-floored costs on a ladder rung).  Each
objective, gradient, curvature or dual evaluation is one kernel call per
family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import (
    MarketInstance,
    PricingSolution,
    SPLIT_DUST,
    _bundle_prices,
)

__all__ = [
    "SolverConfig",
    "SolverError",
    "solve_welfare",
]

_ROUNDS = 4
# The Newton step's damping is the projected gradient, but at least this.
_DAMPING_FLOOR = 1e-14
# Armijo backtracking gives up, and ends the round, after this many halvings.
_MAX_HALVINGS = 60


@dataclass
class SolverConfig:
    """Tolerance and iteration cap of the welfare solver.

    tol is the relative target of the weak-duality gap: a solve is certified
    once D(p) - SW(z) <= tol * (1 + |SW(z)|).  max_iters caps the Newton
    steps of each round, and the iterations of the dual price search.
    """

    max_iters: int = 20_000
    tol: float = 1e-8

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


class SolverError(RuntimeError):
    """Solver failed to certify optimality; carries the best iterate found."""

    def __init__(self, message, best_splits=None, residual=None):
        super().__init__(message)
        self.best_splits = best_splits
        self.residual = residual


@dataclass
class FlowResult:
    splits: list[np.ndarray]
    y: np.ndarray


class _FlowProgram:
    """The welfare program of the instance's buyer types against costs.

    costs is a batched cost over the instance's goods (marginal, total and
    conjugate take and return one value per good): usually inst.cost_batch,
    or reserve-floored costs on a ladder rung.  Each type's total is capped
    at its demand support.
    """

    def __init__(self, inst: MarketInstance, costs):
        self.demand = inst.demand_batch
        self.costs = costs
        self.sizes = inst.bundle_sizes
        self.offsets = inst.bundle_offsets
        self.stacked = inst.stacked_masks
        self.type_caps = self.demand.support_ceiling
        self.caps = np.repeat(self.type_caps, self.sizes)
        n_types, n_goods = len(self.sizes), self.stacked.shape[1]
        owner = np.repeat(np.arange(n_types), self.sizes)
        # Each split coordinate's (type, bundle) cell in a types x bundles grid.
        self._cells = (owner, np.arange(self.offsets[-1]) - np.repeat(self.offsets[:-1], self.sizes))
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
        return self.stacked.T @ z

    def _value(self, x, y):
        utility = self.demand.utility_integral(x).sum()
        cost = self.costs.total(y).sum()
        return float(utility - cost)

    def _gradient(self, x, y):
        return np.repeat(self.demand.eval(x), self.sizes) - self.stacked @ self.costs.marginal(y)

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

    def newton_step(self, z, gradient, free, damping):
        """The d solving (H + damping I) d = gradient on the free coordinates, 0 elsewhere.

        H = E^T diag(w) E + A diag(c'(y)) A^T, w = -lambda'(x), is the Hessian
        of -SW at z (E the type incidence, A the bundle rows), restricted to
        the free coordinates.  B = E^T diag(w) E + damping I has one block
        w_i 11^T + damping I per type, inverted in closed form; the cost term
        then enters through a Woodbury solve in goods space,
        (I + S A^T B^-1 A S) t = S A^T B^-1 gradient with S = diag(sqrt(c')),
        so that goods at c' = 0 drop out.
        """
        n_goods = self.stacked.shape[1]
        on = free.astype(float)
        w = -self.demand.derivative(self.totals(z))
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
        # k is symmetric with every eigenvalue at least 1, so well conditioned.
        t = s * np.linalg.solve(k, rhs)
        return u - solve_b(np.bincount(self._rows, t[self._goods], minlength=len(z)))

    def dual(self, p):
        """(D(p), a subgradient of D at p), for prices p >= 0.

        A subgradient is the supply c^-1(p) that the conjugates pick, less
        the goods of each type's best response routed to one cheapest bundle.
        """
        conjugate, supply = self.costs.conjugate(p)
        grid = np.full((len(self.sizes), int(self.sizes.max())), np.inf)
        grid[self._cells] = self.stacked @ p
        best = np.argmin(grid, axis=1)
        q = grid[np.arange(len(best)), best]
        t = self.demand.demand_at_price(q)
        value = conjugate.sum() + (self.demand.utility_integral(t) - q * t).sum()
        return float(value), supply - self.stacked[self.offsets[:-1] + best].T @ t

    def certificate(self, z, tol, max_iters):
        """(gap, target): the best weak-duality gap D(p) - SW(z) found, and tol * (1 + |SW(z)|).

        The gap is tried at p = c(y(z)) first; only if it misses the target
        is p improved by L-BFGS-B on D, run until it makes no progress: the
        default stopping tests end it long before the gap is near the target.
        """
        f = self.objective(z)
        target = tol * (1.0 + abs(f))
        p = self.costs.marginal(self.allocation(z))
        gap = self.dual(p)[0] - f
        if gap > target:
            res = minimize(
                self.dual,
                p,
                jac=True,
                method="L-BFGS-B",
                bounds=[(0.0, None)] * p.size,
                options={"maxiter": max_iters, "ftol": 0.0, "gtol": 0.0},
            )
            gap = min(gap, res.fun - f)
        return gap, target


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    Only certificate's dual price search calls it, and only when the gap at
    p = c(y) misses its target, so no command imports SciPy unless that
    happens.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _run_newton(program, z, max_iters):
    """One round of damped projected Newton on F = -SW(z) from z (see the module docstring).

    Returns the last iterate after the stopping test or max_iters steps.
    """
    z = np.clip(z, 0.0, program.caps)
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
            z_new = np.clip(z + step * d, 0.0, program.caps)
            f_new, grad_new = program.value_and_gradient(z_new)
            # The slack is rounding in the objective, as in market._newton_split;
            # a step whose gain F cannot resolve is taken whole.
            if unseen or f_new >= f + 1e-4 * float(grad @ (z_new - z)) - 1e-15 * abs(f):
                break
            step *= 0.5
        else:
            break
        z, f, grad = z_new, f_new, grad_new
    return z


def _solve_flow(inst: MarketInstance, costs, cfg: SolverConfig, start=None) -> FlowResult:
    """Certified optimum of the program against costs.

    The first round starts from start, a split in stacked_masks row order
    (zero if None), clipped into [0, cap].
    """
    program = _FlowProgram(inst, costs)
    z = np.zeros(int(program.offsets[-1])) if start is None else start
    for _ in range(_ROUNDS):
        z = _run_newton(program, z, cfg.max_iters)
        gap, target = program.certificate(z, cfg.tol, cfg.max_iters)
        if gap <= target:
            break
    else:
        raise SolverError(
            f"welfare solver gap {gap:.3e} above tolerance after {_ROUNDS} rounds",
            best_splits=z,
            residual=gap,
        )
    z[z < SPLIT_DUST] = 0.0
    splits = [
        z[program.offsets[k] : program.offsets[k + 1]]
        for k in range(len(program.sizes))
    ]
    return FlowResult(splits=splits, y=program.allocation(z))


def _solution_from_splits(inst: MarketInstance, splits, y, costs) -> PricingSolution:
    """Assemble a solved program's solution, pricing at the marginals of costs.

    costs is the batched cost the program was solved against; welfare and
    profit are always measured with the instance's own costs.
    """
    yvec = np.asarray(y, dtype=float)
    prices = costs.marginal(yvec)
    _, cheapest, _ = _bundle_prices(inst, prices)
    xvec = np.array([float(np.sum(sp)) for sp in splits])
    demand = {}
    split_dict = {}
    for t, sp, x in zip(inst.buyer_types, splits, xvec.tolist()):
        demand[t.type_id] = x
        for b, v in zip(t.bundles, sp):
            if v > SPLIT_DUST:
                split_dict[(t.type_id, b)] = float(v)
    utility = float(np.sum(inst.demand_batch.utility_integral(xvec)))
    cost = inst.total_cost(yvec)
    income = float(prices @ yvec)
    return PricingSolution(
        prices=inst.prices_dict(prices),
        demand=demand,
        split=split_dict,
        allocation=inst.prices_dict(yvec),
        sw=float(utility - cost),
        profit=income - cost,
        paid={t.type_id: float(q) for t, q in zip(inst.buyer_types, cheapest)},
    )


def solve_welfare(inst: MarketInstance, cfg: SolverConfig | None = None) -> PricingSolution:
    """Welfare-maximizing solution with each good priced at its marginal cost."""
    cfg = cfg or SolverConfig()
    result = _solve_flow(inst, inst.cost_batch, cfg)
    return _solution_from_splits(inst, result.splits, result.y, inst.cost_batch)


def projected_gradient_norm(inst: MarketInstance, splits) -> float:
    """The welfare program's KKT residual at splits (_FlowProgram.projected_gradient)."""
    z = np.concatenate([np.asarray(s, dtype=float) for s in splits])
    return _FlowProgram(inst, inst.cost_batch).projected_gradient(z)
