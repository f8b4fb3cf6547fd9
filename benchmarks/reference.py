"""Reference checks of `bicrit` outputs, computed apart from the program.

Nothing here imports `bicrit`.  The demand and cost families are re-derived
in closed form from the instance document, and every check is either an
identity the output must satisfy at its own posted prices (envy-free demand,
conservation of mass, recomputed welfare and profit, the weak-duality
certificate) or a rule of the paper (the guarantee factors, the price
rules, the ladder selection).  No check compares against stored output.

Each `check_*` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

# Outputs are rounded to 12 significant digits, so identities recomputed from
# them hold to about 1e-12 per term; sums over a few hundred terms stay well
# inside EXACT_TOL.
EXACT_TOL = 1e-9
# Quantities a solver produced (welfare optima, ladder rungs) hold their
# identities only to the solver's accuracy.  The welfare solver certifies a
# duality gap of 1e-8 * (1 + SW*); prices and demands then agree to about
# the square root of that, and SOLVER_TOL leaves a margin above it.
SOLVER_TOL = 1e-5
# Bundles within this (times 1 + lambda_max) of the cheapest count as tied,
# the band the program documents for its tie rule, with a margin.
TIE_TOL = 1e-6
# Mass below this counts as zero (the program drops split dust at 1e-12).
DUST = 1e-9


class Demand:
    """Closed forms of one inverse demand curve lambda(x) on [0, ceiling)."""

    def __init__(self, spec: dict):
        self.family = spec["family"]
        self.lam = float(spec["lambda_max"])
        self.alpha = float(spec.get("alpha", 0.0))
        self.scale = float(spec.get("scale", 1.0))
        self.ceiling = float(spec["support_ceiling"])
        if self.family not in ("linear", "exponential", "generalized-pareto"):
            raise ValueError(f"no closed form for demand family {self.family!r}")
        self.exp_like = self.family == "exponential" or self.alpha == 0.0

    def price(self, x: float) -> float:
        """lambda(x), zero at or past the ceiling."""
        if x >= self.ceiling:
            return 0.0
        s, lam = self.scale, self.lam
        if self.family == "linear":
            return lam * max(0.0, 1.0 - x / s)
        if self.exp_like:
            return lam * math.exp(-x / s)
        return lam * (1.0 + self.alpha * x / s) ** (-1.0 / self.alpha)

    def quantity(self, q: float) -> float:
        """Mass buying when the cheapest bundle costs q: the largest x with lambda(x) >= q."""
        if q >= self.lam:
            return 0.0
        if q <= 0.0:
            return self.ceiling
        s, lam = self.scale, self.lam
        if self.family == "linear":
            x = s * (1.0 - q / lam)
        elif self.exp_like:
            x = s * math.log(lam / q)
        else:
            x = s / self.alpha * ((lam / q) ** self.alpha - 1.0)
        return min(x, self.ceiling)

    def utility(self, x: float) -> float:
        """Integral of lambda from 0 to x (flat past the ceiling)."""
        z = min(x, self.ceiling)
        s, lam, a = self.scale, self.lam, self.alpha
        if self.family == "linear":
            return lam * (z - z * z / (2.0 * s))
        if self.exp_like:
            return lam * s * (1.0 - math.exp(-z / s))
        if a == 1.0:
            return lam * s * math.log1p(z / s)
        return lam * s / (1.0 - a) * (1.0 - (1.0 + a * z / s) ** (1.0 - 1.0 / a))

    def surplus(self, q: float) -> float:
        """max over x of utility(x) - q x: the buyer side of the dual."""
        x = self.quantity(q)
        return self.utility(x) - q * x


class Cost:
    """Closed forms of a doubly convex cost with marginal a_k * y^beta_k per piece."""

    def __init__(self, spec: dict):
        self.family = spec["family"]
        if self.family not in ("power", "piecewise-power"):
            raise ValueError(f"no closed form for cost family {self.family!r}")
        # Pieces (start, coefficient, exponent, total at start); each new
        # coefficient keeps the marginal continuous at its breakpoint.
        start, coef, exp, total = 0.0, float(spec["a"]), float(spec["beta"]), 0.0
        self.pieces = [(start, coef, exp, total)]
        for y_break, new_exp in spec.get("breakpoints", ()):
            y_break, new_exp = float(y_break), float(new_exp)
            total += coef * (y_break ** (exp + 1) - start ** (exp + 1)) / (exp + 1)
            coef = coef * y_break ** exp / y_break ** new_exp
            start, exp = y_break, new_exp
            self.pieces.append((start, coef, exp, total))

    def _piece(self, y: float):
        for piece in reversed(self.pieces):
            if y >= piece[0]:
                return piece
        return self.pieces[0]

    def marginal(self, y: float) -> float:
        _, coef, exp, _ = self._piece(y)
        return coef * y ** exp

    def total(self, y: float) -> float:
        start, coef, exp, total = self._piece(y)
        return total + coef * (y ** (exp + 1) - start ** (exp + 1)) / (exp + 1)

    def supply(self, p: float) -> float:
        """The quantity y with marginal(y) = p, for p >= 0."""
        for start, coef, exp, _ in reversed(self.pieces):
            if p >= coef * start ** exp:
                return (p / coef) ** (1.0 / exp)
        return 0.0

    def profit(self, p: float) -> float:
        """max over y of p y - total(y): the producer side of the dual."""
        y = self.supply(p)
        return p * y - self.total(y)


class Market:
    """An instance document with its closed-form curves."""

    def __init__(self, doc: dict):
        self.costs = {g["id"]: Cost(g["cost"]) for g in doc["goods"]}
        self.types = {t["id"]: ([tuple(b) for b in t["bundles"]], Demand(t["demand"]))
                      for t in doc["buyer_types"]}
        self.lam = max(d.lam for _, d in self.types.values())
        self.alpha = max(d.alpha for _, d in self.types.values())
        sizes = [len(b) for bundles, _ in self.types.values() for b in bundles]
        self.max_size, self.ratio = max(sizes), max(sizes) / min(sizes)

    def cheapest(self, prices: dict, tid: str) -> float:
        return min(sum(prices[g] for g in b) for b in self.types[tid][0])


# -- the paper's factors ------------------------------------------------------

def peak_ratio(alpha: float) -> float:
    """(1 / (1 - alpha))^(1 / alpha), e in the alpha -> 0 limit."""
    return math.e if alpha == 0.0 else (1.0 - alpha) ** (-1.0 / alpha)


def threshold(alpha: float, lam: float) -> float:
    """The unit-demand price floor lambda_max * (1 - alpha)^(1 / alpha)."""
    return lam / peak_ratio(alpha)


def zeta(alpha: float) -> float:
    return 2.0 * peak_ratio(alpha) + alpha / (1.0 - alpha)


def ud_welfare_factor(alpha: float) -> float:
    return (2.0 - alpha) / (1.0 - alpha)


def mm_profit_factor(alpha: float, ratio: float) -> float:
    return 2.0 * (math.log2(ratio) + 2.0) * (8.0 + 2.0 * peak_ratio(alpha) + 4.0 / (1.0 - alpha))


def mm_welfare_factor(alpha: float) -> float:
    return 12.0 * (2.0 - alpha) / (1.0 - alpha)


# -- helpers -----------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def _expect(problems: list, what: str, got: float, want: float, tol: float):
    if not _close(got, want, tol):
        problems.append(f"{what}: {got!r} against {want!r}")


# -- checks on one pricing solution --------------------------------------------

def check_solution(m: Market, sol: dict, what: str, solved: bool) -> list[str]:
    """Identities of one `solution` record at its own posted prices.

    solved marks solver output (welfare optimum, ladder rung), whose demand
    equals the envy-free response only to SOLVER_TOL; evaluated solutions
    must match it exactly.
    """
    problems = []
    prices, demand, alloc, paid = sol["prices"], sol["demand"], sol["allocation"], sol["paid"]
    if set(prices) != set(m.costs) or set(alloc) != set(m.costs):
        return [f"{what}: goods in prices or allocation differ from the instance"]
    if set(demand) != set(m.types) or set(paid) != set(m.types):
        return [f"{what}: types in demand or paid differ from the instance"]
    tol = SOLVER_TOL if solved else EXACT_TOL
    band = TIE_TOL * (1.0 + m.lam) + (SOLVER_TOL if solved else 0.0)

    # Envy-free demand and paid: each type pays its cheapest bundle and buys
    # the mass whose marginal valuation equals that price.
    for tid, (bundles, d) in m.types.items():
        q = m.cheapest(prices, tid)
        _expect(problems, f"{what}: paid[{tid}]", paid[tid], q, EXACT_TOL)
        x = demand[tid]
        if solved:
            if x <= DUST:
                ok = q >= d.lam - tol
            elif x >= d.ceiling - DUST:
                ok = q <= d.price(d.ceiling * (1.0 - 1e-12)) + tol
            else:
                ok = abs(d.price(x) - q) <= tol * (1.0 + d.lam)
            if not ok:
                problems.append(f"{what}: demand[{tid}] = {x!r} is not envy-free at price {q!r}")
        else:
            _expect(problems, f"{what}: demand[{tid}]", x, d.quantity(q), tol)

    # Conservation: split -> demand and split -> allocation; splits only on
    # bundles tied at the cheapest price.
    routed = {tid: 0.0 for tid in m.types}
    used = {g: 0.0 for g in m.costs}
    for entry in sol["split"]:
        tid, bundle, v = entry["type"], tuple(entry["bundle"]), entry["quantity"]
        if tid not in m.types or bundle not in m.types[tid][0]:
            problems.append(f"{what}: split on unknown bundle {tid} {list(bundle)}")
            continue
        if v < 0.0:
            problems.append(f"{what}: negative split {tid} {list(bundle)}")
        routed[tid] += v
        for g in bundle:
            used[g] += v
        if v > DUST and sum(prices[g] for g in bundle) > m.cheapest(prices, tid) + band:
            problems.append(f"{what}: {tid} buys {list(bundle)} above its cheapest bundle")
    for tid in m.types:
        _expect(problems, f"{what}: split mass of {tid}", routed[tid], demand[tid], EXACT_TOL)
    for g in m.costs:
        _expect(problems, f"{what}: allocation[{g}]", alloc[g], used[g], EXACT_TOL)

    # Welfare and profit recomputed from the closed forms.
    cost = sum(c.total(alloc[g]) for g, c in m.costs.items())
    utility = sum(d.utility(demand[tid]) for tid, (_, d) in m.types.items())
    income = sum(prices[g] * alloc[g] for g in m.costs)
    _expect(problems, f"{what}: sw", sol["sw"], utility - cost, EXACT_TOL)
    _expect(problems, f"{what}: profit", sol["profit"], income - cost, EXACT_TOL)
    return problems


def dual_value(m: Market, prices: dict) -> float:
    """D(p) = sum_i max_x [U_i(x) - q_i x] + sum_g max_y [p_g y - C_g(y)]."""
    buyers = sum(d.surplus(m.cheapest(prices, tid)) for tid, (_, d) in m.types.items())
    sellers = sum(c.profit(prices[g]) for g, c in m.costs.items())
    return buyers + sellers


def check_optimum(m: Market, opt: dict) -> list[str]:
    """A welfare optimum: solution identities, marginal-cost prices, weak duality.

    D(p) bounds every feasible welfare from above, so D(p) - sw >= 0 holds at
    any prices; at the optimum's prices the gap closes to the solver's
    certified tolerance.
    """
    problems = check_solution(m, opt, "optimum", solved=True)
    for g, c in m.costs.items():
        _expect(problems, f"optimum: price[{g}] at marginal cost", opt["prices"][g],
                c.marginal(opt["allocation"][g]), EXACT_TOL)
    gap = dual_value(m, opt["prices"]) - opt["sw"]
    if not -EXACT_TOL * (1.0 + abs(opt["sw"])) <= gap <= SOLVER_TOL * (1.0 + abs(opt["sw"])):
        problems.append(f"optimum: duality gap D(p) - sw = {gap:.3e} out of tolerance")
    return problems


def _check_ratios(problems, cert, sw_star, sol, profit_factor, welfare_factor):
    """Achieved ratios recomputed and held against the paper's factors."""
    pr = sw_star / sol["profit"] if sol["profit"] > 0 else math.inf
    wr = sw_star / sol["sw"] if sol["sw"] > 0 else math.inf
    _expect(problems, "certificate: achieved_profit_ratio", cert["achieved_profit_ratio"], pr, EXACT_TOL)
    _expect(problems, "certificate: achieved_welfare_ratio", cert["achieved_welfare_ratio"], wr, EXACT_TOL)
    slack = 1e-6 * (1.0 + abs(sw_star))
    if not sw_star <= profit_factor * sol["profit"] + slack:
        problems.append(f"profit guarantee broken: SW* / profit = {pr:.6g} > {profit_factor:.6g}")
    if not sw_star <= welfare_factor * sol["sw"] + slack:
        problems.append(f"welfare guarantee broken: SW* / SW = {wr:.6g} > {welfare_factor:.6g}")


# -- checks per command ------------------------------------------------------

def check_price_ud(doc: dict, rec: dict) -> list[str]:
    """`price-ud --diagnostics`: thresholded prices, both clusters, the factors."""
    m = Market(doc)
    problems = []
    alpha = m.alpha
    _expect(problems, "alpha", rec["alpha"], alpha, EXACT_TOL)
    primary = threshold(alpha, m.lam)
    _expect(problems, "primary_price", rec["primary_price"], primary, EXACT_TOL)
    opt, sol = rec["optimum"], rec["solution"]
    problems += check_optimum(m, opt)
    problems += check_solution(m, sol, "solution", solved=False)
    for g in m.costs:
        want = max(primary, opt["prices"][g])
        _expect(problems, f"price[{g}] = max(threshold, optimum price)", rec["prices"][g], want, EXACT_TOL)
        _expect(problems, f"solution price[{g}]", sol["prices"][g], rec["prices"][g], EXACT_TOL)

    # Both clusters must be present, or thresholding is a no-op.
    margin = TIE_TOL * (1.0 + m.lam)
    low_goods = [g for g in m.costs if rec["prices"][g] <= primary + margin]
    low_types = [t for t in m.types if sol["paid"][t] <= primary + margin]
    for kind, low, total in (("goods", low_goods, m.costs), ("types", low_types, m.types)):
        if not 0 < len(low) < len(total):
            problems.append(f"clusters: {len(low)} of {len(total)} {kind} at the threshold; "
                            "the grid needs both L and H")
        labels = rec["clusters"][kind]
        if sorted(k for k, v in labels.items() if v == "L") != sorted(low):
            problems.append(f"clusters: the {kind} labelled L are not those at the threshold")

    cert = rec["certificate"]
    _expect(problems, "certificate: zeta", cert["zeta"], zeta(alpha), EXACT_TOL)
    _expect(problems, "certificate: welfare_factor", cert["welfare_factor"], ud_welfare_factor(alpha), EXACT_TOL)
    _check_ratios(problems, cert, opt["sw"], sol, zeta(alpha), ud_welfare_factor(alpha))
    return problems


def _selection_ok(candidates, got, sw_star, factor) -> bool:
    """Is got the smallest index (optimum -1 first) meeting SW* <= factor * profit?

    An index within ten times the slack of the boundary may go either way.
    """
    slack = 1e-6 * (1.0 + sw_star)
    for idx, profit in candidates:
        qualifies = profit > 0 and sw_star <= factor * profit + slack
        near = profit > 0 and abs(sw_star - factor * profit) <= 10 * slack
        if idx == got:
            return qualifies or near
        if qualifies and not near:
            return False
    return False


def check_price_mm(doc: dict, rec: dict) -> list[str]:
    """`price-mm --dummy-ladder-dump`: rung prices, the selection, the factors."""
    m = Market(doc)
    problems = []
    alpha = m.alpha
    _expect(problems, "alpha", rec["alpha"], alpha, EXACT_TOL)
    _expect(problems, "bundle_size_ratio", rec["bundle_size_ratio"], m.ratio, EXACT_TOL)
    factor = mm_profit_factor(alpha, m.ratio)
    _expect(problems, "selection_threshold", rec["selection_threshold"], factor, EXACT_TOL)
    opt = rec["optimum"]
    problems += check_optimum(m, opt)

    rungs = rec["rungs"]
    steps = math.ceil(math.log2(m.ratio) - 1e-12)
    if [r["index"] for r in rungs] != list(range(steps + 2)):
        problems.append(f"ladder: rung indices {[r['index'] for r in rungs]}, want 0..{steps + 1}")
        return problems
    primary = threshold(alpha, m.lam)
    for r in rungs:
        j, sol = r["index"], r["solution"]
        reserve = 2.0 ** j * primary / (2.0 * m.max_size)
        _expect(problems, f"rung {j}: dummy_price", r["dummy_price"], reserve, EXACT_TOL)
        problems += check_solution(m, sol, f"rung {j}", solved=True)
        for g, c in m.costs.items():
            want = max(reserve, c.marginal(sol["allocation"][g]))
            _expect(problems, f"rung {j}: price[{g}] = max(reserve, marginal cost)",
                    sol["prices"][g], want, EXACT_TOL)
        _expect(problems, f"rung {j}: sw", r["sw"], sol["sw"], EXACT_TOL)
        _expect(problems, f"rung {j}: profit", r["profit"], sol["profit"], EXACT_TOL)

    sw_star = opt["sw"]
    candidates = [(-1, opt["profit"])] + [(r["index"], r["solution"]["profit"]) for r in rungs]
    got = rec["selected_index"]
    if not _selection_ok(candidates, got, sw_star, factor):
        problems.append(f"selection: index {got} is not the smallest qualifying index")
    chosen = opt if got == -1 else next((r["solution"] for r in rungs if r["index"] == got), None)
    if chosen is None or chosen["prices"] != rec["solution"]["prices"]:
        problems.append("selection: solution is not the selected rung's")

    cert = rec["certificate"]
    _expect(problems, "certificate: mm_profit_factor", cert["mm_profit_factor"], factor, EXACT_TOL)
    _expect(problems, "certificate: mm_welfare_factor", cert["mm_welfare_factor"], mm_welfare_factor(alpha), EXACT_TOL)
    _check_ratios(problems, cert, sw_star, rec["solution"], factor, mm_welfare_factor(alpha))
    return problems


def check_verify(doc: dict, rec: dict) -> list[str]:
    """`verify`: every check the program ran passed."""
    problems = [f"verify: {c['name']} failed ({c['detail']})" for c in rec["checks"] if not c["ok"]]
    if not rec["ok"] or not rec["checks"]:
        problems.append("verify: the record is not ok")
    return problems


CHECKS = {"price-ud": check_price_ud, "price-mm": check_price_mm, "verify": check_verify}
