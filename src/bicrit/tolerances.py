"""Every slack and iteration cap of bicrit, one entry per rule.

These numbers decide what counts as certified, tied, used or on a boundary.
Each module imports the entries it uses from here; this module imports
nothing.  A rule used at two places is one entry, so the places cannot drift.
"""

# -- the paper's guarantees ---------------------------------------------------
# A measured ratio meets its factor, and a ladder inequality holds, within
# BOUND_TOL * (1 + |SW*|) (1 + lambda_max for a price): above the solver's
# accuracy, far below any factor.
BOUND_TOL = 1e-6
# Below this, alpha is exactly zero and formulas use their alpha -> 0 limits.
ALPHA_LIMIT = 1e-9
# A value within this of a closed boundary counts as on it (absolute for
# alpha, log2 ratios and shifted prices; relative for prices and factors), so
# rounding in a derived number never moves it across the boundary.
BOUNDARY_SLACK = 1e-12
# A price counts as above a floor (the threshold or a rung's reserve) only by
# more than FLOOR_MARGIN * (1 + scale), so one at the floor up to rounding
# stays in the low cluster, or unsaturated.
FLOOR_MARGIN = 1e-9

# -- instances and demand -----------------------------------------------------
# Curves with unbounded support are cut where the price falls below
# DEFAULT_PRICE_FLOOR * lambda_max.
DEFAULT_PRICE_FLOOR = 1e-6
# A number an instance states (each type's peak against the first type's, a
# tabulated curve's peak and ceiling against its nodes) matches within this
# fraction.
STATED_REL = 1e-9
# Tabulated prices may rise by this much between nodes and still read as
# non-increasing: the nodes' own rounding.
NONINCREASING_SLACK = 1e-15
# A magnitude below this is zero (a slope, a truncation floor); a divisor is
# kept at least this, so a flat curve divides to inf, never by zero.
TINY = 1e-300
# verify_regularity's default slack on h(x2) - h(x1) <= alpha (x2 - x1).
REGULARITY_TOL = 1e-8

# -- the Newton core (flow.py) ------------------------------------------------
# The certificate's relative gap target: every min-cost split's, and SolverConfig's default.
SOLVER_TOL = 1e-8
# Newton steps of a min-cost split, and SolverConfig's default cap on those
# of a welfare solve: a safety cap, far above the steps either run takes.
NEWTON_STEPS = 500
# Armijo backtracking gives up, and ends the run, after this many halvings.
MAX_HALVINGS = 60
# Armijo's sufficient-decrease fraction of the predicted gain.
ARMIJO = 1e-4
# The Newton step's damping is the projected gradient, but at least this.
DAMPING_FLOOR = 1e-14
# Coordinates at most min(ACTIVE_EPS, projected gradient) are epsilon-active.
ACTIVE_EPS = 1e-6
# The objective's rounding, relative to |F|: a gain below it is unseen.
ROUNDING_REL = 1e-15
# A run may end once the projected gradient is at most this.
PG_STOP = 1e-12

# -- the market ---------------------------------------------------------------
# Bundles whose price is within PRICE_TIE_REL * (1 + lambda_max) of the
# cheapest tie.  Solver prices equalize marginal costs only to about 1e-8,
# and breaking those near-ties routes whole populations onto one good, so
# this sits well above the solver tolerance.
PRICE_TIE_REL = 1e-7
# Split entries at most this are numeric dust: dropped, and not "used".
SPLIT_DUST = 1e-12
# Used bundles' marginal-cost sums agree within this at a cost optimum
# (split_kkt_violation).
KKT_TOL = 1e-6

# -- checks -------------------------------------------------------------------
# Thresholded pricing's cluster and hazard diagnostics hold within
# DIAG_TOL * (1 + scale).
DIAG_TOL = 1e-6
# A later grid candidate replaces the oracle's best only if it is larger by
# more than this: the first of equal values wins.
GRID_TIE = 1e-15
# verify: the optimum's prices equal its marginal costs within this.
MARGINAL_PRICE_TOL = 1e-9
# verify: the grid oracle's welfare exceeds SW* by at most this * (1 + |SW*|).
GRID_ABOVE_REL = 1e-9
# verify: SW* reaches the grid's best within this * (1 + |SW*|), the
# discretization error of verify's grids.
GRID_REACH_REL = 5e-3
