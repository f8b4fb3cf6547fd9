"""The batched tabulated formulas against a curve-by-curve reference, bit for bit.

DemandBatch evaluates every tabulated curve of a batch at once, on one ragged
table of their nodes.  The reference below evaluates each tabulated curve on
its own node arrays with np.interp and np.searchsorted, and every other curve
as a one-curve batch; ReferenceBatch puts it under DemandBatch's domain
checks, ceiling masks and clipping, so each public result is compared whole.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bicrit.demand import _DERIVATIVE, _EVAL, _INVERSE, _UTILITY, DemandBatch, InverseDemand
from bicrit.tolerances import NONINCREASING_SLACK, STATED_REL, TINY

# -- the curve-by-curve reference ----------------------------------------------


def _nodes(d):
    xs = np.array([x for x, _ in d.points])
    ls = np.array([v for _, v in d.points])
    return xs, ls, np.diff(ls) / np.diff(xs)


def _segment(xs, x):
    return np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)


def _reference_eval(d, x):
    xs, ls, _ = _nodes(d)
    return np.interp(x, xs, ls, right=0.0)


def _reference_derivative(d, x):
    xs, _, slopes = _nodes(d)
    return slopes[_segment(xs, x)]


def _reference_inverse(d, p):
    # The last node with lambda >= p, by searchsorted on the negated sequence.
    xs, ls, slopes = _nodes(d)
    k = np.clip(np.searchsorted(-ls, -p, side="right") - 1, 0, len(ls) - 1)
    kk = np.minimum(k, len(slopes) - 1)
    interp = xs[kk] + (p - ls[kk]) / np.minimum(slopes[kk], -TINY)
    return np.where(k >= len(slopes), xs[-1], interp)


def _reference_utility(d, z):
    xs, ls, slopes = _nodes(d)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ls[:-1] + ls[1:]) * np.diff(xs))])
    seg = _segment(xs, z)
    dx = z - xs[seg]
    return cum[seg] + ls[seg] * dx + 0.5 * slopes[seg] * dx * dx


_REFERENCE = {_EVAL: _reference_eval, _DERIVATIVE: _reference_derivative,
              _INVERSE: _reference_inverse, _UTILITY: _reference_utility}


class ReferenceBatch(DemandBatch):
    """DemandBatch with its formulas applied curve by curve: tabulated curves
    through the reference above, the others as one-curve batches."""

    def __init__(self, curves):
        self.curves = tuple(curves)
        super().__init__(self.curves)

    def _apply(self, which, x):
        out = np.empty_like(x)
        for i, d in enumerate(self.curves):
            if d.family == "tabulated":
                out[..., i] = _REFERENCE[which](d, x[..., i])
            else:
                out[..., i:i + 1] = d._batch._apply(which, x[..., i:i + 1])
        return out


# -- draws ---------------------------------------------------------------------


@st.composite
def tabulated_curves(draw, rises=False):
    """A tabulated curve with flat runs, sometimes a zero tail, and a stated
    peak and ceiling that may differ from the nodes' within STATED_REL.  With
    rises, lambda rises within NONINCREASING_SLACK at one or two nodes."""
    n = draw(st.integers(2, 9))
    widths = draw(st.lists(st.sampled_from([1e-3, 0.25, 1.0]) | st.floats(1e-3, 2.0), min_size=n - 1, max_size=n - 1))
    drops = draw(st.lists(st.just(0.0) | st.floats(0.0, 0.6), min_size=n - 1, max_size=n - 1))
    peak = draw(st.floats(0.1, 5.0))
    xs = np.concatenate([[0.0], np.cumsum(widths)])
    ls = peak * np.maximum(0.0, 1.0 - np.concatenate([[0.0], np.cumsum(drops)]))
    for k in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2)) if rises else ():
        ls[k] = ls[k - 1] + draw(st.floats(0.0, 1.0)) * NONINCREASING_SLACK
    stated_peak, stated_ceiling = (v * (1.0 + draw(st.sampled_from([-0.5, 0.0, 0.5])) * STATED_REL)
                                   for v in (ls[0], xs[-1]))
    return InverseDemand.tabulated(zip(xs, ls), draw(st.floats(0.0, 1.0)),
                                   lambda_max=stated_peak, support_ceiling=stated_ceiling)


analytic_curves = st.builds(
    lambda family, peak, alpha, scale: (
        InverseDemand.linear(peak, scale) if family == 0
        else InverseDemand.exponential(peak, scale) if family == 1
        else InverseDemand.generalized_pareto(peak, alpha, scale)),
    st.integers(0, 2), st.floats(0.1, 5.0), st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
    st.floats(0.4, 1.8))


def _quantities(d):
    """0, the nodes, midpoints, the ceiling and around it, and past it."""
    c = d.support_ceiling
    xs = [x for x, _ in d.points] if d.points else list(np.linspace(0.0, c, 5))
    mids = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    return [0.0, *xs, *mids, c, c * (1.0 - 1e-12), c * (1.0 + 1e-12), 2.0 * c]


def _prices(d, floor):
    """The nodes' lambdas, the floor and the peak, and prices outside them."""
    ls = [v for _, v in d.points] if d.points else []
    lam = d.lambda_max
    return [*ls, floor, 0.5 * floor, lam, lam * (1.0 + 1e-12), 2.0 * lam, 0.0, -1.0, 0.5 * lam]


def _rows(rng, columns, rows):
    """rows x len(columns) values, each column's drawn from its candidates."""
    return np.array([[c[int(rng.integers(len(c)))] for c in columns] for _ in range(rows)])


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _draw_batch(tabulated, analytic, order, half_rows):
    """The curves in a drawn order, and 2 * half_rows rows of quantities and of prices."""
    curves = tabulated + analytic
    order.shuffle(curves)
    floor = DemandBatch(curves)._floor
    rng = np.random.default_rng(order.getrandbits(32))
    x = _rows(rng, [_quantities(d) for d in curves], 2 * half_rows)
    p = _rows(rng, [_prices(d, f) for d, f in zip(curves, floor)], 2 * half_rows)
    return curves, x, p


def _shapes(half_rows):
    """Rows, one row, Fortran order and two leading axes."""
    return (lambda v: v, lambda v: v[0], np.asfortranarray, lambda v: v.reshape(2, half_rows, -1))


def _assert_quantity_methods_match(batch, reference, x):
    _assert_same_bits(batch._floor, reference._floor)
    for method in ("eval", "derivative", "utility_integral"):
        _assert_same_bits(getattr(batch, method)(x), getattr(reference, method)(x))
    for got, want in zip(batch.at(x), reference.at(x)):
        _assert_same_bits(got, want)


batches = dict(analytic=st.lists(analytic_curves, max_size=3), order=st.randoms(use_true_random=False),
               half_rows=st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(tabulated=st.lists(tabulated_curves(), min_size=1, max_size=4), **batches)
def test_batched_tabulated_formulas_match_the_reference(tabulated, analytic, order, half_rows):
    curves, x, p = _draw_batch(tabulated, analytic, order, half_rows)
    batch, reference = DemandBatch(curves), ReferenceBatch(curves)
    for shape in _shapes(half_rows):
        xs, ps = shape(x), shape(p)
        _assert_quantity_methods_match(batch, reference, xs)
        nonnegative = np.maximum(ps, 0.0)
        _assert_same_bits(batch._inverse_clamped(nonnegative), reference._inverse_clamped(nonnegative))
        _assert_same_bits(batch.demand_at_price(ps), reference.demand_at_price(ps))


@settings(max_examples=50, deadline=None)
@given(tabulated=st.lists(tabulated_curves(rises=True), min_size=1, max_size=3), **batches)
def test_rising_lambda_within_the_slack(tabulated, analytic, order, half_rows):
    """Nodes whose lambda rises within NONINCREASING_SLACK are not sorted for
    the inverse's search, where np.searchsorted's result is undefined and
    depends on the keys searched before.  Everything else still matches the
    reference bit for bit, and each price's inverse is the one it has alone."""
    curves, x, p = _draw_batch(tabulated, analytic, order, half_rows)
    batch, reference = DemandBatch(curves), ReferenceBatch(curves)
    for shape in _shapes(half_rows):
        _assert_quantity_methods_match(batch, reference, shape(x))
    alone = [[batch.demand_at_price(np.where(np.arange(len(curves)) == i, q, 0.0))[i] for i, q in enumerate(row)]
             for row in p]
    _assert_same_bits(batch.demand_at_price(p), alone)
