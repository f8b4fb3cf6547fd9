"""Tabulated copies of the benchmark generators' instance documents.

    tabulated(gen.ud_grid([1, 0], 0.0, choices=2), 17)

replaces every buyer type's analytic curve by its np.linspace sampling: the
curve's values at `nodes` evenly spaced points from 0 to its support
ceiling, made non-increasing with np.minimum.accumulate.  The tabulated
curve states the source curve's alpha unless `alpha` is given.  The
documents stay JSON-ready dicts; the input is not modified.
"""

from __future__ import annotations

import numpy as np

from bicrit import InverseDemand


def tabulated(doc: dict, nodes: int, alpha: float | None = None) -> dict:
    """doc with each demand curve replaced by its nodes-point sampling."""
    types = []
    for t in doc["buyer_types"]:
        spec = t["demand"]
        curve = InverseDemand(spec["family"], spec["lambda_max"], spec["alpha"], spec["scale"], spec["support_ceiling"])
        xs = np.linspace(0.0, curve.support_ceiling, nodes)
        ls = np.minimum.accumulate(curve.eval(xs))
        demand = {
            "family": "tabulated",
            "lambda_max": float(ls[0]),
            "alpha": spec["alpha"] if alpha is None else alpha,
            "support_ceiling": float(xs[-1]),
            "points": [[float(x), float(v)] for x, v in zip(xs, ls)],
        }
        types.append({**t, "demand": demand})
    return {**doc, "buyer_types": types}
