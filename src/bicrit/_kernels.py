"""What the two evaluation kernels, CostBatch and DemandBatch, share."""

import numpy as np


def one(method, x):
    """A kernel method of a one-good or one-curve batch at the values x, in x's shape."""
    x = np.asarray(x, dtype=float)
    out = method(x[..., None])[..., 0]
    return float(out) if x.ndim == 0 else out
