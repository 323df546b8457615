"""Pure-Python dot products for the bit-identity references.

The references in the test modules take every dot product here, so they
share no arithmetic with geom._rowdot and none with BLAS: each product is
rounded to a float, then the products are added left to right, which is
the rounding the package promises for every dot.
"""

import math
import operator

import numpy as np


def ref_dot(x, y):
    """x[..., 0]*y[..., 0] + x[..., 1]*y[..., 1] + ..., in Python floats.

    x and y broadcast against each other.  Two vectors give a float, and
    stacks give an array of their leading shape.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    d = x.shape[-1]
    total = None
    for xs, ys in zip(x.reshape(-1, d).T.tolist(), y.reshape(-1, d).T.tolist()):
        products = list(map(operator.mul, xs, ys))
        total = products if total is None else list(map(operator.add, total, products))
    if x.ndim == 1:
        return total[0]
    return np.array(total, dtype=float).reshape(x.shape[:-1])


def ref_norm(x):
    """Euclidean length over the last axis: the square root of ref_dot(x, x)."""
    sq = ref_dot(x, x)
    return math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)
