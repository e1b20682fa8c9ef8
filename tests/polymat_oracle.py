"""Float and repeated-product references for exact polynomial matrices.

Test-only helpers: the library never needs the t-th power of a PolyMat by
plain repeated multiplication, nor an evaluation of a polynomial or of a
PolyMat, but the tests use them as oracles for ``schurrnn.polymat`` and
``schurrnn.propcheck``.
"""

import numpy as np


def poly_eval(a, x):
    """Horner evaluation; exact for int and Fraction arguments."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def polymat_power(a, t):
    """Exact t-th power of a polynomial matrix, t >= 1."""
    if t < 1:
        raise ValueError("t must be >= 1")
    out = a
    for _ in range(t - 1):
        out = out @ a
    return out


def eval_float(a, x):
    """Evaluate every entry of ``a`` at a float, returning a float64 matrix."""
    return np.array([[float(poly_eval(p, x)) for p in row] for row in a.entries])
