from fractions import Fraction

import numpy as np

from schurrnn.polymat import (
    ONE,
    X,
    ZERO,
    PolyMat,
    poly_add,
    poly_degree,
    poly_mul,
    poly_trim,
)

from polymat_oracle import eval_float, poly_eval, polymat_power


def test_poly_basics():
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_add((1, 2), (3,)) == (4, 2)
    assert poly_add((1,), (-1,)) == ZERO
    assert poly_mul(X, X) == (0, 0, 1)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_mul(ZERO, (5, 7)) == ZERO
    assert poly_degree(ZERO) == -1
    assert poly_degree((3, 0, 2)) == 2


def test_poly_eval_exact_big_ints():
    # (x+1)^20 at x=3 must be 4^20 with exact integer arithmetic
    p = ONE
    for _ in range(20):
        p = poly_mul(p, (1, 1))
    assert poly_eval(p, 3) == 4**20


def test_poly_eval_fraction():
    p = (1, 2, 3)  # 1 + 2x + 3x^2
    x = Fraction(1, 2)
    assert poly_eval(p, x) == Fraction(11, 4)


def test_polymat_identity_and_power():
    ident = PolyMat.identity(3)
    assert polymat_power(ident, 5) == ident
    a = PolyMat([[ONE, X], [ZERO, ONE]])
    a3 = polymat_power(a, 3)
    # [[1, x], [0, 1]]^3 = [[1, 3x], [0, 1]]
    assert a3[0, 1] == (0, 3)
    assert a3[0, 0] == ONE
    assert a3[1, 0] == ZERO


def test_polymat_matches_float_evaluation():
    rng = np.random.default_rng(0)
    a = PolyMat([[ONE, X, ZERO], [ZERO, ONE, X], [X, ZERO, ONE]])
    for t in (1, 2, 5):
        at = polymat_power(a, t)
        for x in rng.uniform(-1.0, 1.0, size=3):
            dense = eval_float(a, x)
            expected = np.linalg.matrix_power(dense, t)
            assert np.allclose(eval_float(at, x), expected, atol=1e-10)
