import json
from math import comb

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.linalg import expm

from schurrnn.propcheck import (
    _poly_matmul,
    iterate_growth_probe,
    prop2_matrix,
    verify_prop2,
)


def test_prop2_matrix_layout():
    a = prop2_matrix(3)
    assert a.shape == (2, 3, 3) and a.dtype == object
    assert a.tolist() == [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          [[0, 1, 1], [0, 0, 1], [0, 0, 0]]]
    assert all(type(c) is int for c in a.flat)
    with pytest.raises(ValueError):
        prop2_matrix(1)


def test_prop2_small_power_by_hand():
    # [[1, x], [0, 1]]^t has (0,1) entry t*x
    rep = verify_prop2(2, 7)
    for t in range(1, 8):
        assert rep.polynomials[(1, t)]["coeffs"] == [0, t]


def test_prop2_entries_match_float_powers():
    n, x = 5, 0.37
    dense = np.eye(n) + x * np.triu(np.ones((n, n)), 1)
    rep = verify_prop2(n, 6)
    for t in range(1, 7):
        got = np.eye(n)
        for k in range(1, n):
            coeffs = rep.polynomials[(k, t)]["coeffs"]
            got += polyval(x, coeffs) * np.eye(n, k=k)
        assert np.allclose(got, np.linalg.matrix_power(dense, t), rtol=1e-12)


def test_poly_matmul_matches_float_evaluation():
    # a matrix that is not triangular, so no product term vanishes
    rng = np.random.default_rng(0)
    a = np.array([[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [[0, 1, 0], [0, 0, 1], [1, 0, 0]]], dtype=object)
    for t in (1, 2, 5):
        at = a
        for _ in range(t - 1):
            at = _poly_matmul(at, a)
        assert len(at) == t + 1
        for x in rng.uniform(-1.0, 1.0, size=3):
            dense = polyval(x, a.astype(float))
            expected = np.linalg.matrix_power(dense, t)
            assert np.allclose(polyval(x, at.astype(float)), expected,
                               atol=1e-10)


def test_verify_prop2_all_checks_pass():
    rep = verify_prop2(6, 12)
    assert rep.degree_ok
    assert rep.constant_ok
    assert rep.recurrence_ok
    assert rep.ratio_ok
    assert rep.all_ok
    assert rep.max_ratio <= 2.0**5


def test_verify_prop2_known_coefficients():
    """p_k^{(t)} has leading coefficient C(t,1)...: for k=1,
    p_1^{(t)}(x) = t x; for k=2 the x^1 coefficient is C(t,2) summed
    structure -- check against exact float powers instead."""
    rep = verify_prop2(4, 10)
    for t in range(1, 11):
        rec = rep.polynomials[(1, t)]
        assert rec["coeffs"] == [0, t]
    # gap-2 coefficient of x: number of length-2 increasing paths = C(t, 2)?
    # verify numerically against the binomial-transform bound instead
    for t in range(2, 11):
        rec = rep.polynomials[(2, t)]
        assert rec["coeffs"][1] == comb(t, 1) * 1  # single-step jump count t
        assert rec["coeffs"][2] == comb(t + 1, 2) - t  # two-step compositions


def test_verify_prop2_closed_form_coefficients():
    # entry (i, i + k) of (I + xU)^t, U the strictly upper ones, sums
    # C(t, l) x^l (U^l)[i, i + k]; U^l counts the C(k - 1, l - 1) ways to
    # split the gap k into l positive steps
    rep = verify_prop2(8, 30)
    for k in range(1, 8):
        for t in range(1, 31):
            coeffs = rep.polynomials[(k, t)]["coeffs"]
            assert coeffs == [0] + [comb(t, l) * comb(k - 1, l - 1)
                                    for l in range(1, min(k, t) + 1)]
            assert all(type(c) is int for c in coeffs)


def test_verify_prop2_budget():
    with pytest.raises(ValueError):
        verify_prop2(9, 5)
    with pytest.raises(ValueError):
        verify_prop2(4, 31)


@pytest.mark.parametrize("n,t_max", [(4, 0), (4, -2), (1, 5)])
def test_verify_prop2_rejects_empty_check(n, t_max):
    # no power or no gap to verify: a report would claim checks never run
    with pytest.raises(ValueError):
        verify_prop2(n, t_max)


def test_verify_prop2_json_roundtrip():
    rep = verify_prop2(4, 6)
    doc = json.loads(rep.to_json())
    assert doc["degree_ok"] and doc["recurrence_ok"]
    assert doc["n"] == 4 and doc["t_max"] == 6


def test_growth_probe_constant_orthogonal():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(8, 8))
    q = expm(np.tril(g, -1) - np.tril(g, -1).T)
    probe = iterate_growth_probe(q, t_max=80)
    assert probe.label == "constant"


def test_growth_probe_exponential():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(6, 6))
    q = expm(np.tril(g, -1) - np.tril(g, -1).T)
    probe = iterate_growth_probe(1.08 * q, t_max=80)
    assert probe.label == "exponential"


def test_growth_probe_polynomial_unit_triangular():
    m = np.eye(6) + np.tril(np.ones((6, 6)), -1) * 0.8
    probe = iterate_growth_probe(m, t_max=100)
    assert probe.label == "polynomial"
    # slope approximates the nilpotency-capped degree (at most n-1)
    assert 0.5 < probe.loglog_slope < 6.5


def test_growth_probe_overflow_flagged_exponential():
    probe = iterate_growth_probe(np.eye(3) * 40.0, t_max=200)
    assert probe.stopped_early
    assert probe.label == "exponential"
    # overflow at the first power leaves no sigma to read
    probe = iterate_growth_probe(np.eye(3) * 1e200)
    assert probe.stopped_early
    assert probe.label == "exponential"
    assert probe.t.size == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m,t_len", [
    (np.triu(np.ones((3, 3)), 1), 2),
    (np.zeros((3, 3)), 0),
    (np.diag(np.full(5, 0.5), -1), 5),
], ids=["strictly_upper", "zero", "shift"])
def test_growth_probe_nilpotent(m, t_len):
    # the trace ends before the first power that is exactly zero, so no
    # log of zero is taken
    probe = iterate_growth_probe(m, t_max=10)
    assert probe.label == "nilpotent"
    assert probe.stopped_early
    assert probe.t.tolist() == list(range(1, t_len + 1))
    assert np.all(probe.sigma_max > 0.0)
    assert np.isfinite(probe.loglog_slope)
