import json
from math import comb

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.linalg import expm

from schurrnn import cli
from schurrnn.memory import FmcConfig, build_theta_family
from schurrnn.propcheck import (
    _poly_matmul,
    _spectral_radius,
    iterate_growth_probe,
    prop2_matrix,
    verify_prop2,
)
from schurrnn.schur import assemble_theta, init_params, t_lower_mask


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


def test_verify_prop2_json_roundtrip(tmp_path):
    # the report as `schurrnn props` writes it
    config = tmp_path / "props.json"
    config.write_text(json.dumps({"prop2": [{"n": 4, "t_max": 6}],
                                  "prop1": []}))
    out = tmp_path / "out"
    assert cli.main(["props", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "prop2_00.json").read_text())
    assert doc["degree_ok"] and doc["recurrence_ok"]
    assert doc["n"] == 4 and doc["t_max"] == 6


def rotation(n, seed):
    g = np.random.default_rng(seed).normal(size=(n, n))
    return expm(np.tril(g, -1) - np.tril(g, -1).T)


def test_growth_probe_constant_orthogonal():
    probe = iterate_growth_probe(rotation(8, 0))
    assert probe == "constant"


def test_growth_probe_exponential():
    probe = iterate_growth_probe(1.08 * rotation(6, 1))
    assert probe == "exponential"


def test_growth_probe_polynomial_unit_triangular():
    m = np.eye(6) + np.tril(np.ones((6, 6)), -1) * 0.8
    probe = iterate_growth_probe(m)
    assert probe == "polynomial"


@pytest.mark.parametrize("c", [1e-3, 1e-2, 1e200])
def test_growth_probe_shear_polynomial(c):
    # rho = 1 and sigma_max grows linearly in t; log sigma at t = 100 is
    # about twice that at t = 50, which a ratio rule took for exponential.
    # At c = 1e200 the powers overflow, but rho = 1 still rules out
    # exponential growth
    m = np.array([[1.0, 0.0], [c, 1.0]])
    probe = iterate_growth_probe(m)
    assert _spectral_radius(m) == 1.0
    assert probe == "polynomial"


def test_growth_probe_overflow_flagged_exponential():
    probe = iterate_growth_probe(np.eye(3) * 40.0)
    assert probe == "exponential"
    # powers that overflow
    probe = iterate_growth_probe(np.eye(3) * 1e200)
    assert probe == "exponential"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [
    np.triu(np.ones((3, 3)), 1),
    np.zeros((3, 3)),
    np.diag(np.full(5, 0.5), -1),
    np.tril(np.random.default_rng(0).normal(size=(128, 128)), -1),
    # rho is computed as 1.6e-16, but the square is exactly zero
    np.array([[1.0, 1.0], [-1.0, -1.0]]),
    # an unscaled square overflows to inf, and inf * 0 is NaN in the cube
    1e200 * np.triu(np.ones((3, 3)), 1),
], ids=["strictly_upper", "zero", "shift", "strictly_lower_128",
        "rank_one", "strictly_upper_overflowing"])
def test_growth_probe_nilpotent(m):
    # m^n is exactly zero, and no log of zero is taken
    probe = iterate_growth_probe(m)
    assert probe == "nilpotent"


def schur_form_theta(seed, n=128):
    """A Schur-form Theta like a copy model's after 300 updates: gamma near
    1 in [0.967, 1.035] with gamma_max = 1.035, and a random T with
    ||T||_F = 2.66."""
    p = init_params(n, rng_seed=seed)
    rng = np.random.default_rng(seed)
    p.gamma = np.clip(1.0 + rng.normal(0.0, 0.015, size=n // 2), 0.967, 1.035)
    p.gamma[np.argmax(p.gamma)] = 1.035
    t = np.where(t_lower_mask(n), rng.normal(size=(n, n)), 0.0)
    p.t_lower = t * (2.66 / np.linalg.norm(t))
    return assemble_theta(p)


@pytest.mark.parametrize("seed", range(6))
def test_growth_probe_schur_form_super_unit_radius_exponential(seed):
    # the transient from T raises log sigma at t = 50 and t = 100 alike, so
    # the iterates alone read five of these six as polynomial
    theta = schur_form_theta(seed)
    probe = iterate_growth_probe(theta)
    assert _spectral_radius(theta) == pytest.approx(1.035, rel=1e-14)
    assert probe == "exponential"


def test_growth_probe_schur_form_repeated_angles_polynomial():
    # equal angles with T coupling the blocks make the unit-modulus
    # eigenvalues defective; np.linalg.eigvals reads rho of about 1.02 here
    p = init_params(32, rng_seed=0)
    p.theta[:] = 0.5
    rng = np.random.default_rng(1)
    p.t_lower = np.where(t_lower_mask(32), rng.normal(size=(32, 32)) * 0.3, 0.0)
    theta = assemble_theta(p)
    probe = iterate_growth_probe(theta)
    assert _spectral_radius(theta) == pytest.approx(1.0, abs=1e-15)
    assert probe == "polynomial"


@pytest.mark.parametrize("m,rho", [
    # the iterates alone read log sigma falling as polynomial
    (0.9 * rotation(8, 0), 0.9),
    # unscaled, rho^n underflows to exactly zero
    (0.01 * np.eye(200), 0.01),
    (1e-100 * np.eye(4), 1e-100),
], ids=["rotation", "identity_200", "identity_tiny"])
def test_growth_probe_contraction_decaying(m, rho):
    probe = iterate_growth_probe(m)
    assert _spectral_radius(m) == pytest.approx(rho, rel=1e-13)
    assert probe == "decaying"


def test_growth_probe_schur_form_sub_unit_radius_decaying():
    n = 64
    p = init_params(n, rng_seed=4)
    rng = np.random.default_rng(4)
    p.gamma = rng.uniform(0.9, 0.99, size=n // 2)
    t = np.where(t_lower_mask(n), rng.normal(size=(n, n)), 0.0)
    p.t_lower = t * (2.66 / np.linalg.norm(t))
    theta = assemble_theta(p)
    probe = iterate_growth_probe(theta)
    assert _spectral_radius(theta) == pytest.approx(np.max(p.gamma),
                                                    rel=1e-14)
    assert probe == "decaying"


@pytest.mark.parametrize("d,label", [(0.2, "decaying"), (0.0, "nilpotent")])
def test_growth_probe_theta_family(d, label):
    # at d = 0.2 sigma_max still grows through t = 100, to 6e10, and the
    # iterates alone read it as exponential; rho = 0.2 says it decays
    theta = build_theta_family(FmcConfig(n=100, d=d, alpha=1.05, beta=0.005))
    probe = iterate_growth_probe(theta)
    assert _spectral_radius(theta) == pytest.approx(d, abs=1e-15)
    assert probe == label


def test_spectral_radius_read_from_diagonal_blocks():
    rng = np.random.default_rng(2)
    lower = np.tril(rng.normal(size=(7, 7)))
    lower[3, 3] = -4.0
    # a 2x2 block with a real pair 3 +- 2 and one with a complex pair of
    # modulus sqrt(2 * 2 + 3 * 1) = sqrt(7)
    quasi = np.tril(rng.normal(size=(6, 6)))
    quasi[0:2, 0:2] = [[3.0, 2.0], [2.0, 3.0]]
    quasi[3:5, 3:5] = [[2.0, -3.0], [1.0, 2.0]]
    quasi[2, 2] = 0.5
    quasi[5, 5] = -1.0
    for m, rho in [(lower, 4.0), (lower.T, 4.0), (quasi, 5.0),
                   (quasi.T, 5.0), (quasi[3:5, 3:5], np.sqrt(7.0))]:
        assert _spectral_radius(m) == pytest.approx(rho, rel=1e-15)
    theta = schur_form_theta(0, n=16)
    assert _spectral_radius(theta) == pytest.approx(
        np.max(np.abs(np.linalg.eigvals(theta))), rel=1e-12)


def test_spectral_radius_of_a_dense_matrix_and_a_non_finite_one():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(6, 6))
    q = expm(np.tril(g, -1) - np.tril(g, -1).T)
    assert _spectral_radius(1.1 * q) == pytest.approx(1.1, rel=1e-13)
    # a 3x3 block above the diagonal is not quasi-triangular
    m = np.tril(rng.normal(size=(5, 5)))
    m[0, 1] = m[1, 2] = 1.0
    assert _spectral_radius(m) == pytest.approx(
        np.max(np.abs(np.linalg.eigvals(m))), rel=1e-13)
    m[4, 0] = np.nan
    assert np.isnan(_spectral_radius(m))
    # a NaN matrix has no spectral radius below 1: still exponential
    probe = iterate_growth_probe(m)
    assert probe == "exponential"
