import numpy as np
import pytest

from schurrnn.linalg import (
    eigenvalues_small,
    expm,
    expm_frechet,
    gram_schmidt_triangular,
    singular_values,
)


def expm_taylor(b, terms=60):
    """Truncated Taylor series, accurate for small-norm inputs."""
    n = b.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    return out


def power_iteration_sigma_max(m, iters=2000, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m.shape[1])
    g = m.T @ m
    for _ in range(iters):
        v = g @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(v @ g @ v))


def test_expm_zero_and_diagonal():
    assert np.allclose(expm(np.zeros((4, 4))), np.eye(4))
    d = np.diag([0.3, -1.2, 2.0])
    assert np.allclose(expm(d), np.diag(np.exp(np.diag(d))), rtol=1e-13)


def test_expm_matches_taylor_small_norm():
    rng = np.random.default_rng(1)
    for _ in range(10):
        b = rng.normal(size=(6, 6)) * 0.5
        assert np.allclose(expm(b), expm_taylor(b), rtol=1e-12, atol=1e-13)


def test_expm_large_norm_scaling_squaring():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(5, 5)) * 4.0
    # exp(b) = exp(b/2)^2 must hold for the squaring path
    half = expm(b / 2.0)
    assert np.allclose(expm(b), half @ half, rtol=1e-10)


def test_expm_skew_gives_orthogonal():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(8, 8))
    b = np.tril(g, -1) - np.tril(g, -1).T
    q = expm(b)
    assert np.linalg.norm(q.T @ q - np.eye(8)) < 1e-13
    assert abs(np.linalg.det(q) - 1.0) < 1e-12


def test_expm_frechet_against_central_difference():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(5):
        b = rng.normal(size=(5, 5))
        e = rng.normal(size=(5, 5))
        base, frech = expm_frechet(b, e)
        assert np.allclose(base, expm(b), rtol=1e-12)
        fd = (expm(b + h * e) - expm(b - h * e)) / (2 * h)
        assert np.allclose(frech, fd, rtol=1e-6, atol=1e-7)


def test_gram_schmidt_reconstruction_and_unit_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = rng.normal(size=(7, 7))
        q, t_gram = gram_schmidt_triangular(theta)
        assert np.allclose(q @ t_gram, theta, atol=1e-12)
        assert np.allclose(np.diag(t_gram), 1.0)
        assert np.allclose(np.tril(t_gram, -1), 0.0)
        # columns of q mutually orthogonal
        g = q.T @ q
        assert np.allclose(g - np.diag(np.diag(g)), 0.0, atol=1e-10)


def test_gram_schmidt_drops_trailing_zero_columns():
    theta = np.zeros((4, 4))
    theta[1, 0] = 2.0
    theta[2, 1] = 1.0
    theta[3, 2] = 0.5
    q, t_gram = gram_schmidt_triangular(theta)
    assert t_gram.shape == (3, 3)
    assert np.allclose(q @ t_gram, theta[:, :3])


def test_gram_schmidt_rank_deficient_raises():
    theta = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        gram_schmidt_triangular(theta)
    with pytest.raises(np.linalg.LinAlgError):
        gram_schmidt_triangular(np.zeros((3, 3)))


def test_singular_values_against_power_iteration():
    rng = np.random.default_rng(6)
    for _ in range(5):
        m = rng.normal(size=(8, 8))
        s = singular_values(m)
        assert np.all(np.diff(s) <= 1e-12)
        assert abs(s[0] - power_iteration_sigma_max(m)) < 1e-8 * s[0]


def test_singular_values_orthogonal_all_one():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(6, 6))
    q = expm(np.tril(g, -1) - np.tril(g, -1).T)
    assert np.allclose(singular_values(q), 1.0, atol=1e-12)


def test_eigenvalues_small_known_spectrum():
    # rotation by angle t scaled by g has eigenvalues g e^{+-it}
    g, t = 0.9, 0.7
    m = g * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    w = np.sort_complex(eigenvalues_small(m))
    expected = np.sort_complex(np.array([g * np.exp(1j * t), g * np.exp(-1j * t)]))
    assert np.allclose(w, expected, atol=1e-12)


def test_eigenvalues_small_cap():
    with pytest.raises(ValueError):
        eigenvalues_small(np.eye(100))
