import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

import schurrnn
from schurrnn import DivergenceError
from schurrnn.schur import (
    SchurParams,
    assemble_theta,
    assemble_v,
    backward_v,
    checkpoint_text,
    init_params,
    load_checkpoint,
    t_lower_mask,
)


def random_params(n, seed, t_scale=0.3):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    b = np.tril(g, -1) - np.tril(g, -1).T
    mask = t_lower_mask(n)
    t = np.where(mask, rng.normal(size=(n, n)) * t_scale, 0.0)
    return SchurParams(
        n=n,
        b_skew=b,
        gamma=rng.uniform(0.5, 1.5, size=n // 2),
        theta=rng.uniform(0.0, 2 * np.pi, size=n // 2),
        t_lower=t,
    )


def dense_skew(n, seed):
    """A dense skew generator: the skew part of a lower-triangular Gaussian
    matrix scaled by 1/sqrt(n), drawn after the n/2 angles that
    ``init_params(n, rng_seed=seed)`` draws first."""
    rng = np.random.default_rng(seed)
    rng.uniform(size=n // 2)
    b = np.tril(rng.normal(size=(n, n)) / np.sqrt(n), -1)
    return b - b.T


def test_t_lower_mask_excludes_block_subdiagonal():
    mask = t_lower_mask(6)
    assert not mask[1, 0] and not mask[3, 2] and not mask[5, 4]
    assert mask[2, 0] and mask[4, 1] and mask[5, 0]
    assert not np.any(np.triu(mask))
    assert mask.sum() == 6 * 5 // 2 - 3
    for n in (2, 8, 128):
        ref = np.tril(np.ones((n, n), dtype=bool), k=-1)
        for k in range(n // 2):
            ref[2 * k + 1, 2 * k] = False
        assert np.array_equal(t_lower_mask(n), ref)


def test_param_validation():
    with pytest.raises(ValueError):
        init_params(5)  # odd size
    p = init_params(4)
    bad_b = p.b_skew.copy()
    bad_b[0, 1] = 5.0
    with pytest.raises(ValueError):
        SchurParams(4, bad_b, p.gamma, p.theta, p.t_lower)
    with pytest.raises(ValueError):
        SchurParams(4, p.b_skew, -np.ones(2), p.theta, p.t_lower)


def test_assemble_v_structure():
    p = random_params(8, seed=0)
    v, cache = assemble_v(p)
    big_p, theta = cache.p, cache.theta
    assert np.linalg.norm(big_p.T @ big_p - np.eye(8)) < 1e-13
    assert np.allclose(v, big_p @ theta @ big_p.T)
    # Theta carries the blocks and the strictly-lower part
    assert np.allclose(np.triu(theta, 2), 0.0)
    for i in range(4):
        blk = theta[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        c, s = np.cos(p.theta[i]), np.sin(p.theta[i])
        assert np.allclose(blk, p.gamma[i] * np.array([[c, -s], [s, c]]))


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan])
def test_assemble_theta_rejects_nonpositive_gamma(bad):
    p = random_params(8, seed=0)
    p.gamma[2] = bad
    with pytest.raises(DivergenceError, match="gamma must be > 0"):
        assemble_theta(p)


def test_assemble_v_eigh_failure_is_divergence():
    # B^T B overflows to inf and eigh does not converge
    p = random_params(8, seed=0)
    p.b_skew = p.b_skew * 1e200
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DivergenceError, match="eigh of B\\^T B failed"):
            assemble_v(p)


def test_spectrum_independent_of_t_and_p():
    """Eigenvalues of V are {gamma_i e^{+-i theta_i}} for any T and P."""
    rng = np.random.default_rng(1)
    for seed in range(50):
        p = random_params(8, seed=seed, t_scale=rng.uniform(0.0, 2.0))
        v, _ = assemble_v(p)
        w = np.sort_complex(np.linalg.eigvals(v))
        expected = []
        for g, t in zip(p.gamma, p.theta):
            expected += [g * np.exp(1j * t), g * np.exp(-1j * t)]
        expected = np.sort_complex(np.array(expected))
        assert np.max(np.abs(w - expected)) < 1e-6


def _loss(p, w):
    v, _ = assemble_v(p)
    return float(np.sum(w * v))


def test_backward_v_finite_differences():
    n = 6
    p = random_params(n, seed=2)
    rng = np.random.default_rng(3)
    w = rng.normal(size=(n, n))
    v, cache = assemble_v(p)
    grads = backward_v(p, w, cache)
    eps = 1e-6

    def fd(setter):
        setter(+eps)
        lp = _loss(p, w)
        setter(-2 * eps)
        lm = _loss(p, w)
        setter(+eps)
        return (lp - lm) / (2 * eps)

    for i in range(n // 2):
        num = fd(lambda d, i=i: p.gamma.__setitem__(i, p.gamma[i] + d))
        assert abs(num - grads.gamma[i]) < 1e-6 * max(1.0, abs(num))
        num = fd(lambda d, i=i: p.theta.__setitem__(i, p.theta[i] + d))
        assert abs(num - grads.theta[i]) < 1e-6 * max(1.0, abs(num))

    mask = t_lower_mask(n)
    for i, j in zip(*np.where(mask)):
        num = fd(lambda d, i=i, j=j: p.t_lower.__setitem__((i, j), p.t_lower[i, j] + d))
        assert abs(num - grads.t_lower[i, j]) < 1e-6 * max(1.0, abs(num))
    assert np.all(grads.t_lower[~mask] == 0.0)

    def bump_skew(i, j, d):
        p.b_skew[i, j] += d
        p.b_skew[j, i] -= d

    for i, j in zip(*np.where(np.tril(np.ones((n, n), bool), -1))):
        num = fd(lambda d, i=i, j=j: bump_skew(i, j, d))
        assert abs(num - grads.b_skew[i, j]) < 1e-5 * max(1.0, abs(num))
    # gradient itself skew-symmetric
    assert np.allclose(grads.b_skew, -grads.b_skew.T)


def test_backward_v_block_grads_match_per_block_loop():
    """The vectorized gamma/theta gradients against the per-block sums of
    dL/dTheta times the derivatives of gamma R(theta)."""
    n = 16
    p = random_params(n, seed=8)
    _, cache = assemble_v(p)
    big_p = cache.p
    grad_v = np.random.default_rng(9).normal(size=(n, n))
    grads = backward_v(p, grad_v, cache)
    grad_theta = big_p.T @ grad_v @ big_p
    for i in range(n // 2):
        g = grad_theta[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        c, s = np.cos(p.theta[i]), np.sin(p.theta[i])
        d_gamma = np.sum(g * np.array([[c, -s], [s, c]]))
        d_theta = np.sum(g * p.gamma[i] * np.array([[-s, -c], [c, -s]]))
        assert abs(grads.gamma[i] - d_gamma) <= 1e-13 * max(1.0, abs(d_gamma))
        assert abs(grads.theta[i] - d_theta) <= 1e-13 * max(1.0, abs(d_theta))


def _oracle_generator(n, case):
    if case == "zero":
        return np.zeros((n, n))
    if case == "repeated_blocks":
        b = np.zeros((n, n))
        b[np.arange(1, n, 2), np.arange(0, n, 2)] = 1.3
        return b - b.T
    if case == "large_norm":
        return 10.0 * dense_skew(n, seed=1)
    if case == "tiny":
        # every singular value a of B close to 0
        return 1e-6 * dense_skew(n, seed=1)
    if case == "near_repeated":
        # the eigenvalues of B^T B split by about 1e-9
        g = np.tril(np.random.default_rng(2).normal(size=(n, n)), -1)
        return _oracle_generator(n, "repeated_blocks") + 1e-9 * (g - g.T)
    if case == "zero_block":
        # a = 0 beside nonzero a
        b = init_params(n, scheme="henaff", rng_seed=1).b_skew
        b[2:4, 2:4] = 0.0
        return b
    if case == "random_orth":
        return dense_skew(n, seed=1)
    return init_params(n, scheme=case, rng_seed=1).b_skew


@pytest.mark.parametrize("case", ["henaff", "cayley", "random_orth", "zero",
                                  "repeated_blocks", "large_norm", "tiny",
                                  "near_repeated", "zero_block"])
@pytest.mark.parametrize("n", [4, 6, 64, 128])
def test_exponential_map_and_pullback_match_scipy(n, case):
    """P and the b_skew gradient against scipy's Pade expm and the Frechet
    adjoint L(B^T, G_P), independent of the eigendecomposition."""
    p = random_params(n, seed=6)
    p.b_skew = _oracle_generator(n, case)
    _, cache = assemble_v(p)
    big_p, theta = cache.p, cache.theta
    p_ref = expm(p.b_skew)
    assert np.linalg.norm(big_p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)

    grad_v = np.random.default_rng(7).normal(size=(n, n))
    grads = backward_v(p, grad_v, cache)
    grad_p = grad_v @ big_p @ theta.T + grad_v.T @ big_p @ theta
    adj = expm_frechet(p.b_skew.T, grad_p, compute_expm=False)
    ref = adj - adj.T
    assert np.linalg.norm(grads.b_skew - ref) <= 1e-12 * np.linalg.norm(ref)

    # backward_v builds its divided differences on the pairs (a_0, a_1),
    # (a_2, a_3), ...: the sorted eigenvalues of B^T B agree pairwise.
    lam = cache.a ** 2
    assert np.all(np.abs(lam[0::2] - lam[1::2]) <= 1e-13 * np.max(lam))


def test_schur_layer_is_real_float64():
    """The exponential map and its pullback run in real arithmetic: every
    cached array and every gradient field is real float64."""
    p = random_params(16, seed=4)
    _, cache = assemble_v(p)
    for name in cache._fields:
        assert getattr(cache, name).dtype == np.float64, name
    grad_v = np.random.default_rng(5).normal(size=(16, 16))
    grads = backward_v(p, grad_v, cache)
    for field in ("b_skew", "gamma", "theta", "t_lower"):
        assert getattr(grads, field).dtype == np.float64, field


def test_import_loads_no_scipy():
    # the package root loads no module, so every module is imported by name
    modules = ", ".join(f"schurrnn.{m.name}"
                        for m in pkgutil.iter_modules(schurrnn.__path__))
    src = os.path.dirname(os.path.dirname(schurrnn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run(
        [sys.executable, "-c",
         f"import sys, {modules}; assert not any("
         "m.split('.')[0] == 'scipy' for m in sys.modules)"],
        env=env, check=True)


def test_init_schemes():
    for scheme in ("henaff", "cayley"):
        p = init_params(8, scheme=scheme, rng_seed=0)
        assert np.all(p.gamma == 1.0)
        assert np.all(p.t_lower == 0.0)
        assert np.array_equal(p.b_skew, -p.b_skew.T)
        v, _ = assemble_v(p)
        # at init V is orthogonal (gamma = 1, T = 0)
        assert np.linalg.norm(v.T @ v - np.eye(8)) < 1e-12
    # determinism
    a = init_params(8, rng_seed=7)
    b = init_params(8, rng_seed=7)
    assert np.array_equal(a.b_skew, b.b_skew)
    assert np.array_equal(a.theta, b.theta)
    for scheme in ("nope", "random_orth"):
        with pytest.raises(ValueError, match="unknown init scheme"):
            init_params(8, scheme=scheme)


def test_checkpoint_roundtrip(tmp_path):
    p = random_params(6, seed=5)
    path = tmp_path / "ckpt.json"
    path.write_text(checkpoint_text(p, "henaff", 42))
    q = load_checkpoint(path)
    doc = json.loads(path.read_text())
    assert doc["scheme"] == "henaff" and doc["seed"] == 42
    assert np.array_equal(p.b_skew, q.b_skew)
    assert np.array_equal(p.gamma, q.gamma)
    assert np.array_equal(p.theta, q.theta)
    assert np.array_equal(p.t_lower, q.t_lower)
