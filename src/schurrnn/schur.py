"""Connectivity parametrization in real Schur form.

The recurrent matrix is V = P (Lambda + T) P^T where P = exp(B) for a
skew-symmetric generator B, Lambda is block diagonal with 2x2 scaled
rotations R(gamma_i, theta_i), and T is strictly lower triangular.  The
spectrum of V is {gamma_i e^{+-i theta_i}} regardless of B and T, so
eigenvalue moduli and non-normal structure are controlled independently.
"""

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DivergenceError",
    "SchurParams",
    "SchurParamGrads",
    "assemble_theta",
    "assemble_v",
    "backward_v",
    "regularizer_loss_and_grads",
    "init_params",
    "t_lower_mask",
    "save_checkpoint",
    "load_checkpoint",
]


class DivergenceError(FloatingPointError):
    """A numerical failure: a rotation modulus gamma that is not > 0, a
    non-finite hidden state or loss, or a covariance series still growing
    at its term cap.  ``records`` holds the training log records written
    before it."""

    def __init__(self, message, records=()):
        super().__init__(message)
        self.records = list(records)


def t_lower_mask(n):
    """Boolean mask of the learnable strictly-lower-triangular positions.

    The sub-diagonal entries inside the 2x2 rotation blocks (rows 2k+1,
    columns 2k, 0-indexed) belong to the blocks and are excluded, keeping
    the block-diagonal and feed-forward parts disjoint.
    """
    mask = np.tril(np.ones((n, n), dtype=bool), k=-1)
    odd = np.arange(1, n, 2)
    mask[odd, odd - 1] = False
    return mask


@dataclass
class SchurParams:
    """Learnable parameters of the Schur-form connectivity.

    b_skew is stored as a full skew-symmetric matrix whose independent
    entries are the strict lower triangle (the upper half mirrors them with
    opposite sign).  t_lower holds the strictly-lower feed-forward weights,
    zero at the positions owned by the rotation blocks.
    """

    n: int
    b_skew: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    t_lower: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 2 or n % 2:
            raise ValueError("hidden size must be even and >= 2")
        self.b_skew = np.asarray(self.b_skew, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.t_lower = np.asarray(self.t_lower, dtype=np.float64)
        if self.b_skew.shape != (n, n) or self.t_lower.shape != (n, n):
            raise ValueError("matrix parameter shape mismatch")
        if self.gamma.shape != (n // 2,) or self.theta.shape != (n // 2,):
            raise ValueError("block parameter shape mismatch")
        if not np.array_equal(self.b_skew, -self.b_skew.T):
            raise ValueError("b_skew must be exactly skew-symmetric")
        if np.any(self.t_lower[~t_lower_mask(n)] != 0.0):
            raise ValueError("t_lower has entries outside its support")
        if np.any(self.gamma <= 0.0):
            raise ValueError("gamma entries must be > 0")


@dataclass
class SchurParamGrads:
    b_skew: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    t_lower: np.ndarray


def assemble_theta(p):
    """Block-diagonal rotations gamma_i [[c, -s], [s, c]], whose eigenvalues
    are gamma_i e^{+-i theta_i}, plus the strictly-lower feed-forward part.

    Raises :class:`DivergenceError` unless every gamma is > 0 (NaN included).
    """
    if not np.all(p.gamma > 0.0):
        raise DivergenceError(
            f"gamma must be > 0, got min {np.min(p.gamma):.6g}")
    theta = p.t_lower.copy()
    even = np.arange(0, p.n, 2)
    gc = p.gamma * np.cos(p.theta)
    gs = p.gamma * np.sin(p.theta)
    theta[even, even] = gc
    theta[even, even + 1] = -gs
    theta[even + 1, even] = gs
    theta[even + 1, even + 1] = gc
    return theta


def _guarded_div(num, den, at_zero):
    """num / den, with ``at_zero`` (the limit) where den is exactly 0."""
    return np.divide(num, den, out=np.full_like(num, at_zero),
                     where=den != 0.0)


def assemble_v(p):
    """Return (V, cache) with V = P Theta P^T and P = exp(b_skew).

    B is skew, so B^2 = -B^T B and exp(B) = cos|B| + B sinc|B| with
    |B| = (B^T B)^(1/2).  One real symmetric eigendecomposition
    B^T B = Y diag(a^2) Y^T gives P = (Y cos a + (B Y) sinc a) Y^T, where
    sinc 0 = 1.  The cache (P, Theta, Y, a) is consumed by
    :func:`backward_v`.
    """
    b = p.b_skew
    lam, y = np.linalg.eigh(b.T @ b)
    a = np.sqrt(np.maximum(lam, 0.0))
    big_p = (y * np.cos(a) + (b @ y) * _guarded_div(np.sin(a), a, 1.0)) @ y.T
    theta = assemble_theta(p)
    v = big_p @ theta @ big_p.T
    return v, (big_p, theta, y, a)


def backward_v(p, grad_v, cache):
    """Map a loss gradient on V back to gradients on the Schur parameters.

    ``cache`` is the (P, Theta, Y, a) tuple returned by
    :func:`assemble_v`.  The b_skew gradient is expressed on the
    independent lower-half entries and mirrored, so it is itself
    skew-symmetric.

    The pullback through P = exp(B) is the adjoint of the Frechet
    derivative, L*(G) = int_0^1 e^{-sB} G e^{-(1-s)B} ds.  In the basis Y,
    Y^T e^{-sB} Y = diag(cos sa) - K diag(sin(sa) / a) with K = Y^T B Y,
    and K couples only equal a.  With G^ = Y^T G_P Y, h+- = (a_j +- a_k)/2
    and the symmetric divided differences

        F1 = (sinc h+ cos h- + cos h+ sinc h-) / 2
        F2 = sinc h+ sinc h- / 2
        F4 = (sinc h+ cos h- - cos h+ sinc h-) / (2 a_j a_k)  (1/6 at 0),

    the skew part that b_skew needs is
    Y (F1 o D - W + W^T + K (F4 o D) K) Y^T with D = G^ - G^T and
    W = K (F2 o (G^ + G^T)).  It is formed as X - X^T with
    X = Y (F1 o G^ + K ((F4 o G^) K - F2 o (G^ + G^T))) Y^T, which is
    exactly skew.  Equal and zero a need only the guarded divisions.
    """
    big_p, theta, y, a = cache
    n = p.n
    grad_v = np.asarray(grad_v, dtype=np.float64)
    if grad_v.shape != (n, n):
        raise ValueError(f"grad_v shape {grad_v.shape} does not match n={n}")

    # dL/dTheta = P^T G P
    grad_theta = big_p.T @ grad_v @ big_p

    # Block i is gamma_i [[c, -s], [s, c]] on the block diagonal of Theta.
    diag = np.diagonal(grad_theta)
    g00, g11 = diag[0::2], diag[1::2]
    g10 = np.diagonal(grad_theta, -1)[0::2]
    g01 = np.diagonal(grad_theta, 1)[0::2]
    c, s = np.cos(p.theta), np.sin(p.theta)
    d_gamma = c * (g00 + g11) + s * (g10 - g01)
    d_theta = p.gamma * (c * (g10 - g01) - s * (g00 + g11))

    # dL/dP, then pull back through the exponential map.  cos h+-, sin h+
    # come from the half-angle outer products; sin h- is taken directly,
    # since the product form cancels where a_j is close to a_k.
    grad_p = grad_v @ big_p @ theta.T + grad_v.T @ big_p @ theta
    half = 0.5 * a
    ch, sh = np.cos(half), np.sin(half)
    cc = np.multiply.outer(ch, ch)
    ss = np.multiply.outer(sh, sh)
    sc = np.multiply.outer(sh, ch)
    h_plus = half[:, None] + half[None, :]
    h_minus = half[:, None] - half[None, :]
    sinc_plus = _guarded_div(sc + sc.T, h_plus, 1.0)
    sinc_minus = _guarded_div(np.sin(h_minus), h_minus, 1.0)
    cos_plus, cos_minus = cc - ss, cc + ss
    f1 = 0.5 * (sinc_plus * cos_minus + cos_plus * sinc_minus)
    f2 = 0.5 * sinc_plus * sinc_minus
    f4 = _guarded_div(0.5 * (sinc_plus * cos_minus - cos_plus * sinc_minus),
                      np.multiply.outer(a, a), 1.0 / 6.0)
    k = y.T @ (p.b_skew @ y)
    g_hat = y.T @ grad_p @ y
    x = y @ (f1 * g_hat + k @ ((f4 * g_hat) @ k - f2 * (g_hat + g_hat.T))) @ y.T

    return SchurParamGrads(
        b_skew=x - x.T,
        gamma=d_gamma,
        theta=d_theta,
        t_lower=np.where(t_lower_mask(n), grad_theta, 0.0),
    )


def regularizer_loss_and_grads(p, delta, t_decay):
    """L2 pull of gamma toward 1 with weight ``delta`` plus L2 decay on the
    strictly-lower part.  Returns (loss, gamma_grad, t_lower_grad)."""
    if delta < 0 or t_decay < 0:
        raise ValueError("regularizer weights must be >= 0")
    loss = 0.0
    gamma_grad = np.zeros_like(p.gamma)
    if delta > 0:
        resid = 1.0 - p.gamma
        loss += delta * float(np.sum(resid**2))
        gamma_grad = -2.0 * delta * resid
    t_grad = np.zeros_like(p.t_lower)
    if t_decay > 0:
        loss += t_decay * float(np.sum(p.t_lower**2))
        t_grad = 2.0 * t_decay * p.t_lower
    return loss, gamma_grad, t_grad


def _skew_from_lower(lower):
    return lower - lower.T


def init_params(n, scheme="henaff", rng_seed=0):
    """Initial parameters: gamma = 1, theta ~ U[0, 2pi), T = 0, and a
    scheme-dependent skew generator for P.

    Schemes: "henaff" (2x2 skew blocks with U[-pi, pi] entries), "cayley"
    (2x2 skew blocks with the heavy-tailed sqrt(u/(1-u)) law, capped at pi),
    "random_orth" (skew part of a Gaussian matrix scaled by 1/sqrt(n)).
    """
    if n < 2 or n % 2:
        raise ValueError("hidden size must be even and >= 2")
    rng = np.random.default_rng(rng_seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n // 2)

    scheme = scheme.lower()
    b = np.zeros((n, n))
    if scheme == "henaff":
        s = rng.uniform(-np.pi, np.pi, size=n // 2)
        for i in range(n // 2):
            b[2 * i + 1, 2 * i] = s[i]
        b = _skew_from_lower(np.tril(b, -1))
    elif scheme == "cayley":
        u = rng.uniform(0.0, 0.5, size=n // 2)
        v = rng.uniform(-1.0, 1.0, size=n // 2)
        s = np.sqrt(u / (1.0 - u)) * np.sign(v)
        s = np.clip(s, -np.pi, np.pi)
        for i in range(n // 2):
            b[2 * i + 1, 2 * i] = s[i]
        b = _skew_from_lower(np.tril(b, -1))
    elif scheme == "random_orth":
        g = rng.normal(size=(n, n)) / np.sqrt(n)
        b = _skew_from_lower(np.tril(g, -1))
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")

    return SchurParams(
        n=n,
        b_skew=b,
        gamma=np.ones(n // 2),
        theta=theta,
        t_lower=np.zeros((n, n)),
    )


# --- checkpoint serialization -------------------------------------------------

def _lower_rows(m):
    return [[float(m[i, j]) for j in range(i)] for i in range(m.shape[0])]


def save_checkpoint(p, path, scheme=None, seed=None):
    """Write the parameters as JSON.  Floats go through repr, so values
    round-trip exactly."""
    doc = {
        "n": p.n,
        "b_skew": _lower_rows(p.b_skew),
        "gamma": [float(x) for x in p.gamma],
        "theta": [float(x) for x in p.theta],
        "t_lower": _lower_rows(p.t_lower),
        "scheme": scheme,
        "seed": seed,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _floats(values, name):
    try:
        arr = np.array(values, dtype=np.float64)
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has a non-finite or null entry")
    return arr


def _lower_from_rows(rows, n, name):
    """Strictly-lower matrix from the rows written by :func:`_lower_rows`."""
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(row, list) or len(row) != i
                   for i, row in enumerate(rows))):
        raise ValueError(f"{name} must hold {n} rows of lengths 0..{n - 1}")
    m = np.zeros((n, n))
    m[np.tril_indices(n, -1)] = _floats([x for row in rows for x in row], name)
    return m


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.  Returns
    (params, scheme, seed); a malformed document raises ``ValueError``
    (``KeyError`` for a missing field)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint must be a JSON object")
    n = doc["n"]
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    t = _lower_from_rows(doc["t_lower"], n, "t_lower")
    t[~t_lower_mask(n)] = 0.0
    params = SchurParams(
        n=n,
        b_skew=_skew_from_lower(_lower_from_rows(doc["b_skew"], n, "b_skew")),
        gamma=_floats(doc["gamma"], "gamma"),
        theta=_floats(doc["theta"], "theta"),
        t_lower=t,
    )
    return params, doc.get("scheme"), doc.get("seed")
