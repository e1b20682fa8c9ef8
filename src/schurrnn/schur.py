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
    for k in range(n // 2):
        mask[2 * k + 1, 2 * k] = False
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


def assemble_v(p):
    """Return (V, cache) with V = P Theta P^T and P = exp(b_skew).

    -i B is Hermitian, so one eigendecomposition B = U diag(i omega) U^H
    gives P = Re(U diag(e^{i omega}) U^H).  The cache (P, Theta, U, omega)
    is consumed by :func:`backward_v`.
    """
    omega, u = np.linalg.eigh(-1j * p.b_skew)
    big_p = ((u * np.exp(1j * omega)) @ u.conj().T).real
    theta = assemble_theta(p)
    v = big_p @ theta @ big_p.T
    return v, (big_p, theta, u, omega)


def backward_v(p, grad_v, cache):
    """Map a loss gradient on V back to gradients on the Schur parameters.

    ``cache`` is the (P, Theta, U, omega) tuple returned by
    :func:`assemble_v`.  The b_skew gradient is expressed on the
    independent lower-half entries and mirrored, so it is itself
    skew-symmetric.
    """
    big_p, theta, u, omega = cache
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

    # dL/dP, then pull back through the exponential map.  The adjoint of the
    # Frechet derivative of exp at B = U diag(i omega) U^H is
    # G -> U (conj(Phi) o (U^H G U)) U^H with the divided differences
    # Phi_jk = e^{i (omega_j + omega_k) / 2} sinc((omega_j - omega_k) / 2),
    # which need no special case for equal eigenvalues.
    grad_p = grad_v @ big_p @ theta.T + grad_v.T @ big_p @ theta
    half_sum = 0.5 * (omega[:, None] + omega[None, :])
    half_diff = 0.5 * (omega[:, None] - omega[None, :])
    phi_bar = np.exp(-1j * half_sum) * np.sinc(half_diff / np.pi)
    uh = u.conj().T
    adj = (u @ (phi_bar * (uh @ grad_p @ u)) @ uh).real

    return SchurParamGrads(
        b_skew=adj - adj.T,
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


def load_checkpoint(path):
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    b = np.zeros((n, n))
    t = np.zeros((n, n))
    for i in range(n):
        for j, val in enumerate(doc["b_skew"][i]):
            b[i, j] = val
        for j, val in enumerate(doc["t_lower"][i]):
            t[i, j] = val
    b = _skew_from_lower(b)
    t[~t_lower_mask(n)] = 0.0
    params = SchurParams(
        n=n,
        b_skew=b,
        gamma=np.array(doc["gamma"], dtype=np.float64),
        theta=np.array(doc["theta"], dtype=np.float64),
        t_lower=t,
    )
    return params, doc.get("scheme"), doc.get("seed")
