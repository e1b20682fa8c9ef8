"""Fisher memory analytics and transient-dynamics ensembles for
structured lower-triangular connectivity.

The matrix family has d on the diagonal, alpha on the first sub-diagonal
and beta everywhere below that.  The Fisher memory curve J(k) measures how
much information the hidden state retains about a scalar input injected k
steps earlier under i.i.d. Gaussian noise of variance eps:

    J(k) = u^T (Theta^k)^T C^{-1} Theta^k u,
    C    = eps * sum_k Theta^k (Theta^k)^T,   u = e_1.

C is never formed or inverted explicitly.  Its triangular factor comes
from the square-root form of Smith's doubling for the Stein equation
C = Theta C Theta^T + eps I (Smith 1968; Hammarling 1982): one 2n x n QR
per doubling of the number of summed terms.  Working with the factor keeps
the solves usable even when C itself is catastrophically ill-conditioned
(condition numbers reach 1e23 for d = 0.2 with super-unit sub-diagonals).
"""

from dataclasses import dataclass

import numpy as np

from .schur import DivergenceError

__all__ = [
    "FmcConfig",
    "FmcResult",
    "build_theta_family",
    "delay_line_theta",
    "fisher_memory_curve",
    "fmc_from_theta",
    "delay_line_fmc_closed_form",
    "prop1_bound_check",
    "Prop1Report",
    "transient_ensemble",
    "TransientStats",
]


# The covariance series is doubled until its tail term falls below
# SERIES_TOL (never before k = n); a tail still growing past
# TERMS_PER_UNIT * n terms is a divergence.  The memory curve stops at the
# same multiple of n unless k_max says otherwise.
SERIES_TOL = 1e-12
TERMS_PER_UNIT = 10


@dataclass(frozen=True)
class FmcConfig:
    n: int
    d: float = 0.0
    alpha: float = 1.0
    beta: float = 0.0
    eps: float = 1.0
    k_max: int = 0          # 0 means "until negligible", capped at 10n

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if not 0.0 <= self.d < 1.0:
            raise ValueError("d must lie in [0, 1) for the series to converge")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")


@dataclass
class FmcResult:
    j_curve: np.ndarray
    j_tot: float
    truncation_terms: int   # terms K of the covariance sum, a power of two


def build_theta_family(cfg):
    """Assemble the (d, alpha, beta) lower-triangular family."""
    n = cfg.n
    theta = np.tril(np.full((n, n), cfg.beta, dtype=float), -2)
    theta[np.arange(1, n), np.arange(n - 1)] = cfg.alpha
    np.fill_diagonal(theta, cfg.d)
    return theta


def delay_line_theta(n, alpha):
    """Feed-forward chain whose squared coupling is ``alpha`` (entries
    sqrt(alpha)), the configuration whose memory curve attains the closed
    form of :func:`delay_line_fmc_closed_form` exactly."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    theta = np.zeros((n, n))
    theta[np.arange(1, n), np.arange(n - 1)] = np.sqrt(alpha)
    return theta


def _covariance_factor(theta):
    """Upper-triangular R with sum_{k<K} Theta^k (Theta^k)^T = R^T R, and
    the number of terms K, by square-root doubling.

    With S_K the stack of (Theta^k)^T for k < K and A = (Theta^T)^K,
    S_2K = [S_K; S_K A], so if S_K = Q R then S_2K = diag(Q, Q) [R; R A]
    and the factor of the doubled sum is the R factor of the 2n x n stack
    [R; R A].  Doubling stops once K >= n (non-normal transients can grow
    before they decay) and the tail term ||A||_F^2 is below SERIES_TOL.

    Raises :class:`DivergenceError` if the tail is still growing when K
    passes TERMS_PER_UNIT * n, or overflows.
    """
    n = theta.shape[0]
    cap = TERMS_PER_UNIT * n
    r = np.eye(n)
    a = theta.T
    terms = 1
    prev = np.inf
    while True:
        r = np.linalg.qr(np.vstack([r, r @ a]), mode="r")
        a = a @ a
        terms *= 2
        tail = float(np.linalg.norm(a)) ** 2
        if terms >= n and tail < SERIES_TOL:
            return r, terms
        if not np.isfinite(tail) or (terms > cap and tail > prev):
            raise DivergenceError(
                f"covariance series still growing after {terms} terms")
        if terms > cap:
            return r, terms
        prev = tail


def fmc_from_theta(theta, eps=1.0, k_max=0):
    """Fisher memory curve for an explicit matrix.  ``k_max = 0`` sums
    until J(k) is negligible (past k = n), capped at 10n terms."""
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.shape[0]
    r, terms = _covariance_factor(theta)

    limit = k_max if k_max else TERMS_PER_UNIT * n
    cutoff = 1e-14
    # Columns Theta^k e_1.  C >= eps * I bounds J(k) by |Theta^k e_1|^2 / eps,
    # so with k_max = 0 the first k >= n whose column is below half the
    # cut-off has J(k) below it too, and no later column is needed.
    v = np.zeros(n)
    v[0] = 1.0
    cols = []
    for k in range(limit + 1):
        cols.append(v)
        if k_max == 0 and k >= n and v @ v < 0.5 * cutoff * eps:
            break
        v = theta @ v
    y = np.linalg.solve(r.T, np.array(cols).T)
    curve = np.einsum("ij,ij->j", y, y) / eps
    if k_max == 0:
        # stop at the first k >= n with J(k) below the cut-off
        small = np.flatnonzero(curve[n:] < cutoff)
        if small.size:
            curve = curve[: n + small[0] + 1]
    return FmcResult(j_curve=curve, j_tot=float(curve.sum()), truncation_terms=terms)


def fisher_memory_curve(cfg):
    """Fisher memory curve of the (d, alpha, beta) family."""
    theta = build_theta_family(cfg)
    return fmc_from_theta(theta, eps=cfg.eps, k_max=cfg.k_max)


def delay_line_fmc_closed_form(alpha, k):
    """J(k) = alpha^k (alpha - 1) / (alpha^{k+1} - 1); the alpha = 1 limit
    is 1 / (k + 1).  For alpha > 1 it is computed as
    (1 - 1/alpha) / (1 - alpha^-(k+1)), which cannot overflow."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    if abs(alpha - 1.0) < 1e-13:
        return 1.0 / (k + 1)
    if alpha > 1.0:
        return (1.0 - 1.0 / alpha) / (1.0 - alpha ** -(k + 1))
    return alpha**k * (alpha - 1.0) / (alpha ** (k + 1) - 1.0)


@dataclass
class Prop1Report:
    n: int
    alpha: float
    sigma_max: float
    j_curve: np.ndarray
    bound: np.ndarray
    margin: np.ndarray       # J(k) - bound(k), must be >= -slack
    holds: bool


def prop1_bound_check(theta, eps=1.0, slack=1e-9):
    """Verify the lower bound on the memory curve of a strictly
    lower-triangular matrix with sqrt(alpha) on its sub-diagonal:

        J(k) >= alpha^k (alpha-1) / (alpha^{k+1}-1) / sigma_max^{2(N-1)}

    where sigma_max is the top singular value of the unit-diagonal
    triangular factor from Gram-Schmidt on the columns.  The last column
    is zero and the first n - 1 are in echelon form, so that factor is the
    R of one QR of those n - 1 columns with its rows scaled to a unit
    diagonal.  A violation beyond ``slack`` signals an implementation bug,
    so it raises.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValueError(f"theta must be square, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite entries")
    n = theta.shape[0]
    if n < 2:
        raise ValueError("n must be >= 2")
    if np.any(np.triu(theta) != 0.0):
        raise ValueError("theta must be strictly lower triangular")
    sub = np.diag(theta, -1)
    if not np.allclose(sub, sub[0], atol=0.0) or sub[0] <= 0:
        raise ValueError("sub-diagonal must be constant and positive")
    alpha = float(sub[0]) ** 2

    r = np.linalg.qr(theta[:, :-1], mode="r")
    t_gram = r / np.diag(r)[:, None]
    sigma_max = float(np.linalg.norm(t_gram, 2))

    res = fmc_from_theta(theta, eps=eps, k_max=n - 1)
    j = res.j_curve[:n]
    bound = np.array(
        [delay_line_fmc_closed_form(alpha, k) for k in range(n)]
    ) / (eps * sigma_max ** (2 * (n - 1)))
    margin = j - bound
    holds = bool(np.all(margin >= -slack))
    report = Prop1Report(
        n=n, alpha=alpha, sigma_max=sigma_max,
        j_curve=j, bound=bound, margin=margin, holds=holds,
    )
    if not holds:
        raise AssertionError(
            f"memory-curve bound violated by {-margin.min():.3e} (bug)"
        )
    return report


@dataclass
class TransientStats:
    t: np.ndarray
    unit_std_mean: np.ndarray
    unit_std_std: np.ndarray
    norm_mean: np.ndarray
    norm_std: np.ndarray


def _shift_chain_stats(x, alpha, unit_std, norms):
    """Fill the statistics rows t < n of ``unit_std`` and ``norms`` for
    Theta = alpha * S, S the down-shift, from the normalized draw ``x``
    (n_samples, n), which is overwritten.

    h_t = alpha^t S^t x holds the first n - t units of x, so with P1 and
    P2 the sums of x and x^2 over those units, ||h_t|| = |alpha|^t sqrt(P2)
    and the per-unit standard deviation is |alpha|^t sqrt(P2/n - (P1/n)^2).
    P1 and P2 for every t are the columns of two prefix sums along the
    unit axis, read last column first."""
    n = x.shape[1]
    m = min(len(norms), n)
    ns, us = norms[:m], unit_std[:m]
    sq = np.square(x)
    np.cumsum(sq, axis=1, out=sq)
    np.copyto(ns, sq[:, ::-1][:, :m].T)   # P2
    np.cumsum(x, axis=1, out=x)
    np.copyto(us, x[:, ::-1][:, :m].T)    # P1
    # P2/n - (P1/n)^2, in place
    np.square(us, out=us)
    us /= -n
    us += ns
    us /= n
    np.maximum(us, 0.0, out=us)
    np.sqrt(us, out=us)
    np.sqrt(ns, out=ns)
    scale = (abs(alpha) ** np.arange(m))[:, None]
    us *= scale
    ns *= scale


def _ensemble(unit_std, norms):
    """Summaries over the samples at each t; raises
    :class:`DivergenceError` at the first t where one is not finite."""
    summaries = np.array([unit_std.mean(axis=1), unit_std.std(axis=1),
                          norms.mean(axis=1), norms.std(axis=1)])
    bad = np.flatnonzero(~np.isfinite(summaries).all(axis=0))
    if bad.size:
        raise DivergenceError(
            f"non-finite transient statistics at t = {bad[0]}")
    return TransientStats(np.arange(len(norms)), *summaries)


def transient_ensemble(cfg, n_samples=1000, t_max=None, rng_seed=0):
    """Iterate h_{t+1} = Theta h_t from initial conditions uniform on the
    unit hypersphere (normalized Gaussians) and return ensemble statistics
    of the per-unit standard deviation and the state norm at each t.

    The starting states are the rows of one
    ``np.random.default_rng(rng_seed).normal(size=(n_samples, n))`` draw,
    each normalized.  The draw fills row by row, so sample s depends only
    on (seed, s, n): the first m samples are the same for any
    ``n_samples >= m``.

    For d = beta = 0, Theta = alpha * S with S the down-shift, and nothing
    is stepped: h_t = alpha^t S^t h_0 keeps the first n - t units of the
    draw, so every statistic at t < n follows from prefix sums of the
    draw and of its squares along the unit axis, in O(n * n_samples)
    work in all.  From t = n on (and from t = 1 on when alpha = 0) the
    statistics are exactly 0.

    Otherwise each step is one GEMM on the live block of Theta.  The first
    step reads the normalized draw itself; from then on the state is held
    unit-major in two reused C-ordered (n, n_samples) buffers, and each
    step writes from one into the other.  Theta is lower triangular, so
    leading units that are exactly zero in every sample stay zero: each
    step acts only on the trailing live block, and stepping stops once the
    whole state is zero (from t = n on when d = 0), leaving the remaining
    statistics exactly 0.

    The prefix sums equal a dense GEMM step to rounding, not bit for bit:
    they add in another order than the per-step reductions.  Raises
    :class:`DivergenceError` when a statistic overflows.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if t_max is not None and t_max < 0:
        raise ValueError("t_max must be >= 0")
    n = cfg.n
    t_max = t_max if t_max is not None else 2 * n

    unit_std = np.zeros((t_max + 1, n_samples))
    norms = np.zeros((t_max + 1, n_samples))
    x = np.random.default_rng(rng_seed).normal(size=(n_samples, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if cfg.d == 0 and cfg.beta == 0:
        _shift_chain_stats(x, cfg.alpha, unit_std, norms)
        del x   # before the summaries' temporaries
        return _ensemble(unit_std, norms)
    theta = build_theta_family(cfg)
    # The draw is the first state, read unit-major through its transposed
    # view (a GEMM takes that layout at no cost); the first step writes
    # into a C-ordered buffer, and the draw is freed before the second.
    cur, nxt = x.T, np.empty((n, n_samples))
    del x
    k = 0   # cur[k:] holds the live units; the units before k are exactly 0
    for t in range(t_max + 1):
        while k < n and not cur[k].any():
            k += 1
        if k == n:
            break
        h = cur[k:]
        sumsq = np.einsum("ij,ij->j", h, h)
        mean = h.sum(axis=0) / n
        norms[t] = np.sqrt(sumsq)
        unit_std[t] = np.sqrt(np.maximum(sumsq / n - mean * mean, 0.0))
        if t == t_max:
            break
        np.matmul(theta[k:, k:], h, out=nxt[k:])
        cur, nxt = nxt, cur
        if t == 0:
            nxt = h = None   # drop the draw before allocating its successor
            nxt = np.empty_like(cur)
    return _ensemble(unit_std, norms)
