"""Fisher memory analytics and transient-dynamics ensembles for any
square connectivity matrix Theta (``fmc_from_theta``,
``ensemble_from_theta``), with wrappers for a structured lower-triangular
family (``fisher_memory_curve``, ``transient_ensemble``).

The family has d on the diagonal, alpha on the first sub-diagonal and
beta everywhere below that.  The Fisher memory curve J(k) measures how
much information the hidden state retains about a scalar input injected k
steps earlier under i.i.d. Gaussian noise of variance eps:

    J(k) = u^T (Theta^k)^T C^{-1} Theta^k u,
    C    = eps * sum_k Theta^k (Theta^k)^T,   u = e_1.

When Theta is a scaled shift alpha * S, S the down-shift (the family's
d = beta = 0 rows), C is diagonal and Theta^k e_1 = alpha^k e_{k+1}, so
J(k) is the delay line's closed form in alpha^2 for k < n and 0 from
k = n on (Ganguli, Huh and Sompolinsky 2008); nothing is factored.

Otherwise C is never formed or inverted explicitly.  Its triangular
factor comes from the square-root form of Smith's doubling for the Stein
equation C = Theta C Theta^T + eps I (Smith 1968; Hammarling 1982): one
2n x n QR per doubling of the number of summed terms.  The QR's stack
interleaves the rows of the two triangles it holds, so that for a lower
(quasi-)triangular Theta, the family and the Schur form among them, it is
a staircase whose zeros LAPACK's Householder QR skips.  Working with the
factor keeps the solves usable even when C itself is catastrophically
ill-conditioned (condition numbers reach 1e23 for d = 0.2 with super-unit
sub-diagonals).
"""

import contextlib
import functools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import DivergenceError

__all__ = [
    "FmcConfig",
    "FmcResult",
    "build_theta_family",
    "delay_line_theta",
    "fisher_memory_curve",
    "fmc_from_theta",
    "delay_line_fmc_closed_form",
    "ensemble_from_theta",
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
# Row blocks of each transient step's GEMM (see ensemble_from_theta).
ROW_BLOCKS = 4


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


@contextlib.contextmanager
def _sized_by(what):
    """Name ``what`` in the error of an allocation it sizes: a
    ``MemoryError``, or numpy's ``ValueError`` for an array too big to
    describe."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"{what}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def build_theta_family(cfg):
    """Assemble the (d, alpha, beta) lower-triangular family; ``n`` is
    named in the error of a Theta too large to allocate."""
    n = cfg.n
    with _sized_by(f"n = {n}"):
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


def _checked_theta(theta):
    """``theta`` as a float64 array, after checking that it is a finite
    square matrix of order n >= 2."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValueError(f"theta must be square, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite entries")
    if theta.shape[0] < 2:
        raise ValueError("n must be >= 2")
    return theta


def _is_scaled_shift(theta):
    """Whether ``theta`` equals alpha * S, S the down-shift and alpha its
    entry [1, 0], zero or negative included (one O(n^2) comparison)."""
    return np.array_equal(theta, theta[1, 0] * np.eye(len(theta), k=-1))


def _covariance_factor(theta):
    """Upper-triangular R with sum_{k<K} Theta^k (Theta^k)^T = R^T R, the
    number of terms K, and the (K, n) array whose row k is Theta^k e_1,
    by square-root doubling.

    With S_K the stack of (Theta^k)^T for k < K and A = (Theta^T)^K,
    S_2K = [S_K; S_K A], so if S_K = Q R then S_2K = diag(Q, Q) [R; R A]
    and the factor of the doubled sum is the R factor of the 2n x n stack
    [R; R A].  The same A extends the columns: row K + k is row k times A,
    so each doubling adds its K rows in one GEMM.  Doubling stops once
    K >= n (non-normal transients can grow before they decay) and the tail
    term ||A||_F^2 is below SERIES_TOL.

    The stack holds R in its even rows and R A in its odd rows.  Any row
    order gives the same R^T R: in exact arithmetic, permuting the rows
    changes Q, and R only in the signs of its rows.  This order pays when
    Theta is lower (quasi-)triangular: R A is then upper
    (quasi-)triangular like R, so column j of the stack is nonzero only
    in about its first 2j + 2 rows, and LAPACK's Householder QR trims each
    reflector to the rows above the column's trailing zeros, about j + 2
    of them in place of n + 1.  A dense Theta costs what the stacked
    halves [R; R A] cost.

    Raises :class:`DivergenceError` if the tail is still growing when K
    passes TERMS_PER_UNIT * n, or overflows.
    """
    n = theta.shape[0]
    cap = TERMS_PER_UNIT * n
    stack = np.empty((2 * n, n))   # R, R A interleaved; refilled each doubling
    r = np.eye(n)
    cols = np.eye(1, n)
    a = theta.T
    terms = 1
    prev = np.inf
    while True:
        stack[0::2] = r
        np.matmul(r, a, out=stack[1::2])
        r = np.linalg.qr(stack, mode="r")
        cols = np.vstack([cols, cols @ a])
        a = a @ a
        terms *= 2
        tail = float(np.linalg.norm(a)) ** 2
        if terms >= n and tail < SERIES_TOL:
            return r, terms, cols
        if not np.isfinite(tail) or (terms > cap and tail > prev):
            raise DivergenceError(
                f"covariance series still growing after {terms} terms")
        if terms > cap:
            return r, terms, cols
        prev = tail


def fmc_from_theta(theta, eps=1.0, k_max=0):
    """Fisher memory curve for an explicit matrix.  ``k_max = 0`` sums
    until J(k) is negligible (past k = n), capped at 10n terms.

    J(k) is |y_k|^2 / eps with R^T y_k = Theta^k e_1, one solve against
    the factor for all columns at once.  C >= eps * I bounds J(k) by
    |Theta^k e_1|^2 / eps, so with ``k_max = 0`` the curve ends at or
    before the first k >= n whose column is below half the cut-off, and
    that column is the last one solved for.  Raises ``ValueError`` for a
    Theta that is not a finite square matrix of order n >= 2, an ``eps``
    that is not a finite number > 0 or a ``k_max`` that is not an integer
    >= 0, and :class:`DivergenceError` for a covariance series that does
    not converge.

    When Theta is a scaled shift alpha * S (see the module docstring),
    the curve is :func:`delay_line_fmc_closed_form` of alpha^2 over eps
    for k < n and exactly 0 from k = n on, with the length the factor
    path gives it (n + 1 points for ``k_max = 0``), and
    ``truncation_terms`` is the smallest power of two >= n, where that
    path's doubling stops.  Any alpha takes this path: alpha = 0 gives
    J(0) = 1/eps and 0 after, and an alpha whose square overflows gives
    J(k) = 1/eps for k < n, where the factor's powers would overflow."""
    theta = _checked_theta(theta)
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be a finite number > 0, not {eps!r}")
    if not isinstance(k_max, numbers.Integral) or k_max < 0:
        raise ValueError(f"k_max must be an integer >= 0, not {k_max!r}")
    n = theta.shape[0]
    if _is_scaled_shift(theta):
        alpha = float(theta[1, 0])
        curve = np.zeros(k_max + 1 if k_max else n + 1)
        k = np.arange(min(n, len(curve)))
        curve[: len(k)] = delay_line_fmc_closed_form(alpha * alpha, k) / eps
        return FmcResult(j_curve=curve, j_tot=float(curve.sum()),
                         truncation_terms=1 << (n - 1).bit_length())
    r, terms, cols = _covariance_factor(theta)

    limit = k_max if k_max else TERMS_PER_UNIT * n
    cutoff = 1e-14
    floor = 0.5 * cutoff * eps
    # Columns Theta^k e_1: the factor's for k < K, one matvec each past K,
    # up to the first negligible one from k = n on.
    cols = cols[: limit + 1]
    if k_max == 0:
        small = np.flatnonzero(
            np.einsum("ij,ij->i", cols[n:], cols[n:]) < floor)
        if small.size:
            cols = cols[: n + small[0] + 1]
    extra = []
    v = cols[-1]
    for k in range(len(cols), limit + 1):
        if k_max == 0 and k > n and v @ v < floor:
            break
        v = theta @ v
        extra.append(v)
    if extra:
        cols = np.vstack([cols, extra])
    y = np.linalg.solve(r.T, cols.T)
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
    """J(k) = alpha^k (alpha - 1) / (alpha^{k+1} - 1) for an integer k >= 0
    or an array of them; the alpha = 1 limit is 1 / (k + 1), and alpha = 0
    gives 1 at k = 0 and 0 after.

    With L = log(alpha), alpha^m - 1 is expm1(m L), which keeps its digits
    where alpha^m is close to 1; subtracting 1 from alpha^m loses a
    relative 1e-16 / |alpha - 1| (5e-9 at alpha = 1 + 1e-9).  For
    alpha > 1 it is computed as expm1(-L) / expm1(-(k+1) L), the form
    divided through by alpha^{k+1}, which cannot overflow, so an infinite
    alpha gives 1."""
    alpha = float(alpha)
    k = np.asarray(k)
    if not alpha >= 0:
        raise ValueError("alpha must be >= 0")
    if np.any(k < 0):
        raise ValueError("k must be >= 0")
    if alpha == 1.0:
        return 1.0 / (k + 1)
    with np.errstate(divide="ignore"):   # L = -inf for alpha = 0
        log_alpha = np.log1p(alpha - 1.0)
    if alpha > 1.0:
        return np.expm1(-log_alpha) / np.expm1(-(k + 1.0) * log_alpha)
    return alpha**k * (alpha - 1.0) / np.expm1((k + 1.0) * log_alpha)


@dataclass
class Prop1Report:
    n: int
    alpha: float
    beta: Optional[float]    # the entries below the sub-diagonal, if equal
    sigma_max: float
    holds: bool
    j_curve: np.ndarray
    bound: np.ndarray
    margin: np.ndarray       # J(k) - bound(k), must be >= -slack


def prop1_bound_check(theta, eps=1.0, slack=1e-9):
    """Verify the lower bound on the memory curve of a strictly
    lower-triangular matrix with sqrt(alpha) on its sub-diagonal:

        J(k) >= alpha^k (alpha-1) / (alpha^{k+1}-1) / sigma_max^{2(N-1)}

    where sigma_max is the top singular value of the unit-diagonal
    triangular factor from Gram-Schmidt on the columns.  The last column
    is zero and the first n - 1 are in echelon form, so that factor is the
    R of one QR of those n - 1 columns with its rows scaled to a unit
    diagonal.  ``holds`` is False when the curve falls below the bound by
    more than ``slack``, which signals an implementation bug.

    The report's ``beta`` is the value of every entry below the
    sub-diagonal when they are all equal (0 for a delay line, and for
    n = 2, which has none), else None.  A delay line meets the bound with
    equality; a small beta > 0 puts it at about 80% of J.
    """
    theta = _checked_theta(theta)
    n = theta.shape[0]
    if np.any(np.triu(theta) != 0.0):
        raise ValueError("theta must be strictly lower triangular")
    sub = np.diag(theta, -1)
    if not np.allclose(sub, sub[0], atol=0.0) or sub[0] <= 0:
        raise ValueError("sub-diagonal must be constant and positive")
    alpha = float(sub[0]) ** 2
    below = theta[np.tril_indices(n, -2)]
    fill = float(below[0]) if below.size else 0.0

    r = np.linalg.qr(theta[:, :-1], mode="r")
    t_gram = r / np.diag(r)[:, None]
    sigma_max = float(np.linalg.norm(t_gram, 2))

    res = fmc_from_theta(theta, eps=eps, k_max=n - 1)
    j = res.j_curve[:n]
    bound = delay_line_fmc_closed_form(alpha, np.arange(n)) / (
        eps * sigma_max ** (2 * (n - 1)))
    margin = j - bound
    return Prop1Report(
        n=n, alpha=alpha, beta=fill if np.all(below == fill) else None,
        sigma_max=sigma_max,
        holds=bool(np.all(margin >= -slack)),
        j_curve=j, bound=bound, margin=margin,
    )


@dataclass
class TransientStats:
    t: np.ndarray
    unit_std_mean: np.ndarray
    unit_std_std: np.ndarray
    norm_mean: np.ndarray
    norm_std: np.ndarray


def _shift_chain_stats(x, alpha, summaries):
    """Write the summaries at t < n for Theta = alpha * S, S the
    down-shift, into the columns of ``summaries`` (see :func:`_ensemble`),
    from the normalized draw ``x`` (n_samples, n), which is only read.

    h_t = alpha^t S^t x holds the first n - t units of x, so with P1 and
    P2 the sums of x and x^2 over those units, ||h_t|| = |alpha|^t sqrt(P2)
    and the per-unit standard deviation is |alpha|^t sqrt(P2/n - (P1/n)^2).
    P1 and P2 for every t are two prefix sums along the unit axis, taken
    unit-major in one (2, n, n_samples) buffer by one row addition per
    unit, so step t is row n - 1 - t.  Both are transformed in place there,
    each row scaled by |alpha|^t before the summaries over the samples
    are taken, so an overflow shows in the summaries at the first t it
    reaches."""
    n = x.shape[1]
    m = min(summaries.shape[1], n)
    p = np.empty((2, n, x.shape[0]))
    np.copyto(p[1], x.T)
    np.square(p[1], out=p[0])
    for j in range(1, n):
        np.add(p[:, j - 1], p[:, j], out=p[:, j])
    # the live rows, step m - 1 - i in row i
    ns, us = p[:, n - m:]
    _stats_from_sums(us, ns, n)
    scale = (abs(alpha) ** np.arange(m - 1, -1, -1))[:, None]
    us *= scale
    ns *= scale
    summaries = summaries[:, m - 1::-1]
    _summarize(us, summaries[:2])
    _summarize(ns, summaries[2:])


def _stats_from_sums(sums, sumsq, n):
    """Turn each sample's sum of its n units and sum of their squares, in
    place, into its per-unit standard deviation
    sqrt(max(sumsq/n - (sum/n)^2, 0)) and its norm sqrt(sumsq)."""
    np.square(sums, out=sums)
    sums /= -n
    sums += sumsq
    sums /= n
    np.maximum(sums, 0.0, out=sums)
    np.sqrt(sums, out=sums)
    np.sqrt(sumsq, out=sumsq)


def _summarize(x, out):
    """Write the mean and the standard deviation of each row of ``x`` (one
    t, its samples along the row) into ``out[0]`` and ``out[1]``, equal
    bit for bit to ``np.mean`` and ``np.std`` along axis 1.  The mean is
    taken once, and ``x`` is centred and squared in place, so the caller
    must not need it after."""
    mean, std = out
    np.mean(x, axis=1, out=mean)
    x -= mean[:, None]
    np.square(x, out=x)
    np.sum(x, axis=1, out=std)
    std /= x.shape[1]
    np.sqrt(std, out=std)


def _ensemble(summaries):
    """The :class:`TransientStats` of ``summaries``, whose four rows are
    the mean and standard deviation over the samples of the per-unit
    standard deviation and of the norm, one column per t.  Raises
    :class:`DivergenceError` at the first t where one is not finite."""
    bad = np.flatnonzero(~np.isfinite(summaries).all(axis=0))
    if bad.size:
        raise DivergenceError(
            f"non-finite transient statistics at t = {bad[0]}")
    return TransientStats(np.arange(summaries.shape[1]), *summaries)


@functools.lru_cache(maxsize=1)
def _starting_states(rng_seed, n_samples, n):
    """The rows of one ``default_rng(rng_seed).normal(size=(n_samples, n))``
    draw, each normalized; read-only.  The cache holds the last seed's draw
    (see :func:`ensemble_from_theta`)."""
    rng = np.random.default_rng(rng_seed)
    with _sized_by(f"n_samples = {n_samples} by n = {n}"):
        x = rng.normal(size=(n_samples, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x.flags.writeable = False
    return x


def ensemble_from_theta(theta, n_samples=1000, t_max=None, rng_seed=0):
    """Iterate h_{t+1} = Theta h_t from initial conditions uniform on the
    unit hypersphere (normalized Gaussians) and return ensemble statistics
    of the per-unit standard deviation and the state norm at each t.

    Theta is any finite square matrix of order n >= 2; its structure picks
    the path.  The starting states are the rows of one
    ``np.random.default_rng(rng_seed).normal(size=(n_samples, n))`` draw,
    each normalized.  The draw fills row by row, so sample s depends only
    on (seed, s, n): the first m samples are the same for any
    ``n_samples >= m``.  The seed is an integer >= 0, and its draw is
    shared: the last one is kept, read-only, between calls
    (n_samples * n floats), so calls with the same (seed, n_samples, n)
    draw once.

    When Theta equals alpha * S, S the down-shift (one O(n^2) comparison),
    nothing is stepped: h_t = alpha^t S^t h_0 keeps the first n - t units
    of the draw, so every statistic at t < n follows from prefix sums of
    the draw and of its squares along the unit axis, in O(n * n_samples)
    work in all.  The prefix sums are taken unit-major, one row per unit,
    and are transformed into the statistics and summarized in place in
    that buffer; no (t_max + 1, n_samples) array is formed.  From t = n on
    (and from t = 1 on when alpha = 0) the statistics are exactly 0.

    Otherwise each step is a GEMM on the live block of Theta.  The first
    step reads the draw itself; from then on the state is held unit-major
    in two reused C-ordered (n, n_samples) buffers, and each step writes
    from one into the other.  Leading units that are exactly zero in every
    sample are trimmed: for a draw in general position such a unit has a
    zero row in Theta^t, and Theta^{t+1} = Theta^t Theta keeps that row
    zero.  So each step acts only on the trailing live block, and stepping
    stops once the whole state is zero (from t = n on for a strictly lower
    triangular Theta), leaving the remaining statistics exactly 0.  Each
    step splits the live rows into ROW_BLOCKS row blocks, and each block's
    columns stop one past the last nonzero column of Theta's rows up to
    its last row, read once from Theta's nonzero pattern, and never before
    one past that row: for a lower-triangular Theta this skips the zero
    upper triangle, and for the Schur form it keeps Theta[2i, 2i+1].  Each
    step reduces the live block to its per-sample sum of squares, written
    straight into a row of the norms array.  The sum of units at step t is
    w_t . h_0 with w_t = (Theta^T)^t 1, so the sums of every step come
    from one GEMM of the rows w_t with the draw, taken before stepping.
    After the loop the stepped rows become the norm sqrt(sumsq) and the
    per-unit standard deviation sqrt(max(sumsq/n - (sum/n)^2, 0)) in one
    pass over them.

    The prefix sums and the w_t equal a dense GEMM step to rounding, not
    bit for bit: they add in another order than per-step reductions.
    Raises ``ValueError`` for a Theta that is not a finite square matrix
    of order n >= 2 or a seed that is not an integer >= 0,
    :class:`DivergenceError` when a statistic overflows,
    and names ``n_samples`` or ``t_max`` in the error of an array too
    large to allocate.
    """
    theta = _checked_theta(theta)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if t_max is not None and t_max < 0:
        raise ValueError("t_max must be >= 0")
    if not isinstance(rng_seed, numbers.Integral) or rng_seed < 0:
        raise ValueError(f"rng_seed must be an integer >= 0, not {rng_seed!r}")
    n = theta.shape[0]
    t_max = t_max if t_max is not None else 2 * n

    x = _starting_states(rng_seed, n_samples, n)
    with _sized_by(f"t_max = {t_max}"):
        summaries = np.zeros((4, t_max + 1))
    if _is_scaled_shift(theta):
        _shift_chain_stats(x, theta[1, 0], summaries)
        return _ensemble(summaries)
    # The rows before r need only the columns before end[r]: one past the
    # last nonzero of any of them, and never fewer than r.
    end = np.where(np.logical_or(np.tri(n), theta), np.arange(1, n + 1), 0)
    end = [0] + np.maximum.accumulate(end.max(axis=1)).tolist()
    with _sized_by(f"t_max = {t_max}"):
        unit_std = np.empty((t_max + 1, n_samples))
        norms = np.zeros((t_max + 1, n_samples))
        w = np.empty((t_max + 1, n))
    # Row t of w is (Theta^T)^t 1, so row t of w x^T is each sample's sum
    # of units at step t: all of them in one GEMM, before the draw goes.
    w[0] = 1.0
    for t in range(t_max):
        np.matmul(w[t], theta, out=w[t + 1])
    np.matmul(w, x.T, out=unit_std)
    del w
    # The draw is the first state, read unit-major through its transposed
    # view (a GEMM takes that layout at no cost).
    cur, nxt = x.T, np.empty((n, n_samples))
    del x
    k = 0   # cur[k:] holds the live units; the units before k are exactly 0
    live = 0
    for t in range(t_max + 1):
        while k < n and not cur[k].any():
            k += 1
        if k == n:
            break
        h = cur[k:]
        np.einsum("ij,ij->j", h, h, out=norms[t])   # sum of squares
        live = t + 1
        if t == t_max:
            break
        edges = [k + (n - k) * b // ROW_BLOCKS for b in range(ROW_BLOCKS + 1)]
        for r0, r1 in zip(edges[:-1], edges[1:]):
            np.matmul(theta[r0:r1, k:end[r1]], cur[k:end[r1]], out=nxt[r0:r1])
        cur, nxt = nxt, cur
        if t == 0:
            nxt = h = None   # drop the draw before allocating its successor
            nxt = np.empty_like(cur)
    # the rows t < live hold sums and sums of squares; the state is
    # exactly zero from there on
    unit_std[live:] = 0.0
    _stats_from_sums(unit_std[:live], norms[:live], n)
    _summarize(unit_std, summaries[:2])
    _summarize(norms, summaries[2:])
    return _ensemble(summaries)


def transient_ensemble(cfg, n_samples=1000, t_max=None, rng_seed=0):
    """:func:`ensemble_from_theta` of the (d, alpha, beta) family."""
    return ensemble_from_theta(build_theta_family(cfg), n_samples, t_max,
                               rng_seed)
