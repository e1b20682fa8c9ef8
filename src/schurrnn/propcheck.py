"""Exact verification that iterates of unit-diagonal triangular matrices
grow polynomially, plus a growth label for float matrices, which reads
the spectral radius and one 2-norm rather than the iterates.

The exact side works on the matrix with ones on the diagonal and the
symbol x strictly above it.  Entry (i, j) of its t-th power is a polynomial
p_{j-i}^{(t)}(x) of degree at most j-i with zero constant term, and the
powers satisfy the recurrence

    p_k^{(t+1)}(x) = x * (1 + sum_{s<k} p_s^{(t)}(x)) + p_k^{(t)}(x).

Each polynomial matrix is held as a stack of coefficient matrices of
Python ints, layer l holding the coefficients of x^l, so all of this is
checked with arbitrary-precision integer arithmetic and a failure is an
implementation bug, not rounding.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "prop2_matrix",
    "verify_prop2",
    "Prop2Report",
    "iterate_growth_probe",
]

# iterate_growth_probe: the largest |log sigma_max(m)| of a constant
# trace, and the margin on either side of 1 past which the spectral radius
# alone makes growth exponential (above) or decaying (below)
CONST_TOL = 1e-6
RHO_TOL = 1e-8


def prop2_matrix(n):
    """Unit diagonal, x strictly above, zero below: the (2, n, n) stack
    [I, strictly-upper ones] of Python ints."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return np.array([np.eye(n, dtype=int), np.triu(np.ones((n, n), int), 1)],
                    dtype=object)


def _poly_matmul(a, b):
    """Product of two square polynomial matrices held as coefficient
    stacks."""
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:], dtype=object)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai @ bj
    return out


@dataclass
class Prop2Report:
    n: int
    t_max: int
    degree_ok: bool
    constant_ok: bool
    recurrence_ok: bool
    ratio_ok: bool
    max_ratio: float
    # coefficient index l -> fitted log-log slope of coeff(x^l) in p_k(t)
    # versus t, for the largest gap
    growth_slopes: dict
    # (k, t) -> {"degree": int, "constant": int, "coeffs": [int, ...]}
    polynomials: dict

    @property
    def all_ok(self):
        return self.degree_ok and self.constant_ok and self.recurrence_ok and self.ratio_ok


def verify_prop2(n, t_max):
    """Exhaustively check degree, zero constant term, the power recurrence,
    and the bounded coefficient ratio coeff(x^l) / C(t, l) <= 2^k for all
    powers t <= t_max.  Exact integer arithmetic throughout."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if n > 8 or t_max > 30:
        raise ValueError("exact verification is budgeted for n <= 8, t <= 30")
    a = prop2_matrix(n)
    power = a
    k = np.arange(n)[:, None]
    degree_ok = constant_ok = recurrence_ok = ratio_ok = True
    max_ratio = 0.0
    polynomials = {}
    prev = None
    for t in range(1, t_max + 1):
        # gaps[k, l]: coefficient of x^l in entry (i, i + k), which depends
        # only on the gap k; power has t + 1 layers, so l = 0 ... t
        gaps = []
        for gap in range(n):
            diag = np.diagonal(power, gap, axis1=1, axis2=2)
            if np.any(diag != diag[:, :1]):
                raise AssertionError(f"gap-{gap} entries are not uniform (bug)")
            gaps.append(diag[:, 0])
        gaps = np.array(gaps)
        for gap in range(1, n):
            coeffs = np.trim_zeros(gaps[gap], "b").tolist()
            polynomials[(gap, t)] = {
                "degree": len(coeffs) - 1,
                "constant": coeffs[0] if coeffs else 0,
                "coeffs": coeffs,
            }
        l = np.arange(t + 1)
        degree_ok = degree_ok and not np.any((gaps != 0) & (l > k))
        constant_ok = constant_ok and not np.any(gaps[1:, 0])
        ratio = np.abs(gaps[1:, 1:]) / np.array([comb(t, j) for j in l[1:]],
                                                dtype=object)
        max_ratio = max(max_ratio, ratio.max())
        ratio_ok = ratio_ok and not np.any(ratio > 2.0 ** k[1:])
        if prev is not None:
            # 1 + sum_{s<k} p_s is the cumulative sum over gaps 0 ... k-1,
            # the diagonal being the constant 1; the factor x shifts it by
            # one layer
            expected = np.zeros_like(gaps)
            expected[:, :-1] = prev
            expected[1:, 1:] += np.cumsum(prev, axis=0)[:-1]
            recurrence_ok = recurrence_ok and np.array_equal(expected, gaps)
        prev = gaps
        power = _poly_matmul(power, a)

    # log-log slope of coeff(x^l) against t for the largest gap present
    kmax = n - 1
    growth_slopes = {}
    for l in range(1, kmax + 1):
        ts, cs = [], []
        for t in range(2, t_max + 1):
            coeffs = polynomials[(kmax, t)]["coeffs"]
            if l < len(coeffs) and coeffs[l] > 0:
                ts.append(np.log(t))
                cs.append(np.log(float(coeffs[l])))
        if len(ts) >= 2:
            growth_slopes[l] = float(np.polyfit(ts, cs, 1)[0])

    return Prop2Report(
        n=n,
        t_max=t_max,
        degree_ok=degree_ok,
        constant_ok=constant_ok,
        recurrence_ok=recurrence_ok,
        ratio_ok=ratio_ok,
        max_ratio=max_ratio,
        growth_slopes=growth_slopes,
        polynomials=polynomials,
    )


def _spectral_radius(m):
    """Largest eigenvalue modulus of the square float array ``m``, by
    ``np.linalg.eigvals``.

    That is exact to rounding on an upper (quasi-)triangular matrix,
    LAPACK's own Schur form, but elsewhere a defective eigenvalue with a
    Jordan block of size k errs by about eps^(1/k): read as a dense
    matrix, a Schur-form Theta at n = 32 with equal rotation angles and
    gamma = 1 gives rho = 1.02.  So a lower triangular or quasi-triangular
    ``m``, the Schur form's shape, is read through its transpose, which
    has the same eigenvalues.  NaN for a non-finite ``m``."""
    if not np.all(np.isfinite(m)):
        return np.nan
    # lower quasi-triangular: nothing above the first super-diagonal, and
    # no two neighbouring entries on it (that would be a 3x3 block)
    sup = np.diag(m, 1) != 0.0
    if not (np.any(np.triu(m, 2)) or np.any(sup[:-1] & sup[1:])):
        m = m.T
    return float(np.max(np.abs(np.linalg.eigvals(m)), initial=0.0))


def iterate_growth_probe(m):
    """Label the growth of the powers m^t: one of "exponential",
    "nilpotent", "decaying", "constant" or "polynomial".

    The spectral radius rho decides first: "exponential" unless
    rho <= 1 + ``RHO_TOL`` (so also for a non-finite ``m``, whose rho is
    NaN), whatever transient growth comes first.  Below 1 - ``RHO_TOL``
    the powers decay, and are "nilpotent" when m^(2^k), 2^k >= n, which
    is zero for every nilpotent n x n matrix (Cayley-Hamilton), is
    exactly zero.
    Within ``RHO_TOL`` of 1 nothing grows exponentially, and since
    rho^t <= sigma_max(m^t) <= sigma_max(m)^t the trace of sigma_max(m^t)
    is constant exactly when sigma_max(m) = 1: the label is "constant"
    when |log sigma_max(m)| <= ``CONST_TOL`` and "polynomial" otherwise."""
    m = np.asarray(m, dtype=np.float64)
    rho = _spectral_radius(m)
    if not rho <= 1.0 + RHO_TOL:
        return "exponential"
    if rho < 1.0 - RHO_TOL:
        # m^(2^k), 2^k >= n, by squarings of factors scaled to a largest
        # entry of 1, so that no power overflows (inf * 0 is NaN, not
        # zero) or underflows to zero (0.01 I at n = 200)
        p = m
        for _ in range((m.shape[0] - 1).bit_length()):
            peak = np.abs(p).max()
            if peak == 0.0:
                return "nilpotent"
            p = p / peak
            p = p @ p
        return "decaying" if p.any() else "nilpotent"
    return ("constant" if abs(np.log(np.linalg.norm(m, 2))) <= CONST_TOL
            else "polynomial")
