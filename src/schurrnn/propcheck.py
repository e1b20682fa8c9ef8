"""Exact verification that iterates of unit-diagonal triangular matrices
grow polynomially, plus an empirical growth classifier for float matrices.

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

import json
from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "prop2_matrix",
    "verify_prop2",
    "Prop2Report",
    "iterate_growth_probe",
    "GrowthProbe",
]

# iterate_growth_probe: the largest |log sigma| of a constant trace, and the
# least ratio of log sigma at t_max to log sigma at t_max/2 that makes
# growth exponential
CONST_TOL = 1e-6
GROWTH_RATIO = 1.6


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
    # (k, t) -> {"degree": int, "constant": int, "coeffs": [int, ...]}
    polynomials: dict
    # coefficient index l -> fitted log-log slope of coeff(x^l) in p_k(t)
    # versus t, for the largest gap
    growth_slopes: dict
    degree_ok: bool
    constant_ok: bool
    recurrence_ok: bool
    ratio_ok: bool
    max_ratio: float

    @property
    def all_ok(self):
        return self.degree_ok and self.constant_ok and self.recurrence_ok and self.ratio_ok

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "t_max": self.t_max,
                "degree_ok": self.degree_ok,
                "constant_ok": self.constant_ok,
                "recurrence_ok": self.recurrence_ok,
                "ratio_ok": self.ratio_ok,
                "max_ratio": self.max_ratio,
                "growth_slopes": {str(k): v for k, v in self.growth_slopes.items()},
                "polynomials": {
                    f"k={k},t={t}": rec for (k, t), rec in self.polynomials.items()
                },
            },
            indent=2,
        )


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
        polynomials=polynomials,
        growth_slopes=growth_slopes,
        degree_ok=degree_ok,
        constant_ok=constant_ok,
        recurrence_ok=recurrence_ok,
        ratio_ok=ratio_ok,
        max_ratio=max_ratio,
    )


@dataclass
class GrowthProbe:
    t: np.ndarray
    sigma_max: np.ndarray
    label: str              # "constant" | "polynomial" | "exponential"
                            # | "nilpotent" (some power is exactly zero)
    loglog_slope: float
    stopped_early: bool


def iterate_growth_probe(m, t_max=100):
    """Track sigma_max(m^t) and classify its growth.

    Constant: log sigma stays within ``CONST_TOL``.  Exponential: the
    iterates overflow, or log sigma grows by ``GROWTH_RATIO`` or more
    between t_max/2 and t_max (linear in t).  Otherwise polynomial, with the
    fitted log-log slope reported (degree cap n-1 for triangular iterates).
    Nilpotent: some power is exactly zero; the trace ends before it.
    Stops early on overflow or a zero power.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    power = np.eye(n)
    ts, sig = [], []
    stopped = vanished = False
    for t in range(1, t_max + 1):
        power = power @ m
        if not np.all(np.isfinite(power)) or np.abs(power).max() > 1e150:
            stopped = True
            break
        if not power.any():
            stopped = vanished = True
            break
        ts.append(t)
        sig.append(float(np.linalg.norm(power, 2)))
    ts = np.array(ts)
    sig = np.array(sig)
    logs = np.log(sig)

    half = len(ts) // 2
    tail = slice(half, None)
    slope = float(np.polyfit(np.log(ts[tail]), logs[tail], 1)[0]) if len(ts) > 3 else 0.0

    # an overflow or a zero power may come at t = 1, before any log sigma
    if vanished:
        label = "nilpotent"
    elif stopped:
        label = "exponential"
    elif np.max(np.abs(logs)) <= CONST_TOL:
        label = "constant"
    else:
        l_half = logs[half - 1] if half >= 1 else logs[0]
        l_end = logs[-1]
        if (abs(l_half) > 1e-12 and l_end / l_half >= GROWTH_RATIO
                and l_end > 0):
            label = "exponential"
        else:
            label = "polynomial"
    return GrowthProbe(
        t=ts, sigma_max=sig, label=label, loglog_slope=slope,
        stopped_early=stopped,
    )
