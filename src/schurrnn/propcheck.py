"""Exact verification that iterates of unit-diagonal triangular matrices
grow polynomially, plus an empirical growth classifier for float matrices.

The exact side works on the matrix with ones on the diagonal and the
symbol x strictly above it.  Entry (i, j) of its t-th power is a polynomial
p_{j-i}^{(t)}(x) of degree at most j-i with zero constant term, and the
powers satisfy the recurrence

    p_k^{(t+1)}(x) = x * (1 + sum_{s<k} p_s^{(t)}(x)) + p_k^{(t)}(x).

All of this is checked with arbitrary-precision integer arithmetic, so a
failure is an implementation bug, not rounding.
"""

import json
from dataclasses import dataclass
from math import comb

import numpy as np

from .polymat import ONE, X, ZERO, PolyMat, poly_add, poly_degree, poly_mul

__all__ = [
    "prop2_matrix",
    "verify_prop2",
    "Prop2Report",
    "iterate_growth_probe",
    "GrowthProbe",
]


def prop2_matrix(n):
    """Unit diagonal, x strictly above, zero below."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return PolyMat(
        [[ONE if i == j else (X if j > i else ZERO) for j in range(n)]
         for i in range(n)]
    )


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


def _gap_polys(power, n):
    """Entry (i, j) depends only on j - i; collect one polynomial per gap
    after confirming that uniformity."""
    polys = {}
    for k in range(1, n):
        vals = [power[i, i + k] for i in range(n - k)]
        if any(v != vals[0] for v in vals[1:]):
            raise AssertionError(f"gap-{k} entries are not uniform (bug)")
        polys[k] = vals[0]
    return polys


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
    degree_ok = constant_ok = recurrence_ok = ratio_ok = True
    max_ratio = 0.0
    polynomials = {}
    per_t = {}
    prev = None
    for t in range(1, t_max + 1):
        gaps = _gap_polys(power, n)
        per_t[t] = gaps
        for k, p in gaps.items():
            coeffs = list(p)
            polynomials[(k, t)] = {
                "degree": poly_degree(p),
                "constant": coeffs[0] if coeffs else 0,
                "coeffs": coeffs,
            }
            if poly_degree(p) > k:
                degree_ok = False
            if coeffs and coeffs[0] != 0:
                constant_ok = False
            for l in range(1, len(coeffs)):
                ratio = abs(coeffs[l]) / comb(t, l) if comb(t, l) else float("inf")
                max_ratio = max(max_ratio, ratio)
                if ratio > 2.0**k:
                    ratio_ok = False
        if prev is not None:
            for k in range(1, n):
                acc = ONE
                for s in range(1, k):
                    acc = poly_add(acc, prev[s])
                expected = poly_add(poly_mul(X, acc), prev[k])
                if expected != gaps[k]:
                    recurrence_ok = False
        prev = gaps
        power = power @ a

    # log-log slope of coeff(x^l) against t for the largest gap present
    kmax = n - 1
    growth_slopes = {}
    for l in range(1, kmax + 1):
        ts, cs = [], []
        for t in range(1, t_max + 1):
            coeffs = per_t[t][kmax]
            if l < len(coeffs) and coeffs[l] > 0 and t > 1:
                ts.append(np.log(t))
                cs.append(np.log(float(coeffs[l])))
        if len(ts) >= 2:
            slope = float(np.polyfit(ts, cs, 1)[0])
            growth_slopes[l] = slope

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
    loglog_slope: float
    stopped_early: bool


def iterate_growth_probe(m, t_max=100, const_tol=1e-6, growth_ratio=1.6):
    """Track sigma_max(m^t) and classify its growth.

    Constant: log sigma stays within ``const_tol``.  Exponential: log sigma
    roughly doubles between t_max/2 and t_max (linear in t).  Otherwise
    polynomial, with the fitted log-log slope reported (degree cap n-1 for
    triangular iterates).  Stops early on overflow.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    power = np.eye(n)
    ts, sig = [], []
    stopped = False
    for t in range(1, t_max + 1):
        power = power @ m
        if not np.all(np.isfinite(power)) or np.abs(power).max() > 1e150:
            stopped = True
            break
        ts.append(t)
        sig.append(float(np.linalg.norm(power, 2)))
    ts = np.array(ts)
    sig = np.array(sig)
    logs = np.log(sig)

    half = len(ts) // 2
    tail = slice(half, None)
    slope = float(np.polyfit(np.log(ts[tail]), logs[tail], 1)[0]) if len(ts) > 3 else 0.0

    if np.max(np.abs(logs)) <= const_tol:
        label = "constant"
    else:
        l_half = logs[half - 1] if half >= 1 else logs[0]
        l_end = logs[-1]
        if stopped or (abs(l_half) > 1e-12 and l_end / l_half >= growth_ratio
                       and l_end > 0):
            label = "exponential"
        else:
            label = "polynomial"
    return GrowthProbe(
        t=ts, sigma_max=sig, label=label, loglog_slope=slope,
        stopped_early=stopped,
    )
