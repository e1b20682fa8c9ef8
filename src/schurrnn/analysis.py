"""Connectivity diagnostics: sub-diagonal magnitude profiles, angle and
modulus distributions, and a normal-vs-non-normal regime summary."""

from dataclasses import dataclass

import numpy as np

from .propcheck import iterate_growth_probe
from .schur import assemble_v

__all__ = ["ConnectivityReport", "connectivity_report"]

N_BINS = 64

# t_frobenius / ||Theta||_F below the first threshold reads as effectively
# normal connectivity, above the second as strongly non-normal.  Summary
# labels only; the raw profile carries the quantitative content.
NORMAL_RATIO = 0.05
NONNORMAL_RATIO = 0.20


@dataclass
class ConnectivityReport:
    n: int
    mean_gamma: float
    t_frobenius: float
    theta_frobenius: float
    nonnormality_ratio: float        # t_frobenius / theta_frobenius; 0 at 0
    regime: str                      # "normal", "intermediate" or "non-normal"
    top_singular_value: float
    spectral_radius: float           # max gamma: V's eigenvalues are gamma e^{+-i theta}
    growth: str                      # iterate_growth_probe's label of Theta
    gamma_histogram: np.ndarray      # counts, 64 bins over [min, max]
    gamma_bin_edges: np.ndarray
    theta_histogram: np.ndarray      # counts, 64 uniform bins over [0, 2pi)
    subdiag_profile: np.ndarray      # m_k = mean_i |Theta_{i+k,i}|, k=1..n-1


def connectivity_report(p):
    """Diagnostics of the assembled connectivity.  The sub-diagonal profile
    and norms are measured on Theta (the Schur form); the top singular
    value on V itself.  The spectral radius is read from the Schur form:
    the eigenvalues of V are gamma_i e^{+-i theta_i}, whatever T is.  The
    growth of V^t is labelled by :func:`iterate_growth_probe` on Theta,
    from its spectral radius and its top singular value, both of which
    are V's as well."""
    v, cache = assemble_v(p)
    theta = cache.theta
    n = p.n

    angles = np.mod(p.theta, 2.0 * np.pi)
    theta_hist, _ = np.histogram(angles, bins=N_BINS, range=(0.0, 2.0 * np.pi))
    gamma_hist, gamma_edges = np.histogram(p.gamma, bins=N_BINS)

    profile = np.array(
        [np.mean(np.abs(np.diag(theta, -k))) for k in range(1, n)]
    )

    t_frobenius = float(np.linalg.norm(p.t_lower))
    theta_frobenius = float(np.linalg.norm(theta))
    ratio = t_frobenius / theta_frobenius if theta_frobenius != 0.0 else 0.0
    if ratio <= NORMAL_RATIO:
        regime = "normal"
    elif ratio > NONNORMAL_RATIO:
        regime = "non-normal"
    else:
        regime = "intermediate"

    return ConnectivityReport(
        n=n,
        mean_gamma=float(np.mean(p.gamma)),
        t_frobenius=t_frobenius,
        theta_frobenius=theta_frobenius,
        nonnormality_ratio=ratio,
        regime=regime,
        top_singular_value=float(np.linalg.norm(v, 2)),
        spectral_radius=float(np.max(p.gamma)),
        growth=iterate_growth_probe(theta),
        gamma_histogram=gamma_hist,
        gamma_bin_edges=gamma_edges,
        theta_histogram=theta_hist,
        subdiag_profile=profile,
    )
