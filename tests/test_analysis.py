import csv
import json

import numpy as np
import pytest

from schurrnn import cli
from schurrnn.analysis import connectivity_report
from schurrnn.schur import (
    assemble_theta,
    assemble_v,
    checkpoint_text,
    init_params,
    t_lower_mask,
)


def params_with_delay_line(n, weight=1.0, seed=0):
    p = init_params(n, rng_seed=seed)
    t = np.zeros((n, n))
    idx = np.arange(1, n)
    t[idx, idx - 1] = weight
    p.t_lower = np.where(t_lower_mask(n), t, 0.0)
    return p


def test_report_orthogonal_solution():
    p = init_params(8, rng_seed=0)
    rep = connectivity_report(p)
    assert rep.t_frobenius == 0.0
    assert rep.mean_gamma == 1.0
    assert rep.nonnormality_ratio == 0.0
    # V orthogonal at init: top singular value 1
    assert rep.top_singular_value == pytest.approx(1.0, abs=1e-12)
    # profile only sees the rotation-block sub-diagonal (sin theta terms)
    assert np.all(rep.subdiag_profile[1:] == 0.0)


def test_report_delay_line_dominates_profile():
    p = params_with_delay_line(8, weight=2.0)
    rep = connectivity_report(p)
    assert rep.subdiag_profile[0] == np.max(rep.subdiag_profile)
    assert rep.subdiag_profile[0] > 1.0


def test_report_mean_gamma_exact():
    p = init_params(8, rng_seed=1)
    p.gamma = np.full(4, 0.958)
    rep = connectivity_report(p)
    assert abs(rep.mean_gamma - 0.958) < 1e-15


def test_profile_matches_brute_force_scan():
    p = params_with_delay_line(10, weight=0.7, seed=2)
    rng = np.random.default_rng(3)
    extra = np.where(t_lower_mask(10), rng.normal(size=(10, 10)) * 0.3, 0.0)
    p.t_lower = np.where(t_lower_mask(10), p.t_lower + extra, 0.0)
    theta = assemble_theta(p)
    rep = connectivity_report(p)
    for k in range(1, 10):
        vals = [abs(theta[i + k, i]) for i in range(10 - k)]
        assert rep.subdiag_profile[k - 1] == pytest.approx(np.mean(vals), abs=1e-15)


def test_spectral_radius_from_schur_form():
    p = params_with_delay_line(10, weight=0.7, seed=7)
    p.gamma = np.random.default_rng(8).uniform(0.9, 1.04, size=5)
    v, _ = assemble_v(p)
    rep = connectivity_report(p)
    assert rep.t_frobenius > 0.0
    assert rep.spectral_radius == np.max(p.gamma)
    assert rep.spectral_radius == pytest.approx(
        np.max(np.abs(np.linalg.eigvals(v))), abs=1e-10)


def test_report_labels_growth():
    p = params_with_delay_line(8, weight=0.5, seed=6)
    p.t_lower[:] = 0.0
    assert connectivity_report(p).growth == "constant"
    p = params_with_delay_line(8, weight=0.5, seed=6)
    assert connectivity_report(p).growth == "polynomial"
    # a radius just above 1 is exponential, though 100 iterates of
    # gamma = 1.01 barely rise
    p.gamma[2] = 1.01
    rep = connectivity_report(p)
    assert rep.spectral_radius == 1.01 and rep.growth == "exponential"
    # every gamma below 1, T unchanged
    p.gamma[:] = 0.99
    rep = connectivity_report(p)
    assert rep.spectral_radius == 0.99 and rep.growth == "decaying"


def test_report_unit_gamma_with_t_is_polynomial():
    # gamma = 1 with a random T: sigma_max(Theta^t) goes only 1.63 -> 2.19
    # from t = 50 to t = 100, far from any exponential rate
    n = 128
    p = init_params(n, rng_seed=2)
    rng = np.random.default_rng(2)
    t = np.where(t_lower_mask(n), rng.normal(size=(n, n)), 0.0)
    p.t_lower = t * (0.5 / np.linalg.norm(t))
    rep = connectivity_report(p)
    assert rep.spectral_radius == 1.0 and rep.growth == "polynomial"


def test_histograms_count_parameters():
    p = init_params(16, rng_seed=4)
    rep = connectivity_report(p)
    assert rep.theta_histogram.sum() == 8
    assert rep.gamma_histogram.sum() == 8


def run_report(tmp_path, p):
    """The output directory of `schurrnn report` on a checkpoint of p."""
    tmp_path.mkdir(exist_ok=True)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(checkpoint_text(p, "henaff", 0))
    out = tmp_path / "report"
    assert cli.main(["report", "--config", str(ckpt), "--out", str(out)]) == 0
    return out


def test_regime_boundary_closed_at_low_threshold(tmp_path):
    # With theta = 0 and P = I, ||Theta||_F^2 = 2 sum(gamma^2) + t^2 in
    # integers: 2 / sqrt(1596 + 4) and 1 / sqrt(24 + 1) are exactly the
    # thresholds 0.05 and 0.2.
    cases = [
        ([28.0, 3.0, 2.0, 1.0], 2.0, 0.05, "normal"),
        ([28.0, 3.0, 2.0, 1.0], 2.0001, None, "intermediate"),
        ([3.0, 1.0, 1.0, 1.0], 1.0, 0.2, "intermediate"),
        ([3.0, 1.0, 1.0, 1.0], 1.1, None, "non-normal"),
    ]
    for i, (gamma, t, ratio, regime) in enumerate(cases):
        p = init_params(8, rng_seed=0)
        p.b_skew = np.zeros((8, 8))
        p.gamma = np.array(gamma)
        p.theta = np.zeros(4)
        p.t_lower = np.zeros((8, 8))
        p.t_lower[2, 0] = t
        out = run_report(tmp_path / str(i), p)
        doc = json.loads((out / "connectivity_report.json").read_text())
        if ratio is not None:
            assert doc["nonnormality_ratio"] == ratio
        assert doc["regime"] == regime


def test_report_serialization(tmp_path):
    p = params_with_delay_line(8, weight=0.5, seed=6)
    rep = connectivity_report(p)
    out = run_report(tmp_path, p)
    doc = json.loads((out / "connectivity_report.json").read_text())
    assert doc["n"] == 8
    assert doc["spectral_radius"] == rep.spectral_radius
    assert doc["growth"] == rep.growth == "polynomial"
    assert len(doc["subdiag_profile"]) == 7
    assert len(doc["theta_histogram"]) == 64

    rows = list(csv.reader((out / "subdiag_profile.csv").open()))
    assert rows[0] == ["k", "mean_abs"]
    assert len(rows) == 8
    assert float(rows[1][1]) == pytest.approx(rep.subdiag_profile[0])
