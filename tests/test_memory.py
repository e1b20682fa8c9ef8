import itertools
import tracemalloc

import numpy as np
import pytest

import jtot_oracle
from schurrnn.memory import (
    SERIES_TOL,
    TERMS_PER_UNIT,
    FmcConfig,
    build_theta_family,
    delay_line_fmc_closed_form,
    delay_line_theta,
    fisher_memory_curve,
    fmc_from_theta,
    prop1_bound_check,
    transient_ensemble,
)
from schurrnn.schur import DivergenceError


def noise_covariance(theta, eps=1.0):
    """C = eps * sum_k Theta^k (Theta^k)^T as an explicit matrix, summed one
    power at a time until the term is below SERIES_TOL (never before
    k = n), for at most TERMS_PER_UNIT * n terms."""
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.shape[0]
    cap = TERMS_PER_UNIT * n
    c = np.eye(n)
    m = np.eye(n)
    prev = np.inf
    for k in range(1, cap + 1):
        m = theta @ m
        c += m @ m.T
        term = float(np.linalg.norm(m)) ** 2
        if k >= n and term < SERIES_TOL:
            return eps * c
        growing = term > prev
        prev = term
    if growing:
        raise DivergenceError(
            f"covariance series still growing after {cap} terms")
    return eps * c


def fmc_oracle(theta, eps=1.0, k_max=None):
    """Direct dense evaluation: explicit C, explicit solve per k."""
    n = theta.shape[0]
    k_max = k_max if k_max is not None else n - 1
    c = noise_covariance(theta, eps=eps)
    u = np.zeros(n)
    u[0] = 1.0
    out = []
    v = u.copy()
    for _ in range(k_max + 1):
        out.append(float(v @ np.linalg.solve(c, v)))
        v = theta @ v
    return np.array(out)


def test_config_validation():
    with pytest.raises(ValueError):
        FmcConfig(n=1)
    with pytest.raises(ValueError):
        FmcConfig(n=4, eps=0.0)
    with pytest.raises(ValueError):
        FmcConfig(n=4, d=1.0)
    with pytest.raises(ValueError):
        FmcConfig(n=4, d=-0.1)
    with pytest.raises(ValueError):
        FmcConfig(n=4, k_max=-5)


def test_build_theta_family_layout():
    th = build_theta_family(FmcConfig(n=3, d=0.2, alpha=1.0, beta=0.5))
    expected = np.array([[0.2, 0, 0], [1.0, 0.2, 0], [0.5, 1.0, 0.2]])
    assert np.array_equal(th, expected)
    # d=0 family is nilpotent
    th0 = build_theta_family(FmcConfig(n=5, d=0.0, alpha=1.0, beta=0.3))
    assert np.allclose(np.linalg.matrix_power(th0, 5), 0.0)


def theta_family_loop(n, d, alpha, beta):
    """The family assembled one row at a time."""
    theta = np.zeros((n, n))
    for i in range(n):
        theta[i, i] = d
        if i >= 1:
            theta[i, i - 1] = alpha
        theta[i, : max(i - 1, 0)] = beta
    return theta


def delay_line_loop(n, alpha):
    theta = np.zeros((n, n))
    for i in range(1, n):
        theta[i, i - 1] = np.sqrt(alpha)
    return theta


@pytest.mark.parametrize("n", [2, 3, 4, 100])
def test_build_theta_family_matches_row_loop(n):
    for d, alpha, beta in itertools.product(
            (0.0, 0.2), (0.95, 1.0, 1.05), (0.0, 0.005, 0.5)):
        got = build_theta_family(FmcConfig(n=n, d=d, alpha=alpha, beta=beta))
        assert got.dtype == np.float64
        assert np.array_equal(got, theta_family_loop(n, d, alpha, beta))
    for alpha in (0.5, 1.0, 1.05):
        assert np.array_equal(delay_line_theta(n, alpha),
                              delay_line_loop(n, alpha))
    # integer fields, as a JSON config may give them, still build floats
    got = build_theta_family(FmcConfig(n=n, d=0, alpha=2, beta=1))
    assert np.array_equal(got, theta_family_loop(n, 0.0, 2.0, 1.0))


def test_noise_covariance_hand_sums():
    # zero matrix: C = eps I
    assert np.allclose(noise_covariance(np.zeros((3, 3)), eps=2.0), 2 * np.eye(3))
    # delay line n=2 with sqrt(alpha) coupling: C = eps diag(1, 1+alpha)
    alpha = 0.7
    c = noise_covariance(delay_line_theta(2, alpha), eps=1.5)
    assert np.allclose(c, 1.5 * np.diag([1.0, 1.0 + alpha]), atol=1e-14)
    # general delay line: C = eps diag(1, 1+a, 1+a+a^2, ...)
    n, alpha = 6, 0.9
    c = noise_covariance(delay_line_theta(n, alpha))
    expected = np.diag([sum(alpha**j for j in range(i + 1)) for i in range(n)])
    assert np.allclose(c, expected, atol=1e-12)


def test_noise_covariance_divergence():
    with pytest.raises(DivergenceError, match="still growing after 30 terms"):
        noise_covariance(np.eye(3) * 1.01)


def is_power_of_two_at_least(k, n):
    return k >= n and k & (k - 1) == 0


def test_fmc_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = 8
        th = np.tril(rng.normal(size=(n, n)) * 0.4, -1)
        res = fmc_from_theta(th, k_max=n - 1)
        oracle = fmc_oracle(th, k_max=n - 1)
        assert np.allclose(res.j_curve, oracle, rtol=1e-8)
        assert is_power_of_two_at_least(res.truncation_terms, n)
        # a varied diagonal inside the unit disc: Theta is no longer
        # nilpotent, so the factor needs several doublings past K = n
        th[np.diag_indices(n)] = rng.uniform(-0.6, 0.6, size=n)
        res = fmc_from_theta(th)
        oracle = fmc_oracle(th, k_max=300)
        assert np.allclose(res.j_curve, oracle[: len(res.j_curve)], rtol=1e-8)
        assert res.j_tot == pytest.approx(oracle.sum(), rel=1e-8)
        assert is_power_of_two_at_least(res.truncation_terms, n)
        # the curve ends at the first k >= n with J(k) < 1e-14
        assert res.j_curve[-1] < 1e-14
        assert np.all(res.j_curve[n:-1] >= 1e-14)


def test_table_curve_lengths_and_terms():
    # Curve lengths of the 12-row total-memory table, as the per-lag
    # evaluation of J(k) gives them: n + 1 on the nilpotent d = 0 rows.
    lengths = {0.0: [101] * 6, 0.2: [172, 173, 175, 171, 173, 175]}
    for d, expected in lengths.items():
        got, terms = [], set()
        for b in (0.0, 0.005):
            for a in (0.95, 1.0, 1.05):
                cfg = FmcConfig(n=100, d=d, alpha=a, beta=b)
                res = fisher_memory_curve(cfg)
                got.append(len(res.j_curve))
                terms.add(res.truncation_terms)
        assert got == expected
        assert terms == {128 if d == 0.0 else 256}


def test_fmc_divergence():
    with pytest.raises(DivergenceError, match="still growing"):
        fmc_from_theta(np.eye(3) * 1.01)
    # powers that overflow before the term cap
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        fmc_from_theta(np.eye(3) * 1e10)


def test_jtot_oracle_matches_delay_line_closed_form():
    # d = beta = 0 is a delay line with squared coupling alpha^2; it is
    # nilpotent, so J_tot is the closed form summed over k < n.
    for n in (2, 5, 12):
        for a in (0.95, 1.0, 1.05):
            exact = float(jtot_oracle.family_j_tot(n, 0.0, a, 0.0))
            ref = sum(delay_line_fmc_closed_form(a * a, k) for k in range(n))
            assert exact == pytest.approx(ref, rel=1e-12)


def test_jtot_oracle_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for _ in range(3):
        th = np.tril(rng.normal(size=(8, 8)) * 0.4, -1)
        exact = float(jtot_oracle.j_tot(th.tolist()))
        assert exact == pytest.approx(fmc_oracle(th).sum(), rel=1e-9)
        # a varied diagonal inside the unit disc: Theta is no longer nilpotent
        th[np.diag_indices(8)] = rng.uniform(-0.6, 0.6, size=8)
        exact = float(jtot_oracle.j_tot(th.tolist()))
        assert exact == pytest.approx(fmc_oracle(th, k_max=300).sum(), rel=1e-9)
    for d, a, b in ((0.2, 1.0, 0.3), (0.5, 0.8, -0.2)):
        th = build_theta_family(FmcConfig(n=6, d=d, alpha=a, beta=b))
        exact = float(jtot_oracle.family_j_tot(6, d, a, b))
        assert exact == pytest.approx(fmc_oracle(th, k_max=300).sum(), rel=1e-9)


def test_jtot_oracle_reproduces_erratum_row():
    from test_acceptance import PUBLISHED_ERRATUM, TABLE

    (exact,) = [row[4] for row in TABLE if row[:3] == PUBLISHED_ERRATUM]
    a, b, d = PUBLISHED_ERRATUM
    value = float(jtot_oracle.family_j_tot(100, d, a, b, dps=40))
    assert value == pytest.approx(exact, rel=1e-9)
    assert value == pytest.approx(20.88465737, rel=1e-9)


def test_fmc_j0_and_nonnegativity():
    for a in (0.95, 1.0, 1.05):
        res = fmc_from_theta(delay_line_theta(20, a), eps=1.0)
        assert abs(res.j_curve[0] - 1.0) < 1e-12  # J(0) = 1/eps
        assert np.all(res.j_curve >= 0.0)


def test_delay_line_closed_form_values():
    assert delay_line_fmc_closed_form(2.0, 0) == 1.0
    assert abs(delay_line_fmc_closed_form(2.0, 1) - 2.0 / 3.0) < 1e-15
    assert delay_line_fmc_closed_form(1.0, 3) == 0.25
    with pytest.raises(ValueError):
        delay_line_fmc_closed_form(-1.0, 2)
    with pytest.raises(ValueError):
        delay_line_fmc_closed_form(1.0, -1)


def test_delay_line_closed_form_overflow_free():
    """For alpha > 1 the closed form is (1 - 1/alpha) / (1 - alpha^-(k+1)),
    the textbook alpha^k (alpha - 1) / (alpha^{k+1} - 1) divided through
    by alpha^{k+1}: the two agree where the textbook form is finite, and
    the new one stays finite where it overflows."""
    for a in np.geomspace(1.0001, 10.0, 25):
        for k in range(100):
            ref = a**k * (a - 1.0) / (a ** (k + 1) - 1.0)
            got = delay_line_fmc_closed_form(a, k)
            assert abs(got - ref) <= 1e-12 * ref, (a, k)
    assert [delay_line_fmc_closed_form(1e300, k) for k in range(3)] == [1.0] * 3


def test_delay_line_fmc_matches_closed_form():
    for a in (0.95, 1.0, 1.05):
        res = fmc_from_theta(delay_line_theta(50, a))
        for k in range(50):
            ref = delay_line_fmc_closed_form(a, k)
            assert abs(res.j_curve[k] - ref) <= 1e-10 * ref


def test_d0_nilpotency_erases_memory():
    cfg = FmcConfig(n=12, d=0.0, alpha=1.0, beta=0.005, k_max=20)
    res = fisher_memory_curve(cfg)
    assert np.all(res.j_curve[12:] < 1e-13)


def test_d_positive_extends_memory():
    cfg = FmcConfig(n=12, d=0.2, alpha=1.0, beta=0.0, k_max=20)
    res = fisher_memory_curve(cfg)
    assert np.all(res.j_curve[12:] > 0.0)


def test_prop1_delay_line_equality():
    for a in (0.9, 1.0, 1.1):
        rep = prop1_bound_check(delay_line_theta(10, a))
        assert abs(rep.sigma_max - 1.0) < 1e-12
        assert np.allclose(rep.margin, 0.0, atol=1e-9)


def test_prop1_near_delay_line():
    th = delay_line_theta(10, 1.0)
    th[np.tril_indices(10, -2)] += 1e-4
    rep = prop1_bound_check(th)
    assert rep.holds
    assert abs(rep.sigma_max - 1.0) < 1e-2


def test_prop1_random_sweep():
    rng = np.random.default_rng(1)
    for seed in range(50):
        n = int(rng.integers(4, 13))
        a = float(rng.choice([0.9, 1.0, 1.1]))
        th = np.tril(rng.normal(size=(n, n)) * 0.5, -2)
        idx = np.arange(1, n)
        th[idx, idx - 1] = np.sqrt(a)
        rep = prop1_bound_check(th)
        assert rep.holds


def test_prop1_input_validation():
    with pytest.raises(ValueError):
        prop1_bound_check(np.eye(4))
    th = delay_line_theta(4, 1.0)
    th[2, 1] = 0.5  # sub-diagonal no longer constant
    with pytest.raises(ValueError):
        prop1_bound_check(th)


def test_prop1_rejects_malformed_input():
    with pytest.raises(ValueError, match="square"):
        prop1_bound_check(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="square"):
        prop1_bound_check(np.zeros(4))
    th = delay_line_theta(4, 1.0)
    th[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        prop1_bound_check(th)


def test_prop1_rejects_tiny_nonconstant_subdiagonal():
    # constant to numpy's default absolute tolerance of 1e-8, yet J(2) =
    # 8.1e-35 lies below the bound 6.6e-33 that alpha = (9e-9)^2 gives
    th = np.zeros((8, 8))
    th[np.arange(1, 8), np.arange(7)] = [9e-9] + [1e-9] * 6
    with pytest.raises(ValueError, match="constant"):
        prop1_bound_check(th)


@pytest.mark.parametrize("alpha", [1e-30, 1e-300])
def test_prop1_tiny_alpha_delay_line_holds(alpha):
    # columns 0..n-2 of a delay line are in echelon form, so they have
    # full rank however small the sub-diagonal
    rep = prop1_bound_check(delay_line_theta(8, alpha))
    assert rep.holds
    assert rep.sigma_max == 1.0


def test_transient_nilpotent_cutoff():
    cfg = FmcConfig(n=20, d=0.0, alpha=1.05, beta=0.005)
    stats = transient_ensemble(cfg, n_samples=100, t_max=30, rng_seed=0)
    assert np.all(stats.norm_mean[20:] == 0.0)
    assert np.all(stats.unit_std_mean[20:] == 0.0)
    assert stats.norm_mean[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha,first_zero", [(1.05, 20), (-1.1, 20),
                                               (0.0, 1)])
def test_transient_shift_chain_exact_zeros(alpha, first_zero):
    # d = beta = 0: the state is exactly zero from t = n on, and from t = 1
    # on when alpha = 0
    cfg = FmcConfig(n=20, d=0.0, alpha=alpha, beta=0.0)
    stats = transient_ensemble(cfg, n_samples=100, t_max=30, rng_seed=0)
    for stat in (stats.unit_std_mean, stats.unit_std_std, stats.norm_mean,
                 stats.norm_std):
        assert np.all(stat[first_zero:] == 0.0)
        assert np.all(stat[1:first_zero] > 0.0)


@pytest.mark.parametrize("beta", [0.0, 1e200])
def test_transient_overflow_raises(beta):
    cfg = FmcConfig(n=100, d=0.0, alpha=1e200, beta=beta)
    with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match="non-finite transient statistics at t = 1$"):
        transient_ensemble(cfg, n_samples=50, t_max=120)


def test_transient_shift_monotone():
    # alpha=1 delay line: per-trajectory norm never increases
    cfg = FmcConfig(n=30, d=0.0, alpha=1.0, beta=0.0)
    stats = transient_ensemble(cfg, n_samples=200, t_max=30, rng_seed=1)
    assert np.all(np.diff(stats.norm_mean) <= 1e-12)


def test_transient_alpha_ordering():
    peaks = {}
    for a in (0.95, 1.05):
        cfg = FmcConfig(n=50, d=0.0, alpha=a, beta=0.0)
        stats = transient_ensemble(cfg, n_samples=300, t_max=50, rng_seed=2)
        peaks[a] = np.max(stats.norm_mean[1:])
    assert peaks[1.05] > peaks[0.95]


def test_transient_determinism():
    cfg = FmcConfig(n=10, d=0.0, alpha=1.0, beta=0.0)
    a = transient_ensemble(cfg, n_samples=20, t_max=10, rng_seed=3)
    b = transient_ensemble(cfg, n_samples=20, t_max=10, rng_seed=3)
    assert np.array_equal(a.norm_mean, b.norm_mean)
    assert np.array_equal(a.unit_std_std, b.unit_std_std)


def library_starting_states(n, n_samples, seed):
    """The starting states transient_ensemble draws, one per row."""
    x = np.random.default_rng(seed).normal(size=(n_samples, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def transient_oracle(cfg, h0, t_max):
    """The dense loop: the full h @ Theta^T, np.std and np.linalg.norm at
    every step, from the sample-major starting states ``h0``."""
    theta = build_theta_family(cfg)
    h = h0
    unit_std = np.empty((t_max + 1, len(h0)))
    norms = np.empty((t_max + 1, len(h0)))
    for t in range(t_max + 1):
        unit_std[t] = h.std(axis=1)
        norms[t] = np.linalg.norm(h, axis=1)
        if t < t_max:
            h = h @ theta.T
    return (unit_std.mean(axis=1), unit_std.std(axis=1),
            norms.mean(axis=1), norms.std(axis=1))


@pytest.mark.parametrize("row,n_samples,t_max", [
    (dict(n=30, d=0.0, alpha=1.05, beta=0.0), 200, 45),
    (dict(n=30, d=0.0, alpha=1.05, beta=0.005), 200, 45),
    (dict(n=30, d=0.5, alpha=1.02, beta=0.01), 200, 60),
    (dict(n=100, d=0.0, alpha=1.0, beta=0.005), 1000, 120),
    (dict(n=100, d=0.0, alpha=1.05, beta=0.0), 1000, 120),
    (dict(n=30, d=0.5, alpha=1.02, beta=0.0), 200, 60),
    (dict(n=2, d=0.0, alpha=1.05, beta=0.0), 50, 5),
    (dict(n=2, d=0.3, alpha=1.05, beta=0.0), 50, 5),
    (dict(n=3, d=0.0, alpha=1.0, beta=0.2), 50, 0),
    (dict(n=100, d=0.0, alpha=0.95, beta=0.0), 1000, 120),
    (dict(n=100, d=0.0, alpha=1.0, beta=0.0), 1000, 120),
    (dict(n=100, d=0.0, alpha=1.05, beta=0.0), 1000, 45),
    (dict(n=30, d=0.0, alpha=0.0, beta=0.0), 200, 45),
    (dict(n=30, d=0.0, alpha=-1.1, beta=0.0), 200, 45),
    (dict(n=2, d=0.0, alpha=0.95, beta=0.0), 50, 1),
    (dict(n=30, d=0.0, alpha=1.05, beta=0.0), 200, 0),
], ids=["d0", "d0_beta", "d_positive", "bench_shape", "bidiagonal_bench_shape",
        "bidiagonal_d_positive", "bidiagonal_n2_d0", "bidiagonal_n2_d_positive",
        "n3_t0", "shift_bench_shape_a0.95", "shift_bench_shape_a1.0",
        "shift_t_max_below_n", "shift_alpha0", "shift_alpha_negative",
        "shift_n2", "shift_t0"])
def test_transient_matches_dense_oracle(row, n_samples, t_max):
    cfg = FmcConfig(**row)
    stats = transient_ensemble(cfg, n_samples=n_samples, t_max=t_max,
                               rng_seed=7)
    ref = transient_oracle(
        cfg, library_starting_states(cfg.n, n_samples, 7), t_max)
    got = (stats.unit_std_mean, stats.unit_std_std,
           stats.norm_mean, stats.norm_std)
    for g, r in zip(got, ref):
        # atol covers norm_std[0], rounding noise around 1e-16
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-14)


def test_transient_draw_is_prefix_stable():
    # sample s's starting state does not depend on n_samples
    n, seed = 12, 5
    first = library_starting_states(n, 50, seed)[:20]
    assert np.array_equal(first, library_starting_states(n, 20, seed))
    cfg = FmcConfig(n=n, d=0.0, alpha=1.05, beta=0.005)
    stats = transient_ensemble(cfg, n_samples=20, t_max=15, rng_seed=seed)
    ref = transient_oracle(cfg, first, 15)
    np.testing.assert_allclose(stats.norm_mean, ref[2], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(stats.unit_std_mean, ref[0], rtol=1e-12,
                               atol=1e-14)


@pytest.mark.parametrize("beta", [0.0, 0.005])
def test_transient_allocation_budget(beta):
    """Peak traced allocation of one ensemble at the benchmark shape, in
    units of one (n, n_samples) float64 state.  The statistics live in two
    (t_max + 1, n_samples) arrays (2.42 units).  With beta != 0 the state
    lives in two reused buffers; a third state-sized array alive across
    the loop, or statistics taken after the loop from full-size
    temporaries, would break the budget.  With beta = 0 (and d = 0) the
    draw and its squares hold the prefix sums, which are written straight
    into the statistics arrays; gathering through temporaries would break
    it."""
    n, n_samples, t_max = 100, 1000, 120
    cfg = FmcConfig(n=n, d=0.0, alpha=1.0, beta=beta)
    transient_ensemble(cfg, n_samples=n_samples, t_max=t_max)  # warm up
    tracemalloc.start()
    try:
        transient_ensemble(cfg, n_samples=n_samples, t_max=t_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (n * n_samples * 8) < 6
