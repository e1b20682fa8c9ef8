import itertools
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import jtot_oracle
from schurrnn import DivergenceError, memory
from schurrnn.memory import (
    ROW_BLOCKS,
    SERIES_TOL,
    TERMS_PER_UNIT,
    FmcConfig,
    build_theta_family,
    delay_line_fmc_closed_form,
    delay_line_theta,
    ensemble_from_theta,
    fisher_memory_curve,
    fmc_from_theta,
    prop1_bound_check,
    transient_ensemble,
)
from schurrnn.schur import (
    assemble_theta,
    init_params,
    t_lower_mask,
)


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


def factor_thetas(n=24):
    """Matrices of every structure the factor meets, by name."""
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(n, n))
    return {
        "family": build_theta_family(
            FmcConfig(n=n, d=0.2, alpha=1.05, beta=0.005)),
        # its powers have zero leading columns
        "strictly_lower": np.tril(rng.normal(size=(n, n)) * 0.4, -1),
        # entries above the diagonal in each rotation block
        "schur_form": schur_form_theta(n, (0.8, 0.95), 1.0, 7),
        "dense": dense * (0.9 / np.max(np.abs(np.linalg.eigvals(dense)))),
        "upper_shift": np.eye(n, k=1),
    }


@pytest.mark.parametrize("name", ["family", "strictly_lower", "schur_form",
                                  "dense", "upper_shift"])
def test_covariance_factor_matches_dense_sum(name):
    # The stack's row order leaves R^T R unchanged for any Theta: it is the
    # dense sum of the K terms the factor reports, and R is triangular.
    theta = factor_thetas()[name]
    r, terms, _ = memory._covariance_factor(theta)
    c = np.zeros_like(theta)
    m = np.eye(len(theta))
    for _ in range(terms):
        c += m @ m.T
        m = theta @ m
    assert np.linalg.norm(r.T @ r - c) <= 1e-13 * np.linalg.norm(c)
    assert np.all(np.tril(r, -1) == 0.0)


@pytest.mark.parametrize("name", ["schur_form", "dense"])
def test_fmc_matches_dense_oracle_off_the_lower_triangle(name):
    theta = factor_thetas()[name]
    res = fmc_from_theta(theta)
    oracle = fmc_oracle(theta, k_max=len(res.j_curve) - 1)
    np.testing.assert_allclose(res.j_curve, oracle, rtol=1e-8, atol=0)


@pytest.mark.parametrize("diagonal", [False, True],
                         ids=["nilpotent", "diagonal_inside_disc"])
def test_fmc_columns_past_the_factors_terms(diagonal):
    # The factor supplies Theta^k e_1 for k < K from its squarings; later
    # columns are matvecs.  Both sides of K agree with the dense oracle.
    rng = np.random.default_rng(11)
    n = 8
    th = np.tril(rng.normal(size=(n, n)) * 0.4, -1)
    if diagonal:
        th[np.diag_indices(n)] = rng.uniform(-0.6, 0.6, size=n)
    terms = fmc_from_theta(th).truncation_terms
    assert terms > n if diagonal else terms == n
    for k in sorted({n - 1, terms - 1, terms, terms + 1, 3 * terms}):
        res = fmc_from_theta(th, k_max=k)
        assert res.truncation_terms == terms
        assert len(res.j_curve) == k + 1
        np.testing.assert_allclose(res.j_curve, fmc_oracle(th, k_max=k),
                                   rtol=1e-8, atol=0)


def test_fmc_auto_length_past_the_factors_terms():
    # lam * I at n = 8 stops its factor at K = 32 while J(k) is still above
    # the cut-off, so the curve's tail comes from matvecs; J(k) is
    # lam^2k (1 - lam^2) up to the factor's truncation
    lam = 0.62
    res = fmc_from_theta(lam * np.eye(8))
    assert res.truncation_terms == 32
    assert len(res.j_curve) == 35
    k = np.arange(35)
    np.testing.assert_allclose(res.j_curve, lam ** (2 * k) * (1 - lam**2),
                               rtol=1e-8, atol=0)


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


SWEEP = Path(memory.__file__).parent / "data" / "fmc_sweep_sm.json"
TABLE_ROWS = json.loads(SWEEP.read_text())["sweep"]


def fmc_solving_every_column(theta, eps=1.0, k_max=0):
    """The curve from a solve for every column Theta^k e_1 the factor
    gives (k < K), cut after: at k_max, or at the first k >= n with
    J(k) < 1e-14, which must come before K."""
    n = theta.shape[0]
    r, _, cols = memory._covariance_factor(theta)
    y = np.linalg.solve(r.T, cols.T)
    curve = np.einsum("ij,ij->j", y, y) / eps
    if k_max:
        assert k_max < len(curve)
        return curve[: k_max + 1]
    small = np.flatnonzero(curve[n:] < 1e-14)
    assert small.size
    return curve[: n + small[0] + 1]


def row_id(row):
    return f"a{row['alpha']}-b{row['beta']}-d{row['d']}"


# The d = beta = 0 rows are scaled shifts, whose curve is the closed form.
SHIFT_ROWS = [r for r in TABLE_ROWS if r["d"] == r["beta"] == 0.0]
FACTOR_ROWS = [r for r in TABLE_ROWS if r not in SHIFT_ROWS]


@pytest.mark.parametrize(
    "row",
    FACTOR_ROWS + [dict(n=100, d=0.2, alpha=1.05, beta=0.005, k_max=200)],
    ids=[row_id(r) for r in FACTOR_ROWS] + ["k_max200"])
def test_table_solve_stops_where_the_curve_ends(monkeypatch, row):
    # Solving only up to the first negligible column gives the curve of
    # solving every factor column, bit for bit, from fewer columns than
    # the factor has.  (The shift rows reach no solve.)
    theta = build_theta_family(FmcConfig(**row))
    ref = fmc_solving_every_column(theta, k_max=row.get("k_max", 0))
    solved = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solved.append(b.shape[1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    res = fmc_from_theta(theta, k_max=row.get("k_max", 0))
    monkeypatch.undo()
    assert np.array_equal(res.j_curve, ref)
    (columns,) = solved
    assert len(ref) <= columns < res.truncation_terms


@pytest.mark.parametrize("row", SHIFT_ROWS, ids=map(row_id, SHIFT_ROWS))
def test_shift_rows_skip_the_factor(monkeypatch, row):
    def refused(*args, **kwargs):
        raise AssertionError("a shift row reached the factor")

    monkeypatch.setattr(np.linalg, "qr", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    res = fisher_memory_curve(FmcConfig(**row))
    assert len(res.j_curve) == 101 and res.truncation_terms == 128


@pytest.mark.parametrize("a", [0.95, 1.0, 1.05])
def test_factor_path_on_the_delay_line(a):
    # Every scaled shift takes the closed form, so criterion 1 and
    # test_delay_line_fmc_matches_closed_form do not reach the factor.
    # This checks the factor on the delay line at criterion 1's gate, and
    # against the closed-form path on the table's shift row.
    curve = fmc_solving_every_column(delay_line_theta(100, a))
    k = np.arange(100)
    np.testing.assert_allclose(curve[:100], delay_line_fmc_closed_form(a, k),
                               rtol=1e-8, atol=0)
    theta = build_theta_family(FmcConfig(n=100, alpha=a))
    curve = fmc_solving_every_column(theta)
    res = fmc_from_theta(theta)
    assert len(res.j_curve) == len(curve)
    np.testing.assert_allclose(res.j_curve, curve, rtol=1e-13, atol=0)


def exact_delay_line_curve(a, n):
    """a^k / sum_{j<=k} a^j for k < n, in exact rationals."""
    power, total, out = Fraction(1), Fraction(1), []
    for _ in range(n):
        out.append(power / total)
        power *= a
        total += power
    return out


@pytest.mark.parametrize("alpha", [0.95, 1.0, 1.05])
def test_shift_row_per_lag_error_against_exact(alpha):
    # Every J(k), k < n, of a d = beta = 0 table row against the exact
    # curve of a = alpha^2, built from the float alpha; the worst measured
    # error is 5.3e-15.
    res = fisher_memory_curve(FmcConfig(n=100, alpha=alpha))
    exact = exact_delay_line_curve(Fraction(alpha) ** 2, 100)
    for k, j in enumerate(exact):
        assert abs(Fraction(res.j_curve[k]) - j) <= Fraction(1e-14) * j, k
    assert res.j_curve[100] == 0.0


# Every sweep row that reaches the factor, with its bound on the relative
# error of a single J(k) against the 40-digit curve that
# ``python tests/jtot_oracle.py --curves`` writes: about twice the worst
# error measured at one BLAS thread and at two to four (they differ).
# The d = 0 rows are nilpotent: J(100) is 0 in both.
PER_LAG_BOUNDS = {          # (d, alpha, beta): bound; worst measured
    (0.0, 0.95, 0.005): 1.4e-14,    # 6.9e-15
    (0.0, 1.0, 0.005): 9e-15,       # 4.3e-15
    (0.0, 1.05, 0.005): 7e-15,      # 3.4e-15
    (0.2, 0.95, 0.0): 4e-10,        # 1.9e-10
    (0.2, 1.0, 0.0): 1.6e-8,        # 7.8e-9
    (0.2, 1.05, 0.0): 8e-7,         # 4.0e-7
    (0.2, 0.95, 0.005): 3.5e-9,     # 1.8e-9
    (0.2, 1.0, 0.005): 2e-7,        # 9.7e-8
    (0.2, 1.05, 0.005): 1.8e-5,     # 8.8e-6, the erratum row
}
EXACT_CURVES = {
    (r["d"], r["alpha"], r["beta"]): r["j_curve"]
    for r in json.loads((Path(__file__).parent
                         / "fmc_exact_curves.json").read_text())["rows"]}


@pytest.mark.parametrize(
    "row", [r for r in TABLE_ROWS if not r["d"] == r["beta"] == 0.0],
    ids=lambda r: f"d{r['d']}-a{r['alpha']}-b{r['beta']}")
def test_factor_row_per_lag_error_against_exact(row):
    key = row["d"], row["alpha"], row["beta"]
    res = fisher_memory_curve(FmcConfig(**row))
    exact = np.array(EXACT_CURVES[key])
    assert len(res.j_curve) == len(exact)
    err = np.abs(res.j_curve - exact)
    assert np.all(err <= PER_LAG_BOUNDS[key] * exact), (
        np.max(err[exact > 0] / exact[exact > 0]))


def scaled_shift(n, alpha):
    return alpha * np.eye(n, k=-1)


def with_entry(theta, i, j, value):
    theta = theta.copy()
    theta[i, j] = value
    return theta


@pytest.mark.parametrize("theta,fires", [
    (scaled_shift(6, 0.9), True),
    (scaled_shift(6, 0.0), True),
    (scaled_shift(6, -1.3), True),
    (scaled_shift(6, -0.0), True),
    (np.eye(6, k=1), False),
    (with_entry(scaled_shift(6, 0.9), 3, 2, 0.8), False),
    (with_entry(scaled_shift(6, 0.9), 4, 1, 1e-300), False),
    (with_entry(scaled_shift(6, 0.9), 2, 2, 0.1), False),
], ids=["positive", "zero", "negative", "negative_zero", "upper_shift",
        "subdiagonal_not_constant", "extra_entry", "extra_diagonal"])
def test_scaled_shift_dispatch(theta, fires):
    assert memory._is_scaled_shift(theta) is fires


@pytest.mark.parametrize("k_max", [0, 3, 8, 20])
def test_shift_closed_form_edges(k_max):
    # alpha = 0 and negative alpha through alpha^2; an alpha whose square
    # overflows (the factor's powers overflow there) gives J(k) = 1
    n, eps = 8, 0.5
    length = k_max + 1 if k_max else n + 1
    live = min(n, length)
    res = fmc_from_theta(scaled_shift(n, 0.0), eps=eps, k_max=k_max)
    assert res.j_curve.tolist() == [1 / eps] + [0.0] * (length - 1)
    assert res.truncation_terms == 8
    neg = fmc_from_theta(scaled_shift(n, -0.7), eps=eps, k_max=k_max)
    pos = fmc_from_theta(scaled_shift(n, 0.7), eps=eps, k_max=k_max)
    assert np.array_equal(neg.j_curve, pos.j_curve)
    res = fmc_from_theta(scaled_shift(n, 1e300), k_max=k_max)
    assert res.j_curve.tolist() == [1.0] * live + [0.0] * (length - live)
    assert res.j_tot == live


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


def normal_theta(name):
    """A normal Theta by name: a Schur form with T = 0, quasi-triangular
    with 2x2 rotation blocks, or a dense symmetric matrix."""
    if name == "dense_symmetric":
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
        m = (q * rng.uniform(-0.95, 0.95, size=64)) @ q.T
        return (m + m.T) / 2
    n = int(name.removeprefix("schur_form_n"))
    return schur_form_theta(n, (0.5, 0.97), 0.0, n)


@pytest.mark.parametrize("eps", [1.0, 0.3])
@pytest.mark.parametrize("name", ["schur_form_n8", "schur_form_n64",
                                  "schur_form_n128", "dense_symmetric"])
def test_fmc_total_of_a_normal_theta_is_one_over_eps(name, eps):
    # A normal Theta's C and its signal covariance sum_k Theta^k e_1
    # (Theta^k e_1)^T share its eigenvectors, so the trace J_tot of their
    # quotient is |e_1|^2 / eps (Ganguli, Huh and Sompolinsky, PNAS 2008).
    res = fmc_from_theta(normal_theta(name), eps=eps)
    assert abs(eps * res.j_tot - 1.0) <= 1e-11


@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_fmc_bounded_by_one_and_n_over_eps(eps):
    # The signal covariance is at most C, so each J(k) <= 1/eps and
    # J_tot <= n/eps; the d = 0 rows reach J(0) = 1/eps to rounding.
    sweep = Path(memory.__file__).parent / "data" / "fmc_sweep_sm.json"
    thetas = {json.dumps(row): build_theta_family(FmcConfig(**row))
              for row in json.loads(sweep.read_text())["sweep"]}
    thetas.update(factor_thetas())
    assert len(thetas) == 12 + 5
    for name, theta in thetas.items():
        res = fmc_from_theta(theta, eps=eps)
        assert res.j_curve.max() <= (1.0 + 1e-12) / eps, name
        assert res.j_tot <= len(theta) / eps, name


def test_delay_line_closed_form_values():
    assert delay_line_fmc_closed_form(2.0, 0) == 1.0
    assert abs(delay_line_fmc_closed_form(2.0, 1) - 2.0 / 3.0) < 1e-15
    assert delay_line_fmc_closed_form(1.0, 3) == 0.25
    with pytest.raises(ValueError):
        delay_line_fmc_closed_form(-1.0, 2)
    with pytest.raises(ValueError):
        delay_line_fmc_closed_form(1.0, -1)


@pytest.mark.parametrize("alpha", [
    0.3, 0.9025, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 1.1025,
    10.0])
def test_delay_line_closed_form_array_against_exact(alpha):
    # The whole curve in one call, each J(k) within a few rounding errors
    # of the exact value, also where alpha^k is close to 1 (the direct
    # difference alpha^{k+1} - 1 lost 5e-9 at alpha = 1 +- 1e-9)
    got = delay_line_fmc_closed_form(alpha, np.arange(100))
    for k, j in enumerate(exact_delay_line_curve(Fraction(alpha), 100)):
        assert abs(Fraction(got[k]) - j) <= Fraction(1e-15) * j, k


def test_delay_line_closed_form_limits():
    k = np.arange(5)
    assert delay_line_fmc_closed_form(0.0, k).tolist() == [1.0, 0, 0, 0, 0]
    assert delay_line_fmc_closed_form(np.inf, k).tolist() == [1.0] * 5


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
    # with k_max = 0 the curve runs to k = n even when J(n - 1) is already
    # below the cut-off (here the factor stops at K = n = 8)
    res = fmc_from_theta(delay_line_theta(8, 1e-30))
    assert res.truncation_terms == 8
    assert len(res.j_curve) == 9
    assert res.j_curve[7] < 1e-100


def test_d_positive_extends_memory():
    cfg = FmcConfig(n=12, d=0.2, alpha=1.0, beta=0.0, k_max=20)
    res = fisher_memory_curve(cfg)
    assert np.all(res.j_curve[12:] > 0.0)


def test_prop1_delay_line_equality():
    for a in (0.9, 1.0, 1.1):
        rep = prop1_bound_check(delay_line_theta(10, a))
        assert rep.beta == 0.0
        assert abs(rep.sigma_max - 1.0) < 1e-12
        assert np.allclose(rep.margin, 0.0, atol=1e-9)


def test_prop1_near_delay_line():
    th = delay_line_theta(10, 1.0)
    th[np.tril_indices(10, -2)] += 1e-4
    rep = prop1_bound_check(th)
    assert rep.holds and rep.beta == 1e-4
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
        assert rep.holds and rep.beta is None


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


MALFORMED_THETA = pytest.mark.parametrize("theta,match", [
    (np.zeros((4, 3)), "square"),
    (np.zeros(4), "square"),
    (np.zeros((2, 2, 2)), "square"),
    (np.zeros((1, 1)), "n must be >= 2"),
    (np.diag([1.0, np.inf]), "non-finite"),
    (np.full((3, 3), np.nan), "non-finite"),
], ids=["not_square", "1d", "3d", "n1", "inf", "nan"])


@MALFORMED_THETA
def test_ensemble_from_theta_rejects_malformed_theta(theta, match):
    with pytest.raises(ValueError, match=match):
        ensemble_from_theta(theta, n_samples=5, t_max=3)


@MALFORMED_THETA
def test_fmc_from_theta_rejects_malformed_theta(theta, match):
    with pytest.raises(ValueError, match=match):
        fmc_from_theta(theta)


@pytest.mark.parametrize("kwargs,match", [
    ({"eps": -1.0}, "eps"),
    ({"eps": np.nan}, "eps"),
    ({"eps": 0.0}, "eps"),
    ({"eps": np.inf}, "eps"),
    ({"k_max": -3}, "k_max"),
    ({"k_max": 2.5}, "k_max"),
], ids=["eps_negative", "eps_nan", "eps_zero", "eps_inf", "k_max_negative",
        "k_max_float"])
def test_fmc_from_theta_rejects_bad_eps_and_k_max(kwargs, match):
    with pytest.raises(ValueError, match=match):
        fmc_from_theta(delay_line_theta(6, 0.9), **kwargs)


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


@pytest.mark.parametrize("n,t_max", [(100, 120), (100, 45), (5, 0)],
                         ids=["bench_shape", "t_max_below_n", "t0"])
def test_ensemble_summaries_equal_numpy(n, t_max):
    # rows the ensembles produce: random, exactly zero (past a nilpotent
    # chain's end) and constant across samples (t = 0 norms)
    rng = np.random.default_rng(4)
    unit_std = rng.uniform(0.0, 0.2, size=(t_max + 1, 1000))
    norms = rng.lognormal(size=(t_max + 1, 1000))
    unit_std[n:] = 0.0
    norms[n:] = 0.0
    norms[0] = 1.0
    unit_std[t_max // 2] = 0.1
    ref = [unit_std.mean(axis=1), np.std(unit_std, axis=1),
           np.mean(norms, axis=1), np.std(norms, axis=1)]
    summaries = np.empty((4, t_max + 1))
    memory._summarize(unit_std.copy(), summaries[:2])
    memory._summarize(norms.copy(), summaries[2:])
    stats = memory._ensemble(summaries)
    assert np.array_equal(stats.t, np.arange(t_max + 1))
    got = [stats.unit_std_mean, stats.unit_std_std, stats.norm_mean,
           stats.norm_std]
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
    assert np.all(stats.norm_std[n:] == 0.0)


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


def transient_oracle(theta, h0, t_max):
    """The dense loop: the full h @ Theta^T, np.std and np.linalg.norm at
    every step, from the sample-major starting states ``h0``."""
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


def schur_form_theta(n, gamma_range, t_frobenius, seed):
    """Theta of the Schur form: rotations with moduli uniform in
    ``gamma_range`` and a Gaussian T on its mask, scaled to
    ``t_frobenius``.  Row 2i has its nonzero Theta[2i, 2i+1] above the
    diagonal."""
    p = init_params(n, rng_seed=seed)
    rng = np.random.default_rng(seed)
    p.gamma = rng.uniform(*gamma_range, size=n // 2)
    t = np.where(t_lower_mask(n), rng.normal(size=(n, n)), 0.0)
    p.t_lower = t * (t_frobenius / np.linalg.norm(t))
    return assemble_theta(p)


def _thetas(n=20):
    """Matrices outside the family, by name, each with whether it is
    alpha times the down-shift (the prefix-sum path)."""
    rng = np.random.default_rng(11)
    # Unit u of this nilpotent matrix is row order[u] of a strictly lower
    # L, so it dies at t = order[u] + 1: out of order, with the leading
    # units trimmed at t = 1, 3, 5, ... while later ones still live.
    order = [0] + [u + 1 if u % 2 else u - 1 for u in range(1, n - 1)] + [n - 1]
    nilpotent = np.tril(rng.normal(size=(n, n)), -1)[np.ix_(order, order)]
    shift_one_beta = 1.05 * np.eye(n, k=-1)
    shift_one_beta[7, 2] = 0.01
    return {
        "schur_form": (schur_form_theta(n, (0.95, 1.05), 1.5, 3), False),
        "dense": (rng.normal(size=(n, n)) / np.sqrt(n), False),
        "permuted_nilpotent": (nilpotent, False),
        "upper_shift": (1.05 * np.eye(n, k=1), False),
        "delay_line": (delay_line_theta(n, 1.05), True),
        "shift_one_beta": (shift_one_beta, False),
    }


THETAS = _thetas()


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
    (dict(n=3, d=0.0, alpha=1.0, beta=0.2), 50, 7),
    (dict(n=5, d=0.0, alpha=1.05, beta=0.1), 50, 9),
    (dict(n=5, d=0.3, alpha=1.05, beta=0.1), 50, 12),
    (dict(n=2 * ROW_BLOCKS + 3, d=0.4, alpha=1.02, beta=0.05), 60, 30),
    (dict(n=30, d=0.0, alpha=1.05, beta=0.0), 1, 45),
    (dict(n=30, d=0.0, alpha=0.95, beta=0.0), 200, 29),
    *[(name, n_samples, 40) for name in THETAS for n_samples in (200, 5)],
], ids=["d0", "d0_beta", "d_positive", "bench_shape", "bidiagonal_bench_shape",
        "bidiagonal_d_positive", "bidiagonal_n2_d0", "bidiagonal_n2_d_positive",
        "n3_t0", "shift_bench_shape_a0.95", "shift_bench_shape_a1.0",
        "shift_t_max_below_n", "shift_alpha0", "shift_alpha_negative",
        "shift_n2", "shift_t0", "n3_steps", "n5_steps", "n5_d_positive",
        "d_positive_uneven_blocks", "shift_one_sample",
        "shift_t_max_n_minus_1",
        *[f"{name}_{n_samples}" for name in THETAS for n_samples in (200, 5)]])
def test_transient_matches_dense_oracle(monkeypatch, row, n_samples, t_max):
    # a family row runs through transient_ensemble, a named matrix
    # through ensemble_from_theta; either way the path must follow Theta
    calls = []
    shift_chain_stats = memory._shift_chain_stats

    def spy(*args):
        calls.append(args)
        return shift_chain_stats(*args)

    monkeypatch.setattr(memory, "_shift_chain_stats", spy)
    if isinstance(row, str):
        theta, prefix_path = THETAS[row]
        stats = ensemble_from_theta(theta, n_samples=n_samples, t_max=t_max,
                                    rng_seed=7)
    else:
        cfg = FmcConfig(**row)
        theta = build_theta_family(cfg)
        # n = 2 has no entry for beta
        prefix_path = cfg.d == 0 and (cfg.beta == 0 or cfg.n == 2)
        stats = transient_ensemble(cfg, n_samples=n_samples, t_max=t_max,
                                   rng_seed=7)
    assert bool(calls) == prefix_path
    ref = transient_oracle(
        theta, library_starting_states(len(theta), n_samples, 7), t_max)
    got = (stats.unit_std_mean, stats.unit_std_std,
           stats.norm_mean, stats.norm_std)
    for g, r in zip(got, ref):
        # atol covers norm_std[0], rounding noise around 1e-16
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-14)
    if n_samples == 1:
        assert np.all(stats.unit_std_std == 0.0)
        assert np.all(stats.norm_std == 0.0)


TRANSIENT_ROWS = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "transients.json")
    .read_text())["configs"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", [0, 1, 2, 3, "schur_form"],
                         ids=["row0", "row1", "row2", "row3", "schur_form"])
def test_ensemble_mean_energy_matches_frobenius_curve(case, seed):
    """For x uniform on the unit sphere, E||Theta^t x||^2 = ||Theta^t||_F^2
    / n, and the sampled mean of ||h_t||^2 is norm_mean^2 + norm_std^2.
    Likewise E[(1 . Theta^t x)^2] = ||1^T Theta^t||^2 / n, so the mean
    per-unit variance, unit_std_mean^2 + unit_std_std^2 sampled, is
    ||Theta^t||_F^2 / n^2 - ||1^T Theta^t||^2 / n^3.  Each must lie within
    5 standard errors of its exact curve, taken from the per-sample values
    of the dense loop.  The exact curves share no code with the ensemble's
    paths: the prefix sums, the unit-sum GEMM, the row blocks and the
    trim."""
    n_samples, t_max = 1000, 120
    if case == "schur_form":
        # the Theta of a trained copy network: gamma in [0.967, 1.035],
        # ||T||_F = 2.66
        theta = schur_form_theta(100, (0.967, 1.035), 2.66, 0)
        stats = ensemble_from_theta(theta, n_samples, t_max, seed)
    else:
        cfg = FmcConfig(**TRANSIENT_ROWS[case])
        theta = build_theta_family(cfg)
        stats = transient_ensemble(cfg, n_samples, t_max, seed)
    n = len(theta)
    exact = np.empty((2, t_max + 1))
    per_sample = np.empty((2, t_max + 1, n_samples))
    power = np.eye(n)
    h = library_starting_states(n, n_samples, seed)
    for t in range(t_max + 1):
        exact[0, t] = np.sum(power**2) / n
        exact[1, t] = exact[0, t] / n - np.sum(power.sum(axis=0)**2) / n**3
        per_sample[:, t] = np.sum(h**2, axis=1), h.var(axis=1)
        power = theta @ power
        h = h @ theta.T
    if case != "schur_form" and cfg.beta == 0:
        # the shift chain's curve in closed form: alpha^2t (n - t) / n
        t = np.arange(n)
        np.testing.assert_allclose(
            exact[0, :n], cfg.alpha ** (2 * t) * (n - t) / n, rtol=1e-12)
    sampled = [stats.norm_mean**2 + stats.norm_std**2,
               stats.unit_std_mean**2 + stats.unit_std_std**2]
    se = per_sample.std(axis=2, ddof=1) / np.sqrt(n_samples)
    # the rounding allowance covers t = 0, where every energy is 1
    for got, ref, err in zip(sampled, exact, se):
        assert np.all(np.abs(got - ref) <= 5 * err + 1e-12 * ref)


def test_transient_draw_is_prefix_stable():
    # sample s's starting state does not depend on n_samples
    n, seed = 12, 5
    first = library_starting_states(n, 50, seed)[:20]
    assert np.array_equal(first, library_starting_states(n, 20, seed))
    cfg = FmcConfig(n=n, d=0.0, alpha=1.05, beta=0.005)
    stats = transient_ensemble(cfg, n_samples=20, t_max=15, rng_seed=seed)
    ref = transient_oracle(build_theta_family(cfg), first, 15)
    np.testing.assert_allclose(stats.norm_mean, ref[2], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(stats.unit_std_mean, ref[0], rtol=1e-12,
                               atol=1e-14)


@pytest.mark.parametrize("beta", [0.0, 0.005])
def test_transient_allocation_budget(beta):
    """Peak traced allocation of one ensemble at the benchmark shape, in
    units of one (n, n_samples) float64 state: on a cold call (a seed not
    drawn before, so the draw is allocated and then held) and on a warm one
    (the same seed again: the normalized draw of the last seed is held
    across calls and not allocated).  With beta != 0 the
    statistics live in two (t_max + 1, n_samples) arrays (2.42 units) and
    the state in two reused buffers beside the draw; the unit sums of all
    steps come from one GEMM before stepping, each step writes its sum of
    squares straight into the norms array, and the sums are transformed
    and summarized in place: about 5.61 and 4.61 units.  A further
    state-sized array alive across the loop would break the budget.  With
    beta = 0 (and d = 0) the two prefix sums are taken, transformed and
    summarized in one (2, n, n_samples) buffer: about 3.09 and 2.09 units,
    against 4.50 and 3.50 when they were copied into two
    (t_max + 1, n_samples) arrays first."""
    n, n_samples, t_max = 100, 1000, 120
    cfg = FmcConfig(n=n, d=0.0, alpha=1.0, beta=beta)
    transient_ensemble(cfg, n_samples=n_samples, t_max=t_max,
                       rng_seed=0)  # warm up
    for seed in (1, 1):   # cold, warm
        tracemalloc.start()
        try:
            transient_ensemble(cfg, n_samples=n_samples, t_max=t_max,
                               rng_seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n_samples * 8) < 6


def test_starting_states_cache_keeps_seed_meaning():
    # interleaved seeds and shapes: every draw equals a cold one
    calls = [(3, 20, 6), (3, 20, 6), (4, 20, 6), (3, 20, 6), (3, 30, 6),
             (3, 20, 7), (np.int64(3), 20, 6), (3, 20, 6)]
    for seed, n_samples, n in calls:
        x = memory._starting_states(seed, n_samples, n)
        assert np.array_equal(x, library_starting_states(n, n_samples, seed))
        assert x is memory._starting_states(seed, n_samples, n)
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 0.0
    cfg = FmcConfig(n=6, d=0.3, alpha=1.05, beta=0.1)
    for seed, n_samples, _ in calls:
        warm = transient_ensemble(cfg, n_samples=n_samples, t_max=8,
                                  rng_seed=seed)
        memory._starting_states.cache_clear()
        cold = transient_ensemble(cfg, n_samples=n_samples, t_max=8,
                                  rng_seed=seed)
        assert np.array_equal(warm.norm_mean, cold.norm_mean)
        assert np.array_equal(warm.unit_std_std, cold.unit_std_std)


@pytest.mark.parametrize("seed", [
    -1, 2.0, None, np.random.SeedSequence(5), np.random.default_rng(5)],
    ids=["negative", "float", "none", "seed_sequence", "generator"])
def test_transient_seed_must_be_nonnegative_integer(seed):
    # only an integer >= 0 is a seed: the cache keys its draw by it
    cfg = FmcConfig(n=6, d=0.0, alpha=1.05, beta=0.1)
    with pytest.raises(ValueError, match="rng_seed"):
        transient_ensemble(cfg, n_samples=20, t_max=8, rng_seed=seed)
