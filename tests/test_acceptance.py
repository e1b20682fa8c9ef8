"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criterion 2 gates the 12-row total Fisher memory table J_tot at n = 100
against two columns.  The "exact" column comes from the extended-precision
oracle in ``tests/jtot_oracle.py``: it solves the Stein equations
C = Theta C Theta^T + I and W = Theta W Theta^T + e_1 e_1^T by triangular
substitution in mpmath, with no truncated series, and returns
J_tot = tr(C^{-1} W).  Its values agree at 40 and 60 digits of precision
and are regenerated with ``python tests/jtot_oracle.py``.  The gate asserts that

* every row of the program's J_tot is within 1e-6 relative of the exact
  value, and
* every row except the published erratum is within 2% of the published
  value.

The erratum is the (alpha=1.05, beta=0.005, d=0.2) row.  Its published
20.4 is not the J_tot of the matrix that :mod:`schurrnn.memory` defines:
the exact value is 20.8847 (+2.38%).  The published 20.4 sits below the
beta = 0 row (20.5), whereas beta = 0.005 raises J_tot in every other
alpha pair, and no common cut-off of the J(k) sums gives both: the sum
over k < 137 is 20.44 on this row but 20.40 on the beta = 0 row.  The row stays in the
table, is checked against its exact value, and is printed in the PASS
line.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from schurrnn import memory, propcheck, rnn, tasks
from schurrnn.optim import TrainConfig, train_loop
from schurrnn.schur import SchurParams, assemble_v, t_lower_mask


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fmc_closed_form():
    t0 = time.time()
    worst = 0.0
    for a in (0.95, 1.0, 1.05):
        res = memory.fmc_from_theta(memory.delay_line_theta(100, a))
        for k in range(100):
            ref = memory.delay_line_fmc_closed_form(a, k)
            worst = max(worst, abs(res.j_curve[k] - ref) / ref)
    dt = time.time() - t0
    report(1, worst <= 1e-8 and dt < 10.0,
           f"delay-line FMC vs closed form, max rel err {worst:.2e} "
           f"(gate 1e-8), {dt:.1f}s")


# (alpha, beta, d, published J_tot, exact J_tot from tests/jtot_oracle.py)
TABLE = [
    (0.95, 0.0, 0.0, 3.03, 3.03270207483),
    (1.00, 0.0, 0.0, 5.19, 5.18737751764),
    (1.05, 0.0, 0.0, 12.1, 12.0872721212),
    (0.95, 0.005, 0.0, 3.18, 3.17576759460),
    (1.00, 0.005, 0.0, 5.30, 5.30142580298),
    (1.05, 0.005, 0.0, 12.1, 12.0865363042),
    (0.95, 0.0, 0.2, 12.0, 11.9393889317),
    (1.00, 0.0, 0.2, 16.2, 16.2982251750),
    (1.05, 0.0, 0.2, 20.5, 20.8370573930),
    (0.95, 0.005, 0.2, 12.1, 12.0895250955),
    (1.00, 0.005, 0.2, 16.3, 16.3909547773),
    (1.05, 0.005, 0.2, 20.4, 20.8846573710),
]
# The published value of this row is an erratum: the exact J_tot is
# 20.8847, so only the check against the exact column applies to it.
PUBLISHED_ERRATUM = (1.05, 0.005, 0.2)


def test_criterion_2_j_tot_table():
    t0 = time.time()
    bad = []
    worst_exact = 0.0
    for a, b, d, published, exact in TABLE:
        res = memory.fisher_memory_curve(
            memory.FmcConfig(n=100, d=d, alpha=a, beta=b))
        row = f"(a={a}, b={b}, d={d})"
        rel_exact = abs(res.j_tot - exact) / exact
        worst_exact = max(worst_exact, rel_exact)
        if rel_exact > 1e-6:
            bad.append(f"{row}: {res.j_tot:.10g} vs exact {exact} "
                       f"({rel_exact:.1e} rel)")
        if (a, b, d) == PUBLISHED_ERRATUM:
            erratum = (f"erratum {row}: published {published}, "
                       f"exact {exact:.6g}, program {res.j_tot:.6g}")
            continue
        rel = (res.j_tot - published) / published
        if abs(rel) > 0.02:
            bad.append(f"{row}: {res.j_tot:.3f} vs published {published} "
                       f"({rel:+.2%})")
    dt = time.time() - t0
    detail = (f"total-memory table, 12/12 rows within 1e-6 of exact "
              f"(worst {worst_exact:.1e}), 11/11 within 2% of published; "
              f"{erratum}; {dt:.0f}s")
    if bad:
        detail = ("total-memory table out of tolerance: " + "; ".join(bad)
                  + f"; {dt:.0f}s")
    report(2, not bad and dt < 120.0, detail)


def test_criterion_3_prop1_bound_sweep():
    rng = np.random.default_rng(0)
    violations = 0
    for i in range(200):
        n = int(rng.integers(4, 13))
        a = float(rng.choice([0.9, 1.0, 1.1]))
        th = np.tril(rng.normal(size=(n, n)) * 0.5, -2)
        idx = np.arange(1, n)
        th[idx, idx - 1] = np.sqrt(a)
        if not memory.prop1_bound_check(th, slack=1e-9).holds:
            violations += 1
    report(3, violations == 0,
           f"memory lower bound: {violations} violations in 200 random "
           f"strictly-lower matrices (n<=12)")


def test_criterion_4_prop2_exact():
    t0 = time.time()
    ok = True
    for n in range(2, 9):
        rep = propcheck.verify_prop2(n, 30)
        ok = ok and rep.all_ok
    dt = time.time() - t0
    report(4, ok and dt < 30.0,
           f"exact polynomial checks (degree/constant/recurrence/ratio) "
           f"for n<=8, t<=30, {dt:.1f}s")


def test_criterion_5_gradient_correctness():
    n, d_in, d_out, t_len, b = 6, 4, 3, 5, 2
    eps = 1e-6
    worst = 0.0
    for trial in range(20):
        model = rnn.init_model(n, d_in, d_out, seed=trial)
        rng = np.random.default_rng(1000 + trial)
        model.b_hidden = rng.normal(size=n) * 0.1
        batch = rnn.SequenceBatch(
            inputs=rng.normal(size=(b, t_len, d_in)),
            targets=rng.integers(0, d_out, size=(b, t_len)),
        )
        grads = rnn.bptt(model, batch, rnn.forward(model, batch))
        p = model.schur

        def loss():
            return rnn.forward(model, batch).loss

        def sweep(arr, g):
            nonlocal worst
            flat, gf = arr.ravel(), g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                worst = max(worst, abs(num - gf[i]) / max(1.0, abs(num)))

        sweep(model.u_in, grads.u_in)
        sweep(model.b_hidden, grads.b_hidden)
        sweep(model.w_out, grads.w_out)
        sweep(model.b_out, grads.b_out)
        sweep(p.gamma, grads.schur.gamma)
        sweep(p.theta, grads.schur.theta)
        for i, j in zip(*np.where(t_lower_mask(n))):
            orig = p.t_lower[i, j]
            p.t_lower[i, j] = orig + eps
            lp = loss()
            p.t_lower[i, j] = orig - eps
            lm = loss()
            p.t_lower[i, j] = orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst,
                        abs(num - grads.schur.t_lower[i, j]) / max(1.0, abs(num)))
        for i, j in zip(*np.where(np.tril(np.ones((n, n), bool), -1))):
            orig = p.b_skew[i, j]
            p.b_skew[i, j] = orig + eps
            p.b_skew[j, i] = -(orig + eps)
            lp = loss()
            p.b_skew[i, j] = orig - eps
            p.b_skew[j, i] = -(orig - eps)
            lm = loss()
            p.b_skew[i, j] = orig
            p.b_skew[j, i] = -orig
            num = (lp - lm) / (2 * eps)
            worst = max(worst,
                        abs(num - grads.schur.b_skew[i, j]) / max(1.0, abs(num)))
    report(5, worst <= 1e-5,
           f"BPTT vs central differences on 20 tiny models, all 8 parameter "
           f"groups, max rel err {worst:.2e} (gate 1e-5)")


def test_criterion_6_manifold_preservation():
    spec = tasks.CopyTaskSpec(delay=50, batch_size=10, seed=0)
    model = rnn.init_model(128, tasks.COPY_D_IN, tasks.COPY_D_OUT, seed=0)
    cfg = TrainConfig(max_updates=2000, log_every=10)
    res = train_loop(model, tasks.copy_stream(spec), cfg)
    worst = max(r.orth_err for r in res.records)
    report(6, worst <= 1e-8,
           f"||P^T P - I||_F over a 2000-update copy run: worst logged "
           f"value {worst:.2e} (gate 1e-8, {len(res.records)} log points)")


def test_criterion_7_spectrum_separation():
    rng = np.random.default_rng(2)
    worst = 0.0
    for seed in range(50):
        n = 8
        g = np.random.default_rng(seed).normal(size=(n, n))
        b = np.tril(g, -1) - np.tril(g, -1).T
        t = np.where(t_lower_mask(n),
                     rng.normal(size=(n, n)) * rng.uniform(0.0, 2.0), 0.0)
        p = SchurParams(
            n=n, b_skew=b,
            gamma=rng.uniform(0.5, 1.5, size=4),
            theta=rng.uniform(0, 2 * np.pi, size=4),
            t_lower=t,
        )
        v, _ = assemble_v(p)
        w = np.sort_complex(np.linalg.eigvals(v))
        expected = np.sort_complex(np.array(
            [g_ * np.exp(s * 1j * t_) for g_, t_ in zip(p.gamma, p.theta)
             for s in (+1, -1)]))
        worst = max(worst, float(np.max(np.abs(w - expected))))
    report(7, worst <= 1e-6,
           f"eigenvalues of V equal gamma_i e^(+-i theta_i) independent of "
           f"T and P: max deviation {worst:.2e} over 50 random params")


def test_criterion_8_copy_task_learning():
    t0 = time.time()
    target = 0.5 * 10 * np.log(8) / 70
    passed = []
    details = []
    for seed in (0, 1, 2):
        spec = tasks.CopyTaskSpec(delay=50, batch_size=10, seed=seed)
        model = rnn.init_model(128, tasks.COPY_D_IN, tasks.COPY_D_OUT,
                               seed=seed)
        stream = tasks.copy_stream(spec)
        cfg_chunk = TrainConfig(max_updates=500, log_every=25)
        best, used = np.inf, 0
        hit = False
        while used < 10000 and not hit:
            res = train_loop(model, stream, cfg_chunk)
            used += cfg_chunk.max_updates
            best = min(best, min(r.task_loss for r in res.records))
            hit = best < target
        passed.append(hit)
        details.append(f"seed {seed}: best {best:.4f} in <= {used} updates")
    dt = time.time() - t0
    ok = sum(passed) >= 2 and dt < 1800.0
    report(8, ok,
           f"copy task T=50 n=128, loss < {target:.4f} on "
           f"{sum(passed)}/3 seeds ({'; '.join(details)}), {dt:.0f}s")


def test_criterion_9_transient_nilpotency_and_ordering():
    t0 = time.time()
    peaks = {}
    for a in (0.95, 1.0, 1.05):
        cfg = memory.FmcConfig(n=100, d=0.0, alpha=a, beta=0.0)
        stats = memory.transient_ensemble(cfg, n_samples=1000, t_max=110,
                                          rng_seed=0)
        zero_tail = (np.all(stats.norm_mean[100:] == 0.0)
                     and np.all(stats.unit_std_mean[100:] == 0.0))
        # all runs start at norm 1; compare the transient peak over t >= 1
        peaks[a] = float(np.max(stats.norm_mean[1:]))
        if not zero_tail:
            report(9, False, f"nonzero statistics past t=100 for alpha={a}")
    ordered = peaks[1.05] > peaks[1.00] > peaks[0.95]
    dt = time.time() - t0
    report(9, ordered and dt < 10.0,
           f"nilpotent cutoff at t=100 exact; peak mean norm "
           f"{peaks[1.05]:.3f} > {peaks[1.00]:.3f} > {peaks[0.95]:.3f}, "
           f"{dt:.1f}s")


def test_criterion_10_growth_classification():
    rng = np.random.default_rng(3)
    cases = []
    for i in range(10):  # orthogonal -> constant
        g = rng.normal(size=(8, 8))
        cases.append((expm(np.tril(g, -1) - np.tril(g, -1).T), "constant"))
    for i in range(10):  # super-unit spectral radius -> exponential
        g = rng.normal(size=(6, 6))
        q = expm(np.tril(g, -1) - np.tril(g, -1).T)
        cases.append((float(rng.uniform(1.03, 1.3)) * q, "exponential"))
    for i in range(10):  # unit-diagonal triangular -> polynomial
        n = int(rng.integers(4, 13))
        m = np.eye(n) + np.tril(rng.uniform(0.3, 1.0, size=(n, n)), -1)
        cases.append((m, "polynomial"))
    wrong = []
    for i, (m, expected) in enumerate(cases):
        got = propcheck.iterate_growth_probe(m)
        if got != expected:
            wrong.append(f"case {i}: {got} != {expected}")
    report(10, not wrong,
           f"growth classifier on the 30-case suite: "
           f"{30 - len(wrong)}/30 correct"
           + ("; " + "; ".join(wrong) if wrong else ""))
