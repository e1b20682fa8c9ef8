"""Extended-precision total Fisher memory J_tot, an oracle for the tests.

For a lower-triangular Theta with spectral radius below 1, unit noise and
input vector u = e_1, the Fisher memory curve of :mod:`schurrnn.memory`
sums to

    J_tot = sum_k u^T (Theta^k)^T C^{-1} Theta^k u = tr(C^{-1} W),

where C and W solve the Stein equations

    C = Theta C Theta^T + I,      W = Theta W Theta^T + u u^T.

Because Theta is lower triangular, each equation is solved column by
column by forward substitution in O(n^3) operations, with no truncated
series.  The trace is then taken through a Cholesky factor of C.  All of
it runs in mpmath at a chosen number of decimal digits, so the result is
not limited by the conditioning of C (about 1e23 for the d = 0.2,
alpha = 1.05 rows), which float64 cannot resolve.  Matrix entries given
as floats are converted exactly, so the oracle evaluates the very matrix
that the float64 code builds.

The same Cholesky factor L gives each point of the curve exactly:
J(k) = |L^{-1} Theta^k u|^2, one forward substitution per k.

The module uses only mpmath and the standard library.  Its name does not
match ``test_*.py``, so pytest does not collect it.  Run it as a script to
print the criterion-2 constants of the (d, alpha, beta) family at n = 100,
or with ``--curves`` to write the exact curves that ``tests/test_memory.py``
checks every J(k) against (``tests/fmc_exact_curves.json``, the rows of
the bundled sweep that are not scaled shifts):

    python tests/jtot_oracle.py [--dps 40] [--curves]
"""

import argparse
import json
import time
from pathlib import Path

import mpmath
from mpmath import fdot, mpf


def family_theta(n, d, alpha, beta):
    """The (d, alpha, beta) family of :func:`schurrnn.memory.build_theta_family`:
    d on the diagonal, alpha on the first sub-diagonal, beta below that."""
    return [[beta] * max(i - 1, 0) + [alpha] * (i >= 1) + [d] for i in range(n)]


def _lower_rows(theta):
    """Rows of ``theta`` up to the diagonal, as exact mpf values."""
    rows = [list(map(mpf, row)) for row in theta]
    n = len(rows)
    if any(len(row) < i + 1 for i, row in enumerate(rows)):
        raise ValueError("theta must have n rows of at least i + 1 entries")
    if any(x != 0 for i, row in enumerate(rows) for x in row[i + 1:n]):
        raise ValueError("theta must be lower triangular")
    return [row[: i + 1] for i, row in enumerate(rows)]


def stein_lower(th, q):
    """Solve X = Theta X Theta^T + Q for symmetric Q.

    ``th`` holds the rows of a lower-triangular Theta up to the diagonal,
    ``q(i, j)`` gives the entries of Q.  Column j of Y = X Theta^T is
    sum_{p<j} X[:, p] Theta[j, p] + Theta[j, j] X[:, j], and row i of
    X[:, j] = Theta Y[:, j] + Q[:, j] then involves X[i, j] only through
    Theta[i, i] Theta[j, j] X[i, j], so rows i >= j follow by forward
    substitution (rows i < j are known by symmetry).
    """
    n = len(th)
    x = [[mpf(0)] * n for _ in range(n)]
    for j in range(n):
        tj = th[j]
        y = [fdot(x[p][:j], tj[:j]) for p in range(n)]
        for p in range(j):
            y[p] += tj[j] * x[p][j]
        for i in range(j, n):
            ti = th[i]
            xij = (fdot(ti[:i], y[:i]) + ti[i] * y[i] + q(i, j)) / (1 - tj[j] * ti[i])
            x[i][j] = x[j][i] = xij
            y[i] += tj[j] * xij
    return x


def cholesky(c):
    """Rows, up to the diagonal, of the lower-triangular L with C = L L^T,
    for symmetric positive definite C."""
    n = len(c)
    low = [[mpf(0)] * (i + 1) for i in range(n)]
    for j in range(n):
        low[j][j] = mpmath.sqrt(c[j][j] - fdot(low[j][:j], low[j][:j]))
        for i in range(j + 1, n):
            low[i][j] = (c[i][j] - fdot(low[i][:j], low[j][:j])) / low[j][j]
    return low


def trace_solve(c, w):
    """tr(C^{-1} W) for symmetric positive definite C: with C = L L^T and
    v_k the k-th row of L^{-1}, the trace is sum_k v_k^T W v_k."""
    n = len(c)
    low = cholesky(c)
    inv = [[mpf(0)] * (i + 1) for i in range(n)]
    for k in range(n):
        inv[k][k] = 1 / low[k][k]
        for i in range(k + 1, n):
            inv[i][k] = -fdot(low[i][k:i], [inv[p][k] for p in range(k, i)]) / low[i][i]
    total = mpf(0)
    for v in inv:
        m = len(v)
        total += fdot(v, [fdot(w[i][:m], v) for i in range(m)])
    return total


def j_tot(theta, dps=40):
    """J_tot = tr(C^{-1} W) of a lower-triangular ``theta`` (nested rows of
    numbers or strings), computed at ``dps`` decimal digits."""
    with mpmath.workdps(dps):
        th = _lower_rows(theta)
        c = stein_lower(th, lambda i, j: 1 if i == j else 0)
        w = stein_lower(th, lambda i, j: 1 if i == j == 0 else 0)
        return +trace_solve(c, w)


def family_j_tot(n, d, alpha, beta, dps=40):
    """J_tot of the (d, alpha, beta) family at size ``n``."""
    return j_tot(family_theta(n, d, alpha, beta), dps=dps)


def j_curve(theta, dps=40, cutoff=1e-14):
    """The Fisher memory curve J(k) = |L^{-1} Theta^k e_1|^2 of a
    lower-triangular ``theta``, with L the Cholesky factor of C, up to and
    including the first k >= n with J(k) < ``cutoff``: the end that
    :func:`schurrnn.memory.fmc_from_theta` gives the curve with
    ``k_max = 0``.  Each J(k) takes one forward substitution at ``dps``
    digits."""
    with mpmath.workdps(dps):
        th = _lower_rows(theta)
        n = len(th)
        low = cholesky(stein_lower(th, lambda i, j: 1 if i == j else 0))
        col = [mpf(1)] + [mpf(0)] * (n - 1)
        curve = []
        while True:
            y = []
            for i in range(n):
                y.append((col[i] - fdot(low[i][:i], y)) / low[i][i])
            curve.append(+fdot(y, y))
            if len(curve) > n and curve[-1] < cutoff:
                return curve
            col = [fdot(th[i], col[: i + 1]) for i in range(n)]


HERE = Path(__file__).resolve().parent
SWEEP = HERE.parent / "src" / "schurrnn" / "data" / "fmc_sweep_sm.json"
CURVES = HERE / "fmc_exact_curves.json"


def write_curves(dps=40):
    """Write the exact curve of every row of the bundled sweep that is not
    a scaled shift (d = beta = 0 has a closed form) to ``CURVES``, as
    JSON: each row's (n, d, alpha, beta) and its J(k), rounded to float."""
    rows = []
    for row in json.loads(SWEEP.read_text())["sweep"]:
        if row["d"] == row["beta"] == 0:
            continue
        t0 = time.time()
        curve = j_curve(family_theta(row["n"], row["d"], row["alpha"],
                                     row["beta"]), dps=dps)
        rows.append({**row, "j_curve": [float(j) for j in curve]})
        print(f"{row}: {len(curve)} points ({time.time() - t0:.1f}s)",
              flush=True)
    CURVES.write_text(json.dumps({"dps": dps, "rows": rows}, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dps", type=int, default=40)
    ap.add_argument("--curves", action="store_true",
                    help=f"write the exact curves to {CURVES.name} instead")
    args = ap.parse_args()
    if args.curves:
        write_curves(dps=args.dps)
        return
    for d in (0.0, 0.2):
        for b in (0.0, 0.005):
            for a in (0.95, 1.0, 1.05):
                t0 = time.time()
                val = family_j_tot(100, d, a, b, dps=args.dps)
                print(f"(a={a}, b={b}, d={d}): J_tot = "
                      f"{mpmath.nstr(val, 15)}  ({time.time() - t0:.1f}s)",
                      flush=True)


if __name__ == "__main__":
    main()
