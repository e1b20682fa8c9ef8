"""Dense real linear-algebra kernels shared by the rest of the package.

Everything operates on plain float64 numpy arrays. Functions are pure and
hold no state, so they are safe to call from multiple threads.
"""

import numpy as np

__all__ = [
    "expm",
    "expm_frechet",
    "gram_schmidt_triangular",
    "singular_values",
    "eigenvalues_small",
]


def _as_matrix(a, name="matrix"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


# Pade-13 coefficients for the matrix exponential (scaling and squaring).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(b):
    """Matrix exponential via scaling-and-squaring with a degree-13 Pade
    approximant.  The squaring count is chosen from the 1-norm of the input.
    """
    b = _as_matrix(b, "b")
    n, m = b.shape
    if n != m:
        raise ValueError(f"expm requires a square matrix, got {b.shape}")
    if n == 0:
        return np.zeros((0, 0))

    norm = np.linalg.norm(b, 1)
    s = 0
    if norm > _THETA13:
        s = int(np.ceil(np.log2(norm / _THETA13)))
    a = b / (2.0 ** s)

    c = _PADE13
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
        + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * ident
    )
    v = (
        a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
        + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def expm_frechet(b, e):
    """Exponential of ``b`` together with the directional derivative of the
    exponential map at ``b`` in direction ``e``.

    Uses the block identity  exp([[b, e], [0, b]]) = [[exp(b), L(b, e)],
    [0, exp(b)]],  i.e. a single exponential of doubled size.
    """
    b = _as_matrix(b, "b")
    e = _as_matrix(e, "e")
    if b.shape != e.shape or b.shape[0] != b.shape[1]:
        raise ValueError(f"dimension mismatch: b {b.shape}, e {e.shape}")
    n = b.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = b
    aug[:n, n:] = e
    aug[n:, n:] = b
    big = expm(aug)
    return big[:n, :n], big[:n, n:]


def gram_schmidt_triangular(theta, rank_tol=1e-12):
    """Orthogonalize the columns of ``theta``.

    Returns ``(q, t_gram)`` with ``theta[:, :m] = q @ t_gram`` where ``m`` is
    the number of leading nonzero columns.  ``t_gram`` is upper triangular
    with unit diagonal (the column norms are folded into ``q``, whose columns
    stay mutually orthogonal).  Structurally-zero trailing columns, as in a
    strictly lower-triangular matrix, are dropped.

    Raises ``numpy.linalg.LinAlgError`` when the leading columns are
    rank deficient.
    """
    theta = _as_matrix(theta, "theta")
    n, m_all = theta.shape
    if n != m_all:
        raise ValueError(f"gram_schmidt_triangular requires square input, got {theta.shape}")
    nonzero = np.any(theta != 0.0, axis=0)
    m = int(np.max(np.nonzero(nonzero)[0])) + 1 if nonzero.any() else 0
    if m == 0:
        raise np.linalg.LinAlgError("all columns are zero")
    cols = theta[:, :m]
    q, r = np.linalg.qr(cols)
    d = np.diag(r).copy()
    scale = np.linalg.norm(cols, axis=0)
    if np.any(np.abs(d) <= rank_tol * np.maximum(scale, 1.0)):
        raise np.linalg.LinAlgError("leading columns are rank deficient")
    t_gram = r / d[:, None]
    q = q * d[None, :]
    return q, t_gram


def singular_values(m):
    """Singular values in descending order, via the symmetric eigenvalue
    problem on m^T m.  Intended for small matrices (n <= 512)."""
    m = _as_matrix(m, "m")
    if m.size == 0:
        raise ValueError("singular_values requires a nonempty matrix")
    gram = m.T @ m
    w = np.linalg.eigvalsh(gram)
    w = np.clip(w, 0.0, None)
    return np.sqrt(w)[::-1]


def eigenvalues_small(m, max_n=64):
    """Eigenvalues of a small square matrix, as a complex vector.

    This is a verification oracle for spectra of assembled connectivity
    matrices, not a runtime dependency; factorizing large non-normal
    matrices is deliberately out of scope.
    """
    m = _as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigenvalues_small requires a square matrix, got {m.shape}")
    if m.shape[0] > max_n:
        raise ValueError(f"eigenvalues_small is capped at n={max_n}")
    return np.linalg.eigvals(m)
