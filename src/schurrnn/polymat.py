"""Exact integer-coefficient polynomial matrices.

Polynomials in one variable are stored as tuples of Python ints
(coefficient of x^0 first, no trailing zeros), so all arithmetic is
arbitrary precision by construction.
"""

__all__ = [
    "poly_trim",
    "poly_add",
    "poly_mul",
    "poly_degree",
    "PolyMat",
]

ZERO = ()
ONE = (1,)
X = (0, 1)


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return poly_trim(out)


def poly_mul(a, b):
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return poly_trim(out)


def poly_degree(a):
    """Degree of the polynomial; -1 for the zero polynomial."""
    return len(a) - 1


class PolyMat:
    """Square matrix of integer-coefficient polynomials."""

    def __init__(self, entries):
        n = len(entries)
        if n < 1 or any(len(row) != n for row in entries):
            raise ValueError("PolyMat requires a nonempty square grid")
        self.n = n
        self.entries = [[poly_trim(p) for p in row] for row in entries]

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, PolyMat) and self.entries == other.entries

    def __matmul__(self, other):
        if not isinstance(other, PolyMat) or other.n != self.n:
            raise ValueError("size mismatch")
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ZERO
                for k in range(n):
                    p = self.entries[i][k]
                    q = other.entries[k][j]
                    if p and q:
                        acc = poly_add(acc, poly_mul(p, q))
                row.append(acc)
            out.append(row)
        return PolyMat(out)
