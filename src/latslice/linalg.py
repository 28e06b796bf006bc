"""Exact integer and rational linear algebra helpers.

Everything here works on tuples of ints or Fractions; no floats, no
tolerances.  Matrices are lists/tuples of row tuples unless a function
says otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


def dot(u, v):
    """Inner product of two equal-length vectors (int or Fraction entries)."""
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def content(u: IntVec) -> int:
    """gcd of the entries, 0 for the zero vector."""
    return gcd(*u)


def primitive(u: IntVec) -> IntVec:
    """Divide out the content; sign-normalize so the first nonzero entry is positive."""
    g = gcd(*u)
    if g == 0:
        return tuple(u)
    if next(filter(None, u)) < 0:
        g = -g
    return tuple([a // g for a in u])


def frac_vec(u) -> FracVec:
    return tuple(Fraction(a) for a in u)


def scale_to_int(vectors: list[FracVec]) -> tuple[list[IntVec], int]:
    """Common positive integer multiplier turning every vector integral.

    Returns (scaled integer vectors, multiplier L) with scaled = L * original,
    for int or Fraction entries.
    """
    L = lcm(*(a.denominator for v in vectors for a in v))
    return [tuple(a.numerator * (L // a.denominator) for a in v) for v in vectors], L


def transpose(m):
    return [tuple(row[j] for row in m) for j in range(len(m[0]))] if m else []


def echelon_add(echelon, row) -> bool:
    """Reduce an integer row against echelon rows; keep it if it is independent.

    echelon is a list of (pivot column, primitive integer row), each row
    zero at the pivots before it.  The row is cleared at each pivot by
    cross-multiplication (Bareiss 1968); a nonzero remainder is divided by
    its content and appended.  True when the row was appended.
    """
    for col, prow in echelon:
        c = row[col]
        if c:
            p = prow[col]
            row = [p * x - c * y for x, y in zip(row, prow)]
    col = next((j for j, x in enumerate(row) if x), None)
    if col is None:
        return False
    g = content(row)
    echelon.append((col, [x // g for x in row]))
    return True


def int_rank(rows) -> int:
    """Rank of an integer (or rational) matrix via fraction-free elimination.

    Each row is cleared of denominators and passed to echelon_add; entries
    stay integers throughout, and the scan stops once the rank reaches the
    column count.
    """
    echelon = []
    for r in rows:
        den = lcm(*(a.denominator for a in r))
        echelon_add(echelon, [a.numerator * (den // a.denominator) for a in r])
        if len(echelon) == len(r):
            break
    return len(echelon)


def det_int(rows) -> int:
    """Determinant of a square integer matrix.

    Sizes 0 to 3 use the explicit formulas; larger ones run Bareiss
    elimination, which stays integral.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = None
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    swap = r
                    break
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def row_hnf_transform(rows) -> tuple[list[IntVec], list[IntVec], int]:
    """Row Hermite normal form with transform.

    Returns (H, U, rank) with U unimodular, U * rows = H, H in row echelon
    form with positive pivots and entries above each pivot reduced into
    [0, pivot).  Zero rows of H sit at the bottom.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def combine(dst, src, q):
        if q == 0:
            return
        hd, hs = h[dst], h[src]
        for j in range(n):
            hd[j] -= q * hs[j]
        ud, us = u[dst], u[src]
        for j in range(m):
            ud[j] -= q * us[j]

    pivot_row = 0
    for col in range(n):
        while True:
            nz = [r for r in range(pivot_row, m) if h[r][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(h[r][col]))
            base = nz[0]
            for r in nz[1:]:
                combine(r, base, h[r][col] // h[base][col])
        nz = [r for r in range(pivot_row, m) if h[r][col] != 0]
        if not nz:
            continue
        r0 = nz[0]
        h[pivot_row], h[r0] = h[r0], h[pivot_row]
        u[pivot_row], u[r0] = u[r0], u[pivot_row]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            combine(r, pivot_row, h[r][col] // p)
        pivot_row += 1
        if pivot_row == m:
            break
    return [tuple(r) for r in h], [tuple(r) for r in u], pivot_row


def row_hnf(rows) -> list[IntVec]:
    h, _, rank = row_hnf_transform(rows)
    return h[:rank]


def kernel_basis(rows) -> list[IntVec]:
    """Primitive basis of the integer kernel {x in Z^n : rows @ x = 0}.

    The returned vectors form a basis of the full kernel lattice (a direct
    summand of Z^n), so they are automatically saturated.
    """
    if not rows:
        raise ValueError("kernel of an empty matrix is ambiguous")
    cols = transpose(rows)  # n x m, rows indexed by original columns
    _, u, rank = row_hnf_transform(cols)
    return [tuple(r) for r in u[rank:]]


def identity(n) -> list[IntVec]:
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def hyperplane_through(points):
    """Primitive integer (a, b) with a . p = b for all points, or None.

    Points must be integer vectors; None when they are affinely dependent.
    The plane is the generalized cross product (homogeneous signed cofactor
    minors) of the d x (d+1) system rows (p_i, -1), which is the kernel
    generator when the points affinely span, made primitive with the first
    nonzero entry of a positive.  (``hull.hull_facets`` takes 2-D and 3-D
    planes in line, so its d >= 4 walk is the caller here.)
    """
    rows = [tuple(p) + (-1,) for p in points]
    n = len(rows[0])
    v = []
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows]
        v.append(sign * det_int(minor))
        sign = -sign
    if all(x == 0 for x in v):
        return None
    v = primitive(tuple(v))
    return v[:-1], v[-1]
