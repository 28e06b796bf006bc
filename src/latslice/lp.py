"""Small exact LP solver: a fraction-free two-phase simplex with Bland's rule.

Only the equality-form problem the geometry needs is exposed:

    minimize sum(mu)  subject to  sum(mu_i * w_i) = target,  mu >= 0

which, applied to the polar vertices a / b, evaluates the support function
of an H-rep body: ``ConvexBody.support`` and the bounding box that
``from_hrep`` takes from it.  (Gauges read the gauge table and need no LP.)
Problems here are desk scale (tens of columns), so a dense tableau is
plenty.

The data are cleared of denominators by one common multiplier, and every
tableau entry is then an int over one common denominator ``det`` > 0, the
absolute basis determinant (fraction-free elimination: Edmonds 1967; Bareiss
1968).  Pivots divide exactly, reduced costs are the signs of
``c_j·det − Σ c_B·M[i][j]`` and the ratio test cross-multiplies, so Bland's
rule takes the pivots of the rational tableau and gives the same results.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LatsliceError
from .linalg import scale_to_int

__all__ = ["simplex_min", "min_combination", "LPError"]


class LPError(LatsliceError):
    """The LP is unbounded."""


class _Tableau:
    """Rows ``[A | I | b]`` of ints over the common denominator ``det``."""

    def __init__(self, rows, rhs, n_real):
        m = len(rows)
        (flat,), _ = scale_to_int([[x for row in rows for x in row] + list(rhs)])
        self.tab = []
        for i in range(m):
            a, b = flat[i * n_real : (i + 1) * n_real], flat[m * n_real + i]
            if b < 0:
                a, b = [-v for v in a], -b
            self.tab.append([*a, *(int(j == i) for j in range(m)), b])
        self.det = 1
        self.basis = [n_real + i for i in range(m)]

    def pivot(self, pr, pc):
        tab, det = self.tab, self.det
        prow = tab[pr]
        p = prow[pc]
        if p < 0:  # keep det > 0, so entries carry the signs of the rational tableau
            prow = tab[pr] = [-y for y in prow]
            p = -p
        for i, row in enumerate(tab):
            if i != pr:
                f = row[pc]
                tab[i] = [(x * p - f * y) // det for x, y in zip(row, prow)]
        self.det = p
        self.basis[pr] = pc

    def optimize(self, cost, columns):
        """Bland-rule simplex steps until no improving column remains."""
        tab, basis = self.tab, self.basis
        # reduced costs times det, c_j·det − Σ c_B·M[i][j], kept as a last row that pivots update
        z = [c * self.det for c in cost] + [0]
        for k, row in zip(basis, tab):
            if cost[k]:
                z = [zj - cost[k] * x for zj, x in zip(z, row)]
        tab.append(z)
        while True:
            entering = next((j for j in columns if tab[-1][j] < 0), -1)
            if entering < 0:
                tab.pop()
                return
            leave = -1
            for i, (k, row) in enumerate(zip(basis, tab)):
                a = row[entering]
                # least ratio b_i / a, cross-multiplied; ties go to the lower basic index
                if a > 0 and (
                    leave < 0 or (row[-1] * tab[leave][entering], k) < (tab[leave][-1] * a, basis[leave])
                ):
                    leave = i
            if leave < 0:
                raise LPError("unbounded LP")
            self.pivot(leave, entering)


def simplex_min(costs, rows, rhs):
    """Minimize costs . x subject to rows @ x = rhs, x >= 0.

    Returns (value, x) or None when infeasible.  Raises LPError on an
    unbounded problem (cannot happen for gauges of bounded bodies).
    """
    n = len(costs)
    t = _Tableau(rows, rhs, n)
    m = len(t.tab)
    t.optimize([0] * n + [1] * m, range(n + m))
    if any(row[-1] > 0 for k, row in zip(t.basis, t.tab) if k >= n):
        return None
    for i in [i for i, k in enumerate(t.basis) if k >= n]:
        pc = next((j for j in range(n) if t.tab[i][j] != 0), None)
        if pc is not None:
            t.pivot(i, pc)
    # rows still basic in an artificial are zero rows: drop them, and the artificial columns
    t.tab = [row[:n] + row[-1:] for k, row in zip(t.basis, t.tab) if k < n]
    t.basis = [k for k in t.basis if k < n]
    (cost,), L = scale_to_int([costs])
    t.optimize(cost, range(n))
    x = [Fraction(0)] * n
    for k, row in zip(t.basis, t.tab):
        x[k] = Fraction(row[-1], t.det)
    return Fraction(sum(cost[k] * row[-1] for k, row in zip(t.basis, t.tab)), L * t.det), tuple(x)


def min_combination(vectors, target):
    """min sum(mu) with sum(mu_i * vectors_i) = target, mu >= 0; None if infeasible."""
    if not vectors:
        return None
    rows = [[v[j] for v in vectors] for j in range(len(target))]
    res = simplex_min([1] * len(vectors), rows, target)
    return None if res is None else res[0]
