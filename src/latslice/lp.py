"""The support LP: a fraction-free two-phase simplex with Bland's rule.

One problem is solved:

    minimize sum(mu)  subject to  sum(mu_i * w_i) = target,  mu >= 0

which, applied to the polar vertices a / b, evaluates the support function
of an H-rep body: ``ConvexBody.support``, the bounding box that
``from_hrep`` takes from it and the flipped-row checks of
``ConvexBody.is_unconditional``.  (Gauges read the gauge table and need no
LP.)  Both phases minimize a sum of nonnegative variables, so neither is
unbounded, and phase 2's value is the sum of its basic values.  The general
simplex (arbitrary costs, a solution vector, an unbounded case) is kept in
``tests/oracle.py`` as the differential oracle.  Problems here are desk
scale (tens of columns), so a dense tableau is plenty.

The data are cleared of denominators by one common multiplier, and every
tableau entry is then an int over one common denominator ``det`` > 0, the
absolute basis determinant (fraction-free elimination: Edmonds 1967; Bareiss
1968).  Pivots divide exactly, reduced costs are the signs of
``c_j·det − Σ c_B·M[i][j]`` and the ratio test cross-multiplies, so Bland's
rule takes the pivots of the rational tableau and gives the same results.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import scale_to_int

__all__ = ["min_combination"]


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

    def optimize(self, cost):
        """Bland-rule simplex steps over the columns of a 0/1 cost until none improves."""
        tab, basis = self.tab, self.basis
        # reduced costs times det, c_j·det − Σ c_B·M[i][j], kept as a last row that pivots update
        z = [c * self.det for c in cost] + [0]
        for k, row in zip(basis, tab):
            if cost[k]:
                z = [zj - x for zj, x in zip(z, row)]
        tab.append(z)
        while True:
            entering = next((j for j in range(len(cost)) if tab[-1][j] < 0), -1)
            if entering < 0:
                tab.pop()
                return
            # a sum of nonnegative variables is bounded below, so some row has a > 0
            leave = -1
            for i, (k, row) in enumerate(zip(basis, tab)):
                a = row[entering]
                # least ratio b_i / a, cross-multiplied; ties go to the lower basic index
                if a > 0 and (
                    leave < 0 or (row[-1] * tab[leave][entering], k) < (tab[leave][-1] * a, basis[leave])
                ):
                    leave = i
            self.pivot(leave, entering)


def min_combination(vectors, target):
    """min sum(mu) with sum(mu_i * vectors_i) = target, mu >= 0; None if infeasible."""
    if not vectors:
        return None
    n = len(vectors)
    t = _Tableau([[v[j] for v in vectors] for j in range(len(target))], target, n)
    t.optimize([0] * n + [1] * len(t.tab))
    if any(row[-1] > 0 for k, row in zip(t.basis, t.tab) if k >= n):
        return None
    for i in [i for i, k in enumerate(t.basis) if k >= n]:
        pc = next((j for j in range(n) if t.tab[i][j] != 0), None)
        if pc is not None:
            t.pivot(i, pc)
    # rows still basic in an artificial are zero rows: drop them, and the artificial columns
    t.tab = [row[:n] + row[-1:] for k, row in zip(t.basis, t.tab) if k < n]
    t.basis = [k for k in t.basis if k < n]
    t.optimize([1] * n)
    return Fraction(sum(row[-1] for row in t.tab), t.det)
