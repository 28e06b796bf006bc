"""Small exact LP solver (two-phase simplex, Bland's rule, Fraction pivots).

Only the equality-form problem the geometry needs is exposed:

    minimize sum(mu)  subject to  sum(mu_i * w_i) = target,  mu >= 0

which, applied to the polar vertices a / b, evaluates the support function
of an H-rep body: ``ConvexBody.support`` and the bounding box that
``from_hrep`` takes from it.  (Gauges read facet rows and need no LP.)
Problems here are desk scale (tens of columns), so a dense tableau is
plenty.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["simplex_min", "min_combination", "LPError"]


class LPError(Exception):
    pass


class _Tableau:
    def __init__(self, rows, rhs, n_real):
        m = len(rows)
        self.m = m
        self.n_real = n_real
        self.total = n_real + m
        self.tab = []
        self.b = []
        for i in range(m):
            row = [Fraction(v) for v in rows[i]]
            r = Fraction(rhs[i])
            if r < 0:
                row = [-v for v in row]
                r = -r
            self.tab.append(row + [Fraction(1 if j == i else 0) for j in range(m)])
            self.b.append(r)
        self.basis = [n_real + i for i in range(m)]

    def pivot(self, pr, pc):
        prow = self.tab[pr]
        inv = 1 / prow[pc]
        for j in range(self.total):
            prow[j] *= inv
        self.b[pr] *= inv
        for i in range(self.m):
            if i != pr and self.tab[i][pc] != 0:
                f = self.tab[i][pc]
                trow = self.tab[i]
                for j in range(self.total):
                    trow[j] -= f * prow[j]
                self.b[i] -= f * self.b[pr]
        self.basis[pr] = pc

    def optimize(self, cost, columns):
        """Bland-rule simplex steps until no improving column remains."""
        tab, b, basis = self.tab, self.b, self.basis
        while True:
            lam = [cost[basis[i]] for i in range(self.m)]
            entering = -1
            for j in columns:
                if j in basis:
                    continue
                red = cost[j] - sum(lam[i] * tab[i][j] for i in range(self.m))
                if red < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leave = -1
            best = None
            for i in range(self.m):
                if tab[i][entering] > 0:
                    ratio = b[i] / tab[i][entering]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise LPError("unbounded LP")
            self.pivot(leave, entering)

    def value(self, cost):
        return sum(cost[self.basis[i]] * self.b[i] for i in range(self.m))

    def drop_redundant_rows(self):
        """Remove rows still basic in an artificial (necessarily zero rows)."""
        live = [i for i in range(self.m) if self.basis[i] < self.n_real]
        if len(live) == self.m:
            return
        self.tab = [self.tab[i] for i in live]
        self.b = [self.b[i] for i in live]
        self.basis = [self.basis[i] for i in live]
        self.m = len(live)


def simplex_min(costs, rows, rhs):
    """Minimize costs . x subject to rows @ x = rhs, x >= 0.

    Returns (value, x) or None when infeasible.  Raises LPError on an
    unbounded problem (cannot happen for gauges of bounded bodies).
    """
    n = len(costs)
    t = _Tableau(rows, rhs, n)
    phase1 = [Fraction(0)] * n + [Fraction(1)] * t.m
    t.optimize(phase1, range(t.total))
    if t.value(phase1) > 0:
        return None
    for i in range(t.m):
        if t.basis[i] >= n:
            pc = next((j for j in range(n) if t.tab[i][j] != 0), None)
            if pc is not None:
                t.pivot(i, pc)
    t.drop_redundant_rows()
    phase2 = [Fraction(c) for c in costs] + [Fraction(0)] * len(rows)
    t.optimize(phase2, range(n))
    x = [Fraction(0)] * n
    for i in range(t.m):
        if t.basis[i] < n:
            x[t.basis[i]] = t.b[i]
    return t.value(phase2), tuple(x)


def min_combination(vectors, target):
    """min sum(mu) with sum(mu_i * vectors_i) = target, mu >= 0; None if infeasible."""
    if not vectors:
        return None
    d = len(target)
    rows = [[v[j] for v in vectors] for j in range(d)]
    costs = [Fraction(1)] * len(vectors)
    res = simplex_min(costs, rows, target)
    if res is None:
        return None
    return res[0]
