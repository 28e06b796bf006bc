"""Differential oracles: the recursive code that faster kernels replaced.

Test-only.  Enumeration: ``_scan``, ``_count_scan``, the ``_body_system`` /
``_lattice_system`` row systems and ``_polygon_lattice_total`` are kept as they
were in the library, so the kernel in ``latslice.lattices`` can be compared
with them point for point; ``_polygon_rows`` builds the polygon's edge rows
for that total as ``verify`` did before it read them from the 2D hull.
``enumerate_points`` and ``count_points`` here are the old public entry
points without the ``by_normal`` option.  ``run_count_points`` and
``count_runs`` are the run-summing counts that ``latslice.lattices`` used
before it closed each 2-D section in closed form: they sum the last-axis run
lengths of ``lattices._runs`` (``2·Σ(hi − lo + 1) − 1`` over the symmetric
half walk, the plain sum over the full walk).  ``scan_runs`` is the listing
closer as it was before it read the counting envelopes: it bounds the last
axis by scanning every row at every penultimate-axis column.
``fraction_system`` is ``lattices._system`` as it was before its sublattice
box went integral: it bounds each ``|y_j|`` through ``solve_rational``
columns of the inverse Gram matrix.  ``solve_rational`` is the Fraction
Gauss–Jordan solve that ``latslice.linalg`` kept until the integer map
``Lattice.coordinates`` replaced its last caller, and ``lattice_contains``
is ``Lattice.contains`` as it was then: it solves the Gram system
B^T B y = B^T x with it.  ``gram_det`` is the ``latslice.linalg`` helper
that gave ``Lattice.det_gram`` before it read g off that map.

Volumes: ``hull_volume`` (the fan that re-hulls every facet projection),
``hull_vertex_indices``, ``rational_hull_volume`` and ``polar_volume`` (the
fan over the primal vertices that re-hulls each vertex's polar facet) are
kept as they were, so ``latslice.hull.face_volume`` and the cached body
volumes can be compared with them.  ``_volume_hrep`` (with ``_dedupe_rows``
and ``_interval_length``) is the facet-substitution recursion that gave an
H-rep body its volume before the body read it from its dual's hull.

Subspaces: ``from_basis`` (with ``saturate_span``) is
``LatticeSubspace.from_basis`` as it was before every constructor went
through ``LatticeSubspace.from_normals``: it checks independence with
``int_rank``, saturates the span with two kernels, takes a third kernel for
a hyperplane's normal and puts the saturated basis in row Hermite form.

Max slice: ``max_slice`` builds one ``LatticeSubspace`` per m-subset with
this module's ``from_basis`` (``_subspaces_from_vectors``) and rescans every point of K for every
candidate (``_count_in_subspace``), as the library did before it keyed spans
by their Plücker vectors.  ``_spans`` (with ``_span_key``) keys every
m-subset by the primitive vector of its m×m minors, each a ``det_int``, as
``latslice.slicing._spans`` did before it walked prefixes and added one
Laplace step per vector.  ``walk_spans`` (with ``_extend``) is that prefix
walk as it was before it skipped the m-subsets lying in a recorded span: it
keys every rank-m m-subset.  ``skip_spans`` (with ``_skip_extend``) is
the skip walk as ``latslice.slicing._spans`` ran it before it kept each
span's weight in the walk and walked m = 2 as one flat pair loop: it
returns each span's first subset and member set, and runs at every m
through the prefix recursion.

Linear algebra: ``int_rank`` (Fraction elimination) and ``det_int``
(Bareiss at every size) are kept as they were, so the fraction-free rank
and the closed-form small minors in ``latslice.linalg`` can be compared with
them; the old hull and max-slice code here uses this ``int_rank``.
``content`` and ``primitive`` are the gcd loop that ``latslice.linalg``
ran before it called ``math.gcd`` on all entries at once.
``hyperplane_through`` takes d + 1 signed cofactor minors at every d, as
``latslice.linalg`` did before it gave planes in R^2 and R^3 closed forms;
here its minors run through this module's ``det_int`` and ``primitive``.
``hull_facets`` is the hull as ``latslice.hull`` ran it before its 3-D
planes and side tests went in line: one ``hyperplane_through`` (this
module's) and one ``dot`` side test per d-subset.  It still returns one
all-point facet for a flat set at d >= 3, so compare on spanning sets.
Its 2-D case ``_facets_2d`` is the library's as it was before it read
each facet off a counterclockwise edge: it takes the edge's
``hyperplane_through`` and turns it outward by probing the next vertex.
``polar_box`` is the polar's bounding box as ``from_hrep`` finds it, one
support LP per axis, against which ``ConvexBody.polar``'s facet box is checked.

LP: ``_Tableau``, ``simplex_min`` and ``min_combination`` (with ``LPError``)
are the two-phase Bland-rule simplex that ``latslice.lp`` ran in ``Fraction``
pivots before it went fraction-free.  It is the general solver (arbitrary
costs, a solution vector, an unbounded case); ``latslice.lp`` keeps only the
support problem, unit costs and its optimal value, and is compared with this
``min_combination``.  ``polar_box`` and ``hrep_box`` solve their support LPs
with it.

Gauges: ``facet_gauge``, ``gauge`` and ``contains`` score a point row by row
in ``Fraction`` arithmetic over ``ConvexBody.facet_rows``, and
``polar_facet_box`` divides each facet entry by its offset, as the body did
before it read one integer gauge table.  ``successive_minima`` (with
``_witness_key``) sorts the points by those ``Fraction`` gauges, as
``latslice.minima`` did before it read the integer numerators.

Integer paths: ``normalize_row`` scales an H-rep row in ``Fraction``
arithmetic, as ``latslice.bodies`` did before integral rows stayed in ints;
``translate_groups`` labels K's points one at a time, as ``slice_profile``
did before it counted all labels in one pass; ``dim_of_lattice_span`` ranks
a copy of the nonzero points, as ``latslice.lattices`` did before it ranked
the cached listing in place.

Unconditionality: ``is_unconditional`` flips an H-rep body's rows and a
V-rep body's generators, testing a flipped generator with ``contains``, as
``ConvexBody.is_unconditional`` did before it read the facet rows in both
representations and checked each flipped row that is not itself a row by
the support function.  Its H-rep branch reads the rows as given, so it is
right only when no row is redundant; compare on the polar (a V-rep body) or
on irredundant rows.  ``random_unconditional_body`` is
``latslice.verify``'s generator as it was before its intersection shape
emitted only binding rows: the same draws give the same body, with every
box and weighted row kept, binding or not.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, gcd
from operator import mul

from latslice import bodies, hull, lattices
from latslice.errors import (
    DegenerateBodyError,
    DimensionMismatchError,
    SubspaceError,
    UnboundedBodyError,
)
from latslice.hull import SUBSET_GUARD, Facet, HullSizeError, graham_hull
from latslice.lattices import Lattice, LatticeSubspace, _bound, _tables, _walk
from latslice.minima import SuccessiveMinima
from latslice.linalg import (
    dot,
    frac_vec,
    identity,
    is_zero,
    kernel_basis,
    row_hnf,
    scale_to_int,
    vec_neg,
    vec_sub,
)
from latslice.slicing import (
    CERTIFY_LIMIT,
    MaxSliceResult,
    _expansion,
    _polar_basis,
    _primitive_vectors,
)


def int_rank(rows) -> int:
    """Rank of an integer (or rational) matrix via fraction-free elimination."""
    work = [list(map(Fraction, r)) for r in rows if not is_zero(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(work):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        for r in range(rank + 1, len(work)):
            if work[r][col] != 0:
                f = work[r][col] / prow[col]
                for j in range(col, ncols):
                    work[r][j] -= f * prow[j]
        rank += 1
        col += 1
    return rank


def content(u) -> int:
    """gcd of the entries, 0 for the zero vector."""
    g = 0
    for a in u:
        g = gcd(g, abs(a))
    return g


def primitive(u):
    """Divide out the content; sign-normalize so the first nonzero entry is positive."""
    g = content(u)
    if g == 0:
        return tuple(u)
    v = tuple(a // g for a in u)
    for a in v:
        if a != 0:
            return v if a > 0 else vec_neg(v)
    return v


def det_int(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, stays integral)."""
    n = len(rows)
    if n == 0:
        return 1
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


def hyperplane_through(points):
    """Primitive integer (a, b) with a . p = b for all points, or None.

    Points must be integer vectors; None when they are affinely dependent.
    Computed as the generalized cross product (signed cofactor minors) of
    the d x (d+1) system rows (p_i, -1), which is the kernel generator
    when the points affinely span.
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


def _facets_2d(pts):
    hull = graham_hull(pts)
    if len(hull) < 3:
        return []
    facets = []
    for i in range(len(hull)):
        p, q = hull[i], hull[(i + 1) % len(hull)]
        hp = hyperplane_through([p, q])
        a, b = hp
        if dot(a, hull[(i + 2) % len(hull)]) > b:
            a, b = tuple(-x for x in a), -b
        active = tuple(k for k, pt in enumerate(pts) if dot(a, pt) == b)
        facets.append(Facet(a, b, active))
    return facets


def hull_facets(pts, dim):
    """All facets of conv(pts) for an integer point set spanning dimension dim.

    Input not affinely spanning R^dim yields [] (no full-dimensional facets).
    More than SUBSET_GUARD d-subsets raise HullSizeError.
    """
    pts = [tuple(p) for p in pts]
    if dim == 1:
        vals = [p[0] for p in pts]
        if len(set(vals)) < 2:
            return []
        hi, lo = max(vals), min(vals)
        return [
            Facet((1,), hi, tuple(i for i, v in enumerate(vals) if v == hi)),
            Facet((-1,), -lo, tuple(i for i, v in enumerate(vals) if v == lo)),
        ]
    if dim == 2:
        return _facets_2d(pts)
    n = len(pts)
    total = 1
    for i in range(dim):
        total = total * (n - i) // (i + 1)
    if total > SUBSET_GUARD:
        raise HullSizeError(f"facet enumeration over {total} subsets exceeds guard {SUBSET_GUARD}")
    facet_bits = [0] * n
    facets = []
    for comb in itertools.combinations(range(n), dim):
        mask = facet_bits[comb[0]]
        for i in comb[1:]:
            mask &= facet_bits[i]
            if not mask:
                break
        if mask:
            continue
        hp = hyperplane_through([pts[i] for i in comb])
        if hp is None:
            continue
        a, b = hp
        pos = neg = False
        for p in pts:
            s = dot(a, p) - b
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            if pos and neg:
                break
        if pos and neg:
            continue
        if pos:
            a, b = tuple(-x for x in a), -b
        active = tuple(i for i, p in enumerate(pts) if dot(a, p) == b)
        fid = 1 << len(facets)
        for i in active:
            facet_bits[i] |= fid
        facets.append(Facet(a, b, active))
    return facets


def polar_box(body):
    """Bounding box of a V-rep body's polar: one support LP per axis."""
    return hrep_box(body.polar())


def hrep_box(body):
    """Bounding box of an H-rep body: one support LP per axis over conv(a / b)."""
    d = body.dim
    polar_verts = [tuple(Fraction(ai) / b for ai in a) for a, b in body.rows]
    return tuple(
        min_combination(polar_verts, tuple(Fraction(int(k == j)) for k in range(d)))
        for j in range(d)
    )


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


def _floor_div(p, q):
    return p // q


def _ceil_div(p, q):
    return -((-p) // q)


def _prepare(rows, box):
    """Precompute suffix minima of each row over the box for pruning."""
    n = len(box)
    pre = []
    for a, b in rows:
        minrem = [0] * (n + 1)
        for t in range(n - 1, -1, -1):
            lo, hi = box[t]
            minrem[t] = minrem[t + 1] + min(a[t] * lo, a[t] * hi)
        pre.append((a, b, minrem))
    return pre


def _scan(rows, box, collect, prefix_cb=None):
    """Depth-first scan; calls collect(point) per solution in lex order."""
    n = len(box)
    if n == 0:
        return
    pre = _prepare(rows, box)

    def descend(t, residuals, prefix):
        lo, hi = box[t]
        for (a, b, minrem), res in zip(pre, residuals):
            at = a[t]
            rem = res - minrem[t + 1]
            if at > 0:
                hi = min(hi, _floor_div(rem, at))
            elif at < 0:
                lo = max(lo, _ceil_div(rem, at))
            elif res < minrem[t + 1]:
                return
        if lo > hi:
            return
        if t == n - 1:
            for x in range(lo, hi + 1):
                collect(prefix + (x,))
            return
        for x in range(lo, hi + 1):
            nxt = [res - pr[0][t] * x for pr, res in zip(pre, residuals)]
            descend(t + 1, nxt, prefix + (x,))

    descend(0, [b for _, b, _ in pre], ())


def _count_scan(rows, box) -> int:
    """Like _scan but closes the last axis with an exact range count."""
    n = len(box)
    if n == 0:
        return 0
    pre = _prepare(rows, box)
    total = 0

    def descend(t, residuals):
        nonlocal total
        lo, hi = box[t]
        for (a, b, minrem), res in zip(pre, residuals):
            at = a[t]
            rem = res - minrem[t + 1]
            if at > 0:
                hi = min(hi, _floor_div(rem, at))
            elif at < 0:
                lo = max(lo, _ceil_div(rem, at))
            elif res < minrem[t + 1]:
                return
        if lo > hi:
            return
        if t == n - 1:
            total += hi - lo + 1
            return
        for x in range(lo, hi + 1):
            nxt = [res - pr[0][t] * x for pr, res in zip(pre, residuals)]
            descend(t + 1, nxt)

    descend(0, [b for _, b, _ in pre])
    return total


def _int_box(radii):
    box = []
    for r in radii:
        f = Fraction(r)
        hi = f.numerator // f.denominator
        box.append((-hi, hi))
    return box


def _is_standard(lattice):
    return lattice.rank == lattice.dim and lattice.basis == tuple(identity(lattice.dim))


def _body_system(body, scale=Fraction(1)):
    rows = []
    for a, b in body.facet_rows:
        q = Fraction(b) * scale
        rows.append((tuple(x * q.denominator for x in a), q.numerator))
    return rows, _int_box(Fraction(r) * scale for r in body.bounding_box)


def _lattice_system(body, lattice, scale=Fraction(1)):
    """Rows and box in lattice coordinates y with points B y."""
    rows = []
    for a, b in body.facet_rows:
        arow = tuple(dot(a, col) for col in lattice.basis)
        q = Fraction(b) * scale
        rows.append((tuple(x * q.denominator for x in arow), q.numerator))
    # |y_j| bound via the exact pseudoinverse: y = (B^T B)^-1 B^T x
    k = lattice.rank
    gram = [
        tuple(dot(lattice.basis[i], lattice.basis[j]) for j in range(k))
        for i in range(k)
    ]
    bt = [tuple(col) for col in lattice.basis]  # rows of B^T
    box = []
    for j in range(k):
        rhs = tuple(1 if i == j else 0 for i in range(k))
        col = solve_rational(gram, rhs)  # column j of (B^T B)^-1
        # row j of the pseudoinverse: sum_i col_i * (B^T)_i
        prow = [
            sum(col[i] * bt[i][t] for i in range(k)) for t in range(lattice.dim)
        ]
        bound = sum(
            abs(c) * Fraction(r) * scale for c, r in zip(prow, body.bounding_box)
        )
        hi = bound.numerator // bound.denominator
        box.append((-hi, hi))
    return rows, box


def enumerate_points(body, lattice=None, scale=Fraction(1)):
    """All lattice points inside scale*body, ascending lexicographic order."""
    scale = Fraction(scale)
    if lattice is None or _is_standard(lattice):
        rows, box = _body_system(body, scale)
        out = []
        _scan(rows, box, out.append)
        return out
    rows, box = _lattice_system(body, lattice, scale)
    out = []
    _scan(rows, box, out.append)
    return sorted(lattice.to_ambient(y) for y in out)


def count_points(body, lattice=None, scale=Fraction(1)) -> int:
    """Cardinality of scale*body ∩ lattice."""
    scale = Fraction(scale)
    if lattice is None or _is_standard(lattice):
        return _count_scan(*_body_system(body, scale))
    return _count_scan(*_lattice_system(body, lattice, scale))


def run_count_points(body, lattice=None, scale=Fraction(1)) -> int:
    """Cardinality of scale*body ∩ lattice from the half walk's run lengths."""
    lat = None if lattices._standard(body, lattice) else lattice
    runs = lattices._runs(*lattices._system(body, lat, scale), half=True)
    return 2 * sum(hi - lo + 1 for _, lo, hi in runs) - 1


def count_runs(rows, box) -> int:
    """Number of integer solutions of rows inside box, with no point listed."""
    return sum(hi - lo + 1 for _, lo, hi in lattices._runs(rows, box))


def scan_runs(rows, box, half=False):
    """Yield the integer solutions of rows inside box as last-axis runs.

    A run (prefix, lo, hi) stands for the points prefix + (x,) with
    lo <= x <= hi, and runs come in ascending lexicographic order.  This is
    the listing closer of ``_walk``: each walked prefix's penultimate axis is
    looped over, bounding the last axis at every point, so no leaf is pushed.

    half=True is for origin-symmetric systems only: along the all-zero
    prefix each axis's lo is clipped at 0, so only the runs whose points
    are >=lex 0 come out, and the first is the zero run ((0, ..., 0), 0, hi0).
    """
    n = len(box)
    if n == 0:
        return
    coef, tail = _tables(rows, box)
    residuals = [b for _, b in rows]
    if n == 1:
        lo, hi = box[0]
        lo, hi = _bound(0 if half and lo < 0 else lo, hi, coef[0], tail[0], residuals)
        if lo <= hi:
            yield (), lo, hi
        return
    col, low, last = coef[n - 2], tail[n - 2], coef[n - 1]
    blo, bhi = box[n - 1]
    for prefix, residuals, zero in _walk(box, coef, tail, residuals, half):
        lo, hi = box[n - 2]
        lo, hi = _bound(0 if zero and lo < 0 else lo, hi, col, low, residuals)
        for x in range(lo, hi + 1):
            l, h = blo, bhi
            if zero and x == 0 and l < 0:
                l = 0
            for at, an, res in zip(col, last, residuals):
                rem = res - at * x
                if an > 0:
                    q = rem // an
                    if q < h:
                        h = q
                elif an < 0:
                    q = -(-rem // an)
                    if q > l:
                        l = q
                elif rem < 0:
                    h = l - 1
                    break
            if l <= h:
                yield prefix + (x,), l, h


def solve_rational(rows, rhs):
    """Solve the square system rows * x = rhs exactly; None if singular."""
    n = len(rows)
    a = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        inv = 1 / prow[col]
        for j in range(col, n + 1):
            prow[j] *= inv
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                for j in range(col, n + 1):
                    a[r][j] -= f * prow[j]
    return tuple(a[i][n] for i in range(n))


def gram_det(cols) -> int:
    """det(B^T B) for integer column vectors B (squared cell volume, exact)."""
    k = len(cols)
    g = [[dot(cols[i], cols[j]) for j in range(k)] for i in range(k)]
    return det_int(g)


def lattice_contains(lattice, point) -> bool:
    """Exact membership: point = B y for an integer y."""
    v = tuple(Fraction(x) for x in point)
    if len(v) != lattice.dim:
        raise DimensionMismatchError("point length differs from lattice dim")
    k = lattice.rank
    gram = [
        tuple(dot(lattice.basis[i], lattice.basis[j]) for j in range(k)) for i in range(k)
    ]
    rhs = tuple(dot(lattice.basis[i], v) for i in range(k))
    y = solve_rational(gram, rhs)
    if y is None or any(c.denominator != 1 for c in y):
        return False
    return lattice.to_ambient([int(c) for c in y]) == v


def fraction_system(body, lattice, scale):
    """Integer rows and box of scale*body in lattice coordinates y (points B y).

    Starts from body.int_rows; lattice None stands for Z^d, where the box
    is the scaled bounding box.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale factor must be positive")
    p, q = scale.numerator, scale.denominator
    if lattice is None:
        rows = [(tuple(x * q for x in a), b * p) for a, b in body.int_rows]
        return rows, lattices._int_box(r * scale for r in body.bounding_box)
    basis = lattice.basis
    rows = [(tuple(dot(a, col) * q for col in basis), b * p) for a, b in body.int_rows]
    # |y_j| bound via the exact pseudoinverse: y = (B^T B)^-1 B^T x
    k = lattice.rank
    gram = [tuple(dot(basis[i], basis[j]) for j in range(k)) for i in range(k)]
    bounds = []
    for j in range(k):
        rhs = tuple(1 if i == j else 0 for i in range(k))
        col = solve_rational(gram, rhs)  # column j of (B^T B)^-1
        # row j of the pseudoinverse: sum_i col_i * (B^T)_i
        prow = [sum(col[i] * basis[i][t] for i in range(k)) for t in range(lattice.dim)]
        bounds.append(sum(abs(c) * r * scale for c, r in zip(prow, body.bounding_box)))
    return rows, lattices._int_box(bounds)


def _polygon_rows(hull_pts):
    rows = []
    n = len(hull_pts)
    for i in range(n):
        p, q = hull_pts[i], hull_pts[(i + 1) % n]
        a = (q[1] - p[1], p[0] - q[0])  # inward-normalized below
        b = a[0] * p[0] + a[1] * p[1]
        # orient so that the remaining vertices satisfy a . x <= b
        r = hull_pts[(i + 2) % n]
        if a[0] * r[0] + a[1] * r[1] > b:
            a, b = (-a[0], -a[1]), -b
        rows.append((a, b))
    return rows


def _polygon_lattice_total(rows, hull_pts):
    xs = [p[0] for p in hull_pts]
    total = 0
    for x in range(min(xs), max(xs) + 1):
        lo, hi = None, None
        feasible = True
        for (a1, a2), b in rows:
            rem = b - a1 * x
            if a2 > 0:
                v = Fraction(rem, a2)
                hi = v if hi is None else min(hi, v)
            elif a2 < 0:
                v = Fraction(rem, a2)
                lo = v if lo is None else max(lo, v)
            elif rem < 0:
                feasible = False
                break
        if not feasible or hi is None or lo is None:
            continue
        lo_i = -((-lo.numerator) // lo.denominator)  # ceil
        hi_i = hi.numerator // hi.denominator  # floor
        if hi_i >= lo_i:
            total += hi_i - lo_i + 1
    return total


def hull_vertex_indices(pts, dim, facets=None):
    """Indices of the extreme points: their active facet normals span rank dim."""
    pts = [tuple(p) for p in pts]
    if facets is None:
        facets = hull.hull_facets(pts, dim)
    by_point = [[] for _ in pts]
    for f in facets:
        for i in f.active:
            by_point[i].append(f.normal)
    return [i for i, normals in enumerate(by_point) if len(normals) >= dim and int_rank(normals) == dim]


def hull_volume(pts, dim):
    """Exact dim-volume of conv(pts) for integer points, by fan decomposition.

    A base vertex is coned over every facet avoiding it; each facet volume
    recurses through an axis projection whose Jacobian cancels the normal
    length, so everything stays rational.
    """
    pts = [tuple(p) for p in sorted(set(map(tuple, pts)))]
    if not pts:
        return Fraction(0)
    if dim == 1:
        vals = [p[0] for p in pts]
        return Fraction(max(vals) - min(vals))
    base = pts[0]
    if int_rank([vec_sub(p, base) for p in pts[1:]]) < dim:
        return Fraction(0)
    total = Fraction(0)
    for f in hull.hull_facets(pts, dim):
        h = f.offset - dot(f.normal, base)
        if h == 0:
            continue
        j = max(range(dim), key=lambda k: abs(f.normal[k]))
        proj = [pts[i][:j] + pts[i][j + 1 :] for i in f.active]
        total += Fraction(h, abs(f.normal[j])) * hull_volume(proj, dim - 1)
    return total / dim


def rational_hull_volume(points, dim) -> Fraction:
    """Exact hull volume of rational points (scaled to integers internally)."""
    scaled, L = scale_to_int([frac_vec(p) for p in points])
    return hull_volume(scaled, dim) / Fraction(L) ** dim


def _dedupe_rows(rows):
    table = {}
    for a, b in rows:
        if a in table:
            table[a] = min(table[a], b)
        else:
            table[a] = b
    return list(table.items())


def _interval_length(rows):
    hi = None
    lo = None
    for a, b in rows:
        c = a[0]
        if c > 0:
            v = Fraction(b, c)
            hi = v if hi is None else min(hi, v)
        elif c < 0:
            v = Fraction(b, c)
            lo = v if lo is None else max(lo, v)
        elif b < 0:
            return Fraction(0)
    if hi is None or lo is None:
        raise UnboundedBodyError("unbounded 1d section in volume recursion")
    return max(hi - lo, Fraction(0))


def _volume_hrep(rows, n) -> Fraction:
    """Exact volume of {x : a . x <= b} by facet substitution.

    Each facet hyperplane is eliminated fraction-free (rows rescaled by
    the positive pivot), the offset-over-pivot factor supplying both the
    distance to the facet and the projection Jacobian.  Redundant rows
    only produce empty or flat sub-facets, which contribute zero.
    """
    rows = _dedupe_rows(rows)
    if n == 1:
        return _interval_length(rows)
    total = Fraction(0)
    for i, (a, b) in enumerate(rows):
        j = max(range(n), key=lambda k: abs(a[k]))
        m = abs(a[j])
        s = 1 if a[j] > 0 else -1
        sub = []
        empty = False
        for k, (c, e) in enumerate(rows):
            if k == i:
                continue
            cj = c[j]
            if cj == 0:
                nc = c[:j] + c[j + 1 :]
                ne = e
            else:
                nc = tuple(m * c[l] - s * cj * a[l] for l in range(n) if l != j)
                ne = m * e - s * cj * b
            if all(x == 0 for x in nc):
                if ne < 0:
                    empty = True
                    break
                continue
            g = gcd(content(nc), abs(ne))
            if g > 1:
                nc = tuple(x // g for x in nc)
                ne = ne // g
            sub.append((nc, ne))
        if empty:
            continue
        if not sub:
            raise UnboundedBodyError("unbounded facet in volume recursion")
        total += Fraction(b, m) * _volume_hrep(sub, n - 1)
    return total / n


def exact_volume(body) -> Fraction:
    """vol(K): the H-rep recursion, or the fan on the scaled generators."""
    if body.rows is not None:
        return _volume_hrep(body.int_rows, body.dim)
    pts, L = body._vrep_scaled
    return hull_volume(pts, body.dim) / Fraction(L) ** body.dim


def polar_volume(body) -> Fraction:
    """vol(K°): a fan over the primal vertices, each polar facet re-hulled."""
    if body.rows is not None:
        return exact_volume(body.polar())
    if body.dim == 1:
        return 2 / max(abs(v[0]) for v in body.verts)
    d = body.dim
    pts, L = body._vrep_scaled
    facets = body.facets
    # polar vertex for facet (a, b) of the scaled hull: a * L / b
    polar_verts = [
        tuple(Fraction(ai * L, f.offset) for ai in f.normal) for f in facets
    ]
    vert_idx = hull_vertex_indices(pts, d, facets=facets)
    total = Fraction(0)
    for vi in vert_idx:
        v = tuple(Fraction(x, L) for x in pts[vi])
        active = [fi for fi, f in enumerate(facets) if vi in f.active]
        j = max(range(d), key=lambda k: abs(v[k]))
        proj = [polar_verts[fi][:j] + polar_verts[fi][j + 1 :] for fi in active]
        total += rational_hull_volume(proj, d - 1) / abs(v[j])
    return total / d


def saturate_span(vectors) -> list[tuple[int, ...]]:
    """Basis of span_Q(vectors) intersected with Z^n (the saturated sublattice)."""
    vecs = [v for v in vectors if not is_zero(v)]
    if not vecs:
        return []
    n = len(vecs[0])
    normals = kernel_basis(vecs)
    if not normals:
        return [tuple(r) for r in identity(n)]
    return kernel_basis(normals)


def from_basis(vectors) -> LatticeSubspace:
    """``LatticeSubspace.from_basis`` with its ``_canonical`` step written in line."""
    vecs = [tuple(int(x) for x in v) for v in vectors]
    if not vecs:
        raise SubspaceError("empty basis")
    d = len(vecs[0])
    if any(len(v) != d for v in vecs):
        raise SubspaceError("mixed vector lengths")
    if d < 2:
        raise SubspaceError(f"a lattice subspace needs d >= 2, got d = {d}")
    if int_rank(vecs) != len(vecs):
        raise SubspaceError("basis vectors are dependent")
    m = len(vecs)
    if not 1 <= m < d:
        raise SubspaceError(f"subspace dimension must be in [1, {d-1}]")
    cols = saturate_span(vecs)
    normal = None
    if m == d - 1:
        kern = kernel_basis(list(cols))
        normal = primitive(kern[0])
    rows = row_hnf([tuple(c) for c in cols])
    basis = tuple(tuple(r) for r in rows)
    return LatticeSubspace(ambient_dim=d, m=len(basis), basis=basis, normal=normal)


def _count_in_subspace(points, subspace) -> int:
    normals = subspace.kernel_normals()
    n = 0
    for z in points:
        if all(dot(u, z) == 0 for u in normals):
            n += 1
    return n


def _subspaces_from_vectors(vectors, m, limit):
    """Deduplicated rank-m spans of m-subsets; None when too many subsets."""
    if comb(len(vectors), m) > limit:
        return None
    seen = {}
    for combo in itertools.combinations(vectors, m):
        if int_rank(combo) != m:
            continue
        sub = from_basis(combo)
        seen.setdefault(sub.basis, sub)
    return list(seen.values())


def _span_key(vectors, columns):
    """Primitive Plücker vector (the m×m minors) of m vectors; zero when dependent."""
    return primitive(tuple(det_int([[v[j] for j in cols] for v in vectors]) for cols in columns))


def _spans(vectors, d, m, limit):
    """{key: (first m-subset, union of its m-subsets)} over rank-m m-subsets.

    None when there are more than limit subsets.
    """
    if comb(len(vectors), m) > limit:
        return None
    columns = tuple(itertools.combinations(range(d), m))
    spans: dict[tuple, tuple] = {}
    for combo in itertools.combinations(vectors, m):
        key = _span_key(combo, columns)
        if is_zero(key):
            continue
        if key in spans:
            spans[key][1].update(combo)
        else:
            spans[key] = (combo, set(combo))
    return spans


def walk_spans(vectors, d, m, limit):
    """{key: (first m-subset, union of its m-subsets)} over rank-m m-subsets.

    A depth-m walk over prefixes in index order: a prefix's k-minors give
    the linear forms of the (k+1)-minors of each added vector (one Laplace
    step), and a prefix whose minors all vanish is pruned.  Keys and
    insertion order are those of the m-subsets in combinations order.
    None when there are more than limit subsets.
    """
    if comb(len(vectors), m) > limit:
        return None
    spans: dict[tuple, tuple] = {}
    _extend(spans, vectors, d, m, 0, (), (1,))
    return spans


def _extend(spans, vectors, d, m, start, prefix, minors):
    """Add to spans every m-subset that extends prefix (with its minors) by later vectors."""
    k = len(prefix)
    forms = []
    for t in _expansion(d, k):
        w = [0] * d
        for j, s, q in t:
            w[j] = s * minors[q]
        forms.append(w)
    for i in range(start, len(vectors) - m + k + 1):
        v = vectors[i]
        mu = [sum(map(mul, w, v)) for w in forms]
        if not any(mu):
            continue
        combo = prefix + (v,)
        if k + 1 < m:
            _extend(spans, vectors, d, m, i + 1, combo, mu)
            continue
        key = primitive(mu)
        if key in spans:
            spans[key][1].update(combo)
        else:
            spans[key] = (combo, set(combo))


def skip_spans(vectors, d, m, limit):
    """{key: (first m-subset, union of its m-subsets)} over rank-m m-subsets.

    A depth-m walk over prefixes in index order: a prefix's k-minors give
    the linear forms of the (k+1)-minors of each added vector (one Laplace
    step), and a prefix whose minors all vanish is pruned.  Each key owns
    one bit, and masks[i] holds the bits of the keys whose members include
    vector i; an m-subset whose masks share a bit lies in a recorded span,
    so it is skipped before its minors are computed.  Keys, insertion order,
    first subsets and member sets are those of every m-subset in
    combinations order.  None when there are more than limit subsets.
    """
    if comb(len(vectors), m) > limit:
        return None
    spans: dict[tuple, tuple] = {}
    _skip_extend(spans, {}, [0] * len(vectors), vectors, d, m, 0, (), (1,), -1)
    return spans


def _skip_extend(spans, bits, masks, vectors, d, m, start, prefix, minors, common):
    """Add to spans every m-subset that extends prefix (indices, with its minors) by later vectors.

    common is the AND of the prefix's masks: the recorded spans holding every prefix vector.
    """
    k = len(prefix)
    forms = []
    for t in _expansion(d, k):
        w = [0] * d
        for j, s, q in t:
            w[j] = s * minors[q]
        forms.append(w)
    stop = len(vectors) - m + k + 1
    if k + 1 < m:
        for i in range(start, stop):
            mu = [sum(map(mul, w, vectors[i])) for w in forms]
            if any(mu):
                _skip_extend(spans, bits, masks, vectors, d, m, i + 1, prefix + (i,), mu, common & masks[i])
        return
    head = tuple(vectors[j] for j in prefix)
    for i in range(start, stop):
        if common & masks[i]:
            continue  # all m vectors are members of one recorded span
        v = vectors[i]
        mu = [sum(map(mul, w, v)) for w in forms]
        if not any(mu):
            continue
        combo = head + (v,)
        key = primitive(mu)
        bit = bits.get(key)
        if bit is None:
            bit = bits[key] = 1 << len(bits)
            spans[key] = (combo, set(combo))
        else:
            spans[key][1].update(combo)
        masks[i] |= bit
        common |= bit
    for j in prefix:  # the loop reads no prefix mask, so the prefix takes its new bits at the end
        masks[j] |= common


def max_slice(body, m, normal_bound=None, certify_limit=CERTIFY_LIMIT) -> MaxSliceResult:
    """Maximize #(K ∩ H ∩ Z^d) over a family of m-dimensional lattice subspaces."""
    d = body.dim
    if not 1 <= m <= d - 1:
        raise SubspaceError(f"slice dimension must be in [1, {d - 1}]")
    if normal_bound is None:
        normal_bound = 3 if d <= 4 else 1
    points = body.lattice_points
    half = sorted({primitive(p) for p in points if not is_zero(p)})

    exhaustive = False
    candidates = None
    spanning = tuple(sorted(set(half) | set(identity(d))))
    certified = _subspaces_from_vectors(spanning, m, certify_limit)
    if certified is not None:
        candidates = certified
        exhaustive = True
    else:
        extra = identity(d)
        extra.extend(primitive(v) for v in _polar_basis(body))
        if m == d - 1:
            normals = set(_primitive_vectors(d, normal_bound))
            normals.update(primitive(v) for v in extra)
            candidates = [LatticeSubspace.from_normal(u) for u in sorted(normals)]
        else:
            vecs = set(_primitive_vectors(d, normal_bound))
            vecs.update(extra)
            fam = _subspaces_from_vectors(tuple(sorted(vecs)), m, certify_limit)
            if fam is None:
                fam = _subspaces_from_vectors(tuple(sorted(set(extra))), m, certify_limit)
            if fam is None:
                raise SubspaceError("candidate family too large")
            candidates = fam

    best = None
    for sub in candidates:
        c = _count_in_subspace(points, sub)
        if best is None or c > best[0] or (c == best[0] and sub.basis < best[1].basis):
            best = (c, sub)
    count, witness = best
    return MaxSliceResult(
        m=m,
        best_count=count,
        witness=witness,
        candidates_searched=len(candidates),
        exhaustive=exhaustive,
    )


# -- Fraction gauges and minima ------------------------------------------------


def _check_point(body, point):
    if len(point) != body.dim:
        raise DimensionMismatchError(f"point has length {len(point)}, body dimension is {body.dim}")
    return frac_vec(point)


def facet_gauge(body, x) -> Fraction:
    """max a . x / b over the facet rows, for a nonzero x of the right length."""
    best = Fraction(0)
    for a, b in body.facet_rows:
        s = dot(a, x)
        if s > 0:
            g = Fraction(s) / b
            if g > best:
                best = g
    return best


def gauge(body, point) -> Fraction:
    """Minkowski functional min{t > 0 : point in t*K}, exact."""
    x = _check_point(body, point)
    if is_zero(x):
        raise ValueError("gauge of the zero vector")
    return facet_gauge(body, x)


def contains(body, point) -> bool:
    """Exact closed-body membership."""
    x = _check_point(body, point)
    return all(dot(a, x) <= b for a, b in body.facet_rows)


def polar_facet_box(body):
    """Bounding box of a V-rep body's polar: max a_j / b over K's facets a . x <= b."""
    return tuple(max(a[j] / b for a, b in body.facet_rows) for j in range(body.dim))


def _witness_key(scored):
    """Deterministic tie order: gauge, then 1-norm, then descending lex."""
    g, p = scored
    return (g, sum(abs(x) for x in p), tuple(-x for x in p))


def successive_minima(body, lattice=None) -> SuccessiveMinima:
    """Exact successive minima with a deterministic directional basis."""
    lat = lattice or Lattice.standard(body.dim)
    k = lat.rank
    r_cap = max(facet_gauge(body, col) for col in lat.basis)
    r = min(Fraction(1), r_cap)
    while True:
        pts = lattices.enumerate_points(body, lat, scale=r)
        scored = sorted(
            ((facet_gauge(body, p), p) for p in pts if not is_zero(p)),
            key=_witness_key,
        )
        lambdas: list[Fraction] = []
        basis: list[tuple[int, ...]] = []
        for g, p in scored:
            if int_rank(basis + [p]) > len(basis):
                basis.append(p)
                lambdas.append(g)
                if len(basis) == k:
                    break
        if len(basis) == k:
            return SuccessiveMinima(tuple(lambdas), tuple(basis))
        if r >= r_cap:
            raise AssertionError("minima enumeration failed below the guaranteed radius")
        r = min(2 * r, r_cap)


# -- Fraction rows, per-point labels, copied span rank --------------------------


def normalize_row(a, b):
    av = frac_vec(a)
    bv = Fraction(b)
    if is_zero(av):
        if bv < 0:
            raise DegenerateBodyError("row 0 <= b with b < 0: empty body")
        return None
    L = 1
    for x in av:
        L = L * x.denominator // gcd(L, x.denominator)
    ai = tuple(int(x * L) for x in av)
    bv = bv * L
    g = content(ai)
    ai = tuple(x // g for x in ai)
    bv = bv / g
    if bv <= 0:
        raise DegenerateBodyError("facet offset <= 0: origin not interior")
    return ai, bv


def translate_groups(body, subspace) -> dict:
    """Counts of K ∩ Z^d by translate label, in first-seen order."""
    normals = subspace.kernel_normals()
    groups: dict[tuple, int] = {}
    for z in body.lattice_points:
        label = tuple(dot(n, z) for n in normals)
        groups[label] = groups.get(label, 0) + 1
    if not groups:
        groups[(0,) * len(normals)] = 0
    return groups


def dim_of_lattice_span(body, lattice=None) -> int:
    """Rank of the set of lattice points inside the body."""
    pts = lattices.enumerate_points(body, lattice)
    pts = [p for p in pts if not is_zero(p)]
    if not pts:
        return 0
    return int_rank(pts)


def is_unconditional(body) -> bool:
    """Invariance under every single coordinate sign flip: H-rep rows, or V-rep generators."""
    if body.rows is not None:
        table = {a: b for a, b in body.rows}
        for a, b in body.rows:
            for i in range(body.dim):
                flipped = a[:i] + (-a[i],) + a[i + 1 :]
                if table.get(flipped) != b and table.get(vec_neg(flipped)) != b:
                    return False
        return True
    vert_set = set(body.verts)
    for v in body.verts:
        for i in range(body.dim):
            flipped = v[:i] + (-v[i],) + v[i + 1 :]
            if flipped not in vert_set and not body.contains(flipped):
                return False
    return True


def random_unconditional_body(d, seed):
    """``verify.random_unconditional_body`` as it was before its intersection shape kept only binding rows."""
    if d < 1:
        raise DegenerateBodyError(f"dimension must be >= 1, got {d}")
    rng = random.Random(seed)
    shape = rng.choice(["box", "diamond", "intersection"] if d <= 3 else ["box", "diamond"])
    hi = {1: 8, 2: 8, 3: 5, 4: 3}.get(d, 2)

    def radius():
        return Fraction(rng.randint(2, max(2, hi)), rng.randint(1, 2))

    if shape == "box":
        return bodies.box([radius() for _ in range(d)])
    if shape == "diamond":
        verts = []
        for i in range(d):
            r = radius()
            v = [Fraction(0)] * d
            v[i] = r
            verts.append(tuple(v))
        return bodies.from_vertices(verts, name=f"diamond:{d}:{seed}")
    rows = []
    for a in identity(d):
        # partner given: in d = 1 the weighted rows below share these normals
        r = radius()
        rows += [(a, r), (tuple(-x for x in a), r)]
    weights = [Fraction(1, rng.randint(2, 6)) for _ in range(d)]
    offset = Fraction(rng.randint(1, 2))
    # all sign patterns of the weighted row keep the body unconditional
    for signs in itertools.product((1, -1), repeat=d):
        rows.append((tuple(s * w for s, w in zip(signs, weights)), offset))
    return bodies.from_hrep(d, rows, name=f"uncond:{d}:{seed}")
