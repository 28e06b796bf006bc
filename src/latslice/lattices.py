"""Lattices, lattice subspaces, and exact lattice-point enumeration.

One walk, ``_walk``, solves integer inequality rows inside an integer box
by per-axis interval propagation: fixing the coordinates of all axes but
the last two left to right on an explicit stack, each row yields integer
bounds for the next coordinate from exact suffix minima over the box.  At
each prefix it reaches, the last two axes form a 2-D section
{lo <= x <= hi, L(x) <= y <= U(x)}, where U and -L are the lower envelopes
of the slope-sorted line sets ``_lines`` builds from the rows on y and the
box's two sides.  ``_pieces`` merges the two envelopes into the pieces on
which one line bounds each side, clipped to U >= L, and both closers read
them; neither scans rows on its own:

- ``_runs`` lists: it yields last-axis runs (prefix, lo, hi) in ascending
  lexicographic order.  A prefix with no more columns than bounding lines
  bounds each column's last axis with ``_bound``, as the walk bounds every
  other axis; a wider one expands the pieces column by column, one floor
  division per side per column.  It serves listings only: its one reader is
  ``_listing``, behind ``ConvexBody.lattice_points``, ``enumerate_points``
  and the ``by_normal`` levels of ``count_points``.
- ``count_solutions`` counts: it puts the axes in order of box width, so the
  walk covers the narrowest and the two widest form the sections, and
  ``_section`` sums each piece as two floor sums.  ``count_points`` and
  Pick's polygon count read it.

A sublattice box bounds each coordinate |y_j| through the integer map
``Lattice.coordinates``, y = P x / g, which also decides membership.

Every system built from a body is origin-symmetric: the body is symmetric
by construction, the lattice passes through 0 and the box is symmetric.
So the readers here walk only half of it (``half=True``).  The listing
takes the runs whose points are >=lex 0, the zero run ((0, ..., 0), 0, hi0)
first; the rest is the mirror z -> -z: it emits the mirrored runs
(-p, -hi, -lo) in reverse order, the zero run over [-hi0, hi0], then the
half runs.  The count takes the sections at the prefixes >=lex 0: twice
those at nonzero prefixes plus the zero-prefix one, which is its own
mirror.  Pick's count on an arbitrary polygon keeps the full walk.

K ∩ Z^d at scale 1 is listed once per body and cached as
``ConvexBody.lattice_points``; ``enumerate_points`` copies it for that
lattice and scale, and ``count_points`` lists only for a leveled count.

Every lattice subspace H comes from ``LatticeSubspace.from_normals``: the
integer kernel of its normal rows is a basis of Z^d ∩ H, put in row
Hermite form.  ``from_normal`` is its one-row case, and ``from_basis``
passes it the kernel of its vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, isqrt, lcm
from operator import neg

from .errors import DimensionMismatchError, SubspaceError
from .linalg import (
    det_int,
    dot,
    identity,
    int_rank,
    kernel_basis,
    primitive,
    row_hnf,
)

__all__ = [
    "Lattice",
    "LatticeSubspace",
    "PointCount",
    "enumerate_points",
    "count_points",
    "sublattice",
    "dim_of_lattice_span",
    "project_count",
]


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^dim spanned by integer basis columns."""

    dim: int
    basis: tuple[tuple[int, ...], ...]  # columns, each of length dim

    def __post_init__(self):
        if not self.basis:
            raise SubspaceError("a lattice needs at least one basis column")
        for col in self.basis:
            if len(col) != self.dim:
                raise DimensionMismatchError("basis column length differs from dim")
        if int_rank(self.basis) != len(self.basis):
            raise SubspaceError("lattice basis columns are dependent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def det_gram(self) -> int:
        """det(B^T B): the squared cell volume, always an exact integer."""
        return self.coordinates[1]

    def cell_volume(self) -> Fraction:
        """Cell volume; exact for full rank (|det B|) and square gram dets."""
        if self.rank == self.dim:
            return Fraction(abs(det_int(self.basis)))
        g = self.det_gram
        r = isqrt(g)
        if r * r != g:
            raise SubspaceError("cell volume is irrational; use det_gram")
        return Fraction(r)

    def to_ambient(self, coeffs):
        return tuple(dot(coeffs, x) for x in zip(*self.basis))

    @cached_property
    def coordinates(self):
        """The integer map (P, g), P = adj(B^T B) B^T and g = det(B^T B), with y = P x / g for x = B y."""
        gram = [[dot(u, v) for v in self.basis] for u in self.basis]
        k = len(gram)
        # row i of adj(B^T B), which is symmetric: the signed minors without row i
        adj = [
            [(-1) ** (i + j) * det_int([r[:j] + r[j + 1 :] for s, r in enumerate(gram) if s != i]) for j in range(k)]
            for i in range(k)
        ]
        return tuple(tuple(dot(a, x) for x in zip(*self.basis)) for a in adj), det_int(gram)

    def contains(self, point) -> bool:
        """Exact membership: P x / g is an integer y, and B y is the point."""
        v = tuple(Fraction(x) for x in point)
        if len(v) != self.dim:
            raise DimensionMismatchError("point length differs from lattice dim")
        P, g = self.coordinates
        y = [dot(row, v) / g for row in P]
        return all(c.denominator == 1 for c in y) and self.to_ambient(y) == v

    @classmethod
    def standard(cls, d) -> "Lattice":
        return cls(dim=d, basis=tuple(identity(d)))


def _integral(v) -> tuple[int, ...]:
    """The entries of v as ints (Fraction(2) and 2.0 too); SubspaceError names a non-integer."""
    v = tuple(v)
    for x in v:
        try:
            if int(x) == x:
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        raise SubspaceError(f"entry {x!r} is not an integer")
    return tuple(map(int, v))


@dataclass(frozen=True)
class LatticeSubspace:
    """m-dimensional lattice subspace of R^d with a canonical primitive basis.

    The basis columns span exactly span(H) intersected with Z^d and are put
    in a Hermite canonical form, so equal subspaces compare equal.  For
    hyperplanes the primitive integer normal is kept alongside.
    """

    ambient_dim: int
    m: int
    basis: tuple[tuple[int, ...], ...]  # columns
    normal: tuple[int, ...] | None

    @classmethod
    def from_normals(cls, rows) -> "LatticeSubspace":
        """{x : r . x = 0 for every row r}, for integer rows of rank 1 to d - 1."""
        rows = [_integral(r) for r in rows]
        if not rows:
            raise SubspaceError("no normal vectors")
        d = len(rows[0])
        if any(len(r) != d for r in rows):
            raise SubspaceError("mixed vector lengths")
        first = next(filter(any, rows), None)
        if first is None:
            raise SubspaceError("the normal rows are all zero")
        cols = kernel_basis(rows)
        if not cols:
            raise SubspaceError(f"the normals have rank {d}: their common kernel is 0")
        normal = primitive(first) if len(cols) == d - 1 else None
        return cls(ambient_dim=d, m=len(cols), basis=tuple(row_hnf(cols)), normal=normal)

    @classmethod
    def from_normal(cls, u) -> "LatticeSubspace":
        u = _integral(u)
        if not any(u):
            raise SubspaceError("zero normal vector")
        if len(u) < 2:
            raise SubspaceError("hyperplanes need ambient dimension >= 2")
        return cls.from_normals([u])

    @classmethod
    def from_basis(cls, vectors) -> "LatticeSubspace":
        vecs = [_integral(v) for v in vectors]
        if not vecs:
            raise SubspaceError("empty basis")
        d = len(vecs[0])
        if any(len(v) != d for v in vecs):
            raise SubspaceError("mixed vector lengths")
        if d < 2:
            raise SubspaceError(f"a lattice subspace needs d >= 2, got d = {d}")
        m = len(vecs)
        normals = kernel_basis(vecs)
        if len(normals) != d - m:  # the kernel has rank d - rank(vecs)
            raise SubspaceError("basis vectors are dependent")
        if not 1 <= m < d:
            raise SubspaceError(f"subspace dimension must be in [1, {d-1}]")
        return cls.from_normals(normals)

    def kernel_normals(self):
        """Primitive integer basis of the orthogonal complement lattice.

        Labels z -> (n . z for n in normals) classify translates H + z.
        """
        if self.normal is not None:
            return (self.normal,)
        return tuple(kernel_basis(list(self.basis)))

    def spec(self) -> str:
        """The --normal text of this subspace; a one-column basis ends in ';' to read back as a line."""
        if self.normal is not None:
            return "u:" + ",".join(str(x) for x in self.normal)
        cols = ";".join(",".join(str(x) for x in col) for col in self.basis)
        return cols + ";" if self.m == 1 else cols


# -- enumeration core -----------------------------------------------------------


def _tables(rows, box):
    """Per-axis row coefficients and the rows' suffix minima over the box.

    coef[t][i] is row i's coefficient on axis t, and tail[t][i] the least
    value row i's terms on the axes after t take over the box.
    """
    n = len(box)
    minrems = []
    for a, _ in rows:
        minrem = [0] * (n + 1)
        for t in range(n - 1, -1, -1):
            lo, hi = box[t]
            minrem[t] = minrem[t + 1] + min(a[t] * lo, a[t] * hi)
        minrems.append(minrem)
    coef = [tuple(a[t] for a, _ in rows) for t in range(n)]
    tail = [tuple(minrem[t + 1] for minrem in minrems) for t in range(n)]
    return coef, tail


def _bound(lo, hi, col, low, residuals):
    """Integer range of one axis inside [lo, hi] that every row leaves open.

    Row i allows x when col[i] * x + low[i] <= residuals[i]; an empty range
    comes back with hi < lo.
    """
    for at, lw, res in zip(col, low, residuals):
        rem = res - lw
        if at > 0:
            q = rem // at
            if q < hi:
                hi = q
        elif at < 0:
            q = -(-rem // at)
            if q > lo:
                lo = q
        elif rem < 0:
            return lo, lo - 1
    return lo, hi


def _walk(box, coef, tail, residuals, half):
    """Depth first over the prefixes on all axes but the last two.

    Yields (prefix, residuals, zero) in ascending lexicographic order of the
    prefixes, the residuals being each row's right side less its prefix
    terms; with fewer than three axes the root, with prefix (), is the only
    node.  half=True is for origin-symmetric systems only: along the all-zero
    prefix each axis's lo is clipped at 0, so only the prefixes >=lex 0 come
    out, and zero is True for the all-zero one.
    """
    depth = len(box) - 2
    stack = [((), residuals)]
    zero = half  # the node popped next has the all-zero prefix
    while stack:
        prefix, residuals = stack.pop()
        t = len(prefix)
        if t >= depth:
            yield prefix, residuals, zero
            zero = False
            continue
        lo, hi = box[t]
        lo, hi = _bound(0 if zero and lo < 0 else lo, hi, coef[t], tail[t], residuals)
        # the zero prefix extends only through x = 0, which is pushed last
        zero = zero and lo == 0 <= hi
        col = coef[t]
        for x in range(hi, lo - 1, -1):  # pushed high to low, popped low first
            stack.append((prefix + (x,), [res - at * x for at, res in zip(col, residuals)]))


def _runs(rows, box, half=False):
    """Yield the integer solutions of rows inside box as last-axis runs.

    A run (prefix, lo, hi) stands for the points prefix + (x,) with
    lo <= x <= hi, and runs come in ascending lexicographic order.  This is
    the listing closer of ``_walk``: at each walked prefix it loops over the
    penultimate axis x and bounds the last one, so no leaf is pushed.  A
    prefix with no more columns than the section has bounding lines bounds
    each column with ``_bound``; a wider one expands the section's
    ``_pieces``, the ones ``_section`` sums, one floor division per side per
    column.  The line sets are sorted once, at the first wide prefix.

    half=True is for origin-symmetric systems only: along the all-zero
    prefix each axis's lo is clipped at 0, so only the runs whose points
    are >=lex 0 come out, and the first is the zero run ((0, ..., 0), 0, hi0).
    """
    n = len(box)
    if n == 1:  # a zero-width leading axis makes the root a section
        for _, lo, hi in _runs([((0, *a), b) for a, b in rows], [(0, 0), *box], half):
            yield (), lo, hi
        return
    coef, tail = _tables(rows, box)
    col, low, last = coef[n - 2], tail[n - 2], coef[n - 1]
    blo, bhi = box[n - 1]
    width = sum(1 for an in last if an) + 2  # the section's lines: rows on the last axis, two box sides
    lines = None
    for prefix, residuals, zero in _walk(box, coef, tail, [b for _, b in rows], half):
        lo, hi = box[n - 2]
        lo, hi = _bound(0 if zero and lo < 0 else lo, hi, col, low, residuals)
        if hi - lo < width:
            for x in range(lo, hi + 1):
                l, h = _bound(0 if zero and x == 0 and blo < 0 else blo, bhi, last, [at * x for at in col], residuals)
                if l <= h:
                    yield prefix + (x,), l, h
            continue
        if lines is None:
            lines = _lines(col, last)
        for start, end, (au, mu, ru), (al, ml, rl) in _pieces(*_envelopes(lines, residuals, blo, bhi, lo, hi), lo, hi):
            for x in range(start, end + 1):
                h = (ru - au * x) // mu
                l = -((rl - al * x) // ml)
                if zero and x == 0 and l < 0:
                    l = 0
                if l <= h:
                    yield prefix + (x,), l, h


def _floor_sum(n, m, a, b):
    """Sum of floor((a*i + b) / m) over 0 <= i < n, for m > 0 and any a, b.

    Euclid-style: a and b are reduced mod m (their quotients summed in
    closed form), then the sum is read with the roles of a and m swapped,
    so the loop runs O(log m) times.
    """
    total = 0
    while True:
        if not 0 <= a < m:
            q, a = divmod(a, m)
            total += q * (n * (n - 1) // 2)
        if not 0 <= b < m:
            q, b = divmod(b, m)
            total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _envelope(lines, lo, hi):
    """Integer pieces of the lower envelope of lines (a, m, r) on [lo, hi].

    A line stands for x -> (r - a*x) / m with m > 0, and lines come sorted by
    a/m ascending, so each one can only overtake the ones before it, to the
    right.  Returns [(end, line)]: line is least on (previous end, end], and
    the last end is hi.  Of two parallel lines the lower is kept, and at an
    integer crossing the left line keeps the point.
    """
    hull = []
    for line in lines:
        a, m, r = line
        if hull:
            a1, m1, r1 = hull[-1]
            if a * m1 == a1 * m:
                if r * m1 >= r1 * m:
                    continue
                hull.pop()
        while len(hull) >= 2:
            (a0, m0, r0), (a1, m1, r1) = hull[-2], hull[-1]
            # hull[-1] is never least once the new line overtakes hull[-2] no later
            if (m0 * r - m * r0) * (m0 * a1 - m1 * a0) <= (m0 * r1 - m1 * r0) * (m0 * a - m * a0):
                hull.pop()
            else:
                break
        hull.append(line)
    pieces = []
    start = lo
    a0, m0, r0 = line = hull[0]
    for nxt in hull[1:]:
        a1, m1, r1 = nxt
        end = (m0 * r1 - m1 * r0) // (m0 * a1 - m1 * a0)  # last x where line <= nxt
        if end >= hi:
            break
        if end >= start:
            pieces.append((end, line))
            start = end + 1
        a0, m0, r0 = line = nxt
    pieces.append((hi, line))
    return pieces


def _lines(col, last):
    """The slope-sorted line sets that bound a section's last axis y.

    A row with coefficients (col[i], last[i]) on the last two axes bounds y
    from above when last[i] > 0 and -y when last[i] < 0, by the line
    (col[i], |last[i]|, i) over the prefix's residual i; indices k and k + 1
    (k = len(col)) stand for the box sides bhi and -blo.  Each side comes
    sorted by a/m, as ``_envelope`` takes it.
    """
    k = len(col)
    ups = [(col[i], last[i], i) for i in range(k) if last[i] > 0] + [(0, 1, k)]
    lows = [(col[i], -last[i], i) for i in range(k) if last[i] < 0] + [(0, 1, k + 1)]
    for side in ups, lows:
        side.sort(key=lambda line: Fraction(line[0], line[1]))
    return ups, lows


def _envelopes(lines, residuals, blo, bhi, lo, hi):
    """Pieces of U and -L on [lo, hi] for one prefix's residuals.

    U(x) = min over the upper lines of (r - a*x) / m and -L(x) the same over
    the lower ones, so column x holds the y with ceil(L(x)) <= y <= floor(U(x)).
    """
    res = residuals + [bhi, -blo]
    ups, lows = lines
    return (
        _envelope([(a, m, res[i]) for a, m, i in ups], lo, hi),
        _envelope([(a, m, res[i]) for a, m, i in lows], lo, hi),
    )


def _pieces(upper, lower, lo, hi):
    """Yield (start, end, up, low): on start <= x <= end, up bounds y from above and low bounds -y.

    upper and lower are the envelope pieces of U and -L; each joint piece is
    clipped to U >= L, which drops only columns that hold no point.
    """
    i = j = 0
    x = lo
    while x <= hi:
        ue, up = upper[i]
        le, low = lower[j]
        end = ue if ue < le else le
        if ue == end:
            i += 1
        if le == end:
            j += 1
        start, x = x, end + 1
        # U >= L  <=>  ml*(ru - au*x) + mu*(rl - al*x) >= 0  <=>  A x <= B
        (au, mu, ru), (al, ml, rl) = up, low
        A, B = ml * au + mu * al, ml * ru + mu * rl
        if A > 0:
            end = min(end, B // A)
        elif A < 0:
            start = max(start, -(B // -A))
        elif B < 0:
            continue
        if start <= end:
            yield start, end, up, low


def _section(upper, lower, lo, hi):
    """Integer points of {lo <= x <= hi, L(x) <= y <= U(x)}, in closed form.

    A column holds floor(U) + floor(-L) + 1 points where U >= L, so each of
    the section's ``_pieces`` is its column count and two floor sums.
    """
    total = 0
    for start, end, (au, mu, ru), (al, ml, rl) in _pieces(upper, lower, lo, hi):
        k = end - start + 1
        total += k + _floor_sum(k, mu, -au, ru - au * start) + _floor_sum(k, ml, -al, rl - al * start)
    return total


def count_solutions(rows, box, half=False) -> int:
    """Number of integer solutions of rows inside box, with no point listed.

    The section closer of ``_walk``: the axes are first put in order of box
    width, a permutation that leaves the count unchanged, so the walk covers
    the narrowest axes and the two widest form a 2-D section at each walked
    prefix, counted by ``_section`` over the ``_lines`` envelopes.  Rows
    free of the last axis bound only the penultimate one and are applied
    there.  half=True is for origin-symmetric systems only: the section at a
    prefix -p mirrors the one at p, so the count is twice the sections at
    prefixes >lex 0 plus the zero-prefix section, which is symmetric itself.
    """
    n = len(box)
    if n == 1:  # a zero-width leading axis makes the root a section
        rows, box, n = [((0, *a), b) for a, b in rows], [(0, 0), *box], 2
    order = sorted(range(n), key=lambda t: box[t][1] - box[t][0])
    rows = [(tuple(a[t] for t in order), b) for a, b in rows]
    box = [box[t] for t in order]
    coef, tail = _tables(rows, box)
    col, low = coef[n - 2], tail[n - 2]
    blo, bhi = box[n - 1]
    lines = _lines(col, coef[n - 1])
    total = 0
    for _, residuals, zero in _walk(box, coef, tail, [b for _, b in rows], half):
        lo, hi = _bound(*box[n - 2], col, low, residuals)
        if lo > hi:
            continue
        count = _section(*_envelopes(lines, residuals, blo, bhi, lo, hi), lo, hi)
        total += count if zero or not half else 2 * count
    return total


def _int_box(radii):
    return [(-floor(r), floor(r)) for r in radii]


def _standard(body, lattice) -> bool:
    """Whether lattice is absent or Z^d itself; rejects a dimension mismatch."""
    if lattice is None:
        return True
    if lattice.dim != body.dim:
        raise DimensionMismatchError("lattice and body dimensions differ")
    return lattice.rank == lattice.dim and lattice.basis == tuple(identity(lattice.dim))


def _system(body, lattice, scale):
    """Integer rows and box of scale*body in lattice coordinates y (points B y).

    Starts from body.int_rows; lattice None stands for Z^d, where the box
    is the scaled bounding box.  On a sublattice y = P x / g through
    ``Lattice.coordinates``, so |y_j| <= sum_t |P_jt| r_t / g over the radii
    r_t of the scaled bounding box: the sum is taken in ints over the radii's
    common denominator and closed by one floor division.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale factor must be positive")
    p, q = scale.numerator, scale.denominator
    radii = [r * scale for r in body.bounding_box]
    if lattice is None:
        rows = [(tuple(x * q for x in a), b * p) for a, b in body.int_rows]
        return rows, _int_box(radii)
    rows = [(tuple(dot(a, col) * q for col in lattice.basis), b * p) for a, b in body.int_rows]
    P, g = lattice.coordinates
    den = lcm(*(r.denominator for r in radii))
    ints = [r.numerator * (den // r.denominator) for r in radii]
    bounds = [sum(abs(c) * r for c, r in zip(row, ints)) // (den * g) for row in P]
    return rows, [(-b, b) for b in bounds]


def _listing(body, lattice=None, scale=1):
    """Uncached points of scale*body ∩ lattice in lattice coordinates, lex order.

    Built from the half walk: the mirrored runs (-p, -hi, -lo) in reverse
    order, the zero run over [-hi0, hi0], then the half runs.  Each run
    extends the list in one call, prefix + (x,) over a slice of one shared
    list of 1-tuples (x,) that spans the last axis's box.
    """
    rows, box = _system(body, lattice, scale)
    runs = list(_runs(rows, box, half=True))
    base, top = box[-1]
    ones = [(x,) for x in range(base, top + 1)]
    out = []
    for prefix, lo, hi in runs[:0:-1]:
        out.extend(map(tuple(map(neg, prefix)).__add__, ones[-hi - base : -lo - base + 1]))
    zero, _, hi0 = runs[0]
    out.extend(map(zero.__add__, ones[-hi0 - base : hi0 - base + 1]))
    for prefix, lo, hi in runs[1:]:
        out.extend(map(prefix.__add__, ones[lo - base : hi - base + 1]))
    return out


@dataclass(frozen=True)
class PointCount:
    total: int
    by_level: dict | None = None


def enumerate_points(body, lattice=None, scale=Fraction(1)):
    """All lattice points inside scale*body, ascending lexicographic order.

    On Z^d at scale 1 this is a fresh list copied from body.lattice_points.
    """
    if _standard(body, lattice):
        if scale == 1:
            return list(body.lattice_points)
        return _listing(body, None, scale)
    return sorted(lattice.to_ambient(y) for y in _listing(body, lattice, scale))


def count_points(body, lattice=None, by_normal=None, scale=Fraction(1)) -> PointCount:
    """Cardinality of body ∩ lattice, optionally leveled by an integer form.

    The total sums the 2-D sections of the half walk in closed form, the
    walk covering the narrowest box axes, and never lists a point; a
    leveled count labels each point of the listing by its level.
    """
    lat = None if _standard(body, lattice) else lattice
    if by_normal is None:
        return PointCount(total=count_solutions(*_system(body, lat, scale), half=True))
    u = _integral(by_normal)
    if lat is not None:
        u = tuple(dot(u, col) for col in lat.basis)  # u . (B y) = (B^T u) . y
    levels = Counter(dot(u, y) for y in _listing(body, lat, scale))
    return PointCount(total=sum(levels.values()), by_level=levels)


def sublattice(subspace) -> Lattice:
    """The lattice Z^d ∩ H for a lattice subspace H (primitive by construction)."""
    return Lattice(dim=subspace.ambient_dim, basis=tuple(subspace.basis))


def dim_of_lattice_span(body, lattice=None) -> int:
    """Rank of the set of lattice points inside the body.

    On Z^d the cached listing is ranked in place; the scan stops at full rank.
    """
    if _standard(body, lattice):
        return int_rank(body.lattice_points)
    return int_rank(enumerate_points(body, lattice))


def project_count(body, directions, lattice=None) -> PointCount:
    """Distinct value tuples (v . z for v in directions) over z in body ∩ lattice.

    This measures the projection of the point set onto span(directions)
    through the integer pairing, matching the projection bound in the
    co-dimensional factorization.
    """
    vecs = [_integral(v) for v in directions]
    if not vecs:
        raise SubspaceError("empty direction list")
    if any(len(v) != body.dim for v in vecs):
        raise DimensionMismatchError("direction length differs from body dimension")
    if int_rank(vecs) != len(vecs):
        raise SubspaceError("projection directions are dependent")
    seen = set()
    for z in enumerate_points(body, lattice):
        seen.add(tuple(dot(v, z) for v in vecs))
    return PointCount(total=len(seen))
