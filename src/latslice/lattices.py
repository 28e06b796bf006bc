"""Lattices, lattice subspaces, and exact lattice-point enumeration.

One kernel, ``_runs``, solves integer inequality rows inside an integer
box by per-axis interval propagation: fixing coordinates left to right on
an explicit stack, each row yields integer bounds for the next coordinate
from exact suffix minima over the box, and the final coordinate's range is
exact.  It yields last-axis runs (prefix, lo, hi) in ascending
lexicographic order; counting sums the run lengths, listing expands them.

Every system built from a body is origin-symmetric: the body is symmetric
by construction, the lattice passes through 0 and the box is symmetric.
So the readers here walk only half of it (``_runs(..., half=True)``):
the runs whose points are >=lex 0, the zero run ((0, ..., 0), 0, hi0)
first.  The rest is the mirror z -> -z: a count doubles the half count
less the origin, levels add each point's level and its negation, and a
listing emits the mirrored runs (-p, -hi, -lo) in reverse order, the zero
run over [-hi0, hi0], then the half runs.  Pick's ``count_runs`` on an
arbitrary polygon keeps the full walk.

K ∩ Z^d at scale 1 is listed once per body and cached as
``ConvexBody.lattice_points``; ``enumerate_points`` copies it for that
lattice and scale, and ``count_points`` never lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .errors import DimensionMismatchError, SubspaceError
from .linalg import (
    dot,
    gram_det,
    identity,
    int_rank,
    is_zero,
    kernel_basis,
    primitive,
    row_hnf,
    saturate_span,
    solve_rational,
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
        return gram_det(self.basis)

    def cell_volume(self) -> Fraction:
        """Cell volume; exact for full rank (|det B|) and square gram dets."""
        if self.rank == self.dim:
            from .linalg import det_int

            return Fraction(abs(det_int(self.basis)))
        g = self.det_gram
        r = _isqrt_exact(g)
        if r is None:
            raise SubspaceError("cell volume is irrational; use det_gram")
        return Fraction(r)

    def to_ambient(self, coeffs):
        return tuple(
            sum(self.basis[k][i] * coeffs[k] for k in range(self.rank))
            for i in range(self.dim)
        )

    def contains(self, point) -> bool:
        """Exact membership: point = B y for an integer y."""
        v = tuple(Fraction(x) for x in point)
        if len(v) != self.dim:
            raise DimensionMismatchError("point length differs from lattice dim")
        k = self.rank
        gram = [
            tuple(dot(self.basis[i], self.basis[j]) for j in range(k)) for i in range(k)
        ]
        rhs = tuple(dot(self.basis[i], v) for i in range(k))
        y = solve_rational(gram, rhs)
        if y is None or any(c.denominator != 1 for c in y):
            return False
        return self.to_ambient([int(c) for c in y]) == v

    @classmethod
    def standard(cls, d) -> "Lattice":
        return cls(dim=d, basis=tuple(identity(d)))


def _isqrt_exact(n):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


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
    def from_normal(cls, u) -> "LatticeSubspace":
        u = tuple(int(x) for x in u)
        if is_zero(u):
            raise SubspaceError("zero normal vector")
        d = len(u)
        if d < 2:
            raise SubspaceError("hyperplanes need ambient dimension >= 2")
        un = primitive(u)
        cols = kernel_basis([un])
        return cls._canonical(d, cols, normal=un)

    @classmethod
    def from_basis(cls, vectors) -> "LatticeSubspace":
        vecs = [tuple(int(x) for x in v) for v in vectors]
        if not vecs:
            raise SubspaceError("empty basis")
        d = len(vecs[0])
        if any(len(v) != d for v in vecs):
            raise SubspaceError("mixed vector lengths")
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
        return cls._canonical(d, cols, normal=normal)

    @classmethod
    def _canonical(cls, d, cols, normal=None):
        rows = row_hnf([tuple(c) for c in cols])
        basis = tuple(tuple(r) for r in rows)
        return cls(ambient_dim=d, m=len(basis), basis=basis, normal=normal)

    def kernel_normals(self):
        """Primitive integer basis of the orthogonal complement lattice.

        Labels z -> (n . z for n in normals) classify translates H + z.
        """
        if self.normal is not None:
            return (self.normal,)
        return tuple(kernel_basis(list(self.basis)))

    def spec(self) -> str:
        if self.normal is not None:
            return "u:" + ",".join(str(x) for x in self.normal)
        return ";".join(",".join(str(x) for x in col) for col in self.basis)


# -- enumeration core -----------------------------------------------------------


def _runs(rows, box, half=False):
    """Yield the integer solutions of rows inside box as last-axis runs.

    A run (prefix, lo, hi) stands for the points prefix + (x,) with
    lo <= x <= hi, and runs come in ascending lexicographic order.  The
    leading axes are walked depth first on an explicit stack, each row
    bounding the next coordinate through its suffix minimum over the box;
    the last axis is bounded in its parent's loop, so no leaf is pushed.

    half=True is for origin-symmetric systems only: along the all-zero
    prefix each axis's lo is clipped at 0, so only the runs whose points
    are >=lex 0 come out, and the first is the zero run ((0, ..., 0), 0, hi0).
    """
    n = len(box)
    if n == 0:
        return
    minrems = []
    for a, _ in rows:
        minrem = [0] * (n + 1)
        for t in range(n - 1, -1, -1):
            lo, hi = box[t]
            minrem[t] = minrem[t + 1] + min(a[t] * lo, a[t] * hi)
        minrems.append(minrem)
    coef = [tuple(a[t] for a, _ in rows) for t in range(n)]
    tail = [tuple(minrem[t + 1] for minrem in minrems) for t in range(n)]
    last = coef[n - 1]
    stack = [(0, (), [b for _, b in rows])]
    zero = half  # the node popped next has the all-zero prefix
    while stack:
        t, prefix, residuals = stack.pop()
        lo, hi = box[t]
        if zero and lo < 0:
            lo = 0
        for at, low, res in zip(coef[t], tail[t], residuals):
            rem = res - low
            if at > 0:
                q = rem // at
                if q < hi:
                    hi = q
            elif at < 0:
                q = -(-rem // at)
                if q > lo:
                    lo = q
            elif rem < 0:
                hi = lo - 1
                break
        # the zero prefix extends only through x = 0, which is pushed last
        zero = zero and lo == 0 <= hi
        if lo > hi:
            continue
        if t == n - 1:  # the root of a 1-dimensional system
            yield prefix, lo, hi
            continue
        col = coef[t]
        if t < n - 2:
            for x in range(hi, lo - 1, -1):  # pushed high to low, popped low first
                stack.append((t + 1, prefix + (x,), [res - at * x for at, res in zip(col, residuals)]))
            continue
        # the children are leaves: bound each one's last axis here, in order
        blo, bhi = box[n - 1]
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
        zero = False


def count_runs(rows, box) -> int:
    """Number of integer solutions of rows inside box, with no point listed."""
    return sum(hi - lo + 1 for _, lo, hi in _runs(rows, box))


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
    is the scaled bounding box.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale factor must be positive")
    p, q = scale.numerator, scale.denominator
    if lattice is None:
        rows = [(tuple(x * q for x in a), b * p) for a, b in body.int_rows]
        return rows, _int_box(r * scale for r in body.bounding_box)
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
    return rows, _int_box(bounds)


def _listing(body, lattice=None, scale=1):
    """Uncached points of scale*body ∩ lattice in lattice coordinates, lex order.

    Built from the half walk: the mirrored runs (-p, -hi, -lo) in reverse
    order, the zero run over [-hi0, hi0], then the half runs.
    """
    runs = list(_runs(*_system(body, lattice, scale), half=True))
    zero, _, hi0 = runs[0]
    rest = runs[1:]
    mirrored = [(tuple(-c for c in p), -hi, -lo) for p, lo, hi in reversed(rest)]
    full = mirrored + [(zero, -hi0, hi0)] + rest
    return [prefix + (x,) for prefix, lo, hi in full for x in range(lo, hi + 1)]


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

    Counted from the half walk and its mirror z -> -z: the total is twice
    the half count less the origin, and each half point adds its level l
    and its mirror's -l.  Runs are counted by length or walked one point
    at a time; the point set is never listed.
    """
    lat = None if _standard(body, lattice) else lattice
    runs = _runs(*_system(body, lat, scale), half=True)
    if by_normal is None:
        return PointCount(total=2 * sum(hi - lo + 1 for _, lo, hi in runs) - 1)
    u = tuple(int(x) for x in by_normal)
    if lat is not None:
        u = tuple(dot(u, col) for col in lat.basis)  # u . (B y) = (B^T u) . y
    levels: dict[int, int] = {}
    for prefix, lo, hi in runs:
        for x in range(lo, hi + 1):
            lv = dot(u, prefix + (x,))
            levels[lv] = levels.get(lv, 0) + 1
            levels[-lv] = levels.get(-lv, 0) + 1
    levels[0] -= 1  # the origin is its own mirror
    return PointCount(total=sum(levels.values()), by_level=levels)


def sublattice(subspace) -> Lattice:
    """The lattice Z^d ∩ H for a lattice subspace H (primitive by construction)."""
    return Lattice(dim=subspace.ambient_dim, basis=tuple(subspace.basis))


def dim_of_lattice_span(body, lattice=None) -> int:
    """Rank of the set of lattice points inside the body."""
    pts = enumerate_points(body, lattice)
    pts = [p for p in pts if not is_zero(p)]
    if not pts:
        return 0
    return int_rank(pts)


def project_count(body, directions, lattice=None) -> PointCount:
    """Distinct value tuples (v . z for v in directions) over z in body ∩ lattice.

    This measures the projection of the point set onto span(directions)
    through the integer pairing, matching the projection bound in the
    co-dimensional factorization.
    """
    vecs = [tuple(int(x) for x in v) for v in directions]
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
