"""Origin-symmetric convex bodies with exact rational data.

A body is either an H-rep (normalized integer facet normals with rational
offsets, stored in +/- pairs) or a V-rep (rational hull generators in
+/- pairs).  Every predicate is an exact rational comparison; dilation
roots are never taken (callers compare d-th powers instead).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import hull, lattices, lp
from .errors import (
    BodyFormatError,
    DegenerateBodyError,
    DimensionMismatchError,
    ExactVolumeUnsupportedError,
    SymmetryError,
    UnboundedBodyError,
)
from .linalg import (
    content,
    dot,
    frac_vec,
    int_rank,
    is_zero,
    scale_to_int,
    vec_neg,
)

EXACT_DIM_CAP_ENV = "LATSLICE_EXACT_DIM_CAP"
DEFAULT_EXACT_DIM_CAP = 5

HRow = tuple[tuple[int, ...], Fraction]  # a . x <= b


def exact_dim_cap(override=None) -> int:
    """Dimension cap for exact volume; override > env > default."""
    if override is not None:
        return int(override)
    env = os.environ.get(EXACT_DIM_CAP_ENV)
    if env:
        return int(env)
    return DEFAULT_EXACT_DIM_CAP


@dataclass(frozen=True)
class Volume:
    """Exact rational volume, or a Monte Carlo estimate with its standard error."""

    mode: str  # "exact" | "monte_carlo"
    value: Fraction | float
    error: float | None = None


@dataclass(frozen=True)
class ConvexBody:
    dim: int
    rows: tuple[HRow, ...] | None
    verts: tuple[tuple[Fraction, ...], ...] | None
    bounding_box: tuple[Fraction, ...]
    name: str

    def __repr__(self):
        return f"ConvexBody({self.name})"

    # -- derived representations ------------------------------------------

    @cached_property
    def _vrep_scaled(self):
        """(integer-scaled generators, multiplier L) for a V-rep body."""
        if self.verts is None:
            raise ValueError("not a V-rep body")
        pts, L = scale_to_int(list(self.verts))
        return [tuple(p) for p in pts], L

    @cached_property
    def facets(self):
        """Facet list of a V-rep body, in the scaled integer coordinates."""
        pts, _ = self._vrep_scaled
        return hull.hull_facets(pts, self.dim)

    @cached_property
    def facet_rows(self) -> tuple[HRow, ...]:
        """H-rep rows: native for H-rep bodies, facet-derived for V-rep ones."""
        if self.rows is not None:
            return self.rows
        _, L = self._vrep_scaled
        rows = [(f.normal, Fraction(f.offset, L)) for f in self.facets]
        return tuple(rows)

    @cached_property
    def int_rows(self):
        """Rows scaled per-row to integers: list of (a, b) with int b."""
        out = []
        for a, b in self.facet_rows:
            q = Fraction(b)
            out.append((tuple(x * q.denominator for x in a), q.numerator))
        return out

    @cached_property
    def lattice_points(self) -> tuple[tuple[int, ...], ...]:
        """K ∩ Z^d in ascending lex order: listed once, freed with the body."""
        return tuple(lattices._listing(self))

    @cached_property
    def _exact_volume(self) -> Fraction:
        if self.rows is not None:
            return _volume_hrep(self.int_rows, self.dim)
        pts, L = self._vrep_scaled
        masks = [sum(1 << i for i in f.active) for f in self.facets]
        return hull.face_volume(pts, masks, self.dim) / Fraction(L) ** self.dim

    @cached_property
    def _polar_exact_volume(self) -> Fraction:
        if self.rows is not None:
            return self.polar()._exact_volume
        pts, L = self._vrep_scaled
        facets = self.facets
        # facet a . x <= b of the scaled hull is the polar vertex a * L / b,
        # which M / L scales to the integer point a * (M / b)
        M = math.lcm(*(f.offset for f in facets))
        polar_pts = [tuple(ai * (M // f.offset) for ai in f.normal) for f in facets]
        # a primal vertex's polar facet holds the polar points of its facets;
        # generators that are not vertices give non-maximal masks and drop out
        masks = hull.maximal_masks(
            sum(1 << fi for fi, f in enumerate(facets) if i in f.active) for i in range(len(pts))
        )
        return hull.face_volume(polar_pts, masks, self.dim) * Fraction(L, M) ** self.dim

    # -- predicates ---------------------------------------------------------

    def _check_point(self, point):
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point has length {len(point)}, body dimension is {self.dim}"
            )
        return frac_vec(point)

    def contains(self, point) -> bool:
        """Exact closed-body membership."""
        x = self._check_point(point)
        if self.rows is not None:
            return all(dot(a, x) <= b for a, b in self.rows)
        if is_zero(x):
            return True
        return self.gauge(x) <= 1

    def gauge(self, point) -> Fraction:
        """Minkowski functional min{t > 0 : point in t*K}, exact."""
        x = self._check_point(point)
        if is_zero(x):
            raise ValueError("gauge of the zero vector")
        if self.rows is not None:
            best = Fraction(0)
            for a, b in self.rows:
                s = dot(a, x)
                if s > 0:
                    best = max(best, Fraction(s) / b)
            if best == 0:
                raise UnboundedBodyError("gauge vanished on a nonzero vector")
            return best
        g = lp.min_combination(self.verts, x)
        if g is None or g == 0:
            raise UnboundedBodyError("gauge LP infeasible for a spanning V-rep")
        return g

    def support(self, direction) -> Fraction:
        """Support function h_K(u) = max{u . x : x in K}, exact."""
        u = self._check_point(direction)
        if self.verts is not None:
            return max(dot(u, v) for v in self.verts)
        polar_verts = [tuple(Fraction(ai) / b for ai in a) for a, b in self.rows]
        h = lp.min_combination(polar_verts, u)
        if h is None:
            raise UnboundedBodyError("support function is infinite")
        return h

    def is_unconditional(self) -> bool:
        """Invariance under every single coordinate sign flip."""
        if self.rows is not None:
            table = {a: b for a, b in self.rows}
            for a, b in self.rows:
                for i in range(self.dim):
                    flipped = a[:i] + (-a[i],) + a[i + 1 :]
                    if table.get(flipped) != b and table.get(vec_neg(flipped)) != b:
                        return False
            return True
        vert_set = set(self.verts)
        for v in self.verts:
            for i in range(self.dim):
                flipped = v[:i] + (-v[i],) + v[i + 1 :]
                if flipped not in vert_set and not self.contains(flipped):
                    return False
        return True

    # -- constructions -------------------------------------------------------

    def polar(self) -> "ConvexBody":
        """Polar body {y : y . x <= 1 for all x in K}; swaps representations.

        The polar of a V-rep body takes its bounding box from K's cached
        facets, with no LP: h_{K°}(e_j) = gauge_K(e_j) = max a_j / b over
        the facets a . x <= b.
        """
        name = f"polar({self.name})"
        if self.rows is not None:
            verts = [tuple(Fraction(ai) / b for ai in a) for a, b in self.rows]
            return from_vertices(verts, name=name)
        rows = _hrep_rows(self.dim, [(v, Fraction(1)) for v in self.verts])
        box = tuple(max(a[j] / b for a, b in self.facet_rows) for j in range(self.dim))
        return ConvexBody(dim=self.dim, rows=rows, verts=None, bounding_box=box, name=name)

    def scale(self, factor) -> "ConvexBody":
        c = Fraction(factor)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        if self.rows is not None:
            rows = [(a, b * c) for a, b in self.rows]
            return from_hrep(self.dim, rows, name=f"{c}*{self.name}")
        verts = [tuple(c * x for x in v) for v in self.verts]
        return from_vertices(verts, name=f"{c}*{self.name}")


def _normalize_row(a, b):
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


def _hrep_rows(dim, raw_rows, strict=False) -> tuple[HRow, ...]:
    """The checked rows of ``from_hrep``: normalized, symmetric and sorted."""
    if dim < 1:
        raise DegenerateBodyError("dimension must be >= 1")
    table: dict[tuple[int, ...], Fraction] = {}
    for a, b in raw_rows:
        if len(a) != dim:
            raise DimensionMismatchError("row length differs from dim")
        norm = _normalize_row(a, b)
        if norm is None:
            continue
        ai, bv = norm
        if ai in table:
            table[ai] = min(table[ai], bv)
        else:
            table[ai] = bv
    if not table:
        raise UnboundedBodyError("no effective rows")
    for ai in list(table):
        neg = vec_neg(ai)
        if neg not in table:
            if strict:
                raise SymmetryError(f"missing symmetric partner for row {ai}")
            table[neg] = table[ai]
    for ai in table:
        if table[ai] != table[vec_neg(ai)]:
            raise SymmetryError(f"rows for {ai} break origin symmetry")
    return tuple(sorted(table.items()))


def from_hrep(dim, raw_rows, strict=False, name=None) -> ConvexBody:
    """Build a body from rows (a, b) meaning a . x <= b.

    Rows are gcd-normalized; the symmetric partner (-a, b) is auto-added
    unless strict=True, in which case a missing partner is an error.  A
    partner present with a different offset is always rejected.
    """
    rows = _hrep_rows(dim, raw_rows, strict)
    body = ConvexBody(dim=dim, rows=rows, verts=None, bounding_box=(), name=name or f"hrep:{dim}d")
    # boundedness: every coordinate support must be finite
    box = []
    for j in range(dim):
        e = tuple(Fraction(1 if k == j else 0) for k in range(dim))
        try:
            box.append(body.support(e))
        except UnboundedBodyError:
            raise UnboundedBodyError(f"body unbounded along coordinate {j}")
    object.__setattr__(body, "bounding_box", tuple(box))
    return body


def from_vertices(raw_verts, strict=False, name=None, dim=None) -> ConvexBody:
    """Build a body as the hull of rational generators, stored in +/- pairs."""
    verts = [frac_vec(v) for v in raw_verts]
    if not verts:
        raise DegenerateBodyError("no vertices")
    d = dim or len(verts[0])
    if any(len(v) != d for v in verts):
        raise DimensionMismatchError("vertex length differs from dim")
    vert_set = {tuple(v) for v in verts}
    for v in list(vert_set):
        if vec_neg(v) not in vert_set:
            if strict:
                raise SymmetryError(f"missing symmetric partner for vertex {v}")
            vert_set.add(vec_neg(v))
    ordered = tuple(sorted(vert_set))
    if int_rank(ordered) < d:
        raise DegenerateBodyError("vertices do not span the ambient space")
    box = tuple(max(abs(v[j]) for v in ordered) for j in range(d))
    return ConvexBody(dim=d, rows=None, verts=ordered, bounding_box=box, name=name or f"vrep:{d}d")


# -- built-ins ----------------------------------------------------------------


def cube(d) -> ConvexBody:
    """Unit sup-norm ball, side 2."""
    rows = []
    for i in range(d):
        a = tuple(1 if j == i else 0 for j in range(d))
        rows.append((a, 1))
    return from_hrep(d, rows, name=f"cube:{d}")


def cross(d) -> ConvexBody:
    """Unit 1-norm ball conv(+-e_i)."""
    verts = []
    for i in range(d):
        verts.append(tuple(1 if j == i else 0 for j in range(d)))
    return from_vertices(verts, name=f"cross:{d}")


def box(radii) -> ConvexBody:
    """Axis-aligned box with per-coordinate radii."""
    rs = [Fraction(r) for r in radii]
    d = len(rs)
    rows = []
    for i, r in enumerate(rs):
        a = tuple(1 if j == i else 0 for j in range(d))
        rows.append((a, r))
    return from_hrep(d, rows, name="box:" + ",".join(str(r) for r in rs))


# -- serialization --------------------------------------------------------------


def _parse_fraction(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise BodyFormatError(f"bad rational literal {s!r}") from exc


def body_from_dict(data, strict=False, name=None) -> ConvexBody:
    if "hrep" in data:
        if "dim" not in data:
            raise BodyFormatError("hrep body file needs a dim field")
        d = int(data["dim"])
        rows = []
        for entry in data["hrep"]:
            try:
                a_raw, b_raw = entry
            except (TypeError, ValueError) as exc:
                raise BodyFormatError("hrep entries must be [[a1,...], b]") from exc
            rows.append(([_parse_fraction(x) for x in a_raw], _parse_fraction(b_raw)))
        return from_hrep(d, rows, strict=strict, name=name)
    if "vrep" in data:
        verts = [[_parse_fraction(x) for x in v] for v in data["vrep"]]
        d = int(data["dim"]) if "dim" in data else None
        return from_vertices(verts, strict=strict, name=name, dim=d)
    raise BodyFormatError("body file needs an hrep or vrep field")


def body_to_dict(body) -> dict:
    if body.rows is not None:
        return {
            "dim": body.dim,
            "hrep": [[[str(x) for x in a], str(b)] for a, b in body.rows],
        }
    return {"dim": body.dim, "vrep": [[str(x) for x in v] for v in body.verts]}


def body_from_spec(spec, strict=False) -> ConvexBody:
    """Resolve a CLI body source: built-in name or a JSON file path."""
    if isinstance(spec, dict):
        return body_from_dict(spec, strict=strict)
    text = str(spec)
    if text.startswith("cube:"):
        return cube(_parse_dim(text[5:]))
    if text.startswith("cross:"):
        return cross(_parse_dim(text[6:]))
    if text.startswith("box:"):
        radii = [_parse_fraction(t) for t in text[4:].split(",") if t]
        if not radii:
            raise BodyFormatError("box: needs at least one radius")
        return box(radii)
    try:
        with open(text) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BodyFormatError(f"unknown body {text!r} (not a built-in, cannot open as file)") from exc
    except json.JSONDecodeError as exc:
        raise BodyFormatError(f"{text}: invalid JSON body file") from exc
    return body_from_dict(data, strict=strict, name=text)


def _parse_dim(s) -> int:
    try:
        d = int(s)
    except ValueError as exc:
        raise BodyFormatError(f"bad dimension {s!r}") from exc
    if d < 1:
        raise BodyFormatError("dimension must be >= 1")
    return d


# -- volume ---------------------------------------------------------------------


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


def _check_exact_dim(body, dim_cap):
    cap = exact_dim_cap(dim_cap)
    if body.dim > cap:
        raise ExactVolumeUnsupportedError(
            f"exact volume cap is {cap}, body dimension is {body.dim} "
            f"(raise {EXACT_DIM_CAP_ENV} to override)"
        )


def volume(body, mode="exact", dim_cap=None, samples=10_000, seed=0) -> Volume:
    """Volume of the body: exact (d up to the cap) or Monte Carlo box sampling."""
    if mode == "exact":
        _check_exact_dim(body, dim_cap)
        return Volume(mode="exact", value=body._exact_volume)
    if mode in ("monte_carlo", "mc"):
        if samples <= 0:
            raise ValueError("samples must be positive")
        rng = random.Random(seed)
        radii = [float(r) for r in body.bounding_box]
        box_vol = 1.0
        for r in body.bounding_box:
            box_vol *= float(2 * r)
        rows = body.int_rows
        hits = 0
        for _ in range(samples):
            pt = tuple(Fraction(rng.uniform(-r, r)) for r in radii)
            if all(dot(a, pt) <= b for a, b in rows):
                hits += 1
        p = hits / samples
        err = box_vol * math.sqrt(p * (1 - p) / samples)
        if err == 0.0:
            err = box_vol / samples
        return Volume(mode="monte_carlo", value=box_vol * p, error=err)
    raise ValueError(f"unknown volume mode {mode!r}")


def polar_volume(body, dim_cap=None) -> Volume:
    """Exact volume of the polar body.

    For a V-rep body both volumes come from one hull: the primal facets are
    the polar's vertices, and the facet–generator incidence, read the other
    way round, gives the polar's facets.  A pulling triangulation over that
    incidence (``hull.face_volume``) needs no hull of the polar.
    """
    _check_exact_dim(body, dim_cap)
    return Volume(mode="exact", value=body._polar_exact_volume)
