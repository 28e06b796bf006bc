"""Origin-symmetric convex bodies with exact rational data.

A body is either an H-rep (normalized integer facet normals with rational
offsets, stored in +/- pairs) or a V-rep (rational hull generators in
+/- pairs).  Every predicate is an exact rational comparison; dilation
roots are never taken (callers compare d-th powers instead).

Each body owns one hull.  A V-rep body hulls its generators; an H-rep body
hulls its cached V-rep dual conv(a / b), which is also its polar.  Both
volumes read the one hull's facet–point incidence, in either direction.

Gauge, membership, the support LP and a V-rep polar's bounding box read one
cached integer gauge table ``(c, B)``: the facet rows a . x <= b scaled to
one common right side B > 0, so that gauge(x) = max_i c_i . x / B.  Integer
points stay integers, and a caller that only compares gauges (the successive
minima) compares the integer numerators max_i c_i . x.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat

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
    identity,
    int_rank,
    is_zero,
    scale_to_int,
    vec_neg,
)

EXACT_DIM_CAP_ENV = "LATSLICE_EXACT_DIM_CAP"
DEFAULT_EXACT_DIM_CAP = 5

HRow = tuple[tuple[int, ...], Fraction]  # a . x <= b


def exact_dim_cap() -> int:
    """Dimension cap for exact volume: the environment variable, else the default."""
    env = os.environ.get(EXACT_DIM_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{EXACT_DIM_CAP_ENV} must be an integer, got {env!r}") from None
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
    def _gauge_table(self):
        """(c, B): the facet rows a . x <= b as c_i . x <= B, B the lcm of the b numerators.

        Every c_i = a_i * B / b_i is integral and B > 0, so gauge(x) =
        max_i c_i . x / B.  For an H-rep body the c_i are also the support
        LP's columns: h_K(u) = min Σμ subject to Σ μ_i c_i = B·u, μ >= 0.
        """
        rows = self.facet_rows
        B = math.lcm(*(b.numerator for _, b in rows))
        return [tuple(ai * (B // b.numerator * b.denominator) for ai in a) for a, b in rows], B

    @cached_property
    def lattice_points(self) -> tuple[tuple[int, ...], ...]:
        """K ∩ Z^d in ascending lex order: listed once, freed with the body."""
        return tuple(lattices._listing(self))

    @cached_property
    def _dual(self) -> "ConvexBody":
        """The polar of an H-rep body as a V-rep body, conv(a / b) over its rows."""
        verts = [tuple(Fraction(ai) / b for ai in a) for a, b in self.rows]
        return from_vertices(verts, name=f"polar({self.name})")

    @cached_property
    def _exact_volume(self) -> Fraction:
        if self.rows is not None:
            return self._dual._polar_exact_volume
        pts, L = self._vrep_scaled
        masks = [sum(1 << i for i in f.active) for f in self.facets]
        return hull.face_volume(pts, masks, self.dim) / Fraction(L) ** self.dim

    @cached_property
    def _polar_exact_volume(self) -> Fraction:
        if self.rows is not None:
            return self._dual._exact_volume
        pts, L = self._vrep_scaled
        facets = self.facets
        # facet a . x <= b of the scaled hull is the polar vertex a * L / b,
        # which M / L scales to the integer point a * (M / b)
        M = math.lcm(*(f.offset for f in facets))
        polar_pts = [tuple(ai * (M // f.offset) for ai in f.normal) for f in facets]
        # a primal vertex's polar facet holds the polar points of its facets;
        # generators that are not vertices give non-maximal masks and drop out
        masks = hull.maximal_masks(self._incidence)
        return hull.face_volume(polar_pts, masks, self.dim) * Fraction(L, M) ** self.dim

    @cached_property
    def _incidence(self) -> list[int]:
        """Per generator of a V-rep body, the bitmask of the hull facets through it; vertices have maximal masks."""
        return [sum(1 << fi for fi, f in enumerate(self.facets) if i in f.active) for i in range(len(self.verts))]

    # -- predicates ---------------------------------------------------------

    def _check_point(self, point):
        """The point as a tuple, int entries kept and the rest made Fractions."""
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point has length {len(point)}, body dimension is {self.dim}"
            )
        return tuple(x if type(x) is int else Fraction(x) for x in point)

    def contains(self, point) -> bool:
        """Exact closed-body membership."""
        x = self._check_point(point)
        return self.gauge_numerator(x) <= self.gauge_denominator

    def gauge(self, point) -> Fraction:
        """Minkowski functional min{t > 0 : point in t*K}, exact."""
        x = self._check_point(point)
        if is_zero(x):
            raise ValueError("gauge of the zero vector")
        return Fraction(self.gauge_numerator(x), self.gauge_denominator)

    @property
    def gauge_denominator(self) -> int:
        """B > 0 of the gauge table: gauge(x) = gauge_numerator(x) / B."""
        return self._gauge_table[1]

    def gauge_numerator(self, x) -> int:
        """max_i c_i . x over the gauge table: B times the gauge of x.

        ``x`` is not checked: it must have the body's length.  All points
        share B, so numerators order points as their gauges do.
        """
        return max(map(dot, self._gauge_table[0], repeat(x)))

    def support(self, direction) -> Fraction:
        """Support function h_K(u) = max{u . x : x in K}, exact."""
        u = self._check_point(direction)
        if self.verts is not None:
            return max(dot(u, v) for v in self.verts)
        vectors, B = self._gauge_table
        h = lp.min_combination(vectors, tuple(B * x for x in u))
        if h is None:
            raise UnboundedBodyError("support function is infinite")
        return h

    def is_unconditional(self) -> bool:
        """Invariance under every single coordinate sign flip.

        Facet rows a . x <= b closed under flips prove it with no hull; failing
        that, an H-rep body, whose rows may be redundant, flips only the rows
        whose a / b is a vertex of its dual.
        """
        closed = _flips_closed(dict(self.facet_rows), self.dim)
        if closed or self.rows is None:
            return closed
        dual = self._dual
        top = set(hull.maximal_masks(dual._incidence))
        vertices = {v for v, mask in zip(dual.verts, dual._incidence) if mask in top}
        return _flips_closed({a: b for a, b in self.rows if tuple(x / b for x in a) in vertices}, self.dim)

    # -- constructions -------------------------------------------------------

    def polar(self) -> "ConvexBody":
        """Polar body {y : y . x <= 1 for all x in K}; swaps representations.

        An H-rep body returns its cached dual.  The polar of a V-rep body K
        takes K itself as its dual (K°° = K), so its volumes read K's hull;
        K keeps no reference back.  Its bounding box comes from K's gauge
        table, with no LP: h_{K°}(e_j) = gauge_K(e_j) = max_i c_ij / B.
        """
        if self.rows is not None:
            return self._dual
        rows = _hrep_rows(self.dim, [(v, Fraction(1)) for v in self.verts])
        c, B = self._gauge_table
        box = tuple(Fraction(max(col), B) for col in zip(*c))
        polar = ConvexBody(dim=self.dim, rows=rows, verts=None, bounding_box=box, name=f"polar({self.name})")
        object.__setattr__(polar, "_dual", self)
        return polar

    def scale(self, factor) -> "ConvexBody":
        c = Fraction(factor)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        if self.rows is not None:
            rows = [(a, b * c) for a, b in self.rows]
            return from_hrep(self.dim, rows, name=f"{c}*{self.name}")
        verts = [tuple(c * x for x in v) for v in self.verts]
        return from_vertices(verts, name=f"{c}*{self.name}")


def _flips_closed(table, dim) -> bool:
    """Whether each flip of each row a -> b of table (one entry of a negated) is a row with the same b."""
    return all(table.get(a[:i] + (-a[i],) + a[i + 1 :]) == b for a, b in table.items() for i in range(dim))


def _exact(x):
    """x itself if it is an int or a Fraction, else Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _normalize_row(a, b):
    """(a, b) scaled to a primitive integer a; b is divided by the same positive factor.

    Integral rows stay in ints until the offset's one Fraction is built.
    """
    (ai,), L = scale_to_int([[_exact(x) for x in a]])
    bv = _exact(b)
    g = content(ai)
    if g == 0:
        if bv < 0:
            raise DegenerateBodyError("row 0 <= b with b < 0: empty body")
        return None
    bv = Fraction(bv * L, g)
    if bv <= 0:
        raise DegenerateBodyError("facet offset <= 0: origin not interior")
    return tuple(x // g for x in ai), bv


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
    for j, e in enumerate(identity(dim)):
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
    d = len(verts[0]) if dim is None else dim
    if d < 1:
        raise DegenerateBodyError("dimension must be >= 1")
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
    return from_hrep(d, [(e, 1) for e in identity(d)], name=f"cube:{d}")


def cross(d) -> ConvexBody:
    """Unit 1-norm ball conv(+-e_i)."""
    return from_vertices(identity(d), name=f"cross:{d}")


def box(radii) -> ConvexBody:
    """Axis-aligned box with per-coordinate radii."""
    rs = [Fraction(r) for r in radii]
    rows = list(zip(identity(len(rs)), rs))
    return from_hrep(len(rs), rows, name="box:" + ",".join(str(r) for r in rs))


# -- serialization --------------------------------------------------------------


def _parse_fraction(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise BodyFormatError(f"bad rational literal {s!r}") from exc


def _json_list(x, what) -> list:
    if not isinstance(x, list):
        raise BodyFormatError(f"{what} must be a list, got {x!r}")
    return x


def body_from_dict(data, strict=False, name=None) -> ConvexBody:
    if not isinstance(data, dict):
        raise BodyFormatError("body file must hold a JSON object")
    d = None
    if "dim" in data:
        raw = data["dim"]
        try:
            d = int(raw)
        except (ValueError, TypeError, OverflowError) as exc:
            raise BodyFormatError(f"bad dim {raw!r}") from exc
        if isinstance(raw, bool) or not isinstance(raw, str) and d != raw:  # "2" parses; 2.5 and true do not
            raise BodyFormatError(f"bad dim {raw!r}: not an integer")
    if "hrep" in data:
        if d is None:
            raise BodyFormatError("hrep body file needs a dim field")
        rows = []
        for entry in _json_list(data["hrep"], "hrep"):
            try:
                a_raw, b_raw = entry
            except (TypeError, ValueError) as exc:
                raise BodyFormatError("hrep entries must be [[a1,...], b]") from exc
            a = [_parse_fraction(x) for x in _json_list(a_raw, "an hrep normal")]
            rows.append((a, _parse_fraction(b_raw)))
        return from_hrep(d, rows, strict=strict, name=name)
    if "vrep" in data:
        verts = [
            [_parse_fraction(x) for x in _json_list(v, "a vrep vertex")]
            for v in _json_list(data["vrep"], "vrep")
        ]
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
            data = json.load(fh, parse_float=Fraction)  # 0.1 is 1/10, not a binary double
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


def _check_exact_dim(body):
    cap = exact_dim_cap()
    if body.dim > cap:
        raise ExactVolumeUnsupportedError(
            f"exact volume cap is {cap}, body dimension is {body.dim} "
            f"(raise {EXACT_DIM_CAP_ENV} to override)"
        )


def volume(body, mode="exact", samples=10_000, seed=0) -> Volume:
    """Volume of the body: exact (d up to the cap) or Monte Carlo box sampling."""
    if mode == "exact":
        _check_exact_dim(body)
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


def polar_volume(body) -> Volume:
    """Exact volume of the polar body.

    Both volumes come from one hull: a V-rep body's own, or the hull of an
    H-rep body's dual.  The primal facets are the polar's vertices, and the
    facet–generator incidence, read the other way round, gives the polar's
    facets.  A pulling triangulation over that incidence
    (``hull.face_volume``) needs no hull of the polar.
    """
    _check_exact_dim(body)
    return Volume(mode="exact", value=body._polar_exact_volume)
