"""Exact convex hulls of integer point sets: facets, vertices, volumes.

Facet enumeration is brute force over d-subsets with a membership skip
(subsets lying inside an already-found facet are never re-solved), which
is plenty at desk scale and trivially exact.  Dimension 2 short-circuits
to a monotone-chain scan and reads each facet off one of its
counterclockwise edges.  Above, one loop walks the (d-1)-point
prefixes and closes each with every later point.  In 3-D a prefix is one
edge, and each closing point's plane (the edge cross product) and side
test run in line on ints; for d >= 4 each subset's plane comes from
``linalg.hyperplane_through``'s homogeneous cofactor minors.

A volume runs the hull once: ``face_volume`` triangulates from the
facet–point incidence alone, and the transposed incidence gives the polar's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from .errors import LatsliceError
from .linalg import det_int, dot, hyperplane_through, vec_sub

__all__ = ["Facet", "HullSizeError", "graham_hull", "face_volume", "hull_facets", "hull_volume", "maximal_masks"]

SUBSET_GUARD = 500_000


class HullSizeError(LatsliceError):
    """Raised when brute-force facet enumeration would be too large."""


@dataclass(frozen=True)
class Facet:
    normal: tuple[int, ...]
    offset: int
    active: tuple[int, ...]  # indices of input points on the facet


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def graham_hull(points):
    """Extreme points of a 2D integer point set, counterclockwise order."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # collinear input collapses to a segment
        return [min(pts), max(pts)]
    return hull


def _facets_2d(pts):
    """Facets off graham_hull's counterclockwise edges (p, q).

    a is q - p turned clockwise (outward) over its gcd, and b = a . p.
    """
    hull = graham_hull(pts)
    if len(hull) < 3:
        return []
    facets = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        g = gcd(q[0] - p[0], q[1] - p[1])
        ax, ay = (q[1] - p[1]) // g, (p[0] - q[0]) // g
        b = ax * p[0] + ay * p[1]
        active = tuple(k for k, (x, y) in enumerate(pts) if ax * x + ay * y == b)
        facets.append(Facet((ax, ay), b, active))
    return facets


def hull_facets(pts, dim):
    """All facets of conv(pts) for an integer point set spanning dimension dim.

    For dim >= 3 one loop walks the (dim-1)-point prefixes in
    ``itertools.combinations`` order and closes each with every later
    point, so the subsets come in the same order as
    ``combinations(range(n), dim)``.  A prefix ANDs its points' facet
    masks once (again after each facet it finds), and a last point
    sharing a bit with that mask is skipped: the subset lies inside a
    facet already found.  At dim = 3 the prefix (i, j) takes its edge
    u = p_j - p_i once, and each k gives the plane a = u x (p_k - p_i),
    b = a . p_i, and the side test runs on ints in line.  Above, each
    subset's plane is ``hyperplane_through``'s.  The side test stops at
    the first point past the plane on each side; a plane that passes it
    is divided by its gcd and turned so that a . p <= b on every point.

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
    total = comb(n, dim)
    if total > SUBSET_GUARD:
        raise HullSizeError(f"facet enumeration over {total} subsets exceeds guard {SUBSET_GUARD}")
    facet_bits = [0] * n
    facets = []
    for prefix in itertools.combinations(range(n - 1), dim - 1):
        mask = _meet(facet_bits, prefix)
        if dim == 3:
            x0, y0, z0 = pts[prefix[0]]
            x1, y1, z1 = pts[prefix[1]]
            u0, u1, u2 = x1 - x0, y1 - y0, z1 - z0
        else:
            base = [pts[i] for i in prefix]
        for k in range(prefix[-1] + 1, n):
            if mask & facet_bits[k]:
                continue
            pos = neg = False
            if dim == 3:
                x, y, z = pts[k]
                v0, v1, v2 = x - x0, y - y0, z - z0
                a = a0, a1, a2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
                if not (a0 or a1 or a2):
                    continue
                b = a0 * x0 + a1 * y0 + a2 * z0
                for x, y, z in pts:
                    s = a0 * x + a1 * y + a2 * z
                    if s > b:
                        pos = True
                        if neg:
                            break
                    elif s < b:
                        neg = True
                        if pos:
                            break
                if pos and neg:
                    continue
                active = [t for t, (x, y, z) in enumerate(pts) if a0 * x + a1 * y + a2 * z == b]
            else:
                hp = hyperplane_through(base + [pts[k]])
                if hp is None:
                    continue
                a, b = hp
                for p in pts:
                    s = dot(a, p)
                    if s > b:
                        pos = True
                        if neg:
                            break
                    elif s < b:
                        neg = True
                        if pos:
                            break
                if pos and neg:
                    continue
                active = [t for t, p in enumerate(pts) if dot(a, p) == b]
            if not pos and not neg:  # one plane holds every point: the set is flat
                return []
            # primitive, and turned so that a . p <= b holds on every point
            g = -gcd(*a) if pos else gcd(*a)
            a, b = tuple(x // g for x in a), b // g
            fid = 1 << len(facets)
            for i in active:
                facet_bits[i] |= fid
            facets.append(Facet(a, b, tuple(active)))
            mask = _meet(facet_bits, prefix)
    return facets


def _meet(facet_bits, prefix):
    """AND of the facet masks of the prefix's points."""
    mask = facet_bits[prefix[0]]
    for i in prefix[1:]:
        mask &= facet_bits[i]
    return mask


def maximal_masks(masks):
    """The inclusion-maximal nonzero bitmasks among masks, each once."""
    cuts = set(masks) - {0}
    return [c for c in cuts if not any(c != o and c & o == c for o in cuts)]


def _pulling(face, masks, memo):
    """Simplices of a face's pulling triangulation: index tuples, apex first."""
    apex = (face & -face).bit_length() - 1
    if face == 1 << apex:  # a vertex
        return [(apex,)]
    if face not in memo:
        # the facets of a face are its inclusion-maximal proper cuts face & F
        faces = maximal_masks({face & m for m in masks} - {face})
        memo[face] = [(apex,) + s for f in faces if not f >> apex & 1 for s in _pulling(f, masks, memo)]
    return memo[face]


def face_volume(pts, facet_masks, dim):
    """Exact dim-volume of conv(pts) from its facets given as point bitmasks.

    A pulling triangulation: each face is coned from its lowest-index point
    over those of its own facets that avoid it, and lower faces are read off
    the incidence alone.  Each simplex adds |det(p_i - p_0)|; the sum is
    divided by dim!.  A flat set gives 0.
    """
    if len(pts) <= dim:
        return Fraction(0)
    total = 0
    for s in _pulling((1 << len(pts)) - 1, facet_masks, {}):
        base = pts[s[0]]
        total += abs(det_int([vec_sub(pts[i], base) for i in s[1:]]))
    return Fraction(total, factorial(dim))


def hull_volume(pts, dim):
    """Exact dim-volume of conv(pts) for integer points: one hull, then face_volume."""
    pts = sorted(set(map(tuple, pts)))
    facets = hull_facets(pts, dim)
    return face_volume(pts, [sum(1 << i for i in f.active) for f in facets], dim)
