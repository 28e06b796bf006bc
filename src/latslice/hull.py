"""Exact convex hulls of integer point sets: facets, vertices, volumes.

Facet enumeration is brute force over d-subsets with a membership skip
(subsets lying inside an already-found facet are never re-solved), which
is plenty at desk scale and trivially exact.  Dimension 2 short-circuits
to a monotone-chain scan.  Each subset's plane comes from
``linalg.hyperplane_through``: closed form for d <= 3 (one edge cross
product per 3-D subset), homogeneous cofactor minors above.

A volume runs the hull once: ``face_volume`` triangulates from the
facet–point incidence alone, and the transposed incidence gives the polar's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

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
