import itertools
import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from latslice import hull
from latslice.bodies import cross
from latslice.hull import HullSizeError, graham_hull, hull_facets, hull_volume, maximal_masks
from latslice.linalg import dot
from latslice.verify import random_symmetric_body


def shoelace(poly):
    s = 0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return Fraction(abs(s), 2)


def test_graham_square():
    pts = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    hull = graham_hull(pts)
    assert sorted(hull) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_graham_collinear():
    assert graham_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]


def test_facets_of_square():
    pts = [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)]
    facets = hull_facets(pts, 2)
    assert len(facets) == 4
    for f in facets:
        assert all(dot(f.normal, p) <= f.offset for p in pts)
        assert len(f.active) == 2


def test_facets_of_octahedron():
    pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    facets = hull_facets(pts, 3)
    assert len(facets) == 8
    assert all(sorted(map(abs, f.normal)) == [1, 1, 1] for f in facets)


def test_facets_of_cube_3d():
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    facets = hull_facets(pts, 3)
    assert len(facets) == 6
    for f in facets:
        assert len(f.active) == 4  # non-simplicial facets found once


def test_facet_lists_match_oracle():
    """The prefix walk gives the same facets, actives and order as the per-subset oracle.

    Order matters: a later subset is skipped when it lies inside a facet
    found before it.
    """
    cases = [random_symmetric_body(3, s)._vrep_scaled[0] for s in range(30)]
    cases.append([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    cases.append(cross(3)._vrep_scaled[0])
    cases.append([(x, y, z) for x in range(-2, 3) for y in (-1, 0, 1) for z in (-1, 0, 1)])
    for pts in cases:
        got = hull_facets(pts, 3)
        assert got == oracle.hull_facets(pts, 3)
        assert got


@st.composite
def small_sets(draw):
    """Small-int point sets at d = 2, 3, 4: symmetric or not, with repeated, collinear and coplanar points.

    A 2-D set may hold fewer than 3 points.
    """
    d = draw(st.integers(2, 4))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1 if d == 2 else d, max_size=6 if d == 4 else 8))
    if draw(st.booleans()):
        pts += [tuple(-x for x in p) for p in pts]
    extra = draw(st.sampled_from(["none", "repeated", "collinear", "coplanar"]))
    if extra == "repeated":
        pts += pts[: draw(st.integers(1, len(pts)))]
    elif extra == "collinear" and len(pts) >= 2:  # p + 2(q - p) on the line through p, q
        p, q = pts[0], pts[1]
        pts.append(tuple(2 * b - a for a, b in zip(p, q)))
    elif extra == "coplanar" and len(pts) >= 3:  # q + r - p in the plane through p, q, r
        p, q, r = pts[:3]
        pts.append(tuple(b + c - a for a, b, c in zip(p, q, r)))
    return d, pts


@settings(max_examples=300, deadline=None)
@given(small_sets())
@example((2, [(1, -1)]))
@example((2, [(0, 0), (2, 1), (0, 0)]))
@example((2, [(-2, -1), (0, 0), (2, 1), (2, 1)]))
@example((2, [(0, 0), (2, 0), (2, 0), (1, 0), (0, 2), (1, 1)]))
def test_facet_lists_match_oracle_on_small_sets(case):
    d, pts = case
    got = hull_facets(pts, d)
    flat = oracle.int_rank([tuple(x - y for x, y in zip(p, pts[0])) for p in pts]) < d
    if flat:
        assert got == []
    if d == 2 or not flat:  # the oracle's d >= 3 walk gives a flat set one all-point facet
        assert got == oracle.hull_facets(pts, d)


def test_flat_sets_have_no_facets():
    square = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    cube = [p + (2,) for p in itertools.product((0, 1), repeat=3)]
    for pts, d in ((square, 3), (square + [(2, 3, 0)], 3), (cube, 4)):
        assert hull_facets(pts, d) == []
        assert hull_volume(pts, d) == 0


def test_subset_guard_raises_before_walking():
    pts = [(i, i * i, i * i * i) for i in range(146)]  # C(146, 3) = 508,080 > SUBSET_GUARD
    assert comb(146, 3) > hull.SUBSET_GUARD >= comb(145, 3)
    start = time.perf_counter()
    with pytest.raises(HullSizeError):
        hull_facets(pts, 3)
    assert time.perf_counter() - start < 1.0


def test_maximal_masks_keep_vertices_only():
    pts = [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0), (1, 0)]
    facets = hull_facets(pts, 2)
    by_point = [sum(1 << fi for fi, f in enumerate(facets) if i in f.active) for i in range(len(pts))]
    # (0,0) is interior (mask 0) and (1,0) edge-interior (a proper submask)
    assert sorted(maximal_masks(by_point)) == sorted(by_point[:4])
    assert len(set(by_point[:4])) == 4


def test_volume_cube():
    for d in (1, 2, 3, 4):
        pts = list(itertools.product((-1, 1), repeat=d))
        assert hull_volume(pts, d) == 2**d


def test_volume_cross_polytope():
    for d in (2, 3, 4, 5):
        pts = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            pts.append(tuple(e))
            pts.append(tuple(-x for x in e))
        assert hull_volume(pts, d) == Fraction(2**d, factorial(d))


def test_volume_simplex():
    # conv(0, 2e1, 2e2, 2e3) has volume 8/6
    pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    assert hull_volume(pts, 3) == Fraction(8, 6)


def test_volume_degenerate():
    assert hull_volume([(0, 0), (1, 1), (2, 2)], 2) == 0
    assert hull_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 3) == 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-7, 7), st.integers(-7, 7)), min_size=3, max_size=10
    )
)
def test_volume_2d_matches_shoelace(pts):
    hull = graham_hull(pts)
    expected = shoelace(hull) if len(hull) >= 3 else Fraction(0)
    assert hull_volume(pts, 2) == expected


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_volume_3d_matches_grid_estimate_bounds(data):
    # sanity: exact volume is sandwiched by inner/outer unit-cell counts
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pts = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(7)]
    pts += [tuple(-x for x in p) for p in pts]
    vol = hull_volume(pts, 3)
    assert vol >= 0
    assert vol == oracle.hull_volume(pts, 3)
    # containment monotonicity: adding a point can only grow the hull
    extra = pts + [(5, 5, 5)]
    assert hull_volume(extra, 3) >= vol


def test_volume_translation_invariant():
    pts = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 4), (2, 3, 4)]
    shifted = [(x + 5, y - 7, z + 1) for x, y, z in pts]
    assert hull_volume(pts, 3) == hull_volume(shifted, 3)


@st.composite
def point_sets(draw):
    """Integer point sets, d <= 4: translated, with repeats, interior and flat cases."""
    d = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=d + 5))
    kind = draw(st.sampled_from(["plain", "repeats", "interior", "edge", "flat"]))
    if kind == "repeats":
        pts += pts[: draw(st.integers(1, len(pts)))]
    elif kind == "interior":  # the centroid, after scaling by the point count
        n = len(pts)
        pts = [tuple(n * x for x in p) for p in pts] + [tuple(map(sum, zip(*pts)))]
    elif kind == "edge":  # the midpoint of the first two points, after doubling
        pts = [tuple(2 * x for x in p) for p in pts] + [tuple(map(sum, zip(*pts[:2])))]
    elif kind == "flat":
        pts = [p[:-1] + (0,) for p in pts]
    shift = draw(st.tuples(*[st.integers(-20, 20)] * d))
    return d, [tuple(x + s for x, s in zip(p, shift)) for p in pts]


@settings(max_examples=40, deadline=None)
@given(point_sets())
def test_volume_matches_fan_oracle(case):
    d, pts = case
    assert hull_volume(pts, d) == oracle.hull_volume(pts, d)
