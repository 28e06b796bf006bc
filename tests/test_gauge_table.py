"""The integer gauge table against the Fraction row-by-row code it replaced.

Seeded V-rep and H-rep bodies in d = 2..4, their polars and sublattices:
gauges, membership, the polar's bounding box and the successive minima must
match ``oracle`` exactly.  A full-rank subspace (no kernel normals) is one
translate that holds every point.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from latslice import box, cube, from_hrep
from latslice.lattices import Lattice, LatticeSubspace, sublattice
from latslice.linalg import identity, int_rank
from latslice.minima import successive_minima
from latslice.slicing import slice_profile
from latslice.verify import (
    random_rational_symmetric_2d,
    random_symmetric_body,
    random_unconditional_body,
)

KINDS = ["random", "diamond", "rational", "cube", "box", "unconditional", "rows"]


def _body(kind, d, seed):
    """A seeded body: V-rep for random, diamond and rational, H-rep otherwise."""
    rng = random.Random(seed)
    if kind == "random":
        return random_symmetric_body(d, seed)
    if kind == "diamond":
        while (body := random_unconditional_body(d, seed)).verts is None:
            seed += 1
        return body
    if kind == "rational":
        if d == 2:
            return random_rational_symmetric_2d(seed)
        return random_symmetric_body(d, seed).scale(Fraction(2, 3))
    if kind == "cube":
        return cube(d)
    if kind == "box":
        return box([Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)])
    if kind == "unconditional":
        while (body := random_unconditional_body(d, seed)).rows is None:
            seed += 1
        return body
    extra = rng.randint(1, 3)
    normals = identity(d) + [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(extra)]
    rows = []
    for a in normals:
        b = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        rows += [(a, b), (tuple(-x for x in a), b)]
    return from_hrep(d, rows)


bodies = st.builds(_body, st.sampled_from(KINDS), st.integers(2, 4), st.integers(0, 10**4))


def _points(body, data):
    """Integer, Fraction and mixed points in and around the body."""
    d = body.dim
    coords = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    pts = list(body.lattice_points[:: max(1, len(body.lattice_points) // 12)])
    pts += data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=1, max_size=6))
    pts += data.draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=6))
    pts += [tuple(body.bounding_box), tuple(-r for r in body.bounding_box)]
    return pts


@settings(max_examples=40, deadline=None)
@given(bodies, st.data())
def test_gauge_and_contains_match_fraction_rows(body, data):
    for target in (body, body.polar()):
        for x in _points(target, data):
            assert target.contains(x) == oracle.contains(target, x)
            if any(x):
                assert target.gauge(x) == oracle.gauge(target, x)


@settings(max_examples=40, deadline=None)
@given(bodies)
def test_polar_box_matches_facet_division(body):
    vrep = body if body.verts is not None else body.polar()
    assert vrep.polar().bounding_box == oracle.polar_facet_box(vrep)


@settings(max_examples=30, deadline=None)
@given(bodies)
def test_minima_match_fraction_scores(body):
    for target in (body, body.polar()):
        assert successive_minima(target) == oracle.successive_minima(target)


@settings(max_examples=30, deadline=None)
@given(bodies, st.data())
def test_minima_on_a_sublattice_match_fraction_scores(body, data):
    d = body.dim
    cols = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d))
    cols = [c for c in cols if any(c)]
    if not cols or int_rank(cols) < len(cols):
        cols = [identity(d)[0]]
    lat = Lattice(d, tuple(cols))
    assert successive_minima(body, lat) == oracle.successive_minima(body, lat)
    if len(cols) < d:
        sub = sublattice(LatticeSubspace.from_basis(cols))
        assert successive_minima(body, sub) == oracle.successive_minima(body, sub)


@pytest.mark.parametrize("kind", KINDS)
def test_full_rank_subspace_is_one_translate(kind):
    for d in (2, 3, 4):
        body = _body(kind, d, d)
        whole = LatticeSubspace(ambient_dim=d, m=d, basis=tuple(identity(d)), normal=None)
        assert whole.kernel_normals() == ()
        assert slice_profile(body, whole).by_translate == {(): len(body.lattice_points)}

