"""The Ehrhart identity: lattice counts of dilates against the exact volume.

For a polytope K with integral vertices, L(r) = #(rK ∩ Z^d) is a polynomial
of degree d with L(0) = 1 and leading coefficient vol(K) (Ehrhart 1962).
So its (d+1)-th finite difference over r = 0..d+1 vanishes, and its d-th
over r = 0..d is d! vol(K).  This sets the closed-form count of
``count_points(scale=r)`` against the hull triangulation behind ``volume``
in one exact equation.  A body with rational vertices is first scaled by
the lcm of their denominators; its vertices are read off the facets of its
polar.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from hypothesis import given, settings, strategies as st

from latslice import box, count_points, cross, cube, from_hrep, volume
from latslice.verify import random_rational_symmetric_2d, random_symmetric_body, random_unconditional_body


def _vertex_lcm(body):
    """lcm of the vertex denominators: facet a . y <= b of K° is the vertex a / b of K."""
    return lcm(*((Fraction(x) / b).denominator for a, b in body.polar().facet_rows for x in a))


def _check_ehrhart(body):
    d = body.dim
    t = _vertex_lcm(body)
    counts = [1] + [count_points(body, scale=t * r).total for r in range(1, d + 2)]
    assert sum((-1) ** (d + 1 - r) * comb(d + 1, r) * c for r, c in enumerate(counts)) == 0
    leading = sum((-1) ** (d - r) * comb(d, r) * c for r, c in enumerate(counts[:-1]))
    assert Fraction(leading, factorial(d)) == volume(body).value * t**d


def test_ehrhart_closed_forms():
    for d in (2, 3, 4):
        _check_ehrhart(cube(d))
        _check_ehrhart(cross(d))
    _check_ehrhart(box([Fraction(1, 2), 3, Fraction(2, 3)]))


@st.composite
def bodies(draw):
    """Integral and rational bodies at d = 2-4, in V-rep and H-rep form."""
    d = draw(st.sampled_from((2, 3, 4)))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["vrep", "hrep", "unconditional", "rational"]))
    if kind == "rational":
        return random_rational_symmetric_2d(seed)
    if kind == "unconditional":
        return random_unconditional_body(d, seed)
    body = random_symmetric_body(d, seed, points=d, spread=1 if d == 4 else 2)
    return body if kind == "vrep" else from_hrep(d, body.facet_rows)


@settings(max_examples=20, deadline=None)
@given(bodies())
def test_ehrhart_polynomial_matches_volume(body):
    _check_ehrhart(body)
