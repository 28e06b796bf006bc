"""Oracle-free cross-checks: the pipeline set against itself.

A unimodular map U is a bijection of Z^d that keeps volumes, so K and UK
hold as many lattice points at every scale and share their volume, the
volume of their polars (the polar of UK is U^{-T} K°), the successive
minima of both, every certified max-slice count and the main chain's
verdict.  The two bodies reach the coordinate-dependent fast paths with
different coordinates: the half walk's clip along the zero prefix, the
narrowest-axis count, the in-line 2-D and 3-D hull planes and the pair
loop of the max slice.  Signed permutations are the maps that keep an
unconditional body unconditional, and the unconditional chain must give
their images the same verdict.

The discrete Minkowski bound #K <= prod floor(2/lambda_i + 1) over the
successive minima of K holds for d = 2 (Betke, Henk and Wills 1993) and
d = 3 (Malikiosis 2012), and with an extra factor 2^(d-1) for every d
(Henk 2002).  It is tight, so an off-by-one in a count or a minimum
breaks it.
"""

from fractions import Fraction
from math import floor, prod

from hypothesis import given, settings, strategies as st

from latslice import (
    count_points,
    from_hrep,
    from_vertices,
    max_slice,
    polar_volume,
    successive_minima,
    verify_main,
    verify_unconditional,
    volume,
)
from latslice.linalg import dot, identity
from latslice.verify import random_symmetric_body, random_unconditional_body


def _apply(m, v):
    return tuple(dot(row, v) for row in m)


def _matmul(a, b):
    return [tuple(r) for r in zip(*(_apply(a, col) for col in zip(*b)))]


@st.composite
def unimodular(draw, d):
    """(U, U^-1) as row lists: a signed permutation after up to three shears x_i += c x_j."""
    s, inv = [list(r) for r in identity(d)], [list(r) for r in identity(d)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.sampled_from((-1, 1)))
        # S <- E S and S^-1 <- S^-1 E^-1, E = I + c e_i e_j^T
        s[i] = [a + c * b for a, b in zip(s[i], s[j])]
        for row in inv:
            row[j] -= c * row[i]
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    p = [tuple(signs[k] if perm[k] == i else 0 for k in range(d)) for i in range(d)]
    return _matmul(p, s), _matmul(inv, list(zip(*p)))


def _image(body, u, inv):
    """UK: generators map to U v, rows a . x <= b to (U^-T a) . x <= b."""
    if body.verts is not None:
        return from_vertices([_apply(u, v) for v in body.verts])
    inv_t = list(zip(*inv))
    return from_hrep(body.dim, [(_apply(inv_t, a), b) for a, b in body.rows])


@st.composite
def bodies(draw, dims=(2, 3)):
    """A small random symmetric or unconditional body, in V-rep or H-rep form."""
    d = draw(st.sampled_from(dims))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["vrep", "hrep", "unconditional"]))
    if kind == "unconditional":
        return random_unconditional_body(d, seed)
    body = random_symmetric_body(d, seed, points=d, spread=2)
    return body if kind == "vrep" else from_hrep(d, body.facet_rows)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_unimodular_image_keeps_counts_volumes_minima_and_slices(data):
    body = data.draw(bodies())
    d = body.dim
    u, inv = data.draw(unimodular(d))
    assert _matmul(u, inv) == identity(d)
    image = _image(body, u, inv)
    count = len(body.lattice_points)
    assert len(image.lattice_points) == count == count_points(image).total
    assert sorted(_apply(u, p) for p in body.lattice_points) == list(image.lattice_points)
    for r in (Fraction(3, 2), 2):
        assert count_points(image, scale=r).total == count_points(body, scale=r).total
    assert volume(image).value == volume(body).value
    assert polar_volume(image).value == polar_volume(body).value
    assert successive_minima(image).lambdas == successive_minima(body).lambdas
    assert successive_minima(image.polar()).lambdas == successive_minima(body.polar()).lambdas
    m = data.draw(st.integers(1, d - 1))
    ms, ms_image = max_slice(body, m), max_slice(image, m)
    if ms.exhaustive and ms_image.exhaustive:
        assert ms_image.best_count == ms.best_count
    if d >= 3:
        rep, rep_image = verify_main(body, m), verify_main(image, m)
        assert rep_image.ok == rep.ok
        if rep.max_slice_exhaustive and rep_image.max_slice_exhaustive:
            assert rep_image.observed_constant_power == rep.observed_constant_power


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_signed_permutation_keeps_the_unconditional_chain(data):
    d = data.draw(st.sampled_from((2, 3, 4)))
    body = random_unconditional_body(d, data.draw(st.integers(0, 10**6)))
    perm = data.draw(st.permutations(range(d)))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    p = [tuple(signs[k] if perm[k] == i else 0 for k in range(d)) for i in range(d)]
    image = _image(body, p, list(zip(*p)))
    assert image.is_unconditional()
    rep, rep_image = verify_unconditional(body), verify_unconditional(image)
    assert rep_image.ok == rep.ok
    assert [(e.name, e.passed) for e in rep_image.chain] == [(e.name, e.passed) for e in rep.chain]
    assert (rep_image.count_total, rep_image.max_slice_count) == (rep.count_total, rep.max_slice_count)
    assert rep_image.observed_constant_power == rep.observed_constant_power


@settings(max_examples=30, deadline=None)
@given(bodies(dims=(2, 3, 4)))
def test_discrete_minkowski_bound(body):
    d = body.dim
    bound = prod(floor(2 / lam + 1) for lam in successive_minima(body).lambdas)
    count = len(body.lattice_points)
    assert count <= 2 ** (d - 1) * bound
    if d <= 3:
        assert count <= bound
