import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from latslice import hull, lp
from latslice import (
    DegenerateBodyError,
    DimensionMismatchError,
    ExactVolumeUnsupportedError,
    SymmetryError,
    UnboundedBodyError,
    body_from_dict,
    body_from_spec,
    body_to_dict,
    box,
    cross,
    cube,
    from_hrep,
    from_vertices,
    polar_volume,
    volume,
)
from latslice.verify import (
    random_rational_symmetric_2d,
    random_symmetric_body,
    random_unconditional_body,
    verify_unconditional,
)


def wide_box():
    return box([3, Fraction(1, 2)])


def _diamond(d, seed):
    """The first V-rep (Fraction-vertex diamond) ``random_unconditional_body`` from seed on."""
    while (body := random_unconditional_body(d, seed)).verts is None:
        seed += 1
    return body


VREP_KINDS = ["random:2", "random:3", "random:4", "rational", "diamond:2", "diamond:3", "diamond:4"]


def _vrep_body(kind, seed):
    """A V-rep body of one of ``VREP_KINDS``."""
    if kind == "rational":
        return random_rational_symmetric_2d(seed)
    if kind.startswith("random"):
        return random_symmetric_body(int(kind[-1]), seed)
    return _diamond(int(kind[-1]), seed)


def _hrep_body(kind, d, seed):
    """An H-rep body: cube, box, ``random_unconditional_body`` or random symmetric rows."""
    import random

    rng = random.Random(seed)
    if kind == "cube":
        return cube(d)
    if kind == "box":
        return box([Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d)])
    if kind == "unconditional":
        body = random_unconditional_body(d, seed)
        # its diamonds are V-rep: take their facet rows
        return body if body.rows is not None else from_hrep(d, body.facet_rows)
    # a box keeps the body bounded; the extra rows cut it, some redundantly
    normals = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    extra = rng.randint(1, {1: 2, 2: 5, 3: 4, 4: 2}[d])
    normals += [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(extra)]
    rows = []
    for a in normals:
        b = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        rows += [(a, b), (tuple(-x for x in a), b)]
    return from_hrep(d, rows)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# -- membership ------------------------------------------------------------


def test_contains_cube_boundary_vertex():
    assert cube(2).contains((1, 1))


def test_contains_cross():
    b = cross(3)
    assert b.contains((1, 0, 0))
    assert not b.contains((1, 1, 0))


def test_contains_box_corner():
    assert wide_box().contains((3, Fraction(1, 2)))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cube(2).contains((1, 1, 1))


# -- gauge -------------------------------------------------------------------


def test_gauge_cube():
    assert cube(2).gauge((2, 1)) == 2


def test_gauge_cross():
    assert cross(2).gauge((1, 1)) == 2


def test_gauge_box_single_constraint():
    assert wide_box().gauge((1, 0)) == Fraction(1, 3)


def test_gauge_zero_vector():
    with pytest.raises(ValueError):
        cube(2).gauge((0, 0))


@settings(max_examples=60)
@given(
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4)),
)
def test_gauge_homogeneity_and_membership(x, y, c):
    b = from_vertices([(2, 1), (1, 2), (0, 3)], name="hex")
    if (x, y) == (0, 0):
        return
    g = b.gauge((x, y))
    assert b.contains((x, y)) == (g <= 1)
    if c != 0:
        assert b.gauge((c * x, c * y)) == abs(c) * g


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(VREP_KINDS), st.integers(0, 10**4), st.data())
def test_vrep_gauge_and_contains_match_lp(kind, seed, data):
    body = _vrep_body(kind, seed)
    d = body.dim
    coords = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    points = list(body.verts)
    points += [tuple((x + y) / 2 for x, y in zip(u, v)) for u, v in zip(body.verts, body.verts[1:])]
    points += data.draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=6))
    for x in points:
        if not any(x):
            assert body.contains(x)
            continue
        g = lp.min_combination(body.verts, x)
        assert body.gauge(x) == g
        assert body.contains(x) == (g <= 1)
        # x / g lies on the boundary
        edge = tuple(xi / g for xi in x)
        assert body.contains(edge)
        assert not body.contains(tuple(xi * Fraction(101, 100) for xi in edge))


def test_vrep_gauge_and_contains_run_no_lp(monkeypatch):
    from latslice.verify import verify_unconditional

    for d in (2, 3, 4):
        body = body_from_dict(body_to_dict(_diamond(d, 0)))
        calls = _count_calls(monkeypatch, lp, "min_combination")
        e = tuple(int(j == 0) for j in range(d))
        body.gauge(e)
        body.contains(e)
        assert verify_unconditional(body).ok
        monkeypatch.undo()
        assert calls == []


def test_gauge_hrep_vrep_agree():
    # same body both ways: the wide box as H-rep and as hull of its corners
    h = wide_box()
    v = from_vertices(
        [(3, Fraction(1, 2)), (3, Fraction(-1, 2)), (-3, Fraction(1, 2)), (-3, Fraction(-1, 2))]
    )
    for pt in [(1, 0), (0, 1), (2, 3), (-5, 1), (1, 1)]:
        assert h.gauge(pt) == v.gauge(pt)


# -- construction invariants ---------------------------------------------------


def test_hrep_autocompletes_partner():
    b = from_hrep(2, [((1, 0), 2), ((0, 1), 1)])
    assert b.contains((-2, -1))
    assert len(b.rows) == 4


def test_hrep_strict_rejects_missing_partner():
    with pytest.raises(SymmetryError):
        from_hrep(2, [((1, 0), 2), ((0, 1), 1)], strict=True)


def test_hrep_rejects_asymmetric_offsets():
    with pytest.raises(SymmetryError):
        from_hrep(1, [((1,), 3), ((-1,), 1)])


def test_hrep_rejects_unbounded():
    with pytest.raises(UnboundedBodyError):
        from_hrep(2, [((1, 0), 1), ((-1, 0), 1)])


def test_hrep_unbounded_error_names_the_coordinate():
    with pytest.raises(UnboundedBodyError, match=r"^body unbounded along coordinate 1$"):
        from_hrep(2, [((1, 0), 1), ((-1, 0), 1)])
    with pytest.raises(UnboundedBodyError, match=r"^body unbounded along coordinate 0$"):
        from_hrep(3, [((0, 1, 0), 1), ((0, 0, 1), 2), ((0, 1, 1), 2)])


def _hrep_box_bodies():
    bodies = [cube(d) for d in range(2, 8)] + [box([3, Fraction(1, 2), 2])]
    for d in (2, 3, 4):
        seeded = (random_unconditional_body(d, seed) for seed in itertools.count())
        bodies += itertools.islice((b for b in seeded if b.rows is not None), 4)
    return bodies


def test_hrep_box_matches_oracle_lp_and_polar_facets(monkeypatch):
    for body in _hrep_box_bodies():
        d = body.dim
        assert body.bounding_box == oracle.hrep_box(body)
        # h_K(e_j) = max a_j / b over the polar's facets a . y <= b, with no LP
        facets = body.polar().facet_rows
        assert body.bounding_box == tuple(max(a[j] / b for a, b in facets) for j in range(d))
        calls = _count_calls(monkeypatch, lp, "min_combination")
        assert from_hrep(d, body.rows).bounding_box == body.bounding_box
        monkeypatch.undo()
        assert len(calls) == d


def test_hrep_rejects_empty_interior():
    with pytest.raises(DegenerateBodyError):
        from_hrep(1, [((1,), 0)])


def test_vrep_rejects_flat():
    with pytest.raises(DegenerateBodyError):
        from_vertices([(1, 1), (-1, -1)])


def test_vrep_strict_rejects_missing_partner():
    with pytest.raises(SymmetryError):
        from_vertices([(1, 0), (0, 1), (0, -1)], strict=True)


def test_row_normalization():
    b = from_hrep(2, [((Fraction(2, 3), 0), 2), ((Fraction(-2, 3), 0), 2), ((0, 4), 2), ((0, -4), 2)])
    assert set(b.rows) == {
        ((1, 0), Fraction(3)),
        ((-1, 0), Fraction(3)),
        ((0, 1), Fraction(1, 2)),
        ((0, -1), Fraction(1, 2)),
    }


def test_bounding_box():
    assert wide_box().bounding_box == (Fraction(3), Fraction(1, 2))
    assert cross(3).bounding_box == (1, 1, 1)
    hexa = from_vertices([(2, 1), (1, 2)])
    assert hexa.bounding_box == (2, 2)


# -- polar ---------------------------------------------------------------------


def test_polar_cube_is_cross():
    p = cube(3).polar()
    assert p.verts is not None
    assert set(p.verts) == set(cross(3).verts)


def test_polar_cross_is_cube():
    p = cross(3).polar()
    assert p.rows is not None
    assert set(p.rows) == set(cube(3).rows)


def test_polar_box():
    p = wide_box().polar()
    assert set(p.verts) == {
        (Fraction(1, 3), 0),
        (Fraction(-1, 3), 0),
        (0, 2),
        (0, -2),
    }


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_polar_involution_by_gauge(data):
    import random

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.sampled_from([2, 3]))
    pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 2)]
    pts = [p for p in pts if any(p)]
    pts += [tuple(-x for x in p) for p in pts]
    try:
        k = from_vertices(pts)
    except DegenerateBodyError:
        return
    kk = k.polar().polar()
    for v in k.verts:
        assert kk.gauge(v) == k.gauge(v)
    for v in kk.verts:
        assert k.gauge(v) == kk.gauge(v)


# -- volume ---------------------------------------------------------------------


def test_volume_cube():
    assert volume(cube(3)).value == 8


def test_volume_cross_paper_value():
    assert volume(cross(3)).value == Fraction(4, 3)


def test_volume_box():
    assert volume(wide_box()).value == 6


def test_volume_cap(monkeypatch):
    with pytest.raises(ExactVolumeUnsupportedError):
        volume(cube(6))
    monkeypatch.setenv("LATSLICE_EXACT_DIM_CAP", "6")
    assert volume(cube(6)).value == 64


def test_volume_cap_env(monkeypatch):
    monkeypatch.setenv("LATSLICE_EXACT_DIM_CAP", "6")
    assert volume(cube(6)).value == 64
    monkeypatch.setenv("LATSLICE_EXACT_DIM_CAP", "2")
    with pytest.raises(ExactVolumeUnsupportedError):
        volume(cube(3))


def test_polar_volume_cap(monkeypatch):
    with pytest.raises(ExactVolumeUnsupportedError, match="LATSLICE_EXACT_DIM_CAP"):
        polar_volume(cube(6))
    monkeypatch.setenv("LATSLICE_EXACT_DIM_CAP", "6")
    assert polar_volume(cube(6)).value == Fraction(4, 45)


def test_volume_vrep_hrep_routes_agree():
    # hull of a random symmetric hexagon, both routes
    verts = [(2, 1), (1, 2), (-1, 1)]
    vbody = from_vertices(verts)
    hbody = from_hrep(2, [(a, b) for a, b in vbody.facet_rows])
    assert volume(vbody).value == volume(hbody).value > 0


def test_volume_monte_carlo_mode():
    v = volume(cube(2), mode="monte_carlo", samples=2000, seed=42)
    assert v.mode == "monte_carlo"
    assert v.error is not None and v.error > 0
    assert abs(v.value - 4.0) < 10 * v.error + 0.3


def test_volume_mc_deterministic():
    a = volume(cross(2), mode="mc", samples=500, seed=7)
    b = volume(cross(2), mode="mc", samples=500, seed=7)
    assert a.value == b.value and a.error == b.error


def test_volume_mc_non_positive_samples():
    for n in (0, -5):
        with pytest.raises(ValueError, match="samples must be positive"):
            volume(cube(2), mode="mc", samples=n)


def test_polar_volume_matches_direct():
    bodies = [
        cube(3),
        cross(3),
        wide_box(),
        from_vertices([(2, 1), (1, 2), (-1, 1)]),
        # an origin generator and an edge midpoint, neither a vertex
        from_vertices([(2, 0), (0, 2), (1, 1), (0, 0), (1, 0)]),
        from_vertices([(3,)]),
    ]
    for b in bodies:
        direct = volume(b.polar()).value
        assert polar_volume(b).value == direct
    assert polar_volume(bodies[4]).value == 1
    assert polar_volume(bodies[5]).value == Fraction(2, 3)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_volumes_match_fan_oracle(d, seed):
    b = random_symmetric_body(d, seed)
    assert volume(b).value == oracle.exact_volume(b)
    assert polar_volume(b).value == oracle.polar_volume(b)


def test_both_volumes_run_one_hull(monkeypatch):
    bodies = [random_symmetric_body(4, seed, points=3) for seed in range(3)]
    # fresh H-rep bodies: their dual's hull serves both volumes, and their polar's
    for kind in ("cube", "box", "unconditional", "rows"):
        bodies += [body_from_dict(body_to_dict(_hrep_body(kind, d, d))) for d in range(1, 5)]
    calls = _count_calls(monkeypatch, hull, "hull_facets")
    for b in bodies:
        calls.clear()
        volume(b)
        polar_volume(b)
        volume(b.polar())
        polar_volume(b.polar())
        assert len(calls) == 1
        if b.rows is not None:
            assert b.polar() is b.polar()
        else:
            assert b.polar().polar() is b


def test_polar_volume_d5_matches_hrep_route():
    b = random_symmetric_body(5, 0, points=5)
    polar = b.polar()
    expected = oracle._volume_hrep(polar.int_rows, 5)
    assert polar_volume(b).value == expected
    assert volume(polar).value == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["cube", "box", "unconditional", "rows"]), st.integers(1, 4), st.integers(0, 10**6))
def test_hrep_volumes_match_recursion_oracle(kind, d, seed):
    body = _hrep_body(kind, d, seed)
    assert volume(body).value == oracle._volume_hrep(body.int_rows, d)
    # K°'s rows are the facets of K's dual, conv(a / b)
    polar_rows = from_hrep(d, body.polar().facet_rows).int_rows
    assert polar_volume(body).value == oracle._volume_hrep(polar_rows, d)


def test_unconditional_generator_d1_intersection():
    # the weighted rows of the intersection shape are coordinate rows in d = 1
    body = random_unconditional_body(1, 715)
    assert body.is_unconditional()
    assert volume(body).value == oracle._volume_hrep(body.int_rows, 1)


def test_hrep_volume_too_many_rows_is_bounded():
    import random
    import time

    rng = random.Random(0)
    rows = [(tuple(int(j == i) for j in range(5)), 4) for i in range(5)]
    while len(rows) < 40:
        rows.append((tuple(rng.randint(-4, 4) for _ in range(5)), rng.randint(5, 20)))
    body = from_hrep(5, rows)
    assert len(body.rows) >= 78
    start = time.perf_counter()
    with pytest.raises(hull.HullSizeError):
        volume(body)
    assert time.perf_counter() - start < 1


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(VREP_KINDS), st.integers(0, 10**4))
def test_polar_box_matches_support_lp(kind, seed):
    body = _vrep_body(kind, seed)
    assert body.polar().bounding_box == oracle.polar_box(body)


def test_polar_box_fixed_bodies_match_support_lp():
    bodies = [cross(d) for d in range(1, 5)]
    # interior points and edge midpoints among the generators
    bodies.append(from_vertices([(3, 0), (0, 2), (Fraction(3, 2), 1), (1, 0), (0, 0), (1, 1)]))
    half = Fraction(1, 2)
    bodies.append(from_vertices([(1, 0, 0), (0, 1, 0), (0, 0, 2), (half, half, 0), (0, 0, 1)]))
    for body in bodies:
        polar = body.polar()
        assert polar.bounding_box == oracle.polar_box(body)
        assert polar == from_hrep(body.dim, [(v, 1) for v in body.verts], name=polar.name)


def test_polar_runs_no_lp(monkeypatch):
    calls = []
    min_combination = lp.min_combination

    def counted(*args, **kwargs):
        calls.append(1)
        return min_combination(*args, **kwargs)

    for seed in range(3):
        b = random_symmetric_body(3, seed, points=3, spread=3)
        b.facets  # every chain has built them for lattice_points before it asks for the polar
        monkeypatch.setattr(lp, "min_combination", counted)
        polar = b.polar()
        monkeypatch.undo()
        assert calls == []
        assert polar.bounding_box == oracle.polar_box(b)


def test_scale():
    half = cube(2).scale(Fraction(1, 2))
    assert volume(half).value == 1
    assert half.gauge((1, 0)) == 2
    twice = cross(2).scale(2)
    assert volume(twice).value == 8


# -- unconditionality ------------------------------------------------------------


def test_unconditional_detection():
    assert cube(3).is_unconditional()
    assert cross(3).is_unconditional()
    assert wide_box().is_unconditional()
    tilted = from_vertices([(2, 1), (1, 2), (-1, 1)])
    assert not tilted.is_unconditional()
    # (1, 1) lies on the edge from (2, 0) to (0, 2); its flip (1, -1) is no generator
    assert from_vertices([(2, 0), (0, 2), (1, 1)]).is_unconditional()
    assert not from_vertices([(2, 0), (0, 2), (2, 2)]).is_unconditional()


def _both_representations(body):
    """body and its twin in the other representation, each with its polar."""
    d = body.dim
    if body.rows is None:
        twin = from_hrep(d, body.facet_rows)
    else:  # the polar's facet a . y <= b is the vertex a / b
        twin = from_vertices([tuple(Fraction(x) / b for x in a) for a, b in body.polar().facet_rows])
    return [body, twin, body.polar(), twin.polar()]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unconditional_reads_facet_rows_in_both_representations(d):
    bodies = [cube(d), cross(d), box([Fraction(k + 2, k + 1) for k in range(d)])]
    # two generator pairs at d = 4 keep the twins' and polars' hulls small
    bodies += [random_symmetric_body(d, s, points=2 if d == 4 else None) for s in range(3)]
    bodies += [random_unconditional_body(d, s) for s in range(3)]
    for body in bodies:
        forms = _both_representations(body)
        expected = oracle.is_unconditional(body)
        for form in forms:
            assert form.is_unconditional() == oracle.is_unconditional(form) == expected


def test_redundant_hrep_rows_keep_a_body_unconditional():
    # the square [-1, 1]^2 with a redundant row whose flips are missing
    square = from_hrep(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 5)])
    assert square.is_unconditional()
    report = verify_unconditional(square)
    assert report.ok and volume(square).value == 4
    # (1, 1) <= 2 touches the square at a corner: its dual point (1/2, 1/2) is an edge midpoint
    assert from_hrep(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 2)]).is_unconditional()
    # (1, 1) <= 1 cuts two corners off, so it is a facet
    assert not from_hrep(2, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]).is_unconditional()


@st.composite
def redundant_row_cases(draw):
    """An H-rep body, unconditional or not, with one row a . x <= t * h(a) added, t >= 1."""
    d = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 10**6))
    made = random_unconditional_body(d, seed) if draw(st.booleans()) else random_symmetric_body(d, seed)
    body = made if made.rows is not None else from_hrep(d, made.facet_rows)
    a = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any))
    b = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(3)])) * body.support(a)
    # with its partner, so that a row parallel to a redundant one lowers both
    return from_hrep(d, [*body.rows, (a, b), ([-x for x in a], b)]), oracle.is_unconditional(body)


@settings(max_examples=60, deadline=None)
@given(redundant_row_cases())
def test_redundant_row_leaves_unconditionality_unchanged(case):
    body, expected = case
    assert body.is_unconditional() == oracle.is_unconditional(body.polar()) == expected


# -- files and specs ---------------------------------------------------------------


def test_body_from_spec_builtins():
    assert body_from_spec("cube:4").dim == 4
    assert body_from_spec("cross:2").verts is not None
    b = body_from_spec("box:3,1/2")
    assert b.bounding_box == (3, Fraction(1, 2))


def test_body_dict_round_trip():
    b = wide_box()
    d = body_to_dict(b)
    b2 = body_from_dict(d)
    assert b2.rows == b.rows
    v = from_vertices([(1, Fraction(1, 2)), (2, -1)])
    v2 = body_from_dict(body_to_dict(v))
    assert v2.verts == v.verts


def test_body_file_round_trip(tmp_path):
    import json

    path = tmp_path / "body.json"
    path.write_text(json.dumps(body_to_dict(wide_box())))
    b = body_from_spec(str(path))
    assert volume(b).value == 6


def test_body_spec_errors():
    from latslice import BodyFormatError

    with pytest.raises(BodyFormatError):
        body_from_spec("cube:zero")
    with pytest.raises(BodyFormatError):
        body_from_spec("no-such-file.json")
    with pytest.raises(BodyFormatError):
        body_from_dict({"hrep": [[["1", "0"], "1/0"]], "dim": 2})


def test_duplicate_rows_keep_tightest():
    b = from_hrep(2, [((1, 0), 3), ((1, 0), 2), ((0, 1), 1)])
    assert b.bounding_box[0] == 2
    assert b.contains((2, 0)) and not b.contains((Fraction(5, 2), 0))


def test_vrep_with_origin_generator():
    b = from_vertices([(1, 0), (0, 1), (0, 0)])
    assert b.contains((0, 0))
    assert volume(b).value == 2
    p = b.polar()
    assert volume(p).value == 4  # polar of the diamond is the square


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_volume_routes_agree_3d(data):
    import random as _random

    rng = _random.Random(data.draw(st.integers(0, 10**6)))
    pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(5)]
    pts += [tuple(-x for x in p) for p in pts]
    try:
        vbody = from_vertices(pts)
    except Exception:
        return
    hbody = from_hrep(3, list(vbody.facet_rows))
    assert volume(vbody).value == volume(hbody).value


def test_volume_routes_agree_4d_examples():
    samples = [
        [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (2, 1, 1, 1)],
        [(1, 2, 0, -1), (2, 0, 1, 1), (-1, 1, 1, 0), (0, 0, 2, 1), (1, 1, 1, 1)],
    ]
    for half in samples:
        pts = half + [tuple(-x for x in p) for p in half]
        vbody = from_vertices(pts)
        hbody = from_hrep(4, list(vbody.facet_rows))
        assert volume(vbody).value == volume(hbody).value > 0


def test_monte_carlo_cross2_close():
    v = volume(cross(2), mode="mc", samples=40_000, seed=123)
    assert abs(v.value - 2.0) < 6 * v.error
