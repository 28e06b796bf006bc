"""The run-yielding enumeration kernel: oracle parity, result lifetime, point cache."""

import gc
import itertools
from collections import Counter
from fractions import Fraction
from math import floor, prod

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from latslice import (
    LatticeSubspace,
    body_from_dict,
    body_to_dict,
    count_points,
    cross,
    cube,
    enumerate_points,
    polar_volume,
    sublattice,
    volume,
)
from latslice import bodies, lattices
from latslice.linalg import dot
from latslice.verify import (
    pick_quantities,
    random_polygon,
    random_rational_symmetric_2d,
    random_symmetric_body,
    random_unconditional_body,
    verify_dim2,
    verify_main,
    verify_unconditional,
)

GENERATORS = {"symmetric": random_symmetric_body, "unconditional": random_unconditional_body}


# -- differential against the recursive oracle --------------------------------


@st.composite
def kernel_cases(draw):
    d = draw(st.integers(2, 4))
    body = GENERATORS[draw(st.sampled_from(sorted(GENERATORS)))](d, draw(st.integers(0, 10**6)))
    normal = draw(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(lambda u: any(u))
    )
    scale = draw(st.sampled_from([Fraction(1), Fraction(5, 2), Fraction(4)]))
    return body, normal, scale


@settings(max_examples=12, deadline=None)
@given(kernel_cases())
def test_kernel_matches_recursive_oracle(case):
    body, normal, scale = case
    for lat in (None, sublattice(LatticeSubspace.from_normal(normal))):
        expected = oracle.enumerate_points(body, lat, scale)
        assert enumerate_points(body, lat, scale) == expected
        assert count_points(body, lat, scale=scale).total == len(expected)
        assert oracle.count_points(body, lat, scale) == len(expected)
        leveled = count_points(body, lat, by_normal=normal, scale=scale)
        assert leveled.by_level == Counter(dot(normal, z) for z in expected)


# -- the symmetric half walk ------------------------------------------------------


def _expand(runs):
    return [prefix + (x,) for prefix, lo, hi in runs for x in range(lo, hi + 1)]


@st.composite
def half_walk_cases(draw):
    d = draw(st.integers(1, 4))
    body = GENERATORS[draw(st.sampled_from(sorted(GENERATORS)))](d, draw(st.integers(0, 10**6)))
    normal = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)))
    lattice = None
    if d >= 2 and draw(st.booleans()):
        # from a rank-1 line in d = 2 up to a hyperplane of Z^4
        lattice = sublattice(LatticeSubspace.from_normal(draw(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
        )))
    # at 1 / (1 + floor(max radius)) the box is [0, 0]^d: only the origin fits
    tiny = Fraction(1, 1 + int(max(body.bounding_box)))
    scale = draw(st.sampled_from([Fraction(1), Fraction(5, 2), Fraction(4), tiny]))
    return body, lattice, normal, scale


@settings(max_examples=48, deadline=None)
@given(half_walk_cases())
def test_half_walk_matches_full_walk_and_oracle(case):
    body, lat, normal, scale = case
    rows, box = lattices._system(body, lat, scale)
    full = _expand(lattices._runs(rows, box, half=False))
    zero = (0,) * len(box)
    # the half walk yields exactly the points >=lex 0, in order
    assert _expand(lattices._runs(rows, box, half=True)) == [z for z in full if z >= zero]
    assert lattices._listing(body, lat, scale) == full
    expected = oracle.enumerate_points(body, lat, scale)
    assert enumerate_points(body, lat, scale) == expected
    assert count_points(body, lat, scale=scale).total == len(full) == len(expected)
    assert oracle.count_points(body, lat, scale) == len(expected)
    leveled = count_points(body, lat, by_normal=normal, scale=scale)
    assert leveled.by_level == Counter(dot(normal, z) for z in expected)
    assert leveled.total == len(expected)
    if scale < 1:
        assert expected == [(0,) * body.dim]


# -- the listing closer and the sublattice box against their oracles --------------

MAKERS = {**GENERATORS, "cube": lambda d, seed: cube(d), "cross": lambda d, seed: cross(d)}
# at most this many penultimate-axis columns in the box, so the row-scan oracle stays quick
COLUMNS = 200_000


@st.composite
def closer_cases(draw):
    d = draw(st.integers(1, 4))
    body = MAKERS[draw(st.sampled_from(sorted(MAKERS)))](d, draw(st.integers(0, 10**6)))
    lattice = None
    if d >= 2 and draw(st.booleans()):
        lattice = sublattice(LatticeSubspace.from_normal(draw(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
        )))
    scales = []
    for scale in (Fraction(1), Fraction(5, 2), Fraction(12), Fraction(63, 2)):
        _, box = oracle.fraction_system(body, lattice, scale)
        if scale == 1 or prod(hi - lo + 1 for lo, hi in box[:-1]) <= COLUMNS:
            scales.append(scale)
    return body, lattice, draw(st.sampled_from(scales)), draw(st.booleans())


def test_runs_match_row_scan_oracle(monkeypatch):
    prefixes, wide = [], []
    walk, pieces = lattices._walk, lattices._pieces

    def counted_walk(*args):
        for node in walk(*args):
            prefixes.append(node[0])
            yield node

    def counted_pieces(*args):
        wide.append(args)
        return pieces(*args)

    monkeypatch.setattr(lattices, "_walk", counted_walk)
    monkeypatch.setattr(lattices, "_pieces", counted_pieces)

    @settings(max_examples=100, deadline=None)
    @given(closer_cases())
    def check(case):
        body, lat, scale, half = case
        rows, box = lattices._system(body, lat, scale)
        assert (rows, box) == oracle.fraction_system(body, lat, scale)
        assert list(lattices._runs(rows, box, half)) == list(oracle.scan_runs(rows, box, half))

    check()
    # each wide prefix walks its pieces once; the oracle walks with its own _walk
    assert 0 < len(wide) < len(prefixes)


# -- closed-form section counting -------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(1, 60), st.integers(-200, 200), st.integers(-2000, 2000))
def test_floor_sum_matches_brute_force(n, m, a, b):
    assert lattices._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [Fraction(1, 3), 1, 2, Fraction(7, 2), 10, Fraction(99, 4), 137, 500])
def test_cube_dilate_count_closed_form(d, r):
    f = floor(r)
    assert count_points(cube(d), scale=r).total == (2 * f + 1) ** d


@pytest.mark.parametrize("r", [1, 2, 3, 5, 17, 100, 500])
def test_cross3_dilate_count_closed_form(r):
    assert count_points(cross(3), scale=r).total == (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3
    # d = 2, where the root is the section
    assert count_points(cross(2), scale=r).total == 2 * r * r + 2 * r + 1


@pytest.mark.parametrize("r", [1, 2, Fraction(5, 2), 9, 40, 300])
def test_cube3_diagonal_plane_count_closed_form(r):
    # a rank-2 lattice, so the root is the section: a hexagon of 3f^2 + 3f + 1 points
    f = floor(r)
    lat = sublattice(LatticeSubspace.from_normal((1, 1, 1)))
    assert count_points(cube(3), lat, scale=r).total == 3 * f * f + 3 * f + 1


def test_count_walks_the_narrowest_axis(monkeypatch):
    sections = []
    section = lattices._section

    def counted(*args):
        sections.append(args)
        return section(*args)

    monkeypatch.setattr(lattices, "_section", counted)
    body = bodies.box([3, Fraction(1, 2), 2])
    assert count_points(body, scale=40).total == 241 * 41 * 161
    # the half walk covers x_2 in [0, 20], not x_1 in [0, 120]
    assert len(sections) == 21
    lat = sublattice(LatticeSubspace.from_normal((1, 2, -1)))
    assert count_points(body, lat, scale=40).total == len(oracle.enumerate_points(body, lat, 40))


@pytest.mark.parametrize("make", [lambda: cube(1), lambda: cube(3), lambda: cross(4),
                                  lambda: random_symmetric_body(3, 7), lambda: random_unconditional_body(4, 1)])
def test_only_the_origin_fits(make):
    body = make()
    tiny = Fraction(1, 1 + int(max(body.bounding_box)))
    assert count_points(body, scale=tiny).total == 1
    assert lattices.count_solutions(*lattices._system(body, None, tiny)) == 1


@st.composite
def systems(draw):
    """Arbitrary row systems in 1 to 3 axes: unbounded, empty and zero-coefficient rows included."""
    n = draw(st.integers(1, 3))
    coeff = st.integers(-4, 4)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.lists(coeff, min_size=n, max_size=n))
        if draw(st.booleans()):
            a[-1] = 0  # a row free of the last axis bounds the penultimate one alone
        rows.append((tuple(a), draw(st.integers(-12, 24))))
    box = []
    for _ in range(n):
        lo = draw(st.integers(-7, 3))
        box.append((lo, draw(st.integers(lo - 1, lo + 10))))  # lo - 1: an empty axis
    return rows, box


@settings(max_examples=400, deadline=None)
@given(systems())
def test_section_count_matches_runs_on_any_system(system):
    rows, box = system
    points = _expand(lattices._runs(rows, box))
    assert lattices.count_solutions(rows, box) == oracle.count_runs(rows, box) == len(points)
    assert len(points) == sum(
        all(dot(a, z) <= b for a, b in rows) for z in itertools.product(*(range(lo, hi + 1) for lo, hi in box))
    )


@settings(max_examples=60, deadline=None)
@given(half_walk_cases())
def test_section_count_matches_run_oracle(case):
    body, lat, _, scale = case
    rows, box = lattices._system(body, lat, scale)
    n = len(enumerate_points(body, lat, scale))
    assert count_points(body, lat, scale=scale).total == oracle.run_count_points(body, lat, scale) == n
    # the symmetric count and the full walk agree
    assert lattices.count_solutions(rows, box, half=True) == lattices.count_solutions(rows, box) == n


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_pick_total_matches_oracle(seed):
    hull_pts = random_polygon(seed)
    q = pick_quantities(hull_pts)
    assert q.I + q.B == oracle._polygon_lattice_total(oracle._polygon_rows(hull_pts), hull_pts)


# -- scale validation ---------------------------------------------------------------


@pytest.mark.parametrize("scale", [0, -1, Fraction(-2)])
def test_non_positive_scale_rejected(scale):
    with pytest.raises(ValueError, match="scale factor must be positive"):
        count_points(cube(2), scale=scale)
    with pytest.raises(ValueError, match="scale factor must be positive"):
        enumerate_points(cube(2), scale=scale)
    lat = sublattice(LatticeSubspace.from_normal((1, 1)))
    with pytest.raises(ValueError, match="scale factor must be positive"):
        count_points(cube(2), lat, scale=scale)


# -- result lifetime -------------------------------------------------------------------


def test_results_hold_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        enumerate_points(cube(3), scale=Fraction(5, 2))
        count_points(cube(3), scale=3)
        # a body, its cached dual and the polar of a V-rep body hold no cycle
        for body in (cube(3), random_unconditional_body(3, 2), cross(3), random_symmetric_body(3, 0)):
            volume(body)
            polar_volume(body)
            volume(body.polar())
            polar_volume(body.polar())
            assert volume(body.polar().polar()).value == volume(body).value
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the per-body point cache --------------------------------------------------------


def test_enumerate_points_returns_a_fresh_list():
    body = cross(3)
    first = enumerate_points(body)
    expected = list(first)
    first.append((9, 9, 9))
    first[0] = (0, 0, 0)
    assert enumerate_points(body) == expected
    assert body.lattice_points == tuple(expected)


def _count_body_listings(monkeypatch, body, chain):
    """Kernel scans of body ∩ Z^d at scale 1 while chain(body) runs."""
    scans = []
    kernel = lattices._runs

    def counted(rows, box, *args, **kwargs):
        scans.append(rows == body.int_rows)
        return kernel(rows, box, *args, **kwargs)

    monkeypatch.setattr(lattices, "_runs", counted)
    chain(body)
    return sum(scans)


@pytest.mark.parametrize(
    "make, chain",
    [
        (lambda: random_symmetric_body(3, 5), lambda b: verify_main(b, 2)),
        (lambda: cross(3), lambda b: verify_main(b, 1)),
        (lambda: random_unconditional_body(3, 2), verify_unconditional),
        (lambda: random_unconditional_body(4, 1), verify_unconditional),
        (lambda: random_rational_symmetric_2d(3), verify_dim2),
    ],
)
def test_verify_chain_lists_body_once(monkeypatch, make, chain):
    assert chain(make()).ok
    # a body rebuilt from its data starts with no cached points
    fresh = body_from_dict(body_to_dict(make()))
    assert _count_body_listings(monkeypatch, fresh, chain) == 1
