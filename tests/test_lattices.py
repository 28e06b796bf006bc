import itertools
import random
from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given, settings, strategies as st

from latslice import (
    DegenerateBodyError,
    DimensionMismatchError,
    Lattice,
    LatticeSubspace,
    SubspaceError,
    box,
    count_points,
    cross,
    cube,
    dim_of_lattice_span,
    enumerate_points,
    from_vertices,
    project_count,
    sublattice,
    successive_minima,
)
from latslice.linalg import det_int, dot, kernel_basis
import oracle


def grid_scan(body):
    """Naive full-grid membership oracle (d <= 3, small boxes)."""
    ranges = []
    for r in body.bounding_box:
        hi = Fraction(r).numerator // Fraction(r).denominator
        ranges.append(range(-hi, hi + 1))
    return [p for p in itertools.product(*ranges) if body.contains(p)]


def minor_gcd(cols):
    """gcd of all maximal minors of the d x m column matrix."""
    d = len(cols[0])
    m = len(cols)
    g = 0
    for rows in itertools.combinations(range(d), m):
        sub = [[cols[j][i] for j in range(m)] for i in rows]
        g = gcd(g, abs(det_int(sub)))
    return g


def random_symmetric_vrep(rng, d, spread=3, tries=50):
    for _ in range(tries):
        pts = [tuple(rng.randint(-spread, spread) for _ in range(d)) for _ in range(d + 2)]
        pts += [tuple(-x for x in p) for p in pts]
        try:
            return from_vertices(pts)
        except DegenerateBodyError:
            continue
    raise AssertionError("could not draw a full-dimensional body")


# -- enumeration examples -------------------------------------------------------


def test_enumerate_cube2():
    pts = enumerate_points(cube(2))
    assert len(pts) == 9
    assert pts == sorted(itertools.product((-1, 0, 1), repeat=2))


def test_enumerate_cross3():
    pts = enumerate_points(cross(3))
    assert len(pts) == 7
    assert (0, 0, 0) in pts and (1, 0, 0) in pts and (0, -1, 0) in pts


def test_enumerate_thin_box():
    pts = enumerate_points(box([1, Fraction(2, 5)]))
    assert pts == [(-1, 0), (0, 0), (1, 0)]


def test_enumeration_is_lexicographic():
    pts = enumerate_points(cube(2))
    assert pts == sorted(pts)


def test_count_matches_enumerate():
    for b in [cube(3), cross(4), box([2, Fraction(3, 2), 1])]:
        assert count_points(b).total == len(enumerate_points(b))


def test_count_cube3_closed_form():
    assert count_points(cube(3)).total == 27


def test_count_cross4_closed_form():
    assert count_points(cross(4)).total == 9


def test_count_scaled_cross():
    assert count_points(cross(2).scale(2)).total == 13


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_enumeration_matches_grid_oracle(data):
    # oracle regime: d <= 3 with bounding box radius up to 6
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.sampled_from([2, 3]))
    spread = data.draw(st.sampled_from([3, 4, 6]))
    body = random_symmetric_vrep(rng, d, spread=spread)
    assert enumerate_points(body) == grid_scan(body)


def test_cube_scaling_closed_form():
    # count(r * cube) == (2 floor(r) + 1)^d exactly
    for d in (1, 2, 3):
        for r in (Fraction(3, 2), 2, Fraction(7, 3)):
            c = count_points(cube(d).scale(r)).total
            assert c == (2 * floor(r) + 1) ** d


# -- leveled counts ----------------------------------------------------------------


def test_count_by_level_additivity_and_symmetry():
    b = cross(3)
    pc = count_points(b, by_normal=(1, 1, 1))
    assert pc.by_level is not None
    assert sum(pc.by_level.values()) == pc.total == 7
    for k, v in pc.by_level.items():
        assert pc.by_level[-k] == v
    assert pc.by_level == {-1: 3, 0: 1, 1: 3}


# -- lattices and subspaces ----------------------------------------------------------


def test_standard_lattice():
    l = Lattice.standard(3)
    assert l.det_gram == 1
    assert l.cell_volume() == 1


def test_lattice_rejects_dependent():
    with pytest.raises(SubspaceError):
        Lattice(dim=2, basis=((1, 1), (2, 2)))


def test_sublattice_e3_normal():
    h = LatticeSubspace.from_normal((0, 0, 1))
    l = sublattice(h)
    assert l.rank == 2
    assert l.det_gram == 1


def test_sublattice_diagonal_normal():
    h = LatticeSubspace.from_normal((1, 1))
    l = sublattice(h)
    assert l.rank == 1
    assert l.det_gram == 2  # spanned by (1, -1)


def test_sublattice_123_primitive():
    h = LatticeSubspace.from_normal((1, 2, 3))
    l = sublattice(h)
    assert l.rank == 2
    # primitivity oracle: gcd of maximal minors is 1
    assert minor_gcd(l.basis) == 1
    for col in l.basis:
        assert dot(col, (1, 2, 3)) == 0


def test_from_basis_saturates():
    # span of (2, 0) is the x-axis; the lattice there is generated by (1, 0)
    h = LatticeSubspace.from_basis([(2, 0)])
    assert h.basis == ((1, 0),)
    assert h.normal in ((0, 1), (0, -1))


def test_subspace_canonical_form_dedupes():
    a = LatticeSubspace.from_basis([(1, 0, 0), (0, 1, 0)])
    b = LatticeSubspace.from_basis([(1, 1, 0), (1, -1, 0)])
    assert a == b
    assert a.normal == (0, 0, 1)


def test_normal_scaling_irrelevant():
    assert LatticeSubspace.from_normal((2, 4)) == LatticeSubspace.from_normal((1, 2))


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: LatticeSubspace.from_normal((Fraction(1, 2), 1)), "Fraction(1, 2)"),
        (lambda: LatticeSubspace.from_normal((2.7, 1)), "2.7"),
        (lambda: LatticeSubspace.from_basis([(Fraction(3, 2), 0, 1)]), "Fraction(3, 2)"),
        (lambda: project_count(cube(2), [(Fraction(1, 2), 1)]), "Fraction(1, 2)"),
        (lambda: count_points(cube(2), by_normal=(1, 0.5)), "0.5"),
        (lambda: LatticeSubspace.from_normals([(1, 0, 0), (0, "1", 0)]), "'1'"),
    ],
    ids=["normal-fraction", "normal-float", "basis-fraction", "project-count", "by-normal", "normals-string"],
)
def test_non_integer_subspace_entries_are_rejected(build, bad):
    # int() used to truncate them: (1/2, 1) became the normal (0, 1)
    with pytest.raises(SubspaceError, match="is not an integer") as info:
        build()
    assert bad in str(info.value)


def test_integral_entries_of_other_types_are_kept():
    assert LatticeSubspace.from_normal((Fraction(2), 2.0, 1)) == LatticeSubspace.from_normal((2, 2, 1))
    assert LatticeSubspace.from_basis([(Fraction(4, 2), 0)]) == LatticeSubspace.from_basis([(1, 0)])
    assert project_count(cube(2), [(Fraction(1), 1)]).total == project_count(cube(2), [(1, 1)]).total
    assert count_points(cube(2), by_normal=(1.0, 0)) == count_points(cube(2), by_normal=(1, 0))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "no normal vectors"),
        ([(1, 0, 0), (0, 1)], "mixed vector lengths"),
        ([(1, 0, Fraction(1, 3))], "is not an integer"),
        ([(0, 0, 0), (0, 0, 0)], "all zero"),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 1)], "rank 3"),
        ([(2,)], "rank 1"),
    ],
    ids=["empty", "ragged", "non-integral", "all-zero", "full-rank", "d1"],
)
def test_from_normals_rejects(rows, message):
    with pytest.raises(SubspaceError, match=message):
        LatticeSubspace.from_normals(rows)


def test_from_normals_examples():
    # two normals in R^4 cut out a plane; repeated and dependent rows change nothing
    h = LatticeSubspace.from_normals([(1, 0, 0, 0), (0, 1, 1, 0)])
    assert (h.m, h.normal) == (2, None)
    assert h.basis == ((0, 1, -1, 0), (0, 0, 0, 1))
    assert LatticeSubspace.from_normals([(1, 0, 0, 0), (0, 1, 1, 0), (2, 3, 3, 0)]) == h
    # a hyperplane keeps its normal, made primitive from the first nonzero row
    line = LatticeSubspace.from_normals([(0, 0), (2, -4), (-1, 2)])
    assert line == LatticeSubspace.from_normal((1, -2))
    assert line.normal == (1, -2) and line.basis == ((2, 1),)


@st.composite
def vector_lists(draw):
    """Integer vector lists at d = 2..5 with dependent, non-saturated and repeated members."""
    d = draw(st.integers(2, 5))
    coord = st.integers(-3, 3)
    vecs = []
    for _ in range(draw(st.integers(1, d))):
        how = draw(st.sampled_from(["free"] * 5 + ["multiple", "combination", "repeat"]))
        if how == "free" or not vecs:
            v = draw(st.tuples(*[coord] * d))
        elif how == "multiple":  # a non-saturated span when it stands in for its source
            v = tuple(draw(st.sampled_from([-3, -2, 2, 4])) * a for a in draw(st.sampled_from(vecs)))
        elif how == "combination":
            c = draw(st.lists(st.integers(-2, 2), min_size=len(vecs), max_size=len(vecs)))
            v = tuple(sum(a * b[i] for a, b in zip(c, vecs)) for i in range(d))
        else:
            v = draw(st.sampled_from(vecs))
        vecs.append(v)
    return vecs


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_from_basis_matches_saturating_oracle(vecs):
    try:
        want = oracle.from_basis(vecs)
    except SubspaceError as exc:
        with pytest.raises(SubspaceError) as info:
            LatticeSubspace.from_basis(vecs)
        assert str(info.value) == str(exc)
        return
    got = LatticeSubspace.from_basis(vecs)
    assert (got.ambient_dim, got.m, got.basis, got.normal) == (want.ambient_dim, want.m, want.basis, want.normal)
    assert list(got.basis) == oracle.row_hnf(oracle.saturate_span(vecs))
    # the normal rows of the span cut out the same subspace
    assert LatticeSubspace.from_normals(kernel_basis(vecs)) == want


def test_dim_of_lattice_span():
    assert dim_of_lattice_span(cube(2)) == 2
    assert dim_of_lattice_span(box([1, Fraction(2, 5)])) == 1
    assert dim_of_lattice_span(box([Fraction(1, 2), Fraction(1, 2)])) == 0


def test_enumerate_in_sublattice():
    # cube(2) meets 2Z^2 in the 4 corners plus origin... actually (±2 out), check
    l = Lattice(dim=2, basis=((2, 0), (0, 2)))
    pts = enumerate_points(cube(2).scale(2), l)
    assert pts == sorted(itertools.product((-2, 0, 2), repeat=2))
    assert count_points(cube(2).scale(2), l).total == 9


def test_project_count_examples():
    assert project_count(cube(2), [(1, 0)]).total == 3
    assert project_count(cross(3), [(1, 0, 0), (0, 1, 0)]).total == 5
    assert project_count(cube(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]).total == 27


def test_project_count_rejects_dependent():
    with pytest.raises(SubspaceError):
        project_count(cube(2), [(1, 0), (2, 0)])


def test_project_count_dimension_mismatch():
    from latslice import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        project_count(cube(3), [(1, 0)])


def test_sublattice_enumeration_matches_membership_filter():
    lat = Lattice(dim=3, basis=((1, 1, 0), (0, 2, 1)))
    body = cube(3).scale(2)
    direct = enumerate_points(body, lat)
    filtered = sorted(p for p in enumerate_points(body) if lat.contains(p))
    assert direct == filtered


def test_rank_zero_lattice_is_rejected():
    # the origin lies in every body, so a rank-0 lattice would count 1, not 0
    for call in (count_points, enumerate_points, successive_minima):
        with pytest.raises(SubspaceError, match="at least one basis column"):
            call(cube(3), Lattice(3, ()))


@pytest.mark.parametrize("normal", [(1, 1), (1, 1, 1, 5), ()])
def test_leveled_count_rejects_a_form_of_the_wrong_length(normal):
    # the levels used to read a truncated form: (1, 1) gave x1 + x2, () put every point at 0
    rank2 = sublattice(LatticeSubspace.from_normal((1, 1, 1)))
    for lattice in (None, rank2):
        with pytest.raises(DimensionMismatchError, match=f"length {len(normal)}, body dimension is 3"):
            count_points(cube(3), lattice, by_normal=normal)
    assert count_points(cube(3), rank2, by_normal=(1, 0, 0)).by_level == {-1: 2, 0: 3, 1: 2}


@st.composite
def lattice_points(draw):
    """A lattice of rank 1 to d at d <= 4 and a lattice, shifted or rational point."""
    d = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    cols = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=d).filter(
        lambda cols: oracle.int_rank(cols) == len(cols)
    ))
    lat = Lattice(d, tuple(cols))
    y = draw(st.lists(entry, min_size=len(cols), max_size=len(cols)))
    x = lat.to_ambient(y)
    kind = draw(st.sampled_from(["member", "shifted", "rational"]))
    if kind == "shifted":
        x = tuple(a + b for a, b in zip(x, draw(st.tuples(*[st.integers(-1, 1)] * d))))
    elif kind == "rational":
        x = tuple(Fraction(a, draw(st.integers(1, 3))) for a in x)
    return lat, x, kind == "member"


@settings(max_examples=300, deadline=None)
@given(lattice_points())
def test_contains_matches_gram_solve_oracle(case):
    lat, x, member = case
    assert lat.det_gram == oracle.gram_det(lat.basis)
    assert lat.contains(x) == oracle.lattice_contains(lat, x)
    if member:
        assert lat.contains(x)
