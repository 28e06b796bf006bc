from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from latslice import lp
from latslice.lp import min_combination


def test_gauge_of_square():
    verts = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert min_combination(verts, (2, 1)) == 2
    assert min_combination(verts, (1, 1)) == 1
    assert min_combination(verts, (0, 0)) == 0


def test_gauge_of_diamond():
    verts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert min_combination(verts, (1, 1)) == 2
    assert min_combination(verts, (Fraction(1, 2), 0)) == Fraction(1, 2)


def test_infeasible_outside_cone():
    # vectors spanning only the right half-plane cannot reach (-1, 0)
    assert min_combination([(1, 0), (0, 1), (0, -1)], (-1, 0)) is None
    assert min_combination([(1, 0), (1, 1)], (-1, 0)) is None
    assert min_combination([(1, 0), (0, 1), (0, -1), (-1, 0)], (-1, 0)) == 1


def test_simplex_basic():
    # min x + y st x + 2y = 4, x,y >= 0  -> y = 2
    assert min_combination([(1,), (2,)], (4,)) == 2


def test_redundant_rows():
    # the second coordinate doubles the first: phase 1 leaves a zero row to drop
    assert min_combination([(1, 2), (1, 2)], (2, 4)) == 2


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0)),
        min_size=3,
        max_size=8,
    ),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
)
def test_gauge_properties(verts, target):
    # symmetrize and pad with the unit vectors so the cone is all of R^2
    base = verts + [(1, 0), (0, 1)]
    sym = base + [(-a, -b) for a, b in base]
    g = min_combination(sym, target)
    assert g is not None and g >= 0
    if target == (0, 0):
        assert g == 0
        return
    assert g > 0
    # homogeneity: doubling the target doubles the value
    g2 = min_combination(sym, (2 * target[0], 2 * target[1]))
    assert g2 == 2 * g
    # symmetry of the body: gauge(-x) == gauge(x)
    gn = min_combination(sym, (-target[0], -target[1]))
    assert gn == g


# -- the fraction-free kernel against the general Fraction-pivot simplex ----------

_numbers = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(_numbers, min_size=d, max_size=d), min_size=0, max_size=8),
            st.one_of(st.just([0] * d), st.lists(_numbers, min_size=d, max_size=d)),
        )
    )
)
def test_min_combination_matches_oracle(data):
    vectors, target = data
    assert min_combination(vectors, target) == oracle.min_combination(vectors, target)


@st.composite
def _dependent_systems(draw):
    """Vectors and a target inside a subspace of rank k < d, some columns duplicated or scaled.

    The coordinates are dependent, so phase 1 ends with at least d - k zero
    rows still basic in an artificial, which are dropped.
    """
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, d - 1))
    basis = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=k, max_size=k))
    mixes = st.lists(st.integers(-2, 2), min_size=k, max_size=k)

    def point(c):
        return [sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(d)]

    vectors = [point(c) for c in draw(st.lists(mixes, min_size=1, max_size=7))]
    for _ in range(draw(st.integers(0, 3))):
        v = draw(st.sampled_from(vectors))
        s = draw(st.sampled_from([1, 2, -1, Fraction(1, 2)]))
        vectors.append([s * x for x in v])
    target = draw(st.one_of(st.just([0] * d), mixes.map(point)))
    return vectors, target


@settings(max_examples=300, deadline=None)
@given(_dependent_systems())
def test_min_combination_on_dependent_coordinates_matches_oracle(system):
    vectors, target = system
    assert min_combination(vectors, target) == oracle.min_combination(vectors, target)


@pytest.mark.parametrize(
    "vectors, target, expected",
    [
        # phase 1 ends with an artificial basic at 0 in a nonzero row: it must be pivoted out
        ([(-2, 2), (1, 0), (-2, 1)], (-2, 1), 1),
        ([(-2, 0), (-2, -2), (-4, 0)], (-1, -1), Fraction(1, 2)),
        ([(1, -2, -1), (2, -1, 1)], (2, -1, 1), 1),
        # ratio ties: 1/1 and 2/2 on the first column, and a duplicated column
        ([(1, 2), (1, 0), (0, 1)], (1, 2), 1),
        ([(1, 1), (1, 1), (2, 2), (1, -1)], (2, 2), 1),
        # a zero target costs nothing, even with zero and dependent columns
        ([(0, 0), (1, 1), (2, 2)], (0, 0), 0),
        ([(1, 2, 3)], (0, 0, 0), 0),
        # infeasible: outside the cone, and off a dependent subspace
        ([(1, 1), (2, 2)], (-1, -1), None),
        ([(1, 1), (2, 2)], (1, 0), None),
        ([(0, 0)], (1, 0), None),
    ],
)
def test_min_combination_degenerate_cases_match_oracle(vectors, target, expected):
    assert min_combination(vectors, target) == oracle.min_combination(vectors, target) == expected


def test_only_the_support_problem_is_exported():
    assert lp.__all__ == ["min_combination"]
    assert not hasattr(lp, "simplex_min") and not hasattr(lp, "LPError")
