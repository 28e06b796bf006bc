from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from latslice import lp
from latslice.errors import LatsliceError
from latslice.lp import LPError, min_combination, simplex_min


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
    val, x = simplex_min([1, 1], [[1, 2]], [4])
    assert val == 2
    assert x == (0, 2)


def test_redundant_rows():
    val, _ = simplex_min([1, 1], [[1, 1], [2, 2]], [2, 4])
    assert val == 2


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


# -- the fraction-free kernel against the Fraction-pivot oracle -----------------

_numbers = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _solve(module, costs, rows, rhs):
    try:
        return module.simplex_min(costs, rows, rhs)
    except module.LPError:
        return "unbounded"


@st.composite
def _lps(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_numbers, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(_numbers, min_size=m, max_size=m))
    # a duplicated or scaled row keeps an artificial basic after phase 1,
    # so drop_redundant_rows has a zero row to drop
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, m - 1))
        k = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        rows.append([k * x for x in rows[i]])
        rhs.append(k * rhs[i])
    costs = draw(st.lists(_numbers, min_size=n, max_size=n))
    return costs, rows, rhs


@settings(max_examples=300, deadline=None)
@given(_lps())
def test_simplex_min_matches_oracle(lp_data):
    costs, rows, rhs = lp_data
    assert _solve(lp, costs, rows, rhs) == _solve(oracle, costs, rows, rhs)


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


@pytest.mark.parametrize(
    "costs, rows, rhs",
    [
        # phase 1 enters column 0 with the ratios 1/1 and 2/2 tied; Bland leaves the lower basic index
        ([-1, 0, 0], [[1, 1, 0], [2, 0, 1]], [1, 2]),
        # ratio ties between rows whose basics are out of row order: leaving the
        # lower row instead of the lower basic index ends at another optimal x
        ([1, 0, -2, 2, -2], [[0, -2, -2, 1, 2], [2, 1, 2, 2, 0]], [1, 2]),
        ([2, 2, 1, -1, -1], [[-2, 0, -2, -1, 0], [0, 0, -1, -1, 1], [-1, -1, -1, 1, -1]], [-2, 0, -1]),
        ([1, 0, 1, 0], [[-2, 2, 1, -1], [1, 1, 2, -2], [-2, 1, -1, -2]], [0, 0, -1]),
        ([1, 1, 1], [[1, 1, 1], [1, 1, 1], [-1, -1, -1]], [3, 3, -3]),
        ([Fraction(1, 2), 1, Fraction(-1, 3)], [[1, Fraction(1, 2), 1], [0, 1, -1]], [Fraction(-3, 2), -1]),
        ([0, 0], [[1, 1]], [-1]),
    ],
)
def test_simplex_min_degenerate_cases_match_oracle(costs, rows, rhs):
    assert _solve(lp, costs, rows, rhs) == _solve(oracle, costs, rows, rhs)


def test_unbounded_raises_typed_error():
    with pytest.raises(LPError) as exc:
        simplex_min([-1], [[0]], [0])
    assert isinstance(exc.value, LatsliceError)
    assert issubclass(LPError, LatsliceError)
