import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import oracle
from latslice import linalg


small_int = st.integers(min_value=-6, max_value=6)


def brute_rank(rows):
    """Rank by checking determinants of all square submatrices."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    n = len(rows[0])
    best = 0
    for k in range(1, min(len(rows), n) + 1):
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if linalg.det_int(sub) != 0:
                    best = max(best, k)
                    break
            if best == k:
                break
    return best


def test_det_known():
    assert linalg.det_int([(1, 2), (3, 4)]) == -2
    assert linalg.det_int([(2, 0, 0), (0, 3, 0), (0, 0, 4)]) == 24
    assert linalg.det_int([(1, 1), (2, 2)]) == 0


@given(st.lists(st.tuples(small_int, small_int, small_int), min_size=3, max_size=3))
def test_det_matches_laplace(rows):
    a, b, c = rows
    expected = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    assert linalg.det_int(rows) == expected


@given(st.lists(st.tuples(small_int, small_int, small_int), min_size=1, max_size=4))
def test_rank_matches_brute_force(rows):
    assert linalg.int_rank(rows) == brute_rank(rows)


@st.composite
def matrices(draw, entry, max_rows=6, max_cols=5):
    """Up to max_rows x max_cols, with zero, duplicate and dependent rows mixed in."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["free", "zero", "copy", "combo"] if rows else ["free", "zero"]))
        if kind == "free":
            row = tuple(draw(entry) for _ in range(ncols))
        elif kind == "zero":
            row = (0 * draw(entry),) * ncols
        elif kind == "copy":
            row = draw(st.sampled_from(rows))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            row = tuple(s * x + t * y for x, y in zip(u, v))
        rows.append(row)
    return rows


small_frac = st.builds(Fraction, small_int, st.integers(min_value=1, max_value=4))


@settings(max_examples=80, deadline=None)
@given(st.one_of(matrices(small_int), matrices(small_frac)))
@example([])
@example([(Fraction(1, 2), 1), (1, 2)])
@example([(1, 0), (0, 1), (5, 7), (0, 0)])
def test_rank_matches_fraction_oracle(rows):
    assert linalg.int_rank(rows) == oracle.int_rank(rows)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    rows = [[draw(small_int) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_det_matches_bareiss_oracle(rows):
    assert linalg.det_int(rows) == oracle.det_int(rows)


def test_solve_rational():
    x = oracle.solve_rational([(2, 0), (1, 3)], (4, 5))
    assert x == (Fraction(2), Fraction(1))
    assert oracle.solve_rational([(1, 1), (2, 2)], (1, 2)) is None


@given(st.lists(st.tuples(small_int, small_int, small_int), min_size=2, max_size=5))
def test_hnf_preserves_row_lattice(rows):
    h, u, rank = linalg.row_hnf_transform(rows)
    m = len(rows)
    # U is unimodular
    assert abs(linalg.det_int(u)) == 1
    # U @ rows == H
    for i in range(m):
        combo = tuple(
            sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(len(rows[0]))
        )
        assert combo == h[i]
    # echelon: zero rows exactly below rank
    for i in range(rank):
        assert any(h[i])
    for i in range(rank, m):
        assert not any(h[i])
    assert rank == linalg.int_rank(rows)


def test_hnf_uniqueness_on_row_space():
    # equal row lattices must give identical HNF
    r1, r2, r3 = (2, 4, 4), (-6, 6, 12), (10, -4, -16)
    rows1 = [r1, r2, r3]
    rows2 = [
        tuple(a + b for a, b in zip(r1, r2)),
        linalg.vec_neg(r2),
        tuple(c + 2 * a for a, c in zip(r1, r3)),
    ]
    assert linalg.row_hnf(rows1) == linalg.row_hnf(rows2)


@given(st.lists(st.tuples(small_int, small_int, small_int, small_int), min_size=1, max_size=3))
def test_kernel_is_exact(rows):
    if all(not any(r) for r in rows):
        return
    kern = linalg.kernel_basis(rows)
    n = len(rows[0])
    assert len(kern) == n - linalg.int_rank(rows)
    for v in kern:
        for r in rows:
            assert linalg.dot(r, v) == 0
    if kern:
        assert linalg.int_rank(kern) == len(kern)


def test_kernel_saturated():
    # kernel of (1, 1) must contain (1, -1), not only (2, -2)
    kern = linalg.kernel_basis([(1, 1)])
    assert len(kern) == 1
    assert tuple(map(abs, kern[0])) == (1, 1)


def test_gram_det():
    assert oracle.gram_det([(1, 0, 0), (0, 1, 0)]) == 1
    assert oracle.gram_det([(1, -1)]) == 2
    assert oracle.gram_det([(1, 2, 3)]) == 14


def test_hyperplane_through():
    res = linalg.hyperplane_through([(1, 0), (0, 1)])
    assert res is not None
    a, b = res
    assert linalg.dot(a, (1, 0)) == b and linalg.dot(a, (0, 1)) == b
    assert linalg.content(a + (b,)) == 1
    # two distinct points span one line: x - y = 0
    assert linalg.hyperplane_through([(0, 0), (2, 2)]) == ((1, -1), 0)
    # two equal points span no unique hyperplane
    assert linalg.hyperplane_through([(2, 2), (2, 2)]) is None
    # in R^2 the cofactors are the edge turned a quarter turn: primitive, first nonzero entry positive
    assert linalg.hyperplane_through([(0, 2), (-4, 0)]) == ((1, -2), -4)
    assert linalg.hyperplane_through([(5, 1), (5, -7)]) == ((1, 0), 5)
    assert linalg.hyperplane_through([(3, -1), (1, 3)]) == ((2, 1), 5)


def test_hyperplane_through_degenerate():
    assert linalg.hyperplane_through([(1, 1, 1), (2, 2, 2), (3, 3, 3)]) is None


@st.composite
def plane_points(draw):
    """d small-int points in R^d, d = 2, 3, 4, and whether they are affinely dependent.

    A dependent set replaces its last point by the first plus an integer
    combination of up to two edges from it: a repeated point, a third point on
    a line through two, or a fourth in the plane of three.
    """
    d = draw(st.sampled_from((2, 3, 4)))
    pts = [tuple(draw(st.lists(small_int, min_size=d, max_size=d))) for _ in range(d)]
    edges = draw(st.integers(min_value=-1, max_value=min(d - 2, 2)))
    if edges >= 0:
        p = pts[0]
        coeffs = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(edges)]
        pts[-1] = tuple(p[j] + sum(c * (pts[i + 1][j] - p[j]) for i, c in enumerate(coeffs)) for j in range(d))
    return pts, edges >= 0


@settings(max_examples=400, deadline=None)
@given(plane_points())
@example(([(3, -1), (3, -1)], True))
@example(([(0, 0, 0), (1, 2, 3), (-2, -4, -6)], True))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (2, -1, 0, 0)], True))
@example(([(2, 0, 0), (0, 4, 0), (0, 0, 6)], False))
def test_hyperplane_through_matches_cofactor_oracle(case):
    pts, dependent = case
    hp = linalg.hyperplane_through(pts)
    assert hp == oracle.hyperplane_through(pts)
    if dependent:
        assert hp is None


def test_primitive_and_content():
    assert linalg.primitive((4, -6)) == (2, -3)
    assert linalg.primitive((-4, 6)) == (2, -3)
    assert linalg.content((0, 0)) == 0
    assert linalg.primitive((0, -5)) == (0, 1)


big_int = st.integers(min_value=-(2**70), max_value=2**70)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.just(()),
        st.lists(st.just(0), min_size=1, max_size=5),
        st.lists(small_int, min_size=1, max_size=1),
        st.lists(small_int, max_size=6),
        st.lists(big_int, max_size=6),
        st.lists(st.sampled_from([0, 2**64, -(2**64) - 2, 3 * 2**65]), max_size=5),
    ).map(tuple)
)
@example(())
@example((0, 0, 0))
@example((-(2**65),))
@example((0, -3 * 2**64, 6 * 2**64))
def test_content_and_primitive_match_gcd_loop(u):
    assert linalg.content(u) == oracle.content(u)
    p = linalg.primitive(u)
    assert p == oracle.primitive(u) and type(p) is tuple


def test_scale_to_int():
    vecs = [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(0))]
    scaled, L = linalg.scale_to_int(vecs)
    assert L == 6
    assert scaled == [(3, 2), (6, 0)]


@given(
    st.lists(st.tuples(small_int, small_int), min_size=2, max_size=2),
    st.tuples(small_int, small_int),
)
def test_solve_round_trip(rows, rhs):
    x = oracle.solve_rational(rows, rhs)
    if x is None:
        assert linalg.det_int(rows) == 0
    else:
        for r, t in zip(rows, rhs):
            assert linalg.dot(r, x) == t
