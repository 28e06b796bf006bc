import gc
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from latslice import (
    LatticeSubspace,
    SubspaceError,
    box,
    count_points,
    cross,
    cube,
    from_vertices,
)
import oracle
from latslice import slicing
from latslice.linalg import identity, primitive
from latslice.slicing import (
    brunn_check,
    max_slice,
    slice_count,
    slice_profile,
)
from latslice.verify import (
    random_rational_symmetric_2d,
    random_symmetric_body,
    random_unconditional_body,
    verify_dim2,
    verify_main,
)


def hyper(u):
    return LatticeSubspace.from_normal(u)


# -- slice_count -----------------------------------------------------------


def test_slice_count_cube3():
    assert slice_count(cube(3), hyper((0, 0, 1))).total == 9


def test_slice_count_cross3():
    assert slice_count(cross(3), hyper((0, 0, 1))).total == 5


def test_slice_count_cross3_diagonal():
    assert slice_count(cross(3), hyper((1, 1, 1))).total == 1


def test_slice_count_matches_profile_central():
    bodies = [cube(3), cross(3), box([2, 1, Fraction(3, 2)])]
    normals = [(1, 0, 0), (1, 1, 0), (1, 2, 3), (1, -1, 1)]
    for b in bodies:
        for u in normals:
            h = hyper(u)
            assert slice_count(b, h).total == slice_profile(b, h).central


def test_slice_count_general_subspace():
    h = LatticeSubspace.from_basis([(1, 0, 0)])
    assert slice_count(cube(3), h).total == 3
    assert slice_profile(cube(3), h).central == 3


# -- profiles ------------------------------------------------------------------


def test_profile_cross3_diagonal():
    prof = slice_profile(cross(3), hyper((1, 1, 1)))
    assert prof.by_translate == {(-1,): 3, (0,): 1, (1,): 3}
    assert prof.central == 1
    assert prof.max_count == 3


def test_profile_cube2():
    prof = slice_profile(cube(2), hyper((0, 1)))
    assert prof.by_translate == {(-1,): 3, (0,): 3, (1,): 3}


def test_profile_thin_box():
    prof = slice_profile(box([1, Fraction(2, 5)]), hyper((1, 0)))
    assert prof.by_translate == {(-1,): 1, (0,): 1, (1,): 1}


def test_profile_totals_and_symmetry():
    for b in [cube(3), cross(4), box([2, Fraction(3, 2)])]:
        for u in [(1,) + (0,) * (b.dim - 1), (1,) * b.dim]:
            prof = slice_profile(b, hyper(u))
            assert sum(prof.by_translate.values()) == count_points(b).total
            for t, c in prof.by_translate.items():
                assert prof.by_translate[tuple(-x for x in t)] == c


# -- max slice -------------------------------------------------------------------


def test_max_slice_cube3():
    res = max_slice(cube(3), 2)
    assert res.best_count == 9
    assert res.exhaustive
    assert slice_count(cube(3), res.witness).total == 9


def test_max_slice_cross4():
    res = max_slice(cross(4), 3)
    assert res.best_count == 7
    assert res.exhaustive


def test_max_slice_cross3_line():
    res = max_slice(cross(3), 1)
    assert res.best_count == 3
    assert res.witness.basis == ((1, 0, 0),) or res.best_count == 3


def test_max_slice_monotone_in_m():
    for body in [cube(3), cross(4), cube(4)]:
        counts = [max_slice(body, m).best_count for m in range(1, body.dim)]
        assert counts == sorted(counts)


def test_max_slice_rejects_bad_m():
    with pytest.raises(SubspaceError):
        max_slice(cube(3), 3)
    with pytest.raises(SubspaceError):
        max_slice(cube(3), 0)


def test_max_slice_deterministic_witness():
    a = max_slice(cube(3), 2)
    b = max_slice(cube(3), 2)
    assert a == b


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_max_slice_exhaustive_beats_origin_baseline(data):
    # restriction to lattice subspaces is lossless: any non-lattice
    # hyperplane meets Z^d in the origin alone, giving count 1
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pts = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)]
    pts += [tuple(-x for x in p) for p in pts]
    try:
        body = from_vertices(pts)
    except Exception:
        return
    res = max_slice(body, 1)
    assert res.best_count >= 1


def _summary(res):
    return res.best_count, res.witness.spec(), res.candidates_searched, res.exhaustive


def _oracle_summary(body, m, normal_bound=None):
    return _summary(oracle.max_slice(body, m, normal_bound, slicing.CERTIFY_LIMIT))


def _matches_oracle(body, m, normal_bound=None):
    res = max_slice(body, m, normal_bound)
    assert _summary(res) == _oracle_summary(body, m, normal_bound)
    return res


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["symmetric", "unconditional", "rational"]),
    st.integers(2, 4),
    st.integers(0, 10**6),
    st.data(),
)
def test_max_slice_matches_per_subset_oracle(kind, d, seed, data):
    if kind == "rational":
        body = random_rational_symmetric_2d(seed)
    elif kind == "unconditional":
        body = random_unconditional_body(d, seed)
    else:
        body = random_symmetric_body(d, seed)
    m = data.draw(st.integers(1, body.dim - 1))
    _matches_oracle(body, m)


@st.composite
def vector_families(draw, max_d=5, m=None):
    """(vectors, d, m): small vectors with parallel, repeated and dependent members."""
    d = draw(st.integers(max(2, m or 0), max_d))
    if m is None:
        m = draw(st.integers(1, d - 1))
    coord = st.integers(-3, 3)
    base = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=m + 1))
    vectors = []
    for _ in range(draw(st.integers(0, 9))):
        how = draw(st.sampled_from(["free", "parallel", "repeat", "dependent"]))
        if how == "free" or not vectors and how != "dependent":
            v = draw(st.tuples(*[coord] * d))
        elif how == "dependent":
            c = draw(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)))
            v = tuple(sum(a * b[i] for a, b in zip(c, base)) for i in range(d))
        else:
            v = draw(st.sampled_from(vectors))
            if how == "parallel":
                v = tuple(draw(st.sampled_from([-2, -1, 2, 3])) * a for a in v)
        vectors.append(v)
    return tuple(vectors), d, m


def _bits(vectors):
    """Weight 2**i for vector i, so that a span's weight spells out which vectors are its members."""
    return [1 << i for i in range(len(vectors))]


def _weighed(spans, vectors, weights):
    """An oracle's {key: (first subset, member set)} as _spans gives it: {key: members' weight}."""
    if spans is None:
        return None
    return {
        key: sum(w for v, w in zip(vectors, weights) if v in members)
        for key, (_, members) in spans.items()
    }


def _assert_same_spans(got, want):
    # keys, key order and weights; dict equality alone ignores order
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())


@settings(max_examples=300, deadline=None)
@given(vector_families(), st.integers(0, 200))
def test_spans_match_per_subset_oracle(family, limit):
    vectors, d, m = family
    weights = _bits(vectors)
    got = slicing._spans(vectors, weights, d, m, limit)
    assert (got is None) == (limit < comb(len(vectors), m))
    _assert_same_spans(got, _weighed(oracle._spans(vectors, d, m, limit), vectors, weights))


@settings(max_examples=300, deadline=None)
@given(vector_families(m=2), st.data())
def test_pair_loop_matches_per_subset_oracle(family, data):
    # the m = 2 flat pair loop against the per-subset minors and the member-set skip walk
    vectors, d, m = family
    pairs = comb(len(vectors), 2)
    limit = data.draw(st.integers(max(0, pairs - 2), pairs + 2))
    weights = _bits(vectors)
    got = slicing._spans(vectors, weights, d, m, limit)
    assert (got is None) == (limit < pairs)
    _assert_same_spans(got, _weighed(oracle._spans(vectors, d, m, limit), vectors, weights))
    _assert_same_spans(got, _weighed(oracle.skip_spans(vectors, d, m, limit), vectors, weights))


def _assert_same_walk(vectors, d, m):
    weights = _bits(vectors)
    got = slicing._spans(vectors, weights, d, m, slicing.CERTIFY_LIMIT)
    for walk in (oracle.walk_spans, oracle.skip_spans):
        _assert_same_spans(got, _weighed(walk(vectors, d, m, slicing.CERTIFY_LIMIT), vectors, weights))


@settings(max_examples=300, deadline=None)
@given(vector_families(max_d=4))
def test_skipping_walk_matches_full_walk(family):
    _assert_same_walk(*family)


def _directions(body):
    """The certified max-slice family: K's point directions and the coordinate vectors."""
    d = body.dim
    return tuple(sorted({primitive(p) for p in body.lattice_points if any(p)} | set(identity(d))))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10**6), st.booleans(), st.data())
def test_skipping_walk_matches_full_walk_on_point_directions(d, seed, crowded, data):
    # crowded bodies (3 generators spread 3) have many coplanar directions
    body = random_symmetric_body(d, seed, points=3, spread=3) if crowded else random_symmetric_body(d, seed)
    m = data.draw(st.integers(1, d - 1))
    _assert_same_walk(_directions(body), d, m)


@pytest.mark.parametrize(
    # cross(3) itself has 3 directions, one plane per pair, so nothing to skip; 2 * cross(3) has 9
    "body, keyed, keys",
    [(cube(3), 47, 25), (cross(3).scale(2), 23, 13)],
)
def test_skipping_walk_keys_fewer_subsets(monkeypatch, body, keyed, keys):
    vectors = _directions(body)
    weights = _bits(vectors)
    want = _weighed(oracle.walk_spans(vectors, 3, 2, slicing.CERTIFY_LIMIT), vectors, weights)
    calls = []
    original = slicing.primitive

    def counted(u):
        calls.append(u)
        return original(u)

    monkeypatch.setattr(slicing, "primitive", counted)
    got = slicing._spans(vectors, weights, 3, 2, slicing.CERTIFY_LIMIT)
    assert list(got.items()) == list(want.items())
    # every pair of distinct directions has rank 2, so the full walk keys all of them
    assert len(calls) == keyed < comb(len(vectors), 2)
    assert len(got) == keys


@pytest.mark.parametrize("d, m, seeds", [(3, 1, range(6)), (3, 2, range(6)), (4, 2, range(2)), (4, 3, range(2))])
def test_max_slice_unchanged_by_prefix_minors(monkeypatch, d, m, seeds):
    bodies = [random_symmetric_body(d, seed) for seed in seeds]
    if d == 3:
        # the crowded scan-main bodies, where the skip fires most
        bodies += [random_symmetric_body(3, seed, points=3, spread=3) for seed in seeds]
    got = [max_slice(b, m) for b in bodies]
    calls = []

    def per_subset(vectors, weights, d, m, limit):
        # every m, m = 2 included, searches through _spans
        calls.append(m)
        return _weighed(oracle._spans(vectors, d, m, limit), vectors, weights)

    monkeypatch.setattr(slicing, "_spans", per_subset)
    assert got == [max_slice(b, m) for b in bodies]
    assert len(calls) >= len(bodies)


def test_max_slice_ties_match_oracle():
    # many spans share the maximum; the witness is the smallest basis
    for body in [cube(3), cross(4)]:
        for m in range(1, body.dim):
            _matches_oracle(body, m)


def test_max_slice_builds_subspaces_only_for_ties(monkeypatch):
    built = []
    from_normals = LatticeSubspace.from_normals.__func__

    def counting(cls, rows):
        built.append(rows)
        return from_normals(cls, rows)

    monkeypatch.setattr(LatticeSubspace, "from_normals", classmethod(counting))
    res = max_slice(cube(3), 2)
    # 9 points on the 3 coordinate planes and the 6 planes x_i = ±x_j
    assert res.best_count == 9 and res.candidates_searched == 25
    assert len(built) == 9


@settings(max_examples=200, deadline=None)
@given(vector_families())
def test_subspace_rebuilt_from_key_is_its_first_subsets_span(family):
    # the witness comes from its key's forms alone and must be the span of the key's first subset
    vectors, d, m = family
    for key, (first, _) in oracle._spans(vectors, d, m, 10**6).items():
        assert LatticeSubspace.from_normals(slicing._forms(key, d, m)) == oracle.from_basis(first)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.tuples(*[st.integers(-3, 3)] * d)).filter(any))
def test_normal_read_as_key_gives_its_hyperplanes_key(u):
    # the m = d - 1 fallback keys each normal by its one form, the Hodge dual
    d = len(u)
    key = primitive(slicing._forms(u, d, d - 1)[0])
    h = LatticeSubspace.from_normal(u)
    assert key == oracle._span_key(h.basis, tuple(itertools.combinations(range(d), d - 1)))
    assert LatticeSubspace.from_normals(slicing._forms(key, d, d - 1)) == h


def test_max_slice_normalizes_each_direction_once(monkeypatch):
    lengths = []
    original = slicing.primitive

    def counted(u):
        lengths.append(len(u))
        return original(u)

    monkeypatch.setattr(slicing, "primitive", counted)
    body = cube(4)
    res = max_slice(body, 2)
    assert res.exhaustive and res.best_count == 9
    # one call per point >lex 0; the walk's keys are the 6 minors of a pair
    assert lengths.count(4) == len(body.lattice_points) // 2 == 40


@pytest.mark.parametrize(
    "body, strategy",
    # strategy: (normal_bound, CERTIFY_LIMIT), or None for the defaults
    [
        (cube(5), None),
        (cross(5), (None, 0)),
        (cube(5), (2, slicing.CERTIFY_LIMIT)),
        (random_symmetric_body(3, 0), (None, 0)),
    ],
)
def test_max_slice_normals_branch_matches_oracle(monkeypatch, body, strategy):
    bound, limit = strategy or (None, slicing.CERTIFY_LIMIT)
    monkeypatch.setattr(slicing, "CERTIFY_LIMIT", limit)
    res = _matches_oracle(body, body.dim - 1, bound)
    assert not res.exhaustive


@pytest.mark.parametrize("seed", [2, 5])
@pytest.mark.parametrize("direct", [True, False])
@pytest.mark.parametrize(
    "bound, limit",
    # (1, 800): the 40 sup-norm-1 vectors give 780 subsets, so the bounded
    # family is searched; the small limits fall back to coordinate vectors
    # and the polar basis
    [(1, 800), (None, 6), (None, 100)],
)
def test_max_slice_span_branches_match_oracle(monkeypatch, seed, direct, bound, limit):
    # direct: max_slice itself; otherwise the search verify_main runs with normal_bound
    monkeypatch.setattr(slicing, "CERTIFY_LIMIT", limit)
    body = random_symmetric_body(4, seed)
    if direct:
        got = _summary(max_slice(body, 2, bound))
    else:
        rep = verify_main(body, 2, normal_bound=bound)
        got = (rep.max_slice_count, rep.max_slice_witness, rep.candidates_searched, rep.max_slice_exhaustive)
    assert got == _oracle_summary(body, 2, bound)
    _, _, searched, exhaustive = got
    assert not exhaustive
    assert (searched > 28) == (bound == 1)


def test_max_slice_family_too_large(monkeypatch):
    # the fallback of last resort, cube(4)'s coordinate vectors (its polar
    # basis too), gives 6 subsets
    monkeypatch.setattr(slicing, "CERTIFY_LIMIT", 5)
    with pytest.raises(SubspaceError, match="candidate family too large"):
        max_slice(cube(4), 2)
    with pytest.raises(SubspaceError, match="candidate family too large"):
        oracle.max_slice(cube(4), 2, certify_limit=5)


def test_max_slice_and_verify_main_leave_no_cycles():
    # nothing they build may wait for the cyclic collector, the span table included
    verify_main(random_symmetric_body(3, 6, points=3, spread=3), 2)  # warm the module caches
    gc.collect()
    gc.disable()
    try:
        max_slice(random_symmetric_body(3, 5, points=3, spread=3), 2)
        assert gc.collect() == 0
        verify_main(random_symmetric_body(3, 5, points=3, spread=3), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("knobs", [{"normal_bound": 0}, {"normal_bound": -1}])
def test_candidate_strategy_rejects_bad_knobs(knobs):
    # box 1/2 x 3 violates the chains' hypothesis: the bound is rejected
    # before a chain could return early
    flat = box([Fraction(1, 2), 3])
    for search in (
        lambda: max_slice(cube(3), 2, **knobs),
        lambda: verify_main(flat, 1, **knobs),
        lambda: verify_dim2(flat, **knobs),
    ):
        with pytest.raises(ValueError, match="normal_bound must be at least 1"):
            search()


# -- Brunn dominance ---------------------------------------------------------------


def test_brunn_cross3_diagonal():
    rep = brunn_check(cross(3), hyper((1, 1, 1)))
    assert rep.central == 1 and rep.max_translate_count == 3
    assert rep.min_ratio == Fraction(1, 3)
    assert rep.bound == Fraction(1, 81)
    assert rep.holds


def test_brunn_unconditional_box_coordinate():
    rep = brunn_check(box([2, 1]), hyper((1, 0)))
    assert rep.min_ratio >= 1
    assert rep.holds


def test_brunn_bound_scales_with_m():
    rep = brunn_check(cube(4), LatticeSubspace.from_basis([(1, 0, 0, 0), (0, 1, 0, 0)]))
    assert rep.m == 2
    assert rep.bound == Fraction(1, 81)
    assert rep.holds


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_brunn_holds_on_random_bodies(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.sampled_from([2, 3]))
    pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 2)]
    pts += [tuple(-x for x in p) for p in pts]
    try:
        body = from_vertices(pts)
    except Exception:
        return
    for u in [(1,) + (0,) * (d - 1), (1,) * d, (2, 1) + (0,) * (d - 2)]:
        rep = brunn_check(body, hyper(u))
        assert rep.holds
        assert rep.central >= 1  # the origin is always in the central slice


def test_subspace_dimension_mismatch_rejected():
    with pytest.raises(SubspaceError):
        slice_count(cube(3), hyper((1, 1)))
    with pytest.raises(SubspaceError):
        slice_profile(cube(2), hyper((1, 0, 0)))


def test_profile_levels_within_support_bounds():
    # nonzero levels can only occur for |u . z| <= h_K(u)
    body = box([2, Fraction(3, 2)])
    u = (1, 2)
    prof = slice_profile(body, hyper(u))
    h = body.support(u)
    for (level,) in prof.by_translate:
        assert abs(level) <= h
