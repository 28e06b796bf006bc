"""Integer and one-pass paths against the code they replaced in ``oracle``.

H-rep row normalization (results and error messages), translate labels of
``slice_profile`` (counts and first-seen order) and the rank of K's lattice
points, on seeded bodies in d = 2..4, shrunk copies of them and sublattices.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracle
from latslice.bodies import _normalize_row
from latslice.errors import DegenerateBodyError
from latslice.lattices import Lattice, LatticeSubspace, dim_of_lattice_span, sublattice
from latslice.linalg import identity, int_rank
from latslice.slicing import slice_profile
from test_gauge_table import bodies

entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.builds(str, st.fractions(min_value=-6, max_value=6, max_denominator=6)),
    st.sampled_from([0.5, -0.25, 2.0, True, False]),
)


def _outcome(normalize, a, b):
    try:
        return normalize(a, b)
    except DegenerateBodyError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(st.lists(entries, min_size=d, max_size=d), entries)))
def test_normalize_row_matches_fraction_route(row):
    a, b = row
    got = _outcome(_normalize_row, a, b)
    assert got == _outcome(oracle.normalize_row, a, b)
    if isinstance(got, tuple):
        assert all(type(x) is int for x in got[0]) and type(got[1]) is Fraction


@settings(max_examples=40, deadline=None)
@given(bodies, st.data())
def test_slice_profile_matches_per_point_labels(body, data):
    d = body.dim
    vecs = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d - 1))
    vecs = [v for v in vecs if any(v)]
    if not vecs or int_rank(vecs) < len(vecs):
        vecs = identity(d)[:1]
    sub = LatticeSubspace.from_basis(vecs)
    for target in (body, body.scale(Fraction(1, 3))):
        got = slice_profile(target, sub).by_translate
        assert list(got.items()) == list(oracle.translate_groups(target, sub).items())


@settings(max_examples=40, deadline=None)
@given(bodies, st.data())
def test_lattice_span_rank_matches_copied_rank(body, data):
    d = body.dim
    for target in (body, body.scale(Fraction(1, 3))):
        assert dim_of_lattice_span(target) == oracle.dim_of_lattice_span(target)
    cols = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d))
    cols = [c for c in cols if any(c)]
    if cols and int_rank(cols) == len(cols):
        lats = [Lattice(d, tuple(cols))]
        if len(cols) < d:
            lats.append(sublattice(LatticeSubspace.from_basis(cols)))
        for lat in lats:
            assert dim_of_lattice_span(body, lat) == oracle.dim_of_lattice_span(body, lat)
