import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from latslice import Lattice, LatticeSubspace, box, cross, cube, from_vertices, minima, verify, volume
from latslice.errors import DegenerateBodyError, SymmetryError
from latslice.lattices import project_count
from latslice.linalg import identity
from latslice.minima import minkowski_second_check
from latslice.slicing import slice_profile
from latslice.verify import (
    ChainEntry,
    PolygonError,
    covering_lemma_check,
    gauss_scaling,
    packing_lemma_check,
    pick_quantities,
    random_polygon,
    random_rational_symmetric_2d,
    random_symmetric_body,
    random_unconditional_body,
    report_csv_header,
    report_csv_row,
    report_to_dict,
    verify_dim2,
    verify_main,
    verify_unconditional,
)


# -- Pick -----------------------------------------------------------------


def test_pick_square():
    q = pick_quantities([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert (q.A, q.I, q.B) == (4, 1, 8)
    assert q.identity_holds


def test_pick_triangle():
    # vertex order does not matter: the clockwise list gives the same quantities
    for tri in ([(0, 0), (2, 0), (0, 2)], [(0, 0), (0, 2), (2, 0)]):
        q = pick_quantities(tri)
        assert (q.A, q.I, q.B) == (2, 0, 6)
        assert q.identity_holds


def test_pick_diamond():
    q = pick_quantities([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert (q.A, q.I, q.B) == (2, 1, 4)
    assert q.identity_holds


def test_pick_rejects_bad_input():
    with pytest.raises(PolygonError):
        pick_quantities([(0, 0), (1, 0)])
    with pytest.raises(PolygonError):
        pick_quantities([(0, 0), (Fraction(1, 2), 0), (0, 1)])
    with pytest.raises(PolygonError):
        # (1, 1) is inside the hull of the others: not an extreme point
        pick_quantities([(0, 0), (3, 0), (0, 3), (1, 1)])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_pick_identity_random_polygons(seed):
    q = pick_quantities(random_polygon(seed))
    assert q.identity_holds


# -- 2d chain -------------------------------------------------------------------


def test_dim2_cube():
    rep = verify_dim2(cube(2))
    assert rep.ok
    assert rep.count_total == 9 and rep.max_slice_count == 3 and rep.volume == 4
    assert Fraction(81) <= 16 * 9 * 4


def test_dim2_wide_box():
    rep = verify_dim2(box([5, 1]))
    assert rep.ok
    assert rep.count_total == 33 and rep.max_slice_count == 11 and rep.volume == 20


def test_dim2_tilted_hull():
    rep = verify_dim2(from_vertices([(2, 1), (1, 2)]))
    assert rep.ok


def test_dim2_hypothesis_violated():
    # K ∩ Z^2 is a segment, then the origin alone: its hull has fewer than 3 vertices
    for body, count in ((box([1, Fraction(2, 5)]), 3), (box([Fraction(1, 2), Fraction(1, 2)]), 1)):
        rep = verify_dim2(body)
        assert rep.hypothesis_violated
        assert not rep.ok
        assert rep.chain[0].name == "hypothesis"
        assert rep.count_total == count


def test_dim2_hulls_each_point_set_once(monkeypatch):
    """A fresh body's chain hulls its generators (for the volume) and K ∩ Z^2, nothing more.

    In V-rep the generators are K's own, in H-rep those of its dual.
    """
    from latslice import hull

    calls = []
    original = hull.graham_hull

    def counted(pts):
        calls.append(1)
        return original(pts)

    monkeypatch.setattr(hull, "graham_hull", counted)
    monkeypatch.setattr(verify, "graham_hull", counted)
    makers = [lambda: cube(2), lambda: cross(2), lambda: box([Fraction(5, 2), 1])]
    makers += [lambda s=s: random_symmetric_body(2, s) for s in range(3)]
    for make in makers:
        body = make()
        calls.clear()
        assert verify_dim2(body).ok
        assert len(calls) == 2


def test_planes_below_d4_are_taken_in_line(monkeypatch):
    # hyperplane_through's one caller in the library is the d >= 4 subset walk
    from latslice import hull, volume

    dims = []
    original = hull.hyperplane_through

    def recorded(points):
        dims.append(len(points[0]))
        return original(points)

    monkeypatch.setattr(hull, "hyperplane_through", recorded)
    verify_dim2(random_symmetric_body(2, 1))
    verify_main(random_symmetric_body(3, 1), 2)
    assert dims == []
    volume(cross(4))
    assert dims and min(dims) == 4


def test_dim2_observed_constant_below_4():
    for seed in range(20):
        body = random_rational_symmetric_2d(seed)
        rep = verify_dim2(body)
        assert rep.ok
        # observed constant never exceeds the theorem constant 4:
        # count^2 <= 16 max^2 vol in exact power form
        assert rep.observed_constant_power <= 16


# -- unconditional chain ------------------------------------------------------------


def test_unconditional_cube3():
    rep = verify_unconditional(cube(3))
    assert rep.ok
    assert rep.count_total == 27 and rep.max_slice_count == 9
    # equality case: 27 == 3 * 9
    line = [e for e in rep.chain if e.name == "line-count-bound"][0]
    assert line.passed


def test_unconditional_cross3():
    rep = verify_unconditional(cross(3))
    assert rep.ok
    assert rep.count_total == 7 and rep.max_slice_count == 5


def test_unconditional_box31():
    rep = verify_unconditional(box([3, 1]))
    assert rep.ok
    assert rep.count_total == 21
    assert rep.max_slice_count == 7


def test_unconditional_rejects_tilted():
    with pytest.raises(SymmetryError):
        verify_unconditional(from_vertices([(2, 1), (1, 2)]))


def test_unconditional_random_suite_small():
    for seed in range(25):
        d = 2 + seed % 3
        rep = verify_unconditional(random_unconditional_body(d, seed))
        assert rep.ok, rep.failures()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unconditional_generator_emits_only_binding_rows(d):
    trimmed = 0
    for seed in range(200):
        body, full = random_unconditional_body(d, seed), oracle.random_unconditional_body(d, seed)
        assert (body.name, body.bounding_box) == (full.name, full.bounding_box)
        assert len(body.lattice_points) == len(full.lattice_points)
        assert volume(body).value == volume(full).value
        if body.rows is None:
            continue
        trimmed += len(body.rows) < len(full.rows)
        # every emitted row is a facet: its a / b is a vertex of the dual
        dual = body.polar()
        pts, _ = dual._vrep_scaled
        assert len(pts) == len(body.rows)
        assert oracle.hull_vertex_indices(pts, d, dual.facets) == list(range(len(pts)))
    # in d = 1 the box and weighted rows share one normal, which from_hrep kept at the lower offset
    assert (trimmed > 0) == (d > 1)


def test_unconditional_generator_drops_the_box_rows_the_diamond_cuts():
    # the diamond rows (±3, ±5) . x <= 15 bound x2 at 3, inside the box row x2 <= 8
    normals = [(-3, -5), (-3, 5), (-1, 0), (1, 0), (3, -5), (3, 5)]
    assert [a for a, _ in random_unconditional_body(2, 5).rows] == normals
    assert [a for a, _ in oracle.random_unconditional_body(2, 5).rows] == sorted(normals + [(0, -1), (0, 1)])


def _entry(rep, name):
    return next(e for e in rep.chain if e.name == name)


def _check_detail(mk):
    return mk.holds, f"{mk.lhs} <= {mk.vol_ratio} <= {mk.rhs}"


def test_unconditional_minima_once_and_minkowski_entry_matches_check(monkeypatch):
    calls = []
    original = verify.successive_minima

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # the chain's own name and the one minima's checks call
    monkeypatch.setattr(verify, "successive_minima", counted)
    monkeypatch.setattr(minima, "successive_minima", counted)
    for seed in range(6):
        body = random_unconditional_body(2 + seed % 3, seed)
        calls.clear()
        rep = verify_unconditional(body)
        assert len(calls) == 1
        entry = _entry(rep, "minkowski-second")
        assert (entry.passed, entry.detail) == _check_detail(minkowski_second_check(body))


def test_main_minkowski_entry_matches_check_on_polar():
    for seed in range(4):
        body = random_symmetric_body(3, seed)
        entry = _entry(verify_main(body, 2), "minkowski-second-polar")
        assert (entry.passed, entry.detail) == _check_detail(minkowski_second_check(body.polar()))


# -- main chain ----------------------------------------------------------------------


def test_main_cube3_m2():
    rep = verify_main(cube(3), 2)
    assert rep.ok, rep.failures()
    assert rep.observed_constant_power == Fraction(27**3, 9**3 * 8)
    assert abs(rep.observed_constant - 1.5) < 1e-12


def test_main_cross3_m2():
    rep = verify_main(cross(3), 2)
    assert rep.ok, rep.failures()
    assert rep.observed_constant_power == Fraction(7**3 * 3, 5**3 * 4)
    assert abs(rep.observed_constant - (343 * 3 / 500) ** (1 / 3)) < 1e-12


def test_main_cube3_m1():
    rep = verify_main(cube(3), 1)
    assert rep.ok, rep.failures()
    assert rep.observed_constant_power == Fraction(27**3, 3**3 * 64)
    assert abs(rep.observed_constant - 2.25) < 1e-12


def test_main_mahler_reported():
    rep = verify_main(cube(2), 1)
    assert rep.mahler == 4 * 2  # vol(cube2) * vol(cross2)


def test_main_random_suite_small():
    for seed in range(12):
        d = 2 + seed % 3
        body = random_symmetric_body(d, seed)
        for m in range(1, d):
            rep = verify_main(body, m)
            assert not rep.hypothesis_violated
            assert rep.ok, (seed, d, m, rep.failures())


# -- translate counts against the slice-profile oracle ---------------------------------


def _closed_form_bodies(d):
    return [cube(d), cross(d), box([Fraction(3, 2), 2, 1, Fraction(5, 2)][:d])]


def _translate_entries(body, m):
    """The projection, factorization and translate-Brunn entries, rebuilt from H̄ itself."""
    d = body.dim
    sm = minima.successive_minima(body.polar())
    u_vecs = sm.directional_basis[: d - m]
    pc = project_count(body, u_vecs).total
    prof = slice_profile(body, LatticeSubspace.from_normals(u_vecs))
    count = len(body.lattice_points)
    bound = 1
    for l in sm.lambdas[: d - m]:
        bound *= 2 * math.floor(l) + 1
    return {
        "projection-bound": (pc <= bound, f"{pc} <= {bound}"),
        "factorization": (count <= pc * prof.max_count, f"#K={count} <= {pc} * {prof.max_count}"),
        "translate-brunn": (
            prof.central * 9**m >= prof.max_count,
            f"central={prof.central} max={prof.max_count} m={m}",
        ),
    }


@pytest.mark.parametrize("d", [2, 3, 4])
def test_main_translate_entries_match_the_profile_oracle(d):
    bodies = _closed_form_bodies(d) + [random_symmetric_body(d, seed) for seed in range(8 if d < 4 else 3)]
    for body in bodies:
        for m in range(1, d):
            rep = verify_main(body, m)
            assert not rep.hypothesis_violated, body.name
            got = {e.name: (e.passed, e.detail) for e in rep.chain}
            for name, entry in _translate_entries(body, m).items():
                assert got[name] == entry, (body.name, m, name)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_unconditional_dominance_entry_matches_the_profile_oracle(d):
    bodies = _closed_form_bodies(d) + [random_unconditional_body(d, seed) for seed in range(12)]
    for body in bodies:
        rep = verify_unconditional(body)
        assert not rep.hypothesis_violated, body.name
        profs = [slice_profile(body, LatticeSubspace.from_normal(e)) for e in identity(d)]
        detail = "; ".join(f"e{i + 1}: central={p.central} max={p.max_count}" for i, p in enumerate(profs))
        passed = all(p.central == p.max_count for p in profs)
        assert _entry(rep, "coordinate-dominance") == ChainEntry("coordinate-dominance", passed, detail)
        assert rep.max_slice_count == max(p.central for p in profs)


@pytest.mark.parametrize(
    "d, points, spread",
    [(0, None, None), (-2, None, None), (3, 1, None), (4, 1, 3), (2, None, 0)],
)
def test_random_symmetric_body_rejects_unspannable_draws(d, points, spread):
    # no draw of these can span R^d, so redrawing would never end
    with pytest.raises(DegenerateBodyError):
        random_symmetric_body(d, 0, points=points, spread=spread)


# -- packing and covering ---------------------------------------------------------------


def test_packing_trivial():
    assert packing_lemma_check([(0, 0)], [(0, 0)], Lattice.standard(2))


def test_packing_grid():
    grid = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    lat = Lattice(dim=2, basis=((2, 0), (0, 2)))
    assert packing_lemma_check(grid, [(0, 0)], lat)


def test_packing_random_instances():
    rng = random.Random(7)
    for _ in range(50):
        a = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(10)]
        p = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(3)]
        basis = ((rng.randint(1, 3), 0), (rng.randint(0, 2), rng.randint(1, 3)))
        assert packing_lemma_check(a, p, Lattice(dim=2, basis=basis))


def test_covering_cube2_k2():
    rep = covering_lemma_check(cube(2), 2)
    assert rep.points_covered == 25
    assert rep.cover_size <= 25 <= rep.bound == 81
    assert rep.holds


def test_covering_cross2_k1():
    rep = covering_lemma_check(cross(2), 1)
    assert rep.cover_size >= 1 and rep.holds and rep.bound == 25


def test_covering_interval_k3():
    rep = covering_lemma_check(cube(1), 3)
    assert rep.points_covered == 7
    assert rep.holds and rep.bound == 13


def test_covering_rejects_large():
    from latslice.errors import LatsliceError

    with pytest.raises(LatsliceError):
        covering_lemma_check(cube(4), 1)


# -- Gauss scaling --------------------------------------------------------------------


def test_gauss_cube2_closed_form():
    rep = gauss_scaling(cube(2), [1, 2, 3])
    assert rep.counts == (9, 25, 49)
    assert rep.abs_dev == (5, 9, 13)


def test_gauss_cube3_radius10():
    rep = gauss_scaling(cube(3), [10])
    assert rep.counts == (9261,)
    assert rep.abs_dev == (1261,)
    assert 1261 < 13 * 10**2


def test_gauss_rel_dev_decreasing():
    rep = gauss_scaling(cross(2), [2, 4, 8])
    assert rep.strictly_decreasing


def test_gauss_hyperplane_analogue():
    rep = gauss_scaling(cube(2), [1, 2, 4], hyperplane=(0, 1))
    assert rep.slice_counts == (3, 5, 9)
    # section is [-1, 1]: lattice-normalized volume 2, so expected 2r
    assert rep.slice_expected == (2, 4, 8)
    rep2 = gauss_scaling(cube(2), [2, 4], hyperplane=(1, 1))
    # section along the diagonal of the square has lattice-normalized volume 2
    assert rep2.slice_counts == (5, 9)


def test_gauss_slice_expectation_uses_the_subspace_rank():
    # a coordinate line of cube(3): lattice-normalized length 2, so expected 2r
    line = LatticeSubspace.from_basis([(1, 0, 0)])
    rep = gauss_scaling(cube(3), [2, 4, Fraction(7, 2)], hyperplane=line)
    assert rep.slice_counts == (5, 9, 7)
    assert rep.slice_expected == (4, 8, 7)
    # a hyperplane keeps r^(d-1)
    plane = gauss_scaling(cube(3), [2, 4], hyperplane=(0, 0, 1))
    assert plane.slice_counts == (25, 81)
    assert plane.slice_expected == (16, 64)


# -- report serialization ----------------------------------------------------------------


def test_report_dict_exact_strings():
    rep = verify_main(cross(3), 2)
    data = report_to_dict(rep)
    assert data["volume"] == "4/3"
    assert data["count"] == 7
    assert all(isinstance(e["passed"], bool) for e in data["chain"])
    assert isinstance(data["observed_constant"], float)


_HALF_BOX = box([Fraction(1, 2), 3])  # K ∩ Z^2 lies on a line


@pytest.mark.parametrize(
    "chain",
    [
        lambda b: verify_dim2(b, seed=7),
        lambda b: verify_unconditional(b, seed=7),
        lambda b: verify_main(b, 1, seed=7),
    ],
    ids=["dim2", "unconditional", "main"],
)
def test_hypothesis_violated_report_bytes(chain):
    rep = chain(_HALF_BOX)
    assert report_to_dict(rep) == {
        "kind": rep.kind,
        "body": "box:1/2,3",
        "d": 2,
        "m": 1,
        "count": 7,
        "hypothesis_violated": True,
        "chain": [{"name": "hypothesis", "passed": False, "detail": "dim(K ∩ Z^d) < d"}],
        "seed": 7,
    }
    assert report_csv_row(rep) == ["7", "2", "1", "7", "", "", "", "0", "hypothesis-violated"]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_chain_reports_the_observed_power_of_its_fields(d):
    bodies = [cube(d), cross(d), box([Fraction(3, 2), 2, 1, Fraction(5, 2)][:d])]
    for body in bodies:
        reports = [verify_unconditional(body)] + [verify_main(body, m) for m in range(1, d)]
        if d == 2:
            reports.append(verify_dim2(body))
        for rep in reports:
            assert rep.ok, (body.name, rep.kind, rep.failures())
            power = Fraction(rep.count_total) ** d / (
                Fraction(rep.max_slice_count) ** d * rep.volume ** (d - rep.m)
            )
            assert rep.observed_constant_power == power, (body.name, rep.kind, rep.m)
            assert rep.observed_constant == float(power) ** (1.0 / d)
            if rep.kind == "main":
                assert rep.mahler == rep.volume * rep.volume_polar
            else:
                assert rep.volume_polar is None and rep.mahler is None
    # cube(d): 3^d points, best m-slice 3^m, volume 2^d
    for m in range(1, d):
        assert verify_main(cube(d), m).observed_constant_power == Fraction(3, 2) ** (d * (d - m))


def test_report_csv_row_shape():
    rep = verify_dim2(cube(2), seed=17)
    row = report_csv_row(rep)
    assert len(row) == len(report_csv_header())
    assert row[0] == "17"
    assert row[-1] == "ok"
    assert set(row[-2]) <= {"0", "1"}


# -- dual-route volume oracle -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_volume_matches_pick_on_symmetric_integral_polygons(seed):
    # the exact hull-fan volume must equal the Pick value I + B/2 - 1,
    # whose ingredients (edge gcds, column counts) are computed independently
    from latslice import volume
    from latslice.hull import graham_hull

    hull_pts = random_polygon(seed)
    sym = graham_hull(hull_pts + [tuple(-x for x in p) for p in hull_pts])
    body = from_vertices(sym)
    q = pick_quantities(sym)
    assert volume(body).value == q.A == q.I + Fraction(q.B, 2) - 1


def test_covering_rational_body():
    from latslice import box as _box

    rep = covering_lemma_check(_box([Fraction(3, 2), 1]), 2)
    assert rep.holds
