"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the status lines.
Every assertion is an exact comparison at the stated tolerance (which is
zero everywhere: the checks are integer/rational identities and
inequalities); criteria with stated runtime budgets assert those too.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from latslice import (
    Lattice,
    count_points,
    cross,
    cube,
    enumerate_points,
    from_vertices,
    volume,
)
from latslice.minima import heuristic_progression, minkowski_second_check, progression_volume_bound
from latslice.slicing import _primitive_vectors, max_slice, slice_profile
from latslice.lattices import LatticeSubspace
from latslice.verify import (
    covering_lemma_check,
    gauss_scaling,
    packing_lemma_check,
    pick_quantities,
    random_polygon,
    random_rational_symmetric_2d,
    random_symmetric_body,
    random_unconditional_body,
    verify_dim2,
    verify_main,
    verify_unconditional,
)

N_POLYGONS = 1000
N_RATIONAL_2D = 200
N_MINKOWSKI = 300
N_UNCONDITIONAL = 200
N_MAIN = 150
N_PACKING = 100
N_PROGRESSION = 100


def _status(num, name, detail=""):
    line = f"ACCEPTANCE {num:>2} PASS: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def mk_bodies():
    """The 300 seeded random symmetric polytopes shared by criteria 4 and 5."""
    bodies = []
    for d in (2, 3, 4):
        for i in range(N_MINKOWSKI // 3):
            bodies.append(random_symmetric_body(d, seed=1000 * d + i))
    return bodies


def test_criterion_1_closed_forms(monkeypatch):
    monkeypatch.setenv("LATSLICE_EXACT_DIM_CAP", "6")
    t0 = time.monotonic()
    for d in range(2, 7):
        bc, bx = cube(d), cross(d)
        assert count_points(bc).total == 3**d
        assert count_points(bx).total == 2 * d + 1
        assert volume(bc).value == 2**d
        assert volume(bx).value == Fraction(2**d, factorial(d))
        for m in range(1, d):
            assert max_slice(bc, m).best_count == 3**m
            assert max_slice(bx, m).best_count == 2 * m + 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _status(1, "cube/cross closed forms exact for d=2..6", f"{elapsed:.1f}s")


def test_criterion_2_pick_identity():
    t0 = time.monotonic()
    failures = 0
    for seed in range(N_POLYGONS):
        q = pick_quantities(random_polygon(seed))
        if not q.identity_holds:
            failures += 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    _status(2, f"Pick identity exact on {N_POLYGONS} random polygons", f"{elapsed:.1f}s")


def test_criterion_3_dim2_theorem():
    failures = []
    for seed in range(N_POLYGONS):
        hull_pts = random_polygon(seed)
        body = from_vertices(
            hull_pts + [tuple(-x for x in p) for p in hull_pts], name=f"sym:{seed}"
        )
        rep = verify_dim2(body, seed=seed)
        if not rep.ok:
            failures.append(("polygon", seed, rep.failures()))
    for seed in range(N_RATIONAL_2D):
        rep = verify_dim2(random_rational_symmetric_2d(seed), seed=seed)
        if not rep.ok:
            failures.append(("rational", seed, rep.failures()))
    assert not failures, failures[:5]
    _status(3, f"2D chain (constant 4) on {N_POLYGONS}+{N_RATIONAL_2D} bodies")


def test_criterion_4_minkowski_second(mk_bodies):
    t0 = time.monotonic()
    for body in mk_bodies:
        rep = minkowski_second_check(body)
        assert rep.holds, body.name
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.1f}s"
    _status(4, f"Minkowski-II sandwich exact on {len(mk_bodies)} bodies", f"{elapsed:.1f}s")


def test_criterion_5_discrete_brunn(mk_bodies):
    for body in mk_bodies:
        d = body.dim
        points = enumerate_points(body)
        for u in _primitive_vectors(d, 3):
            levels = {}
            for z in points:
                s = 0
                for a, b in zip(u, z):
                    s += a * b
                levels[s] = levels.get(s, 0) + 1
            central = levels.get(0, 0)
            worst = max(levels.values())
            assert central * 9 ** (d - 1) >= worst, (body.name, u)
    for d in range(2, 7):
        prof = slice_profile(cross(d), LatticeSubspace.from_normal((1,) * d))
        assert prof.by_translate == {(-1,): d, (0,): 1, (1,): d}
    _status(5, f"discrete Brunn on {len(mk_bodies)} bodies, all normals up to sup-norm 3")


def test_criterion_6_unconditional_chain():
    dims = (2, 3, 4, 5)
    failures = []
    for i in range(N_UNCONDITIONAL):
        d = dims[i % len(dims)]
        body = random_unconditional_body(d, seed=i)
        rep = verify_unconditional(body, seed=i)
        if not rep.ok:
            failures.append((i, d, rep.failures()))
    assert not failures, failures[:5]
    _status(6, f"unconditional chain exact on {N_UNCONDITIONAL} bodies, d <= 5")


def test_criterion_7_main_chain():
    failures = []
    mahlers = 0
    n_bodies = 0
    for d in (2, 3, 4):
        for i in range(N_MAIN // 3):
            body = random_symmetric_body(d, seed=7000 * d + i)
            n_bodies += 1
            for m in range(1, d):
                rep = verify_main(body, m, seed=7000 * d + i)
                if not rep.ok:
                    failures.append((d, i, m, rep.failures()))
                if rep.mahler is not None:
                    mahlers += 1
    assert not failures, failures[:5]
    assert mahlers > 0
    _status(7, f"main chain exact on {n_bodies} bodies, every m", f"{mahlers} Mahler volumes reported")


def test_criterion_8_packing_and_covering():
    rng = random.Random(8_2024)
    for _ in range(N_PACKING):
        a = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(10)]
        p = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 3))]
        basis = ((rng.randint(1, 3), 0), (rng.randint(0, 2), rng.randint(1, 3)))
        assert packing_lemma_check(a, p, Lattice(dim=2, basis=basis))
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            for body in (cube(d), cross(d)):
                rep = covering_lemma_check(body, k)
                assert rep.holds, (body.name, k, rep.cover_size, rep.bound)
    _status(8, f"packing lemma on {N_PACKING} instances; greedy covers within (4k+1)^d")


def test_criterion_9_progression_volume_bound():
    dims = (2, 3, 4)
    checked = 0
    for i in range(N_PROGRESSION):
        d = dims[i % len(dims)]
        body = random_symmetric_body(d, seed=9000 + i)
        prog = heuristic_progression(body)
        assert prog.proper
        if all(n >= 1 for n in prog.N):
            rep = progression_volume_bound(prog, body)
            assert rep.contained, (i, d)
            assert rep.holds, (i, d, rep.vol_lb)
            checked += 1
    assert checked > 0
    _status(9, f"heuristic progressions contained with volume bound on {N_PROGRESSION} bodies",
            f"{checked} with all N_i >= 1")


def test_criterion_10_gauss_scaling():
    t0 = time.monotonic()
    radii = [5, 10, 20, 40]
    for d in (2, 3):
        for body in (cube(d), cross(d)):
            rep = gauss_scaling(body, radii)
            assert rep.strictly_decreasing, (body.name, rep.rel_dev)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 10 took {elapsed:.1f}s"
    _status(10, "relative count deviation strictly decreasing along r=5,10,20,40", f"{elapsed:.1f}s")
