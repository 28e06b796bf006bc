"""End-to-end verification of the counting inequality chains.

Every check here is an exact rational comparison; d-th roots never
appear because each inequality is raised to the d-th power first.  The
asymptotic constants of the underlying theory are never asserted: the
suites check the exact intermediate inequalities and report observed
constants for tabulation.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

from .bodies import ConvexBody, box, from_hrep, from_vertices, polar_volume, volume
from .errors import DegenerateBodyError, LatsliceError, SymmetryError
from .hull import graham_hull
from .lattices import (
    LatticeSubspace,
    count_points,
    count_solutions,
    dim_of_lattice_span,
    enumerate_points,
    sublattice,
)
from .linalg import dot, identity, is_zero
from .minima import minkowski_second_bounds, successive_minima
from .slicing import MaxSliceResult, _check_normal_bound, max_slice

__all__ = [
    "PickQuantities",
    "PolygonError",
    "ChainEntry",
    "SlicingReport",
    "CoveringReport",
    "GaussScalingReport",
    "pick_quantities",
    "verify_dim2",
    "verify_unconditional",
    "verify_main",
    "packing_lemma_check",
    "covering_lemma_check",
    "gauss_scaling",
    "random_symmetric_body",
    "random_unconditional_body",
    "random_polygon",
    "random_rational_symmetric_2d",
    "report_to_dict",
    "report_csv_header",
    "report_csv_row",
]


class PolygonError(LatsliceError):
    """Non-convex or non-integral polygon input."""


# -- Pick quantities --------------------------------------------------------


@dataclass(frozen=True)
class PickQuantities:
    A: Fraction  # area
    I: int  # interior lattice points
    B: int  # boundary lattice points
    identity_holds: bool


def pick_quantities(polygon) -> PickQuantities:
    """Area, interior and boundary counts of an integral convex polygon, given by its vertices."""
    pts = []
    for p in polygon:
        if len(p) != 2 or any(int(x) != x for x in p):
            raise PolygonError("polygon vertices must be 2d integer points")
        pts.append((int(p[0]), int(p[1])))
    if len(set(pts)) < 3:
        raise PolygonError("polygon needs at least 3 distinct vertices")
    hull_pts = graham_hull(pts)
    if len(hull_pts) < 3 or set(hull_pts) != set(pts):
        raise PolygonError("vertices are not the extreme points of a convex polygon")
    return _pick(hull_pts)


def _pick(hull_pts) -> PickQuantities:
    """Pick quantities of a counterclockwise hull of at least 3 integer vertices.

    One edge loop sums the shoelace area A, the boundary count B (the edge
    gcds) and the outward rows (the edge turned clockwise over its gcd); I is
    the rows' lattice count minus B, so A = I + B/2 - 1 checks independent sums.
    """
    area2 = 0
    bcount = 0
    rows = []
    for (x1, y1), (x2, y2) in zip(hull_pts, hull_pts[1:] + hull_pts[:1]):
        area2 += x1 * y2 - x2 * y1
        g = gcd(x2 - x1, y2 - y1)
        bcount += g
        a = ((y2 - y1) // g, (x1 - x2) // g)
        rows.append((a, a[0] * x1 + a[1] * y1))
    area = Fraction(area2, 2)
    xs = [p[0] for p in hull_pts]
    ys = [p[1] for p in hull_pts]
    total = count_solutions(rows, [(min(xs), max(xs)), (min(ys), max(ys))])
    interior = total - bcount
    holds = area == interior + Fraction(bcount, 2) - 1
    return PickQuantities(A=area, I=interior, B=bcount, identity_holds=holds)


# -- report plumbing ------------------------------------------------------------


@dataclass(frozen=True)
class ChainEntry:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SlicingReport:
    kind: str
    body: str
    d: int
    m: int
    count_total: int
    max_slice_count: int | None = None
    max_slice_witness: str | None = None
    max_slice_exhaustive: bool | None = None
    candidates_searched: int | None = None
    volume: Fraction | None = None
    volume_polar: Fraction | None = None
    mahler: Fraction | None = None
    observed_constant_power: Fraction | None = None
    observed_constant: float | None = None
    chain: tuple[ChainEntry, ...] = ()
    hypothesis_violated: bool = False
    seed: int | None = None

    @property
    def ok(self) -> bool:
        return not self.hypothesis_violated and all(e.passed for e in self.chain)

    def failures(self):
        return [e.name for e in self.chain if not e.passed]


def _minkowski_second_entry(name, lambdas, vol) -> ChainEntry:
    """Minkowski's second theorem on Z^d: (1/d!) prod 2/lambda_i <= vol <= prod 2/lambda_i."""
    lhs, rhs = minkowski_second_bounds(lambdas)
    return ChainEntry(name, lhs <= vol <= rhs, f"{lhs} <= {vol} <= {rhs}")


def _hypothesis_report(kind, body, m, count, seed):
    chain = (ChainEntry("hypothesis", False, "dim(K ∩ Z^d) < d"),)
    return SlicingReport(
        kind, body.name, body.dim, m, count, chain=chain, hypothesis_violated=True, seed=seed
    )


def _report(kind, body, m, count, ms, vol, chain, seed, volume_polar=None) -> SlicingReport:
    """The report every chain ends on: its max slice and observed constant.

    The observed power #K^d / (best^d vol(K)^(d-m)) is the least C(d)^d for
    which #K <= C(d) best vol(K)^((d-m)/d) holds, best being the reported
    max slice count.
    """
    d = body.dim
    power = Fraction(count) ** d / (Fraction(ms.best_count) ** d * Fraction(vol) ** (d - m))
    return SlicingReport(
        kind=kind,
        body=body.name,
        d=d,
        m=m,
        count_total=count,
        max_slice_count=ms.best_count,
        max_slice_witness=ms.witness.spec(),
        max_slice_exhaustive=ms.exhaustive,
        candidates_searched=ms.candidates_searched,
        volume=vol,
        volume_polar=volume_polar,
        mahler=None if volume_polar is None else Fraction(vol) * volume_polar,
        observed_constant_power=power,
        observed_constant=float(power) ** (1.0 / d),
        chain=tuple(chain),
        seed=seed,
    )


# -- the 2d chain ------------------------------------------------------------------


def verify_dim2(body, normal_bound=None, seed=None) -> SlicingReport:
    """Pick-based chain: hull identity, point bound, and the constant-4 inequality."""
    _check_normal_bound(normal_bound)
    if body.dim != 2:
        raise LatsliceError("verify_dim2 needs a 2-dimensional body")
    pts = body.lattice_points
    count = len(pts)
    hull_pts = graham_hull(pts)
    if len(hull_pts) < 3:  # K ∩ Z^2 holds 0, so collinear means a span below 2
        return _hypothesis_report("dim2", body, 1, count, seed)
    pick = _pick(hull_pts)
    chain = [ChainEntry("pick-identity", pick.identity_holds, f"A={pick.A} I={pick.I} B={pick.B}")]
    hull_count = pick.I + pick.B
    premises = pick.I >= 1 and pick.A >= 2 and hull_count == count
    point_bound = premises and Fraction(hull_count) <= Fraction(5, 2) * pick.A
    chain.append(
        ChainEntry(
            "hull-point-bound",
            point_bound,
            f"#P={hull_count} vol(P)={pick.A} (I>=1, vol>=2 premises)",
        )
    )
    vol = volume(body).value
    ms = max_slice(body, 1, normal_bound)
    lhs = Fraction(count) ** 2
    rhs = 16 * Fraction(ms.best_count) ** 2 * vol
    chain.append(ChainEntry("slicing-inequality", lhs <= rhs, f"{lhs} <= {rhs}"))
    return _report("dim2", body, 1, count, ms, vol, chain, seed)


# -- unconditional chain --------------------------------------------------------------


def verify_unconditional(body, seed=None) -> SlicingReport:
    """Coordinate-dominance chain for unconditional bodies."""
    d = body.dim
    if d < 2:
        raise LatsliceError(f"the unconditional chain needs d >= 2, got d = {d}")
    if not body.is_unconditional():
        raise SymmetryError("body is not unconditional")
    points = body.lattice_points
    count = len(points)
    if dim_of_lattice_span(body) < d:
        return _hypothesis_report("unconditional", body, d - 1, count, seed)
    # z lies in the translate e_i^⊥ + z_i e_i, so coordinate i labels the translates of e_i^⊥
    profiles = [Counter(col) for col in zip(*points)]
    centrals = [prof[0] for prof in profiles]
    tops = [max(prof.values()) for prof in profiles]
    details = "; ".join(
        f"e{i + 1}: central={c} max={t}" for i, (c, t) in enumerate(zip(centrals, tops))
    )
    chain = [ChainEntry("coordinate-dominance", centrals == tops, details)]

    sm = successive_minima(body)
    axes = identity(d)
    coord_gauges = [body.gauge(u) for u in axes]
    gauges = sorted(coord_gauges)
    chain.append(
        ChainEntry(
            "coordinate-minima",
            tuple(gauges) == sm.lambdas,
            "sorted coordinate gauges "
            + ",".join(str(g) for g in gauges)
            + " vs lambdas "
            + ",".join(str(l) for l in sm.lambdas),
        )
    )
    lam_d = sm.lambdas[-1]
    i_star = max(range(d), key=lambda i: (coord_gauges[i], -i))
    central_star = centrals[i_star]
    factor = 2 * floor(Fraction(1) / lam_d) + 1
    chain.append(
        ChainEntry(
            "line-count-bound",
            count <= factor * central_star,
            f"#K={count} <= {factor} * {central_star}",
        )
    )
    chain.append(
        ChainEntry(
            "floor-three-bound",
            Fraction(factor) <= Fraction(3) / lam_d,
            f"{factor} <= 3/{lam_d}",
        )
    )
    vol = volume(body).value
    chain.append(_minkowski_second_entry("minkowski-second", sm.lambdas, vol))
    ms = MaxSliceResult(d - 1, max(centrals), LatticeSubspace.from_normal(axes[i_star]), d, False)
    return _report("unconditional", body, d - 1, count, ms, vol, chain, seed)


# -- general co-dimensional chain -------------------------------------------------------


def verify_main(body, m, normal_bound=None, seed=None) -> SlicingReport:
    """Polar-minima chain for the co-dimensional counting inequality."""
    _check_normal_bound(normal_bound)
    d = body.dim
    if d < 2:
        raise LatsliceError(f"the main chain needs d >= 2, got d = {d}")
    if not 1 <= m <= d - 1:
        raise LatsliceError(f"m must be in [1, {d - 1}]")
    points = body.lattice_points
    count = len(points)
    if dim_of_lattice_span(body) < d:
        return _hypothesis_report("main", body, m, count, seed)
    polar = body.polar()
    sm = successive_minima(polar)
    lam = sm.lambdas
    vs = sm.directional_basis
    chain = [
        ChainEntry(
            "polar-minima",
            True,
            "lambda*=" + ",".join(str(x) for x in lam),
        )
    ]
    # one pass labels each point z by v_i . z, one column per v_i
    cols = [[dot(v, z) for z in points] for v in vs]
    # |v_i . z| is an integer, so it is at most lambda_i* exactly when at most its floor
    contain = all(max(map(abs, col)) <= floor(l) for col, l in zip(cols, lam))
    chain.append(ChainEntry("polar-containment", contain, "|v_i . z| <= lambda_i* on K ∩ Z^d"))

    # z, z' lie in one translate of H̄ = {x : v_i . x = 0 for i <= d - m}
    # exactly when their first d - m labels agree
    translates = Counter(zip(*cols[: d - m]))
    pc = len(translates)
    central, top = translates[(0,) * (d - m)], max(translates.values())
    bound = 1
    for l in lam[: d - m]:
        bound *= 2 * floor(l) + 1
    chain.append(ChainEntry("projection-bound", pc <= bound, f"{pc} <= {bound}"))

    chain.append(ChainEntry("polar-first-minimum", lam[0] >= 1, f"lambda_1*={lam[0]}"))
    chain.append(ChainEntry("factorization", count <= pc * top, f"#K={count} <= {pc} * {top}"))
    chain.append(
        ChainEntry("translate-brunn", central * 9**m >= top, f"central={central} max={top} m={m}")
    )

    vol = volume(body).value
    vol_polar = polar_volume(body).value
    chain.append(_minkowski_second_entry("minkowski-second-polar", lam, vol_polar))
    ms = max_slice(body, m, normal_bound)
    return _report("main", body, m, count, ms, vol, chain, seed, vol_polar)


# -- packing and covering lemmas -----------------------------------------------------


def packing_lemma_check(a_set, p_set, lattice) -> bool:
    """#(A ∩ (L + P)) <= #((A - A) ∩ (L + P - P)), brute force."""
    a_pts = [tuple(int(x) for x in p) for p in a_set]
    p_pts = [tuple(int(x) for x in p) for p in p_set]
    left = sum(
        1
        for a in set(a_pts)
        if any(lattice.contains(tuple(x - y for x, y in zip(a, p))) for p in p_pts)
    )
    diff_a = {tuple(x - y for x, y in zip(a, b)) for a in a_pts for b in a_pts}
    diff_p = {tuple(x - y for x, y in zip(p, q)) for p in p_pts for q in p_pts}
    right = sum(
        1
        for v in diff_a
        if any(lattice.contains(tuple(x - y for x, y in zip(v, q))) for q in diff_p)
    )
    return left <= right


@dataclass(frozen=True)
class CoveringReport:
    k: int
    points_covered: int
    cover_size: int
    bound: int
    holds: bool


def covering_lemma_check(body, k) -> CoveringReport:
    """Greedy cover of (kB) ∩ Z^d by lattice translates of B ∩ Z^d.

    Greedy size upper-bounds the optimal cover, so holds=True certifies
    the (4k+1)^d covering bound.
    """
    d = body.dim
    if d > 3 or k > 3 or k < 1:
        raise LatsliceError("covering check is desk scale: d <= 3 and k <= 3")
    big = enumerate_points(body, scale=Fraction(k))
    base_set = body.lattice_points
    uncovered = set(map(tuple, big))
    candidates = sorted({tuple(s[i] - b[i] for i in range(d)) for s in uncovered for b in base_set})
    cover = 0
    while uncovered:
        best_t, best_cov = None, -1
        for t in candidates:
            cov = sum(1 for b in base_set if tuple(t[i] + b[i] for i in range(d)) in uncovered)
            if cov > best_cov:
                best_t, best_cov = t, cov
        if best_cov <= 0:
            raise AssertionError("greedy cover stalled")
        uncovered -= {tuple(best_t[i] + b[i] for i in range(d)) for b in base_set}
        cover += 1
    bound = (4 * k + 1) ** d
    return CoveringReport(
        k=k, points_covered=len(big), cover_size=cover, bound=bound, holds=cover <= bound
    )


# -- Gauss scaling ------------------------------------------------------------------


@dataclass(frozen=True)
class GaussScalingReport:
    body: str
    radii: tuple[Fraction, ...]
    counts: tuple[int, ...]
    expected: tuple[Fraction, ...]  # r^d * vol
    abs_dev: tuple[Fraction, ...]
    rel_dev: tuple[Fraction, ...]
    strictly_decreasing: bool
    slice_normal: tuple[int, ...] | None = None
    slice_counts: tuple[int, ...] | None = None
    slice_expected: tuple[Fraction, ...] | None = None
    slice_abs_dev: tuple[Fraction, ...] | None = None


def gauss_scaling(body, radii, hyperplane=None) -> GaussScalingReport:
    """Exact counts of rK against r^d vol(K), plus an optional slice analogue.

    The slice expectation is r^m times the lattice-normalized section
    volume (section volume over det(Z^d ∩ H)) for a subspace H of rank m, in
    which the irrational cell factors cancel, so the deviations stay exact
    rationals.
    """
    d = body.dim
    vol = Fraction(volume(body).value)
    rs = [Fraction(r) for r in radii]
    if not rs:
        raise ValueError("gauss scaling needs at least one radius")
    counts, expect, absd, reld = [], [], [], []
    for r in rs:
        c = count_points(body, scale=r).total
        e = r**d * vol
        counts.append(c)
        expect.append(e)
        absd.append(abs(Fraction(c) - e))
        reld.append(abs(Fraction(c) - e) / e)
    decreasing = all(reld[i + 1] < reld[i] for i in range(len(reld) - 1))
    s_counts = s_expect = s_abs = None
    normal = None
    if hyperplane is not None:
        sub = hyperplane if isinstance(hyperplane, LatticeSubspace) else LatticeSubspace.from_normal(hyperplane)
        normal = sub.normal
        lat = sublattice(sub)
        section_rows = []
        for a, b in body.facet_rows:
            arow = tuple(dot(a, col) for col in lat.basis)
            if is_zero(arow):
                continue
            section_rows.append((arow, b))
        section = from_hrep(lat.rank, section_rows, name=f"section({body.name})")
        sec_vol = Fraction(volume(section).value)
        s_counts, s_expect, s_abs = [], [], []
        for r in rs:
            c = count_points(body, lat, scale=r).total
            e = r**lat.rank * sec_vol
            s_counts.append(c)
            s_expect.append(e)
            s_abs.append(abs(Fraction(c) - e))
        s_counts = tuple(s_counts)
        s_expect = tuple(s_expect)
        s_abs = tuple(s_abs)
    return GaussScalingReport(
        body=body.name,
        radii=tuple(rs),
        counts=tuple(counts),
        expected=tuple(expect),
        abs_dev=tuple(absd),
        rel_dev=tuple(reld),
        strictly_decreasing=decreasing,
        slice_normal=normal,
        slice_counts=s_counts,
        slice_expected=s_expect,
        slice_abs_dev=s_abs,
    )


# -- seeded random generators ------------------------------------------------------


def random_symmetric_body(d, seed, points=None, spread=None) -> ConvexBody:
    """Hull of 2k random integer points united with their negation."""
    k = points if points is not None else d + 1
    sp = spread if spread is not None else (4 if d <= 3 else 3)
    # no draw can span R^d otherwise, and the loop below would redraw forever
    if d < 1:
        raise DegenerateBodyError(f"dimension must be >= 1, got {d}")
    if 2 * k < d or sp < 1:
        raise DegenerateBodyError(f"{2 * k} points of spread {sp} cannot span R^{d}")
    rng = random.Random(seed)
    while True:
        pts = [tuple(rng.randint(-sp, sp) for _ in range(d)) for _ in range(2 * k)]
        pts += [tuple(-x for x in p) for p in pts]
        try:
            return from_vertices(pts, name=f"random:{d}:{seed}")
        except DegenerateBodyError:
            continue


def random_unconditional_body(d, seed) -> ConvexBody:
    """Random box, scaled diamond, or their intersection (its binding rows only); always unconditional.

    Radii shrink with the dimension to keep point counts at desk scale;
    the diagonal-cut variant stays at d <= 3 where its 2^d extra facets
    still keep the dual hull behind the exact volume cheap.
    """
    if d < 1:
        raise DegenerateBodyError(f"dimension must be >= 1, got {d}")
    rng = random.Random(seed)
    shape = rng.choice(["box", "diamond", "intersection"] if d <= 3 else ["box", "diamond"])
    hi = {1: 8, 2: 8, 3: 5, 4: 3}.get(d, 2)

    def radius():
        return Fraction(rng.randint(2, max(2, hi)), rng.randint(1, 2))

    if shape == "box":
        return box([radius() for _ in range(d)])
    if shape == "diamond":
        verts = []
        for i in range(d):
            r = radius()
            v = [Fraction(0)] * d
            v[i] = r
            verts.append(tuple(v))
        return from_vertices(verts, name=f"diamond:{d}:{seed}")
    radii = [radius() for _ in range(d)]
    weights = [Fraction(1, rng.randint(2, 6)) for _ in range(d)]
    offset = Fraction(rng.randint(1, 2))
    # only binding rows: box row i where r_i < offset / w_i, the diamond's vertex on
    # axis i; the weighted rows where the box corner, clipped to those vertices,
    # lies beyond them, or where no box row is left
    rows = [(a, r) for a, r, w in zip(identity(d), radii, weights) if r < offset / w]
    if not rows or sum(w * min(r, offset / w) for r, w in zip(radii, weights)) > offset:
        # all sign patterns of the weighted row keep the body unconditional
        for signs in itertools.product((1, -1), repeat=d):
            rows.append((tuple(s * w for s, w in zip(signs, weights)), offset))
    return from_hrep(d, rows, name=f"uncond:{d}:{seed}")


def random_polygon(seed, spread=8, max_points=12):
    """Random convex integral polygon as its extreme vertex list."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(3, max_points)
        pts = {(rng.randint(-spread, spread), rng.randint(-spread, spread)) for _ in range(n)}
        hull_pts = graham_hull(sorted(pts))
        if len(hull_pts) >= 3:
            return hull_pts


def random_rational_symmetric_2d(seed) -> ConvexBody:
    """Symmetric 2D body with rational vertices and dim(K ∩ Z^2) = 2."""
    rng = random.Random(seed)
    while True:
        pts = [
            (
                Fraction(rng.randint(-16, 16), rng.randint(1, 4)),
                Fraction(rng.randint(-16, 16), rng.randint(1, 4)),
            )
            for _ in range(4)
        ]
        pts += [(-x, -y) for x, y in pts]
        try:
            body = from_vertices(pts, name=f"rational2d:{seed}")
        except DegenerateBodyError:
            continue
        if dim_of_lattice_span(body) == 2:
            return body


# -- serialization -----------------------------------------------------------------


def frac_str(x) -> str:
    return str(Fraction(x))


def report_to_dict(report: SlicingReport) -> dict:
    out = {
        "kind": report.kind,
        "body": report.body,
        "d": report.d,
        "m": report.m,
        "count": report.count_total,
        "hypothesis_violated": report.hypothesis_violated,
        "chain": [
            {"name": e.name, "passed": e.passed, "detail": e.detail} for e in report.chain
        ],
    }
    if report.max_slice_count is not None:
        out["max_slice"] = {
            "best_count": report.max_slice_count,
            "witness": report.max_slice_witness,
            "exhaustive": report.max_slice_exhaustive,
            "candidates_searched": report.candidates_searched,
        }
    if report.volume is not None:
        out["volume"] = frac_str(report.volume)
    if report.volume_polar is not None:
        out["volume_polar"] = frac_str(report.volume_polar)
    if report.mahler is not None:
        out["mahler_volume"] = frac_str(report.mahler)
    if report.observed_constant_power is not None:
        out["observed_constant_power"] = frac_str(report.observed_constant_power)
        out["observed_constant"] = report.observed_constant
    if report.seed is not None:
        out["seed"] = report.seed
    return out


def report_csv_header():
    return ["seed", "d", "m", "count", "max_slice", "vol", "observed_constant", "chain", "status"]


def report_csv_row(report: SlicingReport):
    bits = "".join("1" if e.passed else "0" for e in report.chain)
    status = "hypothesis-violated" if report.hypothesis_violated else ("ok" if report.ok else "fail")
    return [
        "" if report.seed is None else str(report.seed),
        str(report.d),
        str(report.m),
        str(report.count_total),
        "" if report.max_slice_count is None else str(report.max_slice_count),
        "" if report.volume is None else frac_str(report.volume),
        "" if report.observed_constant is None else repr(report.observed_constant),
        bits,
        status,
    ]
