"""Successive minima, Minkowski first/second checks, symmetric progressions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .bodies import Volume, volume
from .errors import ProgressionError
from .lattices import Lattice, enumerate_points
from .linalg import det_int, echelon_add, int_rank, is_zero

__all__ = [
    "SuccessiveMinima",
    "Progression",
    "successive_minima",
    "minkowski_first_check",
    "minkowski_second_bounds",
    "minkowski_second_check",
    "make_progression",
    "progression_image",
    "progression_volume_bound",
    "heuristic_progression",
    "parse_progression",
]

IMAGE_GUARD = 2_000_000


@dataclass(frozen=True)
class SuccessiveMinima:
    lambdas: tuple[Fraction, ...]
    directional_basis: tuple[tuple[int, ...], ...]


def _witness_key(scored):
    """Deterministic tie order: gauge, then 1-norm, then descending lex.

    Short positively-oriented witnesses win ties, so the cube yields the
    coordinate vectors e_1, ..., e_d rather than a diagonal.
    """
    g, p = scored
    return (g, sum(abs(x) for x in p), tuple(-x for x in p))


def successive_minima(body, lattice=None) -> SuccessiveMinima:
    """Exact successive minima with a deterministic directional basis.

    Enumerates lattice points of R*K for doubling R until k independent
    vectors appear; R never needs to exceed the max gauge of the basis
    columns, which already witnesses k independent vectors.  Points are
    scored by their integer gauge numerators max_i c_i . p over the body's
    gauge table (c, B); B is common and positive, so the order is the
    gauge order, and only the k kept minima become Fractions g / B.  The
    kept basis stays in echelon form, so each scored point is reduced once.
    """
    lat = lattice or Lattice.standard(body.dim)
    k = lat.rank
    numerator = body.gauge_numerator
    B = body.gauge_denominator
    r_cap = Fraction(max(map(numerator, lat.basis)), B)
    r = min(Fraction(1), r_cap)
    while True:
        pts = enumerate_points(body, lat, scale=r)
        scored = sorted(((numerator(p), p) for p in pts if any(p)), key=_witness_key)
        lambdas: list[Fraction] = []
        basis: list[tuple[int, ...]] = []
        echelon: list = []
        for g, p in scored:
            if echelon_add(echelon, p):
                basis.append(p)
                lambdas.append(Fraction(g, B))
                if len(basis) == k:
                    break
        if len(basis) == k:
            return SuccessiveMinima(tuple(lambdas), tuple(basis))
        if r >= r_cap:
            raise AssertionError("minima enumeration failed below the guaranteed radius")
        r = min(2 * r, r_cap)


@dataclass(frozen=True)
class MinkowskiFirstReport:
    vol: Volume
    has_nonzero_point: bool
    consistent: bool


def minkowski_first_check(body) -> MinkowskiFirstReport:
    """vol(K) >= 2^d must force a nonzero lattice point."""
    v = volume(body)
    nonzero = any(not is_zero(p) for p in body.lattice_points)
    consistent = not (v.value >= 2**body.dim and not nonzero)
    return MinkowskiFirstReport(vol=v, has_nonzero_point=nonzero, consistent=consistent)


@dataclass(frozen=True)
class MinkowskiSecondReport:
    lambdas: tuple[Fraction, ...]
    lhs: Fraction
    vol_ratio: Fraction
    rhs: Fraction
    holds: bool


def minkowski_second_bounds(lambdas) -> tuple[Fraction, Fraction]:
    """Minkowski II's sandwich of vol/det for the minima: ((1/k!) prod 2/lambda_i, prod 2/lambda_i)."""
    upper = prod((Fraction(2) / lam for lam in lambdas), start=Fraction(1))
    return upper / factorial(len(lambdas)), upper


def minkowski_second_check(body, lattice=None) -> MinkowskiSecondReport:
    """Exact sandwich (1/d!) prod 2/lambda_i <= vol/det <= prod 2/lambda_i."""
    lat = lattice or Lattice.standard(body.dim)
    sm = successive_minima(body, lat)
    lhs, rhs = minkowski_second_bounds(sm.lambdas)
    det = lat.cell_volume()
    ratio = Fraction(volume(body).value) / det
    return MinkowskiSecondReport(
        lambdas=sm.lambdas,
        lhs=lhs,
        vol_ratio=ratio,
        rhs=rhs,
        holds=lhs <= ratio <= rhs,
    )


@dataclass(frozen=True)
class Progression:
    """Symmetric progression: all sums n_i v_i with |n_i| <= N_i."""

    N: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]
    proper: bool

    @property
    def rank(self) -> int:
        return len(self.vectors)


def make_progression(N, vectors) -> Progression:
    N = tuple(int(x) for x in N)
    vectors = tuple(tuple(int(x) for x in v) for v in vectors)
    if len(N) != len(vectors):
        raise ProgressionError("N and vector counts differ")
    if any(n < 0 for n in N):
        raise ProgressionError("N entries must be nonnegative")
    if int_rank(vectors) == len(vectors):
        proper = True  # independent vectors make the sum map injective
    else:
        expected = 1
        for n in N:
            expected *= 2 * n + 1
        proper = len(_image_set(N, vectors)) == expected
    return Progression(N=N, vectors=vectors, proper=proper)


def _image_set(N, vectors):
    size = 1
    for n in N:
        size *= 2 * n + 1
    if size > IMAGE_GUARD:
        raise ProgressionError(f"progression image of size {size} exceeds guard")
    d = len(vectors[0])
    out = set()
    for coeffs in itertools.product(*[range(-n, n + 1) for n in N]):
        out.add(tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(d)))
    return out


def progression_image(p: Progression):
    """All points of Image(P), deduplicated, ascending lex order."""
    return sorted(_image_set(p.N, p.vectors))


@dataclass(frozen=True)
class ProgressionBoundReport:
    contained: bool
    vol_lb: Fraction
    holds: bool


def progression_volume_bound(p, body) -> ProgressionBoundReport:
    """If Image(P) sits in K, then vol(K) >= prod(2 N_i) * |det v|."""
    d = body.dim
    if p.rank != d:
        raise ProgressionError(f"progression rank {p.rank} != dimension {d}")
    if not p.proper:
        raise ProgressionError("progression is not proper")
    if any(n < 1 for n in p.N):
        raise ProgressionError("volume bound needs all N_i >= 1")
    contained = all(body.contains(pt) for pt in progression_image(p))
    lb = Fraction(abs(det_int([list(v) for v in p.vectors])))
    for n in p.N:
        lb *= 2 * n
    holds = False
    if contained:
        holds = Fraction(volume(body).value) >= lb
    return ProgressionBoundReport(contained=contained, vol_lb=lb, holds=holds)


def heuristic_progression(body) -> Progression:
    """Progression from the directional basis, greedily shrunk into the body.

    Starts from N_i = floor(1/lambda_i) and decrements the largest entry
    (last on ties) until the whole image is contained; entries may reach 0
    while the rank stays full.
    """
    sm = successive_minima(body)
    vectors = sm.directional_basis
    N = [max(0, int(Fraction(1) / lam)) if lam <= 1 else 0 for lam in sm.lambdas]
    while True:
        outside = None
        for pt in _image_set(tuple(N), vectors):
            if not body.contains(pt):
                outside = pt
                break
        if outside is None:
            break
        biggest = max(N)
        idx = max(i for i, n in enumerate(N) if n == biggest)
        if N[idx] == 0:
            break
        N[idx] -= 1
    return make_progression(tuple(N), vectors)


def parse_progression(text) -> Progression:
    """Parse 'N:1,1; v:(1,0),(0,1)' into a Progression."""
    try:
        parts = dict(
            seg.split(":", 1) for seg in (s.strip() for s in text.split(";")) if seg
        )
        N = [int(t) for t in parts["N"].split(",") if t.strip()]
        vtext = parts["v"].strip()
        vecs = []
        for chunk in vtext.replace(" ", "").split("),("):
            chunk = chunk.strip("()")
            vecs.append(tuple(int(t) for t in chunk.split(",")))
    except (KeyError, ValueError) as exc:
        raise ProgressionError(f"bad progression spec {text!r}") from exc
    return make_progression(N, vecs)
