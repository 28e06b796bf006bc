"""Slice counting over lattice subspaces and discrete Brunn dominance.

Counts of K ∩ H ∩ Z^d come two ways: solved in sublattice coordinates
(slice_count) or by grouping the enumerated points of K by translate
label (slice_profile); tests hold the two routes equal.  The max-slice
search is exhaustive-certified only when the family "spans of m-subsets
of lattice points of K (plus coordinate vectors)" is small enough to
enumerate, since an optimizer can always be rebuilt from the points it
contains; otherwise the result is a certified lower bound, which is the
conservative direction for every inequality this package checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import SubspaceError
from .lattices import LatticeSubspace, PointCount, count_points, sublattice
from .linalg import dot, int_rank, is_zero, primitive

__all__ = [
    "CandidateStrategy",
    "SliceProfile",
    "MaxSliceResult",
    "BrunnReport",
    "slice_count",
    "slice_profile",
    "max_slice",
    "brunn_check",
]


@dataclass(frozen=True)
class CandidateStrategy:
    """Knobs for the max-slice candidate family."""

    normal_bound: int | None = None  # None: 3 for d <= 4, else 1
    include_polar_basis: bool = True
    certify_limit: int = 20_000

    def bound_for(self, d) -> int:
        if self.normal_bound is not None:
            return self.normal_bound
        return 3 if d <= 4 else 1


@dataclass(frozen=True)
class SliceProfile:
    subspace: LatticeSubspace
    by_translate: dict

    @property
    def central(self) -> int:
        zero = (0,) * len(next(iter(self.by_translate)))
        return self.by_translate.get(zero, 0)

    @property
    def max_count(self) -> int:
        return max(self.by_translate.values())

    @property
    def max_translate(self):
        best = self.max_count
        return min(t for t, c in self.by_translate.items() if c == best)


@dataclass(frozen=True)
class MaxSliceResult:
    m: int
    best_count: int
    witness: LatticeSubspace
    candidates_searched: int
    exhaustive: bool


@dataclass(frozen=True)
class BrunnReport:
    m: int
    central: int
    max_translate_count: int
    witness_translate: tuple
    min_ratio: Fraction
    bound: Fraction
    holds: bool


def _check_ambient(body, subspace):
    if subspace.ambient_dim != body.dim:
        raise SubspaceError(
            f"subspace lives in dimension {subspace.ambient_dim}, body in {body.dim}"
        )


def slice_count(body, subspace) -> PointCount:
    """#(K ∩ H ∩ Z^d), solved in the sublattice's own coordinates."""
    _check_ambient(body, subspace)
    return count_points(body, sublattice(subspace))


def slice_profile(body, subspace) -> SliceProfile:
    """Counts of K ∩ Z^d grouped by translate of H.

    Points z, z' lie in the same translate H + z exactly when every
    kernel normal vanishes on z - z', so the label is the tuple of normal
    values; the zero label is the central slice.
    """
    _check_ambient(body, subspace)
    normals = subspace.kernel_normals()
    groups: dict[tuple, int] = {}
    for z in body.lattice_points:
        label = tuple(dot(n, z) for n in normals)
        groups[label] = groups.get(label, 0) + 1
    if not groups:
        groups[(0,) * len(normals)] = 0
    return SliceProfile(subspace=subspace, by_translate=groups)


def brunn_check(body, subspace) -> BrunnReport:
    """Central-slice dominance: central * 9^m >= every parallel translate count."""
    prof = slice_profile(body, subspace)
    m = subspace.m
    central = prof.central
    max_count = prof.max_count
    bound = Fraction(1, 9**m)
    return BrunnReport(
        m=m,
        central=central,
        max_translate_count=max_count,
        witness_translate=prof.max_translate,
        min_ratio=Fraction(central, max_count),
        bound=bound,
        holds=central * 9**m >= max_count,
    )


# -- max slice -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _primitive_vectors(d, bound):
    """Primitive integer vectors with sup-norm <= bound, one per +- pair."""
    out = []
    seen = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=d):
        if is_zero(v):
            continue
        p = primitive(v)
        if p not in seen and max(map(abs, p)) <= bound:
            seen.add(p)
            out.append(p)
    return tuple(sorted(out))


def _coordinate_vectors(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def _polar_basis(body):
    from .minima import successive_minima

    return successive_minima(body.polar()).directional_basis


def _count_in_subspace(points, subspace) -> int:
    normals = subspace.kernel_normals()
    n = 0
    for z in points:
        if all(dot(u, z) == 0 for u in normals):
            n += 1
    return n


def _subspaces_from_vectors(vectors, m, limit):
    """Deduplicated rank-m spans of m-subsets; None when too many subsets."""
    if comb(len(vectors), m) > limit:
        return None
    seen = {}
    for combo in itertools.combinations(vectors, m):
        if int_rank(combo) != m:
            continue
        sub = LatticeSubspace.from_basis(combo)
        seen.setdefault(sub.basis, sub)
    return list(seen.values())


def max_slice(body, m, strategy=None) -> MaxSliceResult:
    """Maximize #(K ∩ H ∩ Z^d) over a family of m-dimensional lattice subspaces."""
    d = body.dim
    if not 1 <= m <= d - 1:
        raise SubspaceError(f"slice dimension must be in [1, {d - 1}]")
    strategy = strategy or CandidateStrategy()
    points = body.lattice_points
    half = sorted({primitive(p) for p in points if not is_zero(p)})

    exhaustive = False
    candidates = None
    spanning = tuple(sorted(set(half) | set(_coordinate_vectors(d))))
    certified = _subspaces_from_vectors(spanning, m, strategy.certify_limit)
    if certified is not None:
        candidates = certified
        exhaustive = True
    else:
        extra = list(_coordinate_vectors(d))
        if strategy.include_polar_basis:
            extra.extend(primitive(v) for v in _polar_basis(body))
        if m == d - 1:
            normals = set(_primitive_vectors(d, strategy.bound_for(d)))
            normals.update(primitive(v) for v in extra)
            candidates = [LatticeSubspace.from_normal(u) for u in sorted(normals)]
        else:
            vecs = set(_primitive_vectors(d, strategy.bound_for(d)))
            vecs.update(extra)
            fam = _subspaces_from_vectors(tuple(sorted(vecs)), m, strategy.certify_limit)
            if fam is None:
                fam = _subspaces_from_vectors(tuple(sorted(set(extra))), m, strategy.certify_limit)
            if fam is None:
                raise SubspaceError("candidate family too large; tighten the strategy")
            candidates = fam

    best = None
    for sub in candidates:
        c = _count_in_subspace(points, sub)
        if best is None or c > best[0] or (c == best[0] and sub.basis < best[1].basis):
            best = (c, sub)
    count, witness = best
    return MaxSliceResult(
        m=m,
        best_count=count,
        witness=witness,
        candidates_searched=len(candidates),
        exhaustive=exhaustive,
    )
