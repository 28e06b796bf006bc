"""Slice counting over lattice subspaces and discrete Brunn dominance.

Counts of K ∩ H ∩ Z^d come two ways: solved in sublattice coordinates
(slice_count) or by grouping the enumerated points of K by translate
label (slice_profile); tests hold the two routes equal.

The max-slice search keys every m-subset of a vector family by its
primitive Plücker vector (its m×m minors), so subsets with the same span
share one key.  At m = 2 the search is one flat loop over index pairs,
each keyed by its 2×2 minors computed in line; at other m the minors come
from prefix minors: a walk over prefixes in index order takes one Laplace
step per added vector, and a dependent prefix (all minors zero) is pruned
with all its extensions.  Each span owns one bit and each vector a mask of
the spans it is a member of.  An m-subset whose masks share a bit is
skipped before its minors are computed: m vectors of rank m inside an
m-dimensional span S span S itself and are already S's members, so the
skip changes no key, key order or member.  The same masks keep each
span's count during the walk: a vector adds its weight to a span when it
first takes the span's bit.  K ∩ Z^d is read once into point
counts per primitive direction, from its points >lex 0 (the listing is
sorted and symmetric, and p and -p share a direction); these are the
weights, and a span's count is the zero point plus the weights of the
directions it contains.  A key alone gives its span: its (m+1)-minor forms
(``_forms``) are normal rows whose common kernel is the span.  They test
fallback membership, and ``from_normals(forms)`` is built only for the
spans tied at the maximum.  A normal read as a key has one form, its
Hodge dual, so the m = d-1 fallback keys hyperplanes the same way.
The search is exhaustive-certified only when the family "spans of
m-subsets of lattice points of K (plus coordinate vectors)" has at most
CERTIFY_LIMIT subsets, since an optimizer can always be rebuilt from the
points it contains; otherwise the result is a certified lower bound,
which is the conservative direction for every inequality this package
checks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

from .errors import SubspaceError
from .lattices import LatticeSubspace, PointCount, count_points, sublattice
from .linalg import dot, identity, is_zero, primitive
from .minima import successive_minima

__all__ = [
    "SliceProfile",
    "MaxSliceResult",
    "BrunnReport",
    "slice_count",
    "slice_profile",
    "max_slice",
    "brunn_check",
]


CERTIFY_LIMIT = 20_000  # most m-subsets a max-slice search walks


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

    @classmethod
    def from_profile(cls, prof) -> "BrunnReport":
        """The dominance check read off one slice profile."""
        m = prof.subspace.m
        central = prof.central
        max_count = prof.max_count
        return cls(
            m=m,
            central=central,
            max_translate_count=max_count,
            witness_translate=prof.max_translate,
            min_ratio=Fraction(central, max_count),
            bound=Fraction(1, 9**m),
            holds=central * 9**m >= max_count,
        )


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
    pts = body.lattice_points
    if normals:
        groups = dict(Counter(zip(*(map(dot, itertools.repeat(n), pts) for n in normals))))
    else:
        groups = {(): len(pts)}  # H is the whole space: one translate
    if not groups:
        groups[(0,) * len(normals)] = 0
    return SliceProfile(subspace=subspace, by_translate=groups)


def brunn_check(body, subspace) -> BrunnReport:
    """Central-slice dominance: central * 9^m >= every parallel translate count."""
    return BrunnReport.from_profile(slice_profile(body, subspace))


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


def _polar_basis(body):
    return successive_minima(body.polar()).directional_basis


@lru_cache(maxsize=None)
def _expansion(d, m):
    """Laplace terms (column, sign, minor index) of each (m+1)-minor along an added row."""
    index = {cols: i for i, cols in enumerate(itertools.combinations(range(d), m))}
    return tuple(
        tuple((j, (-1) ** k, index[cols[:k] + cols[k + 1 :]]) for k, j in enumerate(cols))
        for cols in itertools.combinations(range(d), m + 1)
    )


def _forms(minors, d, k):
    """Rows w_t with w_t . v the t-th (k+1)-minor of a k-span (k-minors minors) plus v.

    Their common kernel is the span; at k = d - 1 the one row is the Hodge dual of minors.
    """
    forms = []
    for t in _expansion(d, k):
        w = [0] * d
        for j, s, q in t:
            w[j] = s * minors[q]
        forms.append(w)
    return forms


def _spans(vectors, weights, d, m, limit):
    """{key: weight} over rank-m m-subsets; None past limit subsets.

    At m = 2 the subsets are the index pairs of one flat loop; at other m
    they come from a depth-m prefix walk.  A span's weight is the sum of
    weights[i] over its members, the vectors of its m-subsets.  Each key
    owns one bit, and masks[i] holds the bits of the spans vector i is a
    member of; an m-subset whose masks share a bit lies in a recorded span,
    so it is skipped before its minors are computed, and a vector adds its
    weight to a span when it first takes the span's bit.  Keys, insertion
    order and weights are those of every m-subset in combinations order.
    """
    if comb(len(vectors), m) > limit:
        return None
    spans: dict[tuple, list] = {}
    masks = [0] * len(vectors)
    if m == 2:
        _pairs(spans, masks, vectors, weights, d)
    else:
        _extend(spans, masks, vectors, weights, d, m, 0, (), (1,), -1)
    return {key: w for key, (_, w) in spans.items()}


def _pairs(spans, masks, vectors, weights, d):
    """Add to spans every rank-2 pair, keyed by its 2×2 minors u_a·v_b − u_b·v_a (a < b)."""
    cols = tuple(itertools.combinations(range(d), 2))
    n = len(vectors)
    for i in range(n - 1):
        u = vectors[i]
        if not any(u):
            continue
        forms = [(a, b, u[a], u[b]) for a, b in cols]
        wi = weights[i]
        common = masks[i]  # grows with the spans i joins here; no later pair reads masks[i]
        for j in range(i + 1, n):
            if common & masks[j]:
                continue  # both vectors are members of one recorded span
            v = vectors[j]
            mu = [ua * v[b] - ub * v[a] for a, b, ua, ub in forms]
            if not any(mu):
                continue
            key = primitive(mu)
            span = spans.get(key)
            if span is None:
                bit = 1 << len(spans)
                spans[key] = [bit, wi + weights[j]]
            else:
                bit = span[0]
                if not common & bit:
                    span[1] += wi
                if not masks[j] & bit:
                    span[1] += weights[j]
            masks[j] |= bit
            common |= bit


def _extend(spans, masks, vectors, weights, d, m, start, prefix, minors, common):
    """Add to spans every m-subset that extends prefix (indices, with its minors) by later vectors.

    common is the AND of the prefix's masks: the recorded spans holding every prefix vector.
    """
    k = len(prefix)
    forms = _forms(minors, d, k)
    stop = len(vectors) - m + k + 1
    if k + 1 < m:
        for i in range(start, stop):
            mu = [sum(map(mul, w, vectors[i])) for w in forms]
            if any(mu):
                _extend(spans, masks, vectors, weights, d, m, i + 1, prefix + (i,), mu, common & masks[i])
        return
    for i in range(start, stop):
        if common & masks[i]:
            continue  # all m vectors are members of one recorded span
        v = vectors[i]
        mu = [sum(map(mul, w, v)) for w in forms]
        if not any(mu):
            continue
        key = primitive(mu)
        span = spans.get(key)
        if span is None:
            bit = 1 << len(spans)
            span = spans[key] = [bit, 0]
        else:
            bit = span[0]
        for j in prefix:  # common holds the bits the prefix took in this loop
            if not (masks[j] | common) & bit:
                span[1] += weights[j]
        if not masks[i] & bit:
            span[1] += weights[i]
        masks[i] |= bit
        common |= bit
    for j in prefix:  # the loop reads no prefix mask, so the prefix takes its new bits at the end
        masks[j] |= common


def _check_normal_bound(normal_bound):
    if normal_bound is not None and normal_bound < 1:
        raise ValueError("normal_bound must be at least 1")


def max_slice(body, m, normal_bound=None) -> MaxSliceResult:
    """Maximize #(K ∩ H ∩ Z^d) over a family of m-dimensional lattice subspaces.

    Candidates are spans of m-subsets of a vector family or, in the m = d-1
    fallback, hyperplanes of a family of normals, all keyed by their
    Plücker vectors.  A candidate's count is the zero point plus the point
    counts of the directions it contains.  The certified family holds
    every point direction, and by exchange each direction inside a span
    lies in an m-subset with that span's key, so the walk's weight of a
    span (its members' point counts, kept during the walk) is exactly the
    count; the fallback families test every direction against the key's
    forms.  The witness is rebuilt from its key alone, for the candidates
    tied at the maximum, and is the one with the smallest basis.

    The fallback families hold the primitive vectors of sup-norm at most
    normal_bound (None: 3 for d <= 4, else 1), the coordinate vectors and
    the directional basis of the polar's successive minima.
    """
    _check_normal_bound(normal_bound)
    d = body.dim
    if d < 2:
        raise SubspaceError(f"max slice needs d >= 2, got d = {d}")
    if not 1 <= m <= d - 1:
        raise SubspaceError(f"slice dimension must be in [1, {d - 1}]")
    points = body.lattice_points
    # points per direction: p and -p share one, so the points >lex 0 of the sorted listing count twice
    half = Counter(map(primitive, points[len(points) // 2 + 1 :]))
    mult = Counter({v: 2 * n for v, n in half.items()})
    zero = 1

    spanning = tuple(sorted(set(mult) | set(identity(d))))
    counts = _spans(spanning, [mult[v] for v in spanning], d, m, CERTIFY_LIMIT)
    exhaustive = counts is not None
    if not exhaustive:
        if normal_bound is None:
            normal_bound = 3 if d <= 4 else 1
        extra = identity(d)
        extra.extend(primitive(v) for v in _polar_basis(body))
        vecs = set(_primitive_vectors(d, normal_bound))
        vecs.update(extra)
        if m == d - 1:
            # the vectors are normals; read as a key, a normal's one form is its Hodge dual
            family = {primitive(_forms(u, d, m)[0]) for u in vecs}
        else:
            for vs in (sorted(vecs), sorted(set(extra))):
                family = _spans(vs, [0] * len(vs), d, m, CERTIFY_LIMIT)
                if family is not None:
                    break
            else:
                raise SubspaceError("candidate family too large")
        counts = {}
        for key in family:
            forms = _forms(key, d, m)
            counts[key] = sum(c for v, c in mult.items() if not any(sum(map(mul, w, v)) for w in forms))

    best = max(counts.values())
    witness = min(
        (LatticeSubspace.from_normals(_forms(key, d, m)) for key, c in counts.items() if c == best),
        key=lambda s: s.basis,
    )
    return MaxSliceResult(
        m=m,
        best_count=zero + best,
        witness=witness,
        candidates_searched=len(counts),
        exhaustive=exhaustive,
    )
