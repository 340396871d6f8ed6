"""Primitive collections and relations, curve classes, minimal P-dimension,
opponents, the bundle locus and relevant-collection classification."""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .errors import FanValidationError, PreconditionError
from .fan import ConeRef, LatticeFan, ZERO_CONE, locate, spans_cone
from .lattice import IntVector


@dataclass(frozen=True)
class CurveClass:
    """Integer relation among the ray generators: sum_v alpha_v * v = 0."""

    alpha: IntVector


@dataclass(frozen=True)
class PrimitiveRelation:
    """sum(collection) = sum mu_j * focus_j, with the induced curve class.

    alpha carries +1 on collection rays, -mu_j on focus rays, 0 elsewhere;
    degree = |collection| - sum(mu).
    """

    collection: ConeRef
    focus: ConeRef
    coefficients: tuple[int, ...]
    degree: int
    alpha: IntVector

    @property
    def centered(self) -> bool:
        return self.focus == ZERO_CONE

    @property
    def order(self) -> int:
        return len(self.collection)

    def curve_class(self) -> CurveClass:
        return CurveClass(self.alpha)

    def describe(self, f: LatticeFan) -> str:
        lhs = " + ".join(f.ray_label(i) for i in self.collection)
        if not self.focus:
            return f"{lhs} = 0"
        rhs = " + ".join(
            (f"{mu} {f.ray_label(i)}" if mu != 1 else f.ray_label(i))
            for i, mu in zip(self.focus, self.coefficients)
        )
        return f"{lhs} = {rhs}"


def primitive_collections(f: LatticeFan) -> list[ConeRef]:
    """All minimal non-faces, sorted by (size, indices)."""
    f.require_valid()
    pcs = [tuple(i for i in range(f.n_rays) if m >> i & 1) for m in f.minimal_nonfaces]
    return sorted(pcs, key=lambda p: (len(p), p))


def is_primitive_collection(f: LatticeFan, p: ConeRef) -> bool:
    s = tuple(sorted(set(p)))
    if not s or spans_cone(f, s):
        return False
    return all(spans_cone(f, s[:i] + s[i + 1 :]) for i in range(len(s)))


def primitive_relation(f: LatticeFan, p: ConeRef) -> PrimitiveRelation:
    """Relation of a primitive collection: locate the generator sum, read off
    the focus cone and its positive coefficients.  Memoised per collection
    on the fan."""
    s = tuple(sorted(set(p)))
    rel = f._primitive_relations.get(s)
    if rel is not None:
        return rel
    if not is_primitive_collection(f, s):
        raise PreconditionError(f"{f.cone_labels(s)} is not a primitive collection")
    total = lattice.vec_sum([f.vector(i) for i in s], f.rank)
    focus, coeffs = locate(f, total)
    if set(focus) & set(s):  # Batyrev: never on a fan; validate passes covers of degree >= 2
        raise FanValidationError(
            f"primitive collection {f.cone_labels(s)} meets its focus {f.cone_labels(focus)}: "
            "the cones wind more than once around the origin"
        )
    alpha = [0] * f.n_rays
    for i in s:
        alpha[i] = 1
    for i, mu in zip(focus, coeffs):
        alpha[i] = -mu
    rel = f._primitive_relations[s] = PrimitiveRelation(
        collection=s,
        focus=focus,
        coefficients=coeffs,
        degree=len(s) - sum(coeffs),
        alpha=tuple(alpha),
    )
    return rel


def primitive_relations(f: LatticeFan) -> list[PrimitiveRelation]:
    return [primitive_relation(f, p) for p in primitive_collections(f)]


def is_fano(f: LatticeFan) -> bool:
    """Fano <=> every primitive relation has strictly positive degree."""
    return all(r.degree >= 1 for r in primitive_relations(f))


def centered_collections(f: LatticeFan) -> list[ConeRef]:
    return [r.collection for r in primitive_relations(f) if r.centered]


def minimal_centered_collection(f: LatticeFan) -> ConeRef | None:
    """The default centered collection: the lexicographically first centered
    collection of minimal order; None when there is none."""
    return min(centered_collections(f), key=lambda c: (len(c), c), default=None)


def minimal_p_dimension(f: LatticeFan) -> int | None:
    """min |P| - 1 over centered primitive collections; None when no centered
    collection exists (possible for proper non-projective fans)."""
    c = minimal_centered_collection(f)
    return None if c is None else len(c) - 1


def opponents(f: LatticeFan, ray: int) -> list[int]:
    """Rays w such that {ray, w} spans no cone, ascending: every ray of a
    valid fan lies in a cone, so these pairs are the order-2 minimal
    non-faces through ray."""
    f.require_valid()
    if ray < 0 or ray >= f.n_rays:
        raise IndexError(f"ray index {ray} out of range")
    bit = 1 << ray
    return [(p ^ bit).bit_length() - 1 for p in f.minimal_nonfaces if p & bit and p.bit_count() == 2]


def require_centered(f: LatticeFan, centered: ConeRef) -> ConeRef:
    s = tuple(sorted(set(centered)))
    if not is_primitive_collection(f, s):
        raise PreconditionError(f"{f.cone_labels(s)} is not a primitive collection")
    total = lattice.vec_sum([f.vector(i) for i in s], f.rank)
    if any(x != 0 for x in total):
        raise PreconditionError(f"{f.cone_labels(s)} is not centered (sum is {total})")
    return s


def bundle_locus(f: LatticeFan, centered: ConeRef) -> tuple[list[ConeRef], int | None]:
    """Cones sigma disjoint from the centered collection P such that
    P' u G(sigma) is a primitive collection for some nonempty proper P' < P;
    the orbit closures over these cones are exactly where the P^m-bundle
    structure induced by P breaks down.  Returns (cones, minimal dimension),
    with dimension None when the set is empty."""
    p = set(require_centered(f, centered))
    locus = set()
    for q in primitive_collections(f):
        inside = p & set(q)
        if inside and inside < p:
            sigma = tuple(sorted(set(q) - p))
            if sigma:
                locus.add(sigma)
    ordered = sorted(locus, key=lambda c: (len(c), c))
    codim = min((len(c) for c in ordered), default=None)
    return ordered, codim


# -- relevant collections and their shape tags ------------------------------

#: (collection order relative to centered, sorted focus coefficients) -> tag,
#: for m = 2 and m = 3.  Shapes outside the table get a generic descriptor.
_TYPE_TABLE = {
    2: {
        (2, (1,)): 1,
        (3, (1, 1)): 2,
        (3, (1,)): 3,
        (3, (2,)): 4,
    },
    3: {
        (2, (1,)): 1,
        (3, (1, 1)): 2,
        (3, (2,)): 3,
        (3, (1,)): 4,
        (4, (1, 1, 1)): 5,
        (4, (1, 2)): 6,
        (4, (3,)): 7,
        (4, (1, 1)): 8,
        (4, (2,)): 9,
        (4, (1,)): 10,
    },
}


def relevant_type_tag(m: int, rel: PrimitiveRelation) -> str:
    key = (rel.order, tuple(sorted(rel.coefficients)))
    tag = _TYPE_TABLE.get(m, {}).get(key)
    if tag is not None:
        return f"type{tag}"
    rhs = ",".join(str(c) for c in sorted(rel.coefficients)) or "0"
    return f"order{rel.order}:rhs({rhs})"


def relevant_collections(
    f: LatticeFan, centered: ConeRef
) -> list[tuple[ConeRef, str, PrimitiveRelation]]:
    """Primitive collections of the form P' u {a} with P' a nonempty proper
    subset of the centered collection and a outside it, each tagged by the
    shape of its relation.  Memoised per centered collection on the fan."""
    key = tuple(sorted(set(centered)))
    kept = f._relevant_collections.get(key)
    if kept is not None:
        return list(kept)
    p = set(require_centered(f, key))
    m = len(p) - 1
    out = []
    for q in primitive_collections(f):
        outside = set(q) - p
        inside = set(q) & p
        if len(outside) == 1 and inside and inside < p:
            rel = primitive_relation(f, q)
            out.append((q, relevant_type_tag(m, rel), rel))
    f._relevant_collections[key] = tuple(out)
    return out


def decompose_relation(
    f: LatticeFan,
    target: CurveClass | PrimitiveRelation,
    basis: list[PrimitiveRelation],
) -> tuple[int, ...] | None:
    """Nonnegative integer lambda with sum_i lambda_i * alpha_i = target.alpha,
    found by bounded exhaustive search (first solution in lexicographic DFS
    order); None when no combination exists within the bound."""
    alpha_t = target.alpha
    if any(len(b.alpha) != len(alpha_t) for b in basis):
        raise PreconditionError("basis relations and target use different ray indexings")
    bound = max((abs(x) for x in alpha_t), default=0) * f.rank
    if bound == 0:
        return (0,) * len(basis) if all(x == 0 for x in alpha_t) else None
    alphas = [b.alpha for b in basis]
    k = len(alphas)
    dim = len(alpha_t)
    # per-suffix reachable interval for each coordinate, for pruning
    lo = [[0] * dim for _ in range(k + 1)]
    hi = [[0] * dim for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        for d in range(dim):
            a = alphas[i][d]
            lo[i][d] = lo[i + 1][d] + bound * min(0, a)
            hi[i][d] = hi[i + 1][d] + bound * max(0, a)

    def dfs(i: int, remaining: list[int]):
        if i == k:
            return () if all(x == 0 for x in remaining) else None
        for d in range(dim):
            if not (lo[i][d] <= remaining[d] <= hi[i][d]):
                return None
        for lam in range(bound + 1):
            rest = [r - lam * a for r, a in zip(remaining, alphas[i])]
            tail = dfs(i + 1, rest)
            if tail is not None:
                return (lam,) + tail
        return None

    return dfs(0, list(alpha_t))
