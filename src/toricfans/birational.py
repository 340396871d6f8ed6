"""Contractibility testing and fan surgery: smooth blowdowns, blowups,
single flips and simultaneous multi-flips.

A flip is computed as blowup-at-the-focus followed by the blowdown of the
collection onto the new ray, and independently cross-checked against direct
cone surgery (swapping the two triangulations of the non-simplicial cone
spanned by collection and focus).  Two independent constructions of the same
fan is the strongest runtime test available, so flip() always runs both; the
surgery shares no cone data with the other construction, only with f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ContractionError,
    DisjointnessError,
    FlipError,
    PreconditionError,
)
from .fan import ConeRef, LatticeFan, _cones_containing, _inherit_cone_data, spans_cone, star_subdivision
from .primitive import PrimitiveRelation, primitive_relation


@dataclass(frozen=True)
class BlowdownSpec:
    """A relation of shape t_1 + ... + t_s = z: contracting it removes the
    ray z and merges the cones of its star."""

    relation: PrimitiveRelation

    def __post_init__(self):
        r = self.relation
        if len(r.focus) != 1 or r.coefficients != (1,):
            raise PreconditionError(
                "blowdown needs a relation with a single focus ray of coefficient 1"
            )


@dataclass(frozen=True)
class FlipSpec:
    """A relation of shape a_1 + ... + a_m = c_1 + ... + c_l with m, l >= 2
    and unit coefficients; anything else would produce a singular fan."""

    relation: PrimitiveRelation

    def __post_init__(self):
        r = self.relation
        if len(r.collection) < 2 or len(r.focus) < 2:
            raise PreconditionError("flip needs collection and focus of size >= 2")
        if any(mu != 1 for mu in r.coefficients):
            raise PreconditionError("flip needs all focus coefficients equal to 1")


def is_contractible(f: LatticeFan, rel: PrimitiveRelation) -> bool:
    """Casagrande's criterion: for every cone tau (the zero cone included)
    disjoint from collection and focus such that <focus, tau> is a cone,
    every <collection minus one, focus, tau> must be a cone.

    The condition passes from tau to its faces, and every such tau lies in
    tau_C = C - (collection | focus) for a maximal cone C through the focus,
    so only those are checked: each is an AND over the fan's ray cone masks."""
    f.require_valid()
    blocked = set(rel.collection) | set(rel.focus)
    drops = [_cones_containing(f, (u for u in rel.collection if u != v)) for v in rel.collection]
    through = _cones_containing(f, rel.focus)
    for pos, cone in enumerate(f.max_cones):
        if through >> pos & 1:
            common = through & _cones_containing(f, (u for u in cone if u not in blocked))
            if not all(common & d for d in drops):
                return False
    return True


def _require_contractible(f: LatticeFan, spec: BlowdownSpec | FlipSpec) -> PrimitiveRelation:
    """The surgery precondition: f is valid, the spec's relation is the one f
    derives for its collection, and it is contractible."""
    f.require_valid()
    rel = spec.relation
    if primitive_relation(f, rel.collection).alpha != rel.alpha:
        raise PreconditionError(
            f"relation {rel.describe(f)} is not a primitive relation of this fan"
        )
    if not is_contractible(f, rel):
        raise PreconditionError(f"relation {rel.describe(f)} is not contractible")
    return rel


def _drop_ray(f: LatticeFan, removed: int, cones) -> LatticeFan:
    """Rebuild a fan without ray ``removed``, shifting indices down; the
    cones that survive keep their determinants and dual bases."""
    rays = [r for r in f.rays if r.index != removed]
    new_cones = [tuple(i if i < removed else i - 1 for i in cone) for cone in cones]
    out = LatticeFan(f.rank, rays, new_cones)
    _inherit_cone_data(out, f)
    return out


def contract(f: LatticeFan, spec: BlowdownSpec) -> LatticeFan:
    """Smooth blowdown: remove the focus ray z, keep the z-free maximal
    cones, and merge every maximal cone through z by swapping z for the whole
    collection.  The result must validate; failure means the relation was not
    a smooth blowdown."""
    rel = _require_contractible(f, spec)
    z = rel.focus[0]
    tbar = set(rel.collection)
    merged = set()
    for cone in f.max_cones:
        if z in cone:
            new_cone = tuple(sorted((set(cone) - {z}) | tbar))
            if len(new_cone) != f.rank:
                raise ContractionError(
                    f"merged cone {f.cone_labels(new_cone)} has wrong dimension; "
                    f"{rel.describe(f)} is not a smooth blowdown"
                )
            merged.add(new_cone)
        else:
            merged.add(cone)
    out = _drop_ray(f, z, merged)
    report = out.validation
    if not report.ok:
        raise ContractionError(f"contraction output invalid: {report}")
    return out


def blowup(f: LatticeFan, center: ConeRef, label: str | None = None):
    """Star subdivision at ``center`` plus the canonical new relation
    sum(center) = b, returned for round-trip testing."""
    out = star_subdivision(f, center, label=label)
    rel = primitive_relation(out, tuple(sorted(center)))
    new_idx = out.n_rays - 1
    if rel.focus != (new_idx,) or rel.coefficients != (1,):
        raise PreconditionError(
            f"blowup center {f.cone_labels(center)} did not produce a clean relation"
        )
    return out, rel


def _flip_by_surgery(f: LatticeFan, spec: FlipSpec) -> LatticeFan:
    """Direct cone surgery: inside the cone spanned by collection + focus,
    replace the subdivision through <focus> by the one through <collection>,
    extending each replaced maximal cone by its ambient rays.  The kept
    cones take their cone data from f; the new ones are computed afresh."""
    rel = spec.relation
    abar = list(rel.collection)
    cbar = set(rel.focus)
    keep = []
    links: dict[ConeRef, set[int]] = {}
    for cone in f.max_cones:
        cset = set(cone)
        if cbar <= cset:
            inside = cset & set(abar)
            if len(inside) != len(abar) - 1:
                raise FlipError(
                    f"maximal cone {f.cone_labels(cone)} through the flip center does "
                    "not match the expected star structure"
                )
            rho = tuple(sorted(cset - cbar - set(abar)))
            (missing,) = set(abar) - inside
            links.setdefault(rho, set()).add(missing)
        else:
            keep.append(cone)
    for rho, missing in sorted(links.items()):
        if missing != set(abar):
            raise FlipError(
                f"link {f.cone_labels(rho)} of the flip center misses some collection rays"
            )
    new_cones = list(keep)
    for rho in links:
        for c in rel.focus:
            new_cones.append(tuple(sorted(set(abar) | (cbar - {c}) | set(rho))))
    out = LatticeFan(f.rank, f.rays, new_cones)
    _inherit_cone_data(out, f)
    report = out.validation
    if not report.ok:
        raise FlipError(f"surgery output invalid: {report}")
    return out


def flip(f: LatticeFan, spec: FlipSpec) -> LatticeFan:
    """Flip of a contractible relation sum(a) = sum(c): blowup at <c>, then
    contract the collection onto the new ray.  The ray set is preserved.
    Cross-checked against _flip_by_surgery; disagreement is an error."""
    rel = _require_contractible(f, spec)
    try:
        mid, _ = blowup(f, rel.focus)
        down = primitive_relation(mid, rel.collection)
        new_idx = mid.n_rays - 1
        if down.focus != (new_idx,) or down.coefficients != (1,):
            raise FlipError(
                f"collection {f.cone_labels(rel.collection)} does not contract onto "
                "the exceptional ray; flip undefined"
            )
        out = contract(mid, BlowdownSpec(down))
    except (PreconditionError, ContractionError) as e:
        raise FlipError(f"flip of {rel.describe(f)} failed: {e}") from e
    surgery = _flip_by_surgery(f, spec)
    if out != surgery:
        raise FlipError(
            f"flip cross-check failed for {rel.describe(f)}: blowup/blowdown and "
            "direct surgery disagree"
        )
    return out


def multi_flip(f: LatticeFan, specs: list[FlipSpec]) -> LatticeFan:
    """Perform several flips at once.  Centers must be pairwise disjoint
    (focus_i united with focus_j spans no cone); the result is then
    independent of the order, and sequential application is used."""
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            joined = set(specs[i].relation.focus) | set(specs[j].relation.focus)
            if spans_cone(f, joined):
                raise DisjointnessError(
                    f"flip centers {f.cone_labels(specs[i].relation.focus)} and "
                    f"{f.cone_labels(specs[j].relation.focus)} meet"
                )
    cur = f
    for spec in specs:
        # ray indices are stable across flips, so the stored relation can be
        # revalidated directly on the current fan
        rel = primitive_relation(cur, spec.relation.collection)
        if rel.alpha != spec.relation.alpha:
            raise FlipError(
                f"relation {spec.relation.describe(f)} changed before its flip was applied"
            )
        cur = flip(cur, FlipSpec(rel))
    return cur


def reverse_spec(f_after: LatticeFan, spec: FlipSpec) -> FlipSpec:
    """The spec that undoes ``spec`` on the flipped fan (focus and collection
    swap roles)."""
    rel = primitive_relation(f_after, spec.relation.focus)
    return FlipSpec(rel)
