"""Reduction driver for fans with a centered order-3 collection: classify the
relevant relations, detect exceptional decompositions, contract the order-2
relevant relations, flip the remaining ones all at once, and verify that the
result carries the centered collection with no relevant collections left.

Every step is logged with enough vector-level data to replay it; certificates
are built from the log by the certificate module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import lattice
from .birational import BlowdownSpec, FlipSpec, contract, flip, is_contractible, multi_flip
from .errors import ContractionError, DisjointnessError, FlipError, PipelineError, PreconditionError, UnsupportedError
from .fan import ConeRef, LatticeFan, spans_cone
from .lattice import IntVector
from .primitive import (
    PrimitiveRelation,
    require_centered,
    bundle_locus,
    is_fano,
    is_primitive_collection,
    minimal_p_dimension,
    primitive_collections,
    primitive_relation,
    relevant_collections,
)


# -- log data ----------------------------------------------------------------


@dataclass(frozen=True)
class RelationData:
    """Vector-level snapshot of a relation, stable across index shifts."""

    lhs: tuple[IntVector, ...]
    rhs: tuple[tuple[IntVector, int], ...]
    text: str


def _relation_data(f: LatticeFan, rel: PrimitiveRelation) -> RelationData:
    return RelationData(
        lhs=tuple(sorted(f.vector(i) for i in rel.collection)),
        rhs=tuple(sorted((f.vector(i), mu) for i, mu in zip(rel.focus, rel.coefficients))),
        text=rel.describe(f),
    )


@dataclass(frozen=True)
class TransformStep:
    """One pipeline event.

    kind "blowdown": relation x_i + a = b contracted (one relation logged).
    kind "exceptional_pair": the two contractions x_i + a = b then x_j + c = a
    (logged in contraction order).
    kind "flip": relation x_i + x_j + a = b + c flipped.
    i/j are positions (0..2) inside the centered collection; parameter_ray is
    the ray whose base-divisor intersection count becomes the certificate
    parameter of this step.
    """

    kind: str
    i: int
    j: Optional[int]
    relations: tuple[RelationData, ...]
    removed: tuple[IntVector, ...]
    parameter_ray_label: str


@dataclass(frozen=True)
class TransformLog:
    initial: LatticeFan
    centered: ConeRef
    x_vectors: tuple[IntVector, ...]
    steps: tuple[TransformStep, ...]
    report: VerificationReport  # verify_output on the final fan, passed


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(f"[{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks)


# -- exceptional decompositions ----------------------------------------------


@dataclass(frozen=True)
class ExceptionalDecomposition:
    """Cyclic splitting of the centered relation into order-2 (and for m=3
    possibly one order-3) relevant relations."""

    pattern: str  # "cyclic3" | "cyclic4" | "pair4"
    relations: tuple[PrimitiveRelation, ...]
    positions: tuple[int, ...]


def _type1_data(centered: ConeRef, rpc):
    """The relevant relations in ``rpc`` of shape x + a = b as (position,
    aux ray, rhs ray, rel), sorted."""
    cent = list(centered)
    out = []
    for q, tag, rel in rpc:
        if tag == "type1":
            (x,) = [i for i in q if i in cent]
            (aux,) = [i for i in q if i not in cent]
            out.append((cent.index(x), aux, rel.focus[0], rel))
    return sorted(out, key=lambda t: t[:3])


def _chains(ones, length: int, aux=None, used=()):
    """Chains of ``length`` type-1 relations, each one's rhs the next one's
    aux, with distinct positions outside ``used``, in lexicographic order of
    ``ones``; the first aux is ``aux`` when given."""
    if length == 0:
        yield ()
        return
    for t in ones:
        if t[0] not in used and aux in (None, t[1]):
            for rest in _chains(ones, length - 1, t[2], used + (t[0],)):
                yield (t,) + rest


def detect_exceptional(f: LatticeFan, centered: ConeRef) -> ExceptionalDecomposition | None:
    """Search for the cyclic splittings of the centered relation.

    m=2: three relations x_i + c = a, x_j + a = b, x_k + b = c with distinct
    x's; the result is normalized so the first relation carries the
    smallest-index x.  m=3: either a 4-cycle of order-2 relations, or an
    order-3 relation x_i + x_j + a = b closed up by two order-2 relations.
    Cycles are closed chains of m+1 type-1 relations; the first in
    lexicographic order is reported.
    """
    cent = require_centered(f, centered)
    m = len(cent) - 1
    if m not in (2, 3):
        raise UnsupportedError(f"exceptional detection implemented for m in {{2,3}}, got m={m}")
    rpc = relevant_collections(f, cent)
    ones = _type1_data(cent, rpc)
    cycle = next((c for c in _chains(ones, m + 1) if c[-1][2] == c[0][1]), None)
    if cycle is not None:
        return ExceptionalDecomposition(
            pattern=f"cyclic{m + 1}",
            relations=tuple(c[3] for c in cycle),
            positions=tuple(c[0] for c in cycle),
        )
    if m == 2:
        return None
    for q, tag, rel in rpc:
        if tag != "type4":
            continue
        xs = tuple(cent.index(i) for i in q if i in cent)
        (aux,) = [i for i in q if i not in cent]
        for t1, t2 in _chains(ones, 2, rel.focus[0], xs):
            if t2[2] == aux:
                return ExceptionalDecomposition(
                    pattern="pair4",
                    relations=(rel, t1[3], t2[3]),
                    positions=xs + (t1[0], t2[0]),
                )
    return None


# -- the driver ----------------------------------------------------------------

#: the PipelineError kind of each error a surgery raises
_SURGERY_KINDS = {
    PreconditionError: "contractibility",  # the surgery's own contractibility test
    ContractionError: "contraction",
    DisjointnessError: "disjointness",
    FlipError: "flip",
}


def _surgery(op, f: LatticeFan, spec):
    """op(f, spec), with a surgery error raised as its PipelineError kind."""
    try:
        return op(f, spec)
    except tuple(_SURGERY_KINDS) as e:
        raise PipelineError(_SURGERY_KINDS[type(e)], str(e))


def _current_x_indices(fan: LatticeFan, x_vectors) -> ConeRef:
    try:
        return tuple(fan.vector_index[v] for v in x_vectors)
    except KeyError as e:
        raise PipelineError("verification", f"centered ray {e} disappeared from the fan")


def _relation_at(f: LatticeFan, vectors) -> PrimitiveRelation:
    """The primitive relation of the collection with these ray vectors."""
    return primitive_relation(f, [f.vector_index[v] for v in vectors])


def _contract_step(cur: LatticeFan, cent: ConeRef, rel: PrimitiveRelation, x_vectors):
    """Contract one order-2 relevant relation of ``cur`` (centered indices
    ``cent``) with the stability checks: the centered collection persists,
    no new opponent pairs appear, and any relevant collection of the result
    was already relevant (with the same relation) except for the single
    predicted exceptional-transfer shape.  Returns the new fan, its centered
    indices and the vector of the removed ray."""
    rpc = relevant_collections(cur, cent)
    before = {frozenset(d.lhs): d for d in (_relation_data(cur, r) for _, _, r in rpc)}
    (x_idx,) = [i for i in rel.collection if i in cent]
    (aux_idx,) = [i for i in rel.collection if i not in cent]
    pos = cent.index(x_idx)
    b_idx = rel.focus[0]
    a_vec, b_vec = cur.vector(aux_idx), cur.vector(b_idx)
    # predicted transfers: {x_q, x_pos, a} allowed when {x_q, b} was relevant
    allowed_new = set()
    for q, xv in enumerate(x_vectors):
        if q == pos:
            continue
        if frozenset({xv, b_vec}) in before:
            allowed_new.add(frozenset({xv, x_vectors[pos], a_vec}))

    new = _surgery(contract, cur, BlowdownSpec(rel))
    cent_new = _current_x_indices(new, x_vectors)
    if not is_primitive_collection(new, cent_new):
        raise PipelineError("verification", "centered collection lost after blowdown")
    rpc_new = relevant_collections(new, cent_new)
    # every ray of new is a ray of cur, and a pair of rays that spans no cone
    # is an opponent pair, so a pair of new is new iff it spans a cone of cur
    pairs = [frozenset(new.vector(i) for i in p) for p in primitive_collections(new) if len(p) == 2]
    new_pairs = [pair for pair in pairs if spans_cone(cur, [cur.vector_index[v] for v in pair])]
    if new_pairs:
        raise PipelineError(
            "opponents", f"new opponent pairs appeared after blowdown: {sorted(map(sorted, new_pairs))}"
        )
    for _, _, r in rpc_new:
        data = _relation_data(new, r)
        key = frozenset(data.lhs)
        if key in before:
            if before[key].rhs != data.rhs:
                raise PipelineError(
                    "stability", f"relevant relation changed across blowdown: {data.text}"
                )
        elif key not in allowed_new:
            raise PipelineError(
                "stability", f"unexpected new relevant collection after blowdown: {data.text}"
            )
    return new, cent_new, b_vec


def run_step1(
    f: LatticeFan, centered: ConeRef, *, require_fano: bool = True
) -> tuple[LatticeFan, TransformLog]:
    """Blowdowns (at most three, or one exceptional pair) followed by the
    simultaneous flips of the surviving order-3 relevant relations; the
    output is verified to carry the centered collection with an empty
    relevant set and bundle-locus codimension >= 2."""
    f.require_valid()
    cent = require_centered(f, centered)
    if f.rank <= 2:
        raise PipelineError("dimension", f"pipeline needs dim > 2, got {f.rank}")
    if len(cent) != 3:
        raise PipelineError("m-dimension", f"centered collection has order {len(cent)}, need 3")
    m_min = minimal_p_dimension(f)
    if m_min != 2:
        raise PipelineError("m-dimension", f"minimal P-dimension is {m_min}, need 2")
    if require_fano and not is_fano(f):
        raise PipelineError("not-fano", "input fan has a primitive relation of degree <= 0")

    x_vectors = tuple(f.vector(i) for i in cent)
    steps: list[TransformStep] = []

    exc = detect_exceptional(f, cent)
    cur, cent_now = f, cent
    if exc is not None and exc.pattern == "cyclic3":
        r0, r1 = exc.relations[0], exc.relations[1]
        i_pos, j_pos = exc.positions[1], exc.positions[0]
        (c_idx,) = [i for i in r0.collection if i not in cent]
        r0_lhs = [f.vector(i) for i in r0.collection]
        data1 = _relation_data(f, r1)
        cur, cent_now, b1 = _contract_step(cur, cent_now, r1, x_vectors)
        # the second relation survives the first contraction verbatim
        r0_now = _relation_at(cur, r0_lhs)
        data0 = _relation_data(cur, r0_now)
        cur, cent_now, b0 = _contract_step(cur, cent_now, r0_now, x_vectors)
        steps.append(
            TransformStep(
                kind="exceptional_pair",
                i=i_pos,
                j=j_pos,
                relations=(data1, data0),
                removed=(b1, b0),
                parameter_ray_label=f.ray_label(c_idx),
            )
        )
        if any(tag == "type1" for _, tag, _ in relevant_collections(cur, cent_now)):
            raise PipelineError("type", "an order-2 relevant relation survived the exceptional pair")
    else:
        budget = 3
        while ones := _type1_data(cent_now, relevant_collections(cur, cent_now)):
            if budget == 0:
                raise PipelineError("blowdown-budget", "more than three order-2 relevant relations")
            budget -= 1
            # deterministic order: the first by (position, aux ray, rhs ray)
            pos, aux, _, rel = ones[0]
            data, label = _relation_data(cur, rel), cur.ray_label(aux)
            cur, cent_now, b_vec = _contract_step(cur, cent_now, rel, x_vectors)
            steps.append(
                TransformStep(
                    kind="blowdown",
                    i=pos,
                    j=None,
                    relations=(data,),
                    removed=(b_vec,),
                    parameter_ray_label=label,
                )
            )

    # flip phase: everything left must be of shape x_i + x_j + a = b + c
    specs = []
    flip_meta = []
    for q, tag, rel in sorted(relevant_collections(cur, cent_now), key=lambda t: t[0]):
        if tag != "type2":
            raise PipelineError(
                "type",
                f"relevant relation {rel.describe(cur)} of shape {tag} survived the blowdown phase",
            )
        xs = sorted(list(cent_now).index(i) for i in q if i in cent_now)
        (aux,) = [i for i in q if i not in cent_now]
        specs.append(FlipSpec(rel))
        flip_meta.append(
            TransformStep(
                kind="flip",
                i=xs[0],
                j=xs[1],
                relations=(_relation_data(cur, rel),),
                removed=(),
                parameter_ray_label=cur.ray_label(aux),
            )
        )
    if specs:
        before_rays = tuple(r.vector for r in cur.rays)
        cur = _surgery(multi_flip, cur, specs)
        if tuple(r.vector for r in cur.rays) != before_rays:
            raise PipelineError("verification", "flip phase changed the ray set")
        steps.extend(flip_meta)

    # the flips keep every ray in place, so the centered indices still hold
    report = verify_output(cur, cent_now)
    if not report.ok:
        raise PipelineError("verification", str(report))

    log = TransformLog(
        initial=f,
        centered=cent,
        x_vectors=x_vectors,
        steps=tuple(steps),
        report=report,
    )
    return cur, log


def verify_output(y: LatticeFan, centered: ConeRef) -> VerificationReport:
    """Output contract of the pipeline: centered collection intact, no
    relevant collections, bundle locus in codimension >= 2, and every
    <x_i, x_j, a> spans a cone."""
    checks: list[CheckItem] = []
    cent = tuple(sorted(set(centered)))
    is_pc = is_primitive_collection(y, cent)
    total = lattice.vec_sum([y.vector(i) for i in cent], y.rank)
    centered_ok = is_pc and all(t == 0 for t in total)
    checks.append(
        CheckItem("centered-primitive", centered_ok, f"{y.cone_labels(cent)} sums to {total}")
    )
    if centered_ok:
        rpc = relevant_collections(y, cent)
        checks.append(
            CheckItem(
                "rpc-empty",
                not rpc,
                f"{len(rpc)} relevant collection(s)" + (f": {[y.cone_labels(q) for q, _, _ in rpc]}" if rpc else ""),
            )
        )
        _, codim = bundle_locus(y, cent)
        checks.append(
            CheckItem(
                "bundle-locus-codim",
                codim is None or codim >= 2,
                "locus empty" if codim is None else f"minimal codim {codim}",
            )
        )
        pair_ok = True
        bad = None
        for ai in range(y.n_rays):
            if ai in cent:
                continue
            for s in range(len(cent)):
                for t in range(s + 1, len(cent)):
                    if not spans_cone(y, (cent[s], cent[t], ai)):
                        pair_ok = False
                        bad = (cent[s], cent[t], ai)
        checks.append(
            CheckItem(
                "pair-cones",
                pair_ok,
                "all <x_i, x_j, a> span" if pair_ok else f"{y.cone_labels(bad)} spans no cone",
            )
        )
    return VerificationReport(tuple(checks))


def replay(log: TransformLog) -> LatticeFan:
    """Re-apply the logged steps to the initial fan; must reproduce the final
    fan exactly."""
    cur = log.initial
    for step in log.steps:
        if step.kind in ("blowdown", "exceptional_pair"):
            for data in step.relations:
                cur = contract(cur, BlowdownSpec(_relation_at(cur, data.lhs)))
        elif step.kind == "flip":
            (data,) = step.relations
            cur = flip(cur, FlipSpec(_relation_at(cur, data.lhs)))
        else:
            raise PipelineError("replay", f"unknown step kind {step.kind}")
    return cur


# -- diagnostics for centered collections of order 4 -------------------------


@dataclass(frozen=True)
class M3Row:
    relation: str
    tag: str
    contractible: bool
    singular_if_transformed: bool


@dataclass(frozen=True)
class M3Report:
    rows: tuple[M3Row, ...]
    auxiliaries: tuple[str, ...]
    exceptional: ExceptionalDecomposition | None

    def __str__(self) -> str:
        lines = []
        for r in self.rows:
            flags = []
            flags.append("contractible" if r.contractible else "NOT contractible")
            if r.singular_if_transformed:
                flags.append("singular if transformed")
            lines.append(f"{r.relation}  [{r.tag}; {'; '.join(flags)}]")
        if self.auxiliaries:
            lines.append("auxiliary candidates: " + "; ".join(self.auxiliaries))
        if self.exceptional is not None:
            lines.append(f"exceptional decomposition: {self.exceptional.pattern}")
        return "\n".join(lines) if lines else "no relevant relations"


def diagnose_m3(f: LatticeFan, centered: ConeRef) -> M3Report:
    """Classification-only report for centered collections of order 4: shape
    tags, contractibility, singularity flags (a focus coefficient above 1
    means the associated contraction or flip leaves the smooth category), and
    candidate auxiliary relations whose contraction removes a relevant
    collection.  Performs no transformations."""
    cent = require_centered(f, centered)
    if len(cent) != 4:
        raise UnsupportedError(f"diagnostics need a centered collection of order 4, got {len(cent)}")
    rel_rows = []
    relevant = relevant_collections(f, cent)
    relevant_sets = [set(q) for q, _, _ in relevant]
    for _, tag, rel in relevant:
        rel_rows.append(
            M3Row(
                relation=rel.describe(f),
                tag=tag,
                contractible=is_contractible(f, rel),
                singular_if_transformed=any(mu > 1 for mu in rel.coefficients),
            )
        )
    aux = []
    for p in primitive_collections(f):
        if any(p == q for q, _, _ in relevant):
            continue
        rel = primitive_relation(f, p)
        if len(rel.focus) != 1 or rel.coefficients != (1,):
            continue
        z = rel.focus[0]
        if any(z in qs for qs in relevant_sets) and is_contractible(f, rel):
            aux.append(rel.describe(f))
    return M3Report(
        rows=tuple(rel_rows),
        auxiliaries=tuple(aux),
        exceptional=detect_exceptional(f, cent),
    )
