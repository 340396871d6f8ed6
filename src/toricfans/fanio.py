"""File formats and builders: the TORICFAN text format, relation
presentations, fan reconstruction from a primitive-relation list, the
projective-bundle-over-P1 builder and the dataset batch runner.

TORICFAN format (canonical emission is byte-stable):

    TORICFAN 1
    dim <n> rays <r> maxcones <k>
    <r lines: n space-separated integers, optional " # <label>">
    <k lines: n space-separated 0-based ray indices>

UTF-8, LF line endings, "#" starts a comment, blank lines are skipped.
The one cone of the fan of a point (dim 0) is written as a blank line and
read back from the size line.
"""

from __future__ import annotations

import csv
import io
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from . import lattice
from .chern import candidate_bound_predicate, screen_2fano
from .errors import ParseError, PreconditionError, ReconstructionError, ToricError
from .fan import LatticeFan
from .primitive import (
    is_fano,
    minimal_centered_collection,
    primitive_relations,
    relevant_collections,
)

MAGIC = "TORICFAN 1"


# -- TORICFAN ------------------------------------------------------------------


def emit_fan(f: LatticeFan) -> str:
    lines = [MAGIC, f"dim {f.rank} rays {f.n_rays} maxcones {len(f.max_cones)}"]
    for ray in f.rays:
        line = " ".join(str(x) for x in ray.vector)
        if ray.label is not None:
            line += f" # {ray.label}"
        lines.append(line)
    for cone in f.max_cones:
        lines.append(" ".join(str(i) for i in cone))
    return "\n".join(lines) + "\n"


def parse_fan(text: str) -> LatticeFan:
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body, _, comment = raw.partition("#")
        body = body.strip()
        label = comment.strip() or None
        if body:
            rows.append((lineno, body, label))
    if not rows:
        raise ParseError("empty input")
    lineno, header, _ = rows[0]
    if header != MAGIC:
        raise ParseError(f"expected header {MAGIC!r}", lineno)
    if len(rows) < 2:
        raise ParseError("missing size line", lineno)
    lineno, sizes, _ = rows[1]
    m = re.fullmatch(r"dim (\d+) rays (\d+) maxcones (\d+)", sizes)
    if not m:
        raise ParseError("size line must be 'dim <n> rays <r> maxcones <k>'", lineno)
    try:
        dim, n_rays, n_cones = (int(g) for g in m.groups())
    except ValueError:  # past the interpreter's integer digit limit
        raise ParseError("size line numbers are too large", lineno)
    # a rank-0 cone has no indices, so its line is blank and not among the rows
    blank_cones = 0 if dim else n_cones
    if blank_cones > 1:
        raise ParseError("a fan of dimension 0 has one maximal cone, the zero cone", lineno)
    if len(rows) != 2 + n_rays + n_cones - blank_cones:
        raise ParseError(
            f"expected {n_rays} ray lines and {n_cones - blank_cones} cone lines, found {len(rows) - 2}"
        )
    rays = []
    labels = []
    for lineno, body, label in rows[2 : 2 + n_rays]:
        try:
            vec = tuple(int(t) for t in body.split())
        except ValueError:
            raise ParseError(f"bad ray coordinates {body!r}", lineno)
        if len(vec) != dim:
            raise ParseError(f"ray has {len(vec)} coordinates, dim is {dim}", lineno)
        rays.append(vec)
        labels.append(label)
    cones = [()] * blank_cones
    for lineno, body, _ in rows[2 + n_rays :]:
        try:
            cone = tuple(int(t) for t in body.split())
        except ValueError:
            raise ParseError(f"bad cone indices {body!r}", lineno)
        if len(cone) != dim:
            raise ParseError(f"maximal cone has {len(cone)} rays, dim is {dim}", lineno)
        if any(i < 0 or i >= n_rays for i in cone):
            raise ParseError(f"cone index out of range in {body!r}", lineno)
        cones.append(cone)
    return LatticeFan(dim, rays, cones, labels)


def read_text(path: str | Path, error: type[ToricError] = ParseError) -> str:
    """A UTF-8 file's text; undecodable bytes raise error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8 text ({e.reason} at byte {e.start})")


def read_fan(path: str | Path) -> LatticeFan:
    return parse_fan(read_text(path))


def write_fan(f: LatticeFan, path: str | Path) -> None:
    Path(path).write_text(emit_fan(f), encoding="utf-8")


# -- relation presentations ------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    lhs: tuple[str, ...]
    rhs: tuple[tuple[str, int], ...]  # empty means centered (= 0)


@dataclass(frozen=True)
class RelationPresentation:
    names: tuple[str, ...]
    relations: tuple[Relation, ...]


_TERM = re.compile(r"^(\d+)?\s*([A-Za-z_]\w*'?)$")


def _parse_side(side: str, lineno: int):
    terms = []
    for chunk in side.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term", lineno)
        m = _TERM.match(chunk)
        if not m:
            raise ParseError(f"bad term {chunk!r}", lineno)
        coeff = int(m.group(1)) if m.group(1) else 1
        if coeff <= 0:
            raise ParseError(f"coefficient must be positive in {chunk!r}", lineno)
        terms.append((m.group(2), coeff))
    return terms


def parse_relations(text: str) -> RelationPresentation:
    """One relation per line: 'x0 + x1 + x2 = 0', 'x1 + a = b',
    'u + v = 2 b + c'.  Names are collected in order of first appearance."""
    names: list[str] = []
    seen: set[str] = set()
    relations: list[Relation] = []

    def note(name: str):
        if name not in seen:
            seen.add(name)
            names.append(name)

    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.partition("#")[0].strip()
        if not body:
            continue
        if body.count("=") != 1:
            raise ParseError("a relation needs exactly one '='", lineno)
        left, right = (s.strip() for s in body.split("="))
        lhs_terms = _parse_side(left, lineno)
        if any(c != 1 for _, c in lhs_terms):
            raise ParseError("left-hand side coefficients must all be 1", lineno)
        lhs = tuple(n for n, _ in lhs_terms)
        if len(set(lhs)) != len(lhs):
            raise ParseError("left-hand side names must be distinct", lineno)
        for n in lhs:
            note(n)
        if right == "0":
            rhs: tuple[tuple[str, int], ...] = ()
        else:
            rhs_terms = _parse_side(right, lineno)
            merged: dict[str, int] = {}
            for n, c in rhs_terms:
                merged[n] = merged.get(n, 0) + c
            rhs = tuple(sorted(merged.items()))
            for n, _ in rhs:
                note(n)
            if set(lhs) & set(merged):
                raise ParseError("left- and right-hand sides must be disjoint", lineno)
        relations.append(Relation(lhs=lhs, rhs=rhs))
    if not relations:
        raise ParseError("no relations found")
    return RelationPresentation(names=tuple(names), relations=tuple(relations))


def reconstruct_fan(p: RelationPresentation, dim: int) -> LatticeFan:
    """Rebuild a fan whose primitive-relation list is exactly ``p``.

    The left-hand sides are taken as the complete list of primitive
    collections, so the cones are the subsets containing none of them; the
    lexicographically first maximal cone gets the standard basis and the
    remaining ray vectors are solved from the relations as one exact integer
    linear system.  The result is validated and its recomputed relations must
    match the presentation.
    """
    names = p.names
    n_names = len(names)
    index = {n: i for i, n in enumerate(names)}
    if dim < 1 or dim > n_names:
        raise ReconstructionError(f"dim {dim} impossible with {n_names} generators")
    pcs = []
    for rel in p.relations:
        try:
            pcs.append(frozenset(index[n] for n in rel.lhs))
        except KeyError as e:
            raise ReconstructionError(f"unknown name {e} in a relation")

    def is_face(subset) -> bool:
        s = set(subset)
        return not any(pc <= s for pc in pcs)

    max_cones = [c for c in combinations(range(n_names), dim) if is_face(c)]
    if not max_cones:
        raise ReconstructionError("no maximal cones survive the primitive collections")
    for c in combinations(range(n_names), dim + 1) if dim < n_names else ():
        if is_face(c):
            raise ReconstructionError(
                "the collection list admits faces above the rank; presentation inconsistent"
            )
    basis_cone = min(max_cones)
    basis_pos = {ray: k for k, ray in enumerate(basis_cone)}
    unknowns = [i for i in range(n_names) if i not in basis_pos]
    unknown_pos = {ray: k for k, ray in enumerate(unknowns)}

    # one row per relation: sum(lhs) - sum(mu * rhs) = 0, knowns moved right
    rows = []
    consts = []
    for rel in p.relations:
        row = [0] * len(unknowns)
        const = [0] * dim
        terms = [(index[n], 1) for n in rel.lhs] + [(index[n], -mu) for n, mu in rel.rhs]
        for ray, coeff in terms:
            if ray in unknown_pos:
                row[unknown_pos[ray]] += coeff
            else:
                const[basis_pos[ray]] -= coeff
        rows.append(tuple(row))
        consts.append(const)

    solved: dict[int, list[int]] = {i: [0] * dim for i in unknowns}
    for d in range(dim):
        b = [c[d] for c in consts]
        sol = lattice.solve_integer_system(rows, b)
        if sol == lattice.UNDERDETERMINED:
            raise ReconstructionError("relations do not determine the ray vectors (underdetermined)")
        if sol == lattice.NO_SOLUTION:
            raise ReconstructionError("relations are inconsistent or force non-integral rays")
        for ray, val in zip(unknowns, sol):
            solved[ray][d] = val

    vectors = []
    for i in range(n_names):
        if i in basis_pos:
            vectors.append(tuple(1 if d == basis_pos[i] else 0 for d in range(dim)))
        else:
            vectors.append(tuple(solved[i]))
    fan = LatticeFan(dim, vectors, max_cones, labels=list(names))
    report = fan.validation
    if not report.ok:
        raise ReconstructionError(f"reconstructed fan invalid: {report}")

    # the fan's labels are the presentation's names: compare by name
    recomputed = {frozenset(rel.lhs): rel.rhs for rel in relations_of_fan(fan).relations}
    presented = {frozenset(rel.lhs): tuple(sorted(rel.rhs)) for rel in p.relations}
    if presented != recomputed:
        missing = set(presented) - set(recomputed)
        extra = set(recomputed) - set(presented)
        changed = {k for k in set(presented) & set(recomputed) if presented[k] != recomputed[k]}
        raise ReconstructionError(
            "recomputed primitive relations do not match the presentation; "
            f"missing={sorted(map(sorted, missing))} extra={sorted(map(sorted, extra))} "
            f"changed={sorted(map(sorted, changed))}"
        )
    return fan


def relations_of_fan(f: LatticeFan) -> RelationPresentation:
    """The inverse direction: read the primitive relations off a fan."""
    rels = []
    for rel in primitive_relations(f):
        rels.append(
            Relation(
                lhs=tuple(f.ray_label(i) for i in rel.collection),
                rhs=tuple(sorted((f.ray_label(i), mu) for i, mu in zip(rel.focus, rel.coefficients))),
            )
        )
    return RelationPresentation(
        names=tuple(r.name() for r in f.rays), relations=tuple(rels)
    )


# -- bundle builder --------------------------------------------------------------


def build_bundle_over_p1(a: list[int]) -> LatticeFan:
    """Fan of the projectivized split bundle with degrees ``a`` over P1, in
    Z^(m+1), m = len(a) - 1.

    Convention (fixed): fiber rays p_1..p_m are the standard basis e_1..e_m,
    p_0 = -(e_1+...+e_m); base rays u = e_{m+1} and
    u' = -e_{m+1} + sum_i (a_i - a_0) e_i, so p_i carries the normalized
    twist a_i - a_0.  The fiber relation p_0 + ... + p_m = 0 has degree m+1
    and the base relation u + u' = sum (a_i - a_0) p_i has degree
    2 - sum_i (a_i - a_0).
    """
    m = len(a) - 1
    if m < 1:
        raise PreconditionError("fiber dimension must be >= 1")
    n = m + 1
    twists = [ai - a[0] for ai in a]
    rays = []
    labels = []
    rays.append(tuple(-1 if d < m else 0 for d in range(n)))
    labels.append("p0")
    for i in range(1, m + 1):
        rays.append(tuple(1 if d == i - 1 else 0 for d in range(n)))
        labels.append(f"p{i}")
    rays.append(tuple(1 if d == m else 0 for d in range(n)))
    labels.append("u")
    rays.append(tuple(twists[d + 1] if d < m else -1 for d in range(n)))
    labels.append("u'")
    u_idx, up_idx = m + 1, m + 2
    cones = []
    for skip in range(m + 1):
        fiber = [i for i in range(m + 1) if i != skip]
        cones.append(tuple(sorted(fiber + [u_idx])))
        cones.append(tuple(sorted(fiber + [up_idx])))
    fan = LatticeFan(n, rays, cones, labels)
    fan.require_valid()
    return fan


# -- batch classification ----------------------------------------------------------


@dataclass(frozen=True)
class BatchRow:
    file: str
    dim: int | None = None
    rays: int | None = None
    picard_rank: int | None = None
    fano: bool | None = None
    m: int | None = None
    rpc_count: int | None = None
    min_ch2: Fraction | None = None
    bound_candidate: bool | None = None
    error: str = ""

    def csv(self) -> str:
        """The row as one CSV record with minimal quoting, without the newline."""

        def s(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            return str(x)

        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(
            [
                self.file,
                s(self.dim),
                s(self.rays),
                s(self.picard_rank),
                s(self.fano),
                s(self.m),
                s(self.rpc_count),
                s(self.min_ch2),
                s(self.bound_candidate),
                self.error,
            ]
        )
        return out.getvalue()[:-1]

    @property
    def internal(self) -> bool:
        """True when the error is a defect of toricfans, not of the file."""
        return self.error.startswith("internal: ")


CSV_HEADER = "file,dim,rays,picard_rank,is_fano,m,rpc_count,min_ch2_surface,bound_candidate,error"


def classify_file(path: str) -> BatchRow:
    name = Path(path).name
    try:
        f = read_fan(path)
        f.require_valid()
        dim, rays = f.rank, f.n_rays
        rho = rays - dim
        fano = is_fano(f)
        cent = minimal_centered_collection(f)
        m = None if cent is None else len(cent) - 1
        rpc = None if cent is None else len(relevant_collections(f, cent))
        _, min_ch2 = screen_2fano(f)
        bound = candidate_bound_predicate(dim, m, rho) if m is not None else False
        return BatchRow(
            file=name,
            dim=dim,
            rays=rays,
            picard_rank=rho,
            fano=fano,
            m=m,
            rpc_count=rpc,
            min_ch2=min_ch2,
            bound_candidate=bound,
        )
    except (ToricError, OSError) as e:  # bad input: the row records the failure
        return BatchRow(file=name, error=str(e).replace("\n", " "))
    except Exception as e:  # a defect: keep the batch going, but mark the row
        return BatchRow(file=name, error=f"internal: {type(e).__name__}: {e}".replace("\n", " "))


def batch_classify(directory: str | Path, workers: int = 1):
    """Classify every .fan/.toricfan file in a directory.

    Returns (rows in sorted-file order, histogram dim -> {m: count}).  The
    output is byte-identical for any worker count: files are processed in
    sorted order and reassembled by input position.  ``workers`` must be
    positive; the pool never has more workers than there are files.
    """
    if workers < 1:
        raise PreconditionError(f"workers must be at least 1, got {workers}")
    paths = sorted(
        str(p) for p in Path(directory).iterdir() if p.suffix in (".fan", ".toricfan")
    )
    workers = min(workers, len(paths))  # a pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(classify_file, paths, chunksize=8))
    else:
        rows = [classify_file(p) for p in paths]
    histogram: dict[int, dict[int, int]] = {}
    for row in rows:
        if row.error or row.m is None:
            continue
        histogram.setdefault(row.dim, {}).setdefault(row.m, 0)
        histogram[row.dim][row.m] += 1
    return rows, histogram


def batch_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"
