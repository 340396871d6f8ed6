"""Unimodular complete simplicial fans: validation, face queries, point
location and star subdivision.

A LatticeFan stores ray generators in Z^n plus the maximal cones as sorted
index tuples.  The cones of lower dimension are exactly the subsets of
maximal cones (simpliciality).  The face index is, per ray, the bitmask of
the maximal cones (by position) that contain it (``LatticeFan.ray_cones``):
a ray set is a cone iff the AND of its masks is nonzero.  It indexes the
faces of every dimension: ``spans_cone`` reads the masks, and so does the
depth-first walk over the faces behind ``LatticeFan.minimal_nonfaces``,
which keeps no face set and whose cost grows, per join factor of the face
complex (it splits there, so a product costs the sum of its factors' faces,
not their product), with faces x the rays that share a cone with every ray
of the face.  The wall table (``LatticeFan.walls``) indexes the walls only:
it maps each wall's ray bitmask to its opposite rays, and
``LatticeFan.wall_relations`` maps it to its relation, from one sweep across
the walls that carries the rays' coordinates from cone to cone, so one cone
is inverted; both tables serve
``wall_neighbors``, ``wall_relation`` and the ch2 link walk.  ``locate``
walks across walls from the cone the sweep starts from, ``max_cones[0]``,
finds each wall's other cone by the ray masks and derives the dual basis of
each cone it visits from its neighbour's by a rank-1 update, so the
primitive and wall relations of a fan invert that one cone between them.
``validate`` is one sweep over the sorted maximal cones:
``lattice.cone_determinants`` eliminates each prefix that neighbouring cones
share once, and the walls pair by the same bitmask keys (each cone's mask
with one bit cleared) in a pairing of its own, which records each owner's
position and side and runs on malformed fans.

Per-cone data (determinants, dual bases) may be handed from a fan to the fan
a surgery builds from it (``star_subdivision``, ``contract``, ``flip``): an
entry moves by ray vector, to the maximal cone of the new fan whose sorted
rays have the same vectors in the same order, so it is the same matrix and
the same value.  Everything else is derived afresh, and every surgery
output is still validated in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

from . import lattice
from .errors import FanValidationError, PreconditionError
from .lattice import IntVector

if TYPE_CHECKING:
    from .primitive import PrimitiveRelation

ConeRef = tuple[int, ...]

ZERO_CONE: ConeRef = ()


@dataclass(frozen=True)
class Ray:
    index: int
    vector: IntVector
    label: str | None = None

    def name(self) -> str:
        return self.label if self.label is not None else f"r{self.index}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...]

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "invalid: " + "; ".join(self.failures)


def _canon_cones(cones: Iterable[Iterable[int]]) -> tuple[ConeRef, ...]:
    return tuple(sorted(tuple(sorted(set(c))) for c in cones))


class LatticeFan:
    """Immutable fan; all derived data (ray cone masks, minimal non-faces,
    wall table, cone determinants, dual bases, wall and primitive relations,
    relevant collections per centered collection) is computed on first use
    and kept; all wall relations come at once, from one sweep across the
    walls (``wall_relations``).  A surgery output starts with the
    determinants and dual bases that the fan it was built from holds for the
    cones they share, matched by ray vector (``_inherit_cone_data``)."""

    def __init__(
        self,
        rank: int,
        rays: Sequence[Sequence[int] | Ray],
        max_cones: Iterable[Iterable[int]],
        labels: Sequence[str | None] | None = None,
    ):
        self.rank = int(rank)
        built = []
        for i, r in enumerate(rays):
            if isinstance(r, Ray):
                built.append(Ray(i, lattice.as_vector(r.vector), r.label))
            else:
                lab = labels[i] if labels is not None else None
                built.append(Ray(i, lattice.as_vector(r), lab))
        self.rays: tuple[Ray, ...] = tuple(built)
        self.max_cones: tuple[ConeRef, ...] = _canon_cones(max_cones)
        # memos, filled on first use: determinant and dual basis per maximal
        # cone; primitive relation, or relevant collections, per collection
        self._cone_dets: dict[ConeRef, int] = {}
        self._dual_bases: dict[ConeRef, tuple[IntVector, ...]] = {}
        self._primitive_relations: dict[ConeRef, PrimitiveRelation] = {}
        self._relevant_collections: dict[ConeRef, tuple] = {}

    # -- identity ---------------------------------------------------------

    def _key(self):
        return (
            self.rank,
            tuple((r.vector, r.label) for r in self.rays),
            self.max_cones,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticeFan) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"LatticeFan(rank={self.rank}, rays={len(self.rays)}, maxcones={len(self.max_cones)})"

    # -- basic accessors ----------------------------------------------------

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def vector(self, i: int) -> IntVector:
        return self.rays[i].vector

    def ray_label(self, i: int) -> str:
        return self.rays[i].name()

    def cone_labels(self, cone: ConeRef) -> tuple[str, ...]:
        return tuple(self.ray_label(i) for i in cone)

    @cached_property
    def vector_index(self) -> dict[IntVector, int]:
        return {r.vector: r.index for r in self.rays}

    @cached_property
    def label_index(self) -> dict[str, int]:
        return {r.label: r.index for r in self.rays if r.label is not None}

    @cached_property
    def ray_cones(self) -> list[int]:
        """Per ray index, the bitmask of the maximal cones (bit k for
        ``max_cones[k]``) that contain it.  Built for a valid fan only
        (``require_valid``).  Read-only."""
        self.require_valid()
        masks = [0] * self.n_rays
        for pos, cone in enumerate(self.max_cones):
            for i in cone:
                masks[i] |= 1 << pos
        return masks

    @cached_property
    def walls(self) -> dict[int, list[int]]:
        """The wall table: per ray bitmask of an (n-1)-subset of a maximal
        cone, the rays that complete it to the maximal cones containing it
        (two for every wall), in ``max_cones`` order.  One pass over the
        cones, each clearing one bit per ray.  Built for a valid fan only
        (``require_valid``).  Read-only."""
        self.require_valid()
        table: dict[int, list[int]] = {}
        for cone in self.max_cones:
            rays = ray_mask(cone)
            for u in cone:
                table.setdefault(rays ^ 1 << u, []).append(u)
        return table

    @cached_property
    def wall_relations(self) -> dict[int, tuple[int, ...]]:
        """Per wall ray bitmask (the keys of ``walls``), the relation alpha
        over all rays with sum_v alpha_v * v = 0, 1 on the two rays opposite
        the wall and 0 off them and the wall.  Built for a valid fan only,
        by one depth-first sweep over the maximal cones that inverts only
        ``max_cones[0]``: col_v[r] is ray r's coordinate on ray v of the
        current cone.  The wall opposite u1, with u2 on its other side, has
        alpha_v = -col_v[u2] (col_u1[u2] must be -1); crossing it into
        cone - u1 + u2 takes col_v to col_v - alpha_v * col_u1, and col_u2 is
        -col_u1.  Every relation is then checked to vanish on the ray
        vectors: that fixes it, given its support, so a failure
        (ArithmeticError) is a defect of this module.  Read-only."""
        walls, n = self.walls, self.n_rays
        vectors = [r.vector for r in self.rays]
        start = self.max_cones[0]
        cols = {v: [sum(map(mul, m, p)) for p in vectors] for v, m in zip(start, self.dual_basis(start))}
        table: dict[int, tuple[int, ...]] = {}
        stack = [(ray_mask(start), cols)]
        seen = {stack[0][0]}
        while stack:
            cone, cols = stack.pop()
            for u1, col1 in cols.items():
                wall = cone ^ 1 << u1
                u2 = sum(walls[wall]) - u1  # the other ray opposite the wall
                alpha = table.get(wall)
                if alpha is None:
                    if col1[u2] != -1:
                        wall_rays = tuple(sorted(cols.keys() - {u1}))
                        raise FanValidationError(f"wall {self.cone_labels(wall_rays)} has no integral relation")
                    alpha = [0] * n
                    for v, col in cols.items():
                        alpha[v] = -col[u2]
                    alpha[u2] = 1
                    alpha = table[wall] = tuple(alpha)
                if wall | 1 << u2 not in seen:
                    seen.add(wall | 1 << u2)
                    crossed = {v: [x - alpha[v] * y for x, y in zip(col, col1)] if alpha[v] else col
                               for v, col in cols.items() if v != u1}
                    crossed[u2] = [-y for y in col1]
                    stack.append((wall | 1 << u2, crossed))
        coords = list(zip(*vectors))
        if any(sum(map(mul, alpha, c)) for alpha in table.values() for c in coords):
            raise ArithmeticError("a wall relation of the sweep does not vanish on the rays")
        return table

    @cached_property
    def minimal_nonfaces(self) -> tuple[int, ...]:
        """Bitmasks of the minimal non-faces (the primitive collections), in
        ascending order, from a depth-first walk over the faces of each join
        factor in ascending bitmask order.

        A face F extends by each ray u below its lowest ray: F | u is a face
        iff the AND of the ray masks is nonzero.  Otherwise it is a non-face,
        minimal iff for every x in F the AND of the masks over F | u - x is
        nonzero.  Each minimal non-face P is found once, from the face P
        minus its lowest ray.

        When |F| >= 2, only the rays u that share a cone with every ray x of
        F are tried: otherwise {x, u} is a non-face properly inside F | u,
        which is then neither a face nor a minimal non-face.

        The walk runs once per join factor of the face complex that it
        finds, so it costs the sum of the factors' faces, not their product:
        the minimal non-faces of a join K[C] * K[V - C] are those of K[C]
        and those of K[V - C].  Rays of different factors always share a
        cone, so each factor is a union of connected components of the graph
        of non-adjacent ray pairs; a component C of two or more rays is a
        factor iff the distinct C-halves times the distinct rest-halves of
        the maximal cones number the cones (a cone is fixed by its two
        halves).  Split-off factors leave the rest-halves as the cones of
        what remains; the components that fail, and the single rays, walk as
        one part."""
        n = self.n_rays
        masks = self.ray_cones
        near = [0] * n  # per ray, the rays sharing a maximal cone with it
        cones = []
        for cone in self.max_cones:
            rays = ray_mask(cone)
            cones.append(rays)
            for u in cone:
                near[u] |= rays
        everything = (1 << n) - 1
        parts, unsplit, left = [], everything, everything
        while left:
            component = frontier = left & -left
            while frontier:  # breadth-first over the non-adjacent pairs
                u = frontier.bit_length() - 1
                frontier ^= 1 << u
                new = everything & ~near[u] & ~component
                component |= new
                frontier |= new
            left &= ~component
            if component & (component - 1):
                halves = {c & ~component for c in cones}
                if len({c & component for c in cones}) * len(halves) == len(cones):
                    parts.append(component)
                    unsplit &= ~component
                    cones = halves
        if unsplit:
            parts.append(unsplit)
        nonfaces = []
        every_cone = (1 << len(self.max_cones)) - 1
        for part in parts:
            # (face, its lowest ray or n for the zero cone, AND of its masks,
            # AND of its rays' neighbours in the part); children are pushed
            # highest ray first so the walk pops ascending
            stack = [(0, n, every_cone, part)]
            while stack:
                face, low, common, shared_near = stack.pop()
                todo = (shared_near if face & (face - 1) else part) & ((1 << low) - 1)
                while todo:
                    u = todo.bit_length() - 1
                    todo ^= 1 << u
                    mask = masks[u]
                    if common & mask:
                        below = shared_near & near[u]
                        if (below if face else part) & ((1 << u) - 1):
                            stack.append((face | 1 << u, u, common & mask, below))
                        continue
                    rest = face
                    while rest:  # is some F | u - x a non-face?
                        bit = rest & -rest
                        rest ^= bit
                        shared, others = mask, face ^ bit
                        while others and shared:
                            x = others & -others
                            others ^= x
                            shared &= masks[x.bit_length() - 1]
                        if not shared:
                            break
                    else:
                        nonfaces.append(face | 1 << u)
        return tuple(sorted(nonfaces))

    def dual_basis(self, cone: ConeRef) -> tuple[IntVector, ...]:
        """Covectors m_k with <m_k, v_j> = [k == j] for the rays v_j of a
        unimodular cone (the columns of the inverse of its ray matrix), so
        <m_k, p> is p's k-th coordinate in the cone's basis.  Computed on
        first use and kept for the life of the fan."""
        duals = self._dual_bases.get(cone)
        if duals is None:
            inverse = lattice.unimodular_inverse([self.vector(i) for i in cone])
            duals = self._dual_bases[cone] = tuple(zip(*inverse))
        return duals

    @cached_property
    def validation(self) -> ValidationReport:
        return validate(self)

    def require_valid(self) -> "LatticeFan":
        if not self.validation.ok:
            raise FanValidationError(str(self.validation))
        return self


def _inherit_cone_data(child: LatticeFan, parent: LatticeFan) -> None:
    """Seed the child's cone determinants and dual bases with the parent's.

    Each parent ray maps, through the child's ``vector_index``, to the
    child ray with the same vector (None if there is none).  A parent
    maximal cone's entries move only when its image is a maximal cone of
    the child: a sorted cone with the same vectors in the same order, so the
    same matrix."""
    where = child.vector_index
    index_map = [where.get(r.vector) for r in parent.rays]
    child_cones = set(child.max_cones)
    dets, duals = parent._cone_dets, parent._dual_bases
    for cone in parent.max_cones:
        image = tuple(map(index_map.__getitem__, cone))
        if image not in child_cones:
            continue
        det, dual = dets.get(cone), duals.get(cone)
        if det is not None:
            child._cone_dets.setdefault(image, det)
        if dual is not None:
            child._dual_bases.setdefault(image, dual)


def ray_mask(indices: Iterable[int]) -> int:
    """Bitmask with bit i set for each ray index i."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def validate(f: LatticeFan) -> ValidationReport:
    """Structural report: ray primitivity, cone unimodularity, wall pairing,
    wall sides and connectivity of the max-cone adjacency graph.

    Every (n-1)-face must be shared by exactly two maximal cones lying on
    opposite sides of it, and the adjacency graph must be connected.  The
    side of the ray u at position p of a sorted cone c is the sign of
    det(c) * (-1)^(n-1-p), read from the determinants the unimodularity
    check keeps in ``f._cone_dets``: a surgery may have handed some over,
    and the square, in-range cones still missing go to
    ``lattice.cone_determinants`` in one call.  Walls are keyed by ray
    bitmask and their owners by cone position; only failing walls become
    index tuples, reported in sorted wall order.  Together these make the
    cones a pseudomanifold that covers R^n with a consistent orientation;
    what stays unchecked is a consistently oriented cover of degree >= 2
    (cones winding more than once around the origin).  The fan of a point
    (rank 0, the one empty cone, whose empty matrix has det 1) is valid and
    has no walls.  Never raises; downstream operations reject fans whose
    report carries failures.
    """
    failures: list[str] = []
    n = f.rank
    rays_well_shaped = True
    seen_vectors: dict[IntVector, int] = {}
    for ray in f.rays:
        if all(x == 0 for x in ray.vector):
            failures.append(f"ray {ray.index} is zero")
        elif not lattice.is_primitive(ray.vector):
            failures.append(f"ray {ray.index} is not primitive: {ray.vector}")
        if len(ray.vector) != n:
            failures.append(f"ray {ray.index} has length {len(ray.vector)}, rank is {n}")
            rays_well_shaped = False
        if ray.vector in seen_vectors:
            failures.append(f"duplicate ray vector at {seen_vectors[ray.vector]} and {ray.index}")
        seen_vectors.setdefault(ray.vector, ray.index)

    dets = f._cone_dets
    n_rays = f.n_rays
    if len(set(f.max_cones)) != len(f.max_cones):
        failures.append("duplicate maximal cones")
    if not f.max_cones:
        failures.append("no maximal cones")

    if rays_well_shaped:
        todo = [
            c for c in f.max_cones
            if len(c) == n and c not in dets and not (c and (c[0] < 0 or c[-1] >= n_rays))
        ]
        dets.update(lattice.cone_determinants([r.vector for r in f.rays], todo))
    for cone in f.max_cones:
        if cone and (cone[0] < 0 or cone[-1] >= n_rays):
            failures.append(f"cone {cone} has out-of-range ray indices")
        elif len(cone) != n:
            failures.append(f"maximal cone {cone} has size {len(cone)}, expected {n}")
        elif rays_well_shaped and dets[cone] not in (1, -1):
            failures.append(f"cone {f.cone_labels(cone)} is not unimodular (det {dets[cone]})")

    if not failures:
        # wall mask -> [(owner's position, side of the owner's opposite ray)]
        owners: dict[int, list[tuple[int, int]]] = {}
        covered = 0
        for pos, cone in enumerate(f.max_cones):
            mask = ray_mask(cone)
            covered |= mask
            # the ray at position p lies on side det * (-1)^p, up to the
            # factor (-1)^(n-1) that every cone shares
            owner, other = (pos, dets[cone]), (pos, -dets[cone])
            for u in cone:
                owners.setdefault(mask ^ 1 << u, []).append(owner)
                owner, other = other, owner
        # only the failing walls become tuples, sorted for the report's order
        bad = sorted(
            (tuple(i for i in range(n_rays) if wall >> i & 1), len(o))
            for wall, o in owners.items()
            if len(o) != 2 or o[0][1] == o[1][1]
        )
        for wall, count in bad:
            if count != 2:
                failures.append(
                    f"wall {f.cone_labels(wall)} appears in {count} maximal cone(s), expected 2"
                )
            else:
                failures.append(
                    f"wall {f.cone_labels(wall)} is folded: both of its maximal cones lie on one side"
                )
        if not failures:
            # adjacency-graph connectivity, searched over cone positions
            adj: list[list[int]] = [[] for _ in f.max_cones]
            for (c1, _), (c2, _) in owners.values():
                adj[c1].append(c2)
                adj[c2].append(c1)
            seen = [False] * len(adj)
            seen[0] = True
            stack = [0]
            while stack:
                for nb in adj[stack.pop()]:
                    if not seen[nb]:
                        seen[nb] = True
                        stack.append(nb)
            if not all(seen):
                failures.append("maximal-cone adjacency graph is disconnected")
        for ray in f.rays:
            if not covered >> ray.index & 1:
                failures.append(f"ray {ray.index} occurs in no maximal cone")

    return ValidationReport(ok=not failures, failures=tuple(failures))


def _cones_containing(f: LatticeFan, rays: Iterable[int]) -> int:
    """Bitmask of the maximal cones containing every ray in ``rays``; -1
    (every cone) for no rays."""
    masks = f.ray_cones
    common = -1
    for i in rays:
        common &= masks[i]
    return common


def spans_cone(f: LatticeFan, s: Iterable[int]) -> bool:
    """True iff s is contained in some maximal cone (faces of a simplicial
    fan are exactly the subsets of maximal cones): the AND of the rays'
    cone masks is nonzero.  The empty set is the zero cone and always spans."""
    idx = tuple(s)
    for i in idx:
        if i < 0 or i >= f.n_rays:
            raise IndexError(f"ray index {i} out of range")
    return _cones_containing(f, idx) != 0


def _crossed_basis(f: LatticeFan, cone: ConeRef, duals: tuple[IntVector, ...], k: int, u2: int, neighbour: ConeRef):
    """The dual basis of ``neighbour``, the maximal cone across the wall
    opposite the k-th ray u1 of ``cone``, with u2 on the wall's other side:
    a rank-1 update of the cone's dual basis.  With a_v = <m_v, u2> (a_u1
    must be -1), m'_u2 = -m_u1 and m'_v = m_v + a_v * m_u1 for the other
    rays."""
    u2_vector = f.vector(u2)
    a = [sum(map(mul, m, u2_vector)) for m in duals]
    m1 = duals[k]
    if a[k] != -1:
        raise FanValidationError(f"wall {f.cone_labels(cone[:k] + cone[k + 1:])} has no integral relation")
    crossed = {v: tuple(x + a_v * y for x, y in zip(m, m1)) if a_v else m for v, m, a_v in zip(cone, duals, a)}
    crossed[u2] = tuple(-y for y in m1)
    return tuple(map(crossed.__getitem__, neighbour))


def locate(f: LatticeFan, p: Sequence[int]) -> tuple[ConeRef, tuple[int, ...]]:
    """Minimal cone containing the lattice point p, with its positive
    integer coordinates.

    Completeness guarantees some maximal cone contains p; unimodularity makes
    the coordinates integral.  Returns (zero cone, ()) for p = 0.

    A walk across walls from ``max_cones[0]``, the one cone it inverts
    (``dual_basis``): at each maximal cone it reads p's coordinates
    <m_v, p> off the cone's dual basis and stops when none is negative.
    Otherwise it pushes the neighbours across the cone's walls, the walls
    opposite the most negative coordinates on top; the AND of a wall's ray
    masks (``f.ray_cones``) holds the two maximal cones that contain it.  A
    neighbour's dual basis is the one the fan holds (``f._dual_bases``) or a
    rank-1 update of the current one (``_crossed_basis``).  No maximal cone
    is visited twice and the adjacency graph is connected, so the walk ends,
    and completeness makes it end on a cone containing p.  The answer is
    checked to sum to p on the ray vectors: its support lies in a basis, so
    that fixes it, and a failure (ArithmeticError) is a defect of this
    module.  The dual bases the walk derived are kept only when the check
    passes.
    """
    f.require_valid()
    if len(p) != f.rank:
        raise PreconditionError(f"point has length {len(p)}, rank is {f.rank}")
    if all(x == 0 for x in p):
        return ZERO_CONE, ()
    cones, known = f.max_cones, f._dual_bases
    every_cone = (1 << len(cones)) - 1  # a wall's cone mask when it has no rays (rank 1)
    derived: dict[ConeRef, tuple[IntVector, ...]] = {}
    stack: list[tuple[int, tuple | None]] = [(0, None)]  # (cone position, the crossing into it)
    seen = set()
    while stack:
        pos, step = stack.pop()
        if pos in seen:
            continue
        seen.add(pos)
        cone = cones[pos]
        duals = known.get(cone)
        if duals is None:
            if step is None:
                duals = f.dual_basis(cone)
            else:
                duals = derived[cone] = _crossed_basis(f, *step, cone)
        coords = [sum(map(mul, m, p)) for m in duals]
        if min(coords) >= 0:
            support = tuple(i for i, c in zip(cone, coords) if c > 0)
            coeffs = tuple(c for c in coords if c > 0)
            if tuple(sum(map(mul, coeffs, col)) for col in zip(*map(f.vector, support))) != tuple(p):
                raise ArithmeticError(f"the walk's coordinates of {tuple(p)} do not sum to it")
            known.update(derived)
            return support, coeffs
        for k in sorted(range(len(cone)), key=coords.__getitem__, reverse=True):
            # the wall opposite cone[k] lies in this cone and one other
            sharing = _cones_containing(f, cone[:k] + cone[k + 1:]) & every_cone
            other = (sharing ^ 1 << pos).bit_length() - 1
            if other not in seen:
                u2 = sum(cones[other]) - sum(cone) + cone[k]  # the other cone's ray off the wall
                stack.append((other, (cone, duals, k, u2)))
    raise FanValidationError(f"no maximal cone contains {tuple(p)}; fan is not complete")


def star_subdivision(f: LatticeFan, center: Iterable[int], label: str | None = None) -> LatticeFan:
    """Star subdivision at the cone spanned by ``center``: one new ray (the
    sum of the center's generators); every maximal cone containing the center
    is replaced by |center| cones, each swapping one center ray for the new
    one."""
    f.require_valid()
    center = tuple(sorted(set(center)))
    if len(center) < 2:
        raise PreconditionError("star subdivision needs a center of dimension >= 2")
    if not spans_cone(f, center):
        raise PreconditionError(f"{f.cone_labels(center)} does not span a cone")
    new_vec = lattice.vec_sum([f.vector(i) for i in center], f.rank)
    new_idx = f.n_rays
    if label is None and all(f.rays[i].label is not None for i in center):
        label = "+".join(f.rays[i].label for i in center)
    rays = list(f.rays) + [Ray(new_idx, new_vec, label)]
    cset = set(center)
    cones: list[tuple[int, ...]] = []
    for cone in f.max_cones:
        if cset <= set(cone):
            for v in center:
                cones.append(tuple(sorted((set(cone) - {v}) | {new_idx})))
        else:
            cones.append(cone)
    out = LatticeFan(f.rank, rays, cones)
    _inherit_cone_data(out, f)
    out.require_valid()
    return out


def faces_of_dim(f: LatticeFan, d: int) -> list[ConeRef]:
    """All distinct d-dimensional cones, as sorted index tuples in
    deterministic (lexicographic) order."""
    if d < 0 or d > f.rank:
        raise IndexError(f"face dimension {d} out of range 0..{f.rank}")
    faces = {sub for cone in f.max_cones for sub in combinations(cone, d)}
    return sorted(faces)


def _wall_mask(f: LatticeFan, wall: ConeRef) -> int:
    """The ray bitmask of a wall given as rank - 1 distinct ray indices in
    range; anything else raises PreconditionError."""
    if len(wall) != f.rank - 1 or len(set(wall)) != len(wall) or not all(0 <= i < f.n_rays for i in wall):
        raise PreconditionError(f"a wall is {f.rank - 1} distinct ray indices in 0..{f.n_rays - 1}, got {tuple(wall)}")
    return ray_mask(wall)


def wall_neighbors(f: LatticeFan, wall: ConeRef) -> tuple[int, int]:
    """The two rays completing a wall ((n-1)-cone) to its maximal cones,
    read from the fan's wall table."""
    others = sorted(f.walls.get(_wall_mask(f, wall), ()))
    if len(others) != 2:
        raise PreconditionError(
            f"wall {f.cone_labels(wall)} is shared by {len(others)} maximal cones, expected 2"
        )
    return tuple(others)


def wall_relation(f: LatticeFan, wall: ConeRef) -> tuple[int, ...]:
    """Integer vector alpha over all rays with sum_v alpha_v * v = 0,
    normalized to +1 on the two rays opposite the wall, for a valid fan:
    a lookup in ``f.wall_relations`` by the wall's ray bitmask."""
    wall = tuple(wall)
    alpha = f.wall_relations.get(_wall_mask(f, wall))
    if alpha is None:
        wall_neighbors(f, wall)  # raises: no two maximal cones share it
    return alpha


def is_projective(f: LatticeFan) -> bool:
    """Existence of a strictly convex piecewise-linear support function,
    decided with a checked witness by projectivity_witness."""
    return projectivity_witness(f)[0]


def projectivity_witness(f: LatticeFan) -> tuple[bool, tuple[IntVector, ...], IntVector]:
    """(projective, the distinct wall relations, a witness) for a valid fan.

    A divisor sum(a_v V(v)) is ample exactly when it pairs positively with
    every wall curve, so the fan is projective iff a . alpha_w > 0 is
    strictly feasible over the wall relations alpha_w; by Gordan's
    alternative that fails precisely when some nonzero nonnegative
    combination of wall relations vanishes.  Walls sharing a curve class
    give one relation.  The witness is an integer divisor a (one entry per
    ray, 0 on max_cones[0]) with a . alpha >= 1 for every relation when
    projective, and otherwise integer weights lambda >= 0, not all 0, with
    sum lambda_k alpha_k = 0.

    The rays of max_cones[0] are a basis, so a relation vanishes iff its
    entries on the other rho = n_rays - rank rays do, and adding a linear
    function makes any divisor vanish on that cone without changing its
    pairings.  lattice.gordan_witness therefore decides the alternative on
    the relations' entries off the cone, in rho + 1 integer equations.  Its
    witness, the divisor lifted by zeros on the cone, is checked again on the
    full wall relations, which checks the projection too."""
    table = f.wall_relations
    walls = faces_of_dim(f, f.rank - 1) if f.rank else ()  # the fan of a point has none
    relations = tuple(dict.fromkeys(table[ray_mask(w)] for w in walls))
    cone = f.max_cones[0]
    off = [v for v in range(f.n_rays) if v not in cone]
    kernel, witness = lattice.gordan_witness([tuple(a[v] for v in off) for a in relations])
    if not kernel:
        divisor = [0] * f.n_rays
        for v, x in zip(off, witness):
            divisor[v] = x
        witness = tuple(divisor)
    lattice.check_gordan_witness(relations, kernel, witness)
    return not kernel, relations, witness
