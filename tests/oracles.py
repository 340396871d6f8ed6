"""Independent test oracles.

The blowdown/blowup transfer rules for primitive collections are implemented
here literally, separate from the package (which always re-enumerates
collections from scratch on the surgered fan); the two routes are compared in
the surgery tests.  A brute-force subset search is the reference for the
package's face-extension enumerator of minimal non-faces, and scans over the
maximal cones are the references for the face queries that read the fan's
face bitmask set.  The divisor-times-orbit reduction, paired with V(v) through
wall curve classes, is the reference for the link walk that computes ch2
against invariant surfaces.  The Fraction phase-1 simplex is the reference for
the integer tableau that decides Gordan's alternative, and Fourier-Motzkin
elimination an independent second one.
``wall_relation_by_host`` is the per-wall construction from one cone inverse
each that the fan's single sweep over its maximal cones replaced.
``validate_reference`` is the tuple-keyed structural check that one sweep
of ``fan.validate`` replaced, with every determinant by Bareiss elimination.
The package's former Bareiss determinant, Fraction Gauss-Jordan solver and
Euclid inverse are the references for the fraction-free elimination that
replaced all three in ``lattice``.
"""

from fractions import Fraction
from typing import Sequence

from toricfans.errors import PreconditionError, ShapeError
from toricfans.lattice import NO_SOLUTION, UNDERDETERMINED, IntMatrix, as_matrix, check_inverse


def pc_after_blowdown(pcs, tbar, z):
    """Collections of the contraction of sum(tbar) = z, from those upstairs.

    Keep every collection without z other than tbar itself; a collection
    through z descends to (P - {z}) | tbar provided no (P - {z}) | S with
    S a proper subset of tbar was already a collection.
    """
    pcs = [frozenset(p) for p in pcs]
    tbar = frozenset(tbar)
    out = set()
    for p in pcs:
        if z not in p:
            if p != tbar:
                out.add(p)
        else:
            base = p - {z}
            blocked = False
            for s in _proper_subsets(tbar):
                if base | s in pcs:
                    blocked = True
                    break
            if not blocked:
                out.add(base | tbar)
    return out


def pc_after_blowup(pcs, tbar, z):
    """Collections of the blowup along <tbar> with new ray z: tbar itself,
    every old collection not containing all of tbar, and the minimal sets of
    the form (P - tbar) | {z} for old collections meeting tbar."""
    pcs = [frozenset(p) for p in pcs]
    tbar = frozenset(tbar)
    out = {tbar}
    for p in pcs:
        if not tbar <= p:
            out.add(p)
    candidates = [(p - tbar) | {z} for p in pcs if p & tbar]
    for c in candidates:
        if not any(other < c for other in candidates):
            out.add(c)
    return out


def minimal_nonfaces_brute_force(cone_masks, n_rays):
    """Minimal non-face bitmasks of the complex whose facets are cone_masks,
    by increasing-size search over all ray subsets with superset pruning.
    Exponential in n_rays; ascending order, like ``LatticeFan.minimal_nonfaces``."""
    from itertools import combinations

    found = []
    out = []
    for size in range(2, n_rays + 1):
        for subset in combinations(range(n_rays), size):
            m = 0
            for i in subset:
                m |= 1 << i
            if any(pc & m == pc for pc in found):
                continue
            if not any(cm & m == m for cm in cone_masks):
                out.append(m)
        found = out[:]
    return sorted(out)


def faces_by_submasks(f):
    """(faces, minimal non-faces) of a fan: every submask of every maximal
    cone, then every face extended by every ray above its top bit, keeping
    the non-faces whose facets are all faces (a minimal non-face minus its
    highest ray is a face).  The reference for the walk behind
    ``LatticeFan.minimal_nonfaces``."""
    faces = {0}
    for cone in f.max_cones:
        mask = sum(1 << i for i in cone)
        sub = mask
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    out = []
    for face in faces:
        for v in range(face.bit_length(), f.n_rays):
            p = face | 1 << v
            if p in faces:
                continue
            rest = face
            while rest:
                low = rest & -rest
                if p ^ low not in faces:
                    break
                rest ^= low
            else:
                out.append(p)
    return faces, tuple(sorted(out))


def _proper_subsets(s):
    from itertools import combinations

    items = sorted(s)
    for size in range(len(items)):
        for sub in combinations(items, size):
            yield frozenset(sub)


def brute_force_determinant(m) -> int:
    """Leibniz expansion; exponential, for matrices up to ~6x6."""
    from itertools import permutations

    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def rational_solve(matrix, b):
    """Dense rational solve via numpy-free Cramer-style elimination; used to
    cross-check solve_integer_system on random full-rank square systems."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(matrix, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def fm_feasible(rows) -> bool:
    """Feasibility of A x >= 1 over the rationals by Fourier-Motzkin
    elimination; exact and independent of any simplex code.  Exponential,
    for small systems only."""
    if not rows:
        return True
    n = len(rows[0])
    constraints = [(tuple(Fraction(c) for c in r), Fraction(1)) for r in rows]
    for var in range(n):
        pos = [c for c in constraints if c[0][var] > 0]
        neg = [c for c in constraints if c[0][var] < 0]
        zero = [c for c in constraints if c[0][var] == 0]
        new = list(zero)
        for p_coeffs, p_const in pos:
            for n_coeffs, n_const in neg:
                # scale so the eliminated coefficients cancel
                a, b = p_coeffs[var], -n_coeffs[var]
                coeffs = tuple(b * pc + a * nc for pc, nc in zip(p_coeffs, n_coeffs))
                new.append((coeffs, b * p_const + a * n_const))
        constraints = new
    return all(const <= 0 for _, const in constraints)


def fraction_simplex_kernel(rows) -> bool:
    """True iff some nonzero nonnegative combination of the rows vanishes.
    The package's former Fraction simplex, kept as the reference for the
    integer tableau of ``lattice.has_nonnegative_kernel``.

    Decides strict feasibility of  A x > 0  by Gordan duality: the system is
    infeasible exactly when  sum_i lambda_i * row_i = 0  has a solution with
    lambda >= 0, sum lambda = 1.  That equality system is solved by an exact
    phase-1 simplex over Fractions with Bland's rule (small: rank+1 equations,
    one variable per row), so the answer is exact and termination guaranteed.
    """
    from toricfans.errors import ShapeError

    rows = [tuple(r) for r in rows]
    if not rows:
        return False
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise ShapeError("rows have unequal lengths")
    m = len(rows)
    # equalities: for each coordinate sum_i lambda_i row_i[d] = 0; sum lambda = 1
    eqs = [[Fraction(rows[i][d]) for i in range(m)] for d in range(dim)]
    eqs.append([Fraction(1)] * m)
    rhs = [Fraction(0)] * dim + [Fraction(1)]
    # normalize rows to rhs >= 0 (only the last is nonzero, already positive)
    n_rows = len(eqs)
    n_cols = m + n_rows  # lambdas plus one artificial per equation
    # tableau rows: [coefficients | rhs]; artificial j basic in equation j
    tab = [eqs[j] + [Fraction(1) if k == j else Fraction(0) for k in range(n_rows)] + [rhs[j]]
           for j in range(n_rows)]
    basis = [m + j for j in range(n_rows)]
    # reduced-cost row for minimizing the artificial sum: cost 1 on
    # artificials, 0 on lambdas, priced out against the artificial basis
    cost = [Fraction(0)] * m + [Fraction(1)] * n_rows + [Fraction(0)]
    obj = list(cost)
    for j in range(n_rows):
        for k in range(n_cols + 1):
            obj[k] -= tab[j][k]

    while True:
        enter = next((k for k in range(n_cols) if obj[k] < 0), None)
        if enter is None:
            break
        # Bland's rule: smallest ratio, ties by smallest basis index
        pivot_row = None
        best = None
        for j in range(n_rows):
            if tab[j][enter] > 0:
                ratio = tab[j][n_cols] / tab[j][enter]
                if best is None or ratio < best or (ratio == best and basis[j] < basis[pivot_row]):
                    best = ratio
                    pivot_row = j
        if pivot_row is None:
            break  # unbounded; cannot happen for a phase-1 objective
        piv = tab[pivot_row][enter]
        tab[pivot_row] = [x / piv for x in tab[pivot_row]]
        for j in range(n_rows):
            if j != pivot_row and tab[j][enter] != 0:
                factor = tab[j][enter]
                tab[j] = [x - factor * y for x, y in zip(tab[j], tab[pivot_row])]
        if obj[enter] != 0:
            factor = obj[enter]
            obj = [x - factor * y for x, y in zip(obj, tab[pivot_row])]
        basis[pivot_row] = enter

    optimum = -obj[n_cols]
    return optimum == 0


def check_wall_relation(f, wall, alpha):
    """Independent verification of a wall curve class from its defining
    properties: it is supported on the wall and the two opposite rays, takes
    value +1 on the opposite rays, and the weighted ray sum vanishes.  These
    equations determine alpha uniquely because wall rays are independent."""
    u1, u2 = wall_neighbors(f, wall)
    assert alpha[u1] == 1 and alpha[u2] == 1
    support = {i for i, c in enumerate(alpha) if c != 0}
    assert support <= set(wall) | {u1, u2}
    total = [0] * f.rank
    for i, c in enumerate(alpha):
        for d, x in enumerate(f.vector(i)):
            total[d] += c * x
    assert all(t == 0 for t in total), f"wall relation does not sum to zero: {total}"


def wall_relation_by_host(f, wall):
    """The wall relation from the inverse of the host cone wall + u1: the
    coordinates of -(u1 + u2) in its dual basis, whose u1 coordinate must
    vanish, with 1 on u1 and u2."""
    from toricfans.lattice import unimodular_inverse

    u1, u2 = wall_neighbors(f, wall)
    host = tuple(sorted(tuple(wall) + (u1,)))
    target = [-(a + b) for a, b in zip(f.vector(u1), f.vector(u2))]
    inverse = unimodular_inverse([f.vector(i) for i in host])
    coords = [sum(x * y for x, y in zip(target, col)) for col in zip(*inverse)]
    assert coords[host.index(u1)] == 0, f"wall {wall} has no integral relation"
    alpha = [0] * f.n_rays
    for v, c in zip(host, coords):
        alpha[v] = c
    alpha[u1] = alpha[u2] = 1
    return tuple(alpha)


def spans_cone(f, s):
    """Whether the ray set s lies in some maximal cone, by scanning them."""
    s = set(s)
    return any(s <= set(cone) for cone in f.max_cones)


def opponents(f, ray):
    """Rays w such that {ray, w} spans no cone, by a spans_cone scan over
    every other ray."""
    return [w for w in range(f.n_rays) if w != ray and not spans_cone(f, (ray, w))]


def wall_neighbors(f, wall):
    """The rays completing a wall to a maximal cone, by scanning the cones;
    raises AssertionError unless there are exactly two."""
    wset = set(wall)
    others = [(set(cone) - wset).pop() for cone in f.max_cones if wset <= set(cone) and len(cone) == len(wset) + 1]
    assert len(others) == 2, f"wall {wall} lies in {len(others)} maximal cones"
    return tuple(sorted(others))


def is_contractible(f, rel):
    """Casagrande's criterion on index sets: for every cone tau disjoint from
    collection and focus with <focus, tau> a cone, every <collection minus
    one, focus, tau> is a cone."""
    from itertools import combinations

    collection, focus = set(rel.collection), set(rel.focus)
    faces = {frozenset(sub) for cone in f.max_cones for d in range(len(cone) + 1) for sub in combinations(cone, d)}
    for tau in faces:
        if tau & (collection | focus) or not spans_cone(f, focus | tau):
            continue
        if not all(spans_cone(f, (collection - {v}) | focus | tau) for v in collection):
            return False
    return True


def ch2_by_link_scan(f, tau):
    """ch2(X) . V(tau) by the link walk that re-derives each step: the start
    is the lowest ray w with tau + w a cone (a spans_cone test on every
    ray), and the next ray is read by scanning the wall relation of the
    sorted wall tuple.  No winding check."""
    from toricfans.fan import spans_cone, wall_relation

    tau = tuple(sorted(tau))
    start = next(w for w in range(f.n_rays) if w not in tau and spans_cone(f, tau + (w,)))
    link, rels = [], []
    prev, cur = None, start
    while not link or cur != start:
        assert len(link) < f.n_rays, "the link does not close"
        wall = tuple(sorted(tau + (cur,)))
        a = wall_relation(f, wall)
        link.append(cur)
        rels.append(a)
        prev, cur = cur, next(u for u, c in enumerate(a) if c and u != prev and u not in wall)
    total = sum(a[w] for w, a in zip(link, rels))
    for t in tau:
        d = [0, 0]
        for i in range(1, len(link) - 1):
            d.append(rels[i][t] - d[i - 1] - rels[i][link[i]] * d[i])
        total += sum(di * a[t] for di, a in zip(d, rels))
    return Fraction(total, 2)


def curve_divisor_pairing(f, curve, ray):
    """C . V(ray): the ray's coordinate of the curve class."""
    if len(curve.alpha) != f.n_rays:
        raise PreconditionError("curve class indexed over a different ray set")
    return curve.alpha[ray]


def wall_curve_class(f, wall):
    """Curve class of the invariant curve V(wall) for an (n-1)-cone: the
    integral relation u' + u'' + sum b_w w = 0 across the wall."""
    from toricfans.fan import wall_relation
    from toricfans.primitive import CurveClass

    if len(wall) != f.rank - 1:
        raise PreconditionError(f"wall must have dimension {f.rank - 1}")
    return CurveClass(wall_relation(f, wall))


def ch2_by_orbit_reduction(f, tau):
    """ch2(X) . V(tau) by the composed route ch2 = (1/2) sum_v V(v)^2: each
    V(v).V(tau) is reduced to a curve expression and paired with V(v) again
    through wall curve classes."""
    from toricfans.chern import divisor_dot_orbit

    total = Fraction(0)
    for v in range(f.n_rays):
        curve_expr = divisor_dot_orbit(f, v, tuple(sorted(tau)))
        for wall, coeff in curve_expr:
            total += coeff * wall_curve_class(f, wall).alpha[v]
    return total / 2


def validate_reference(f):
    """fan.validate by tuple-keyed wall pairing: every (n-1)-subset of every
    maximal cone into a dict, adjacency sets per cone, and a Bareiss
    determinant per cone, kept in a dict of its own (never in the fan's).
    The same checks, messages and order; raises ValueError on rank 0."""
    from itertools import combinations
    from math import gcd

    from toricfans.fan import ValidationReport

    failures = []
    n = f.rank
    rays_well_shaped = True
    seen_vectors = {}
    for ray in f.rays:
        if all(x == 0 for x in ray.vector):
            failures.append(f"ray {ray.index} is zero")
        elif gcd(*ray.vector) != 1:
            failures.append(f"ray {ray.index} is not primitive: {ray.vector}")
        if len(ray.vector) != n:
            failures.append(f"ray {ray.index} has length {len(ray.vector)}, rank is {n}")
            rays_well_shaped = False
        if ray.vector in seen_vectors:
            failures.append(f"duplicate ray vector at {seen_vectors[ray.vector]} and {ray.index}")
        seen_vectors.setdefault(ray.vector, ray.index)

    dets = {}
    n_rays = f.n_rays
    if len(set(f.max_cones)) != len(f.max_cones):
        failures.append("duplicate maximal cones")
    if not f.max_cones:
        failures.append("no maximal cones")

    for cone in f.max_cones:
        if any(i < 0 or i >= n_rays for i in cone):
            failures.append(f"cone {cone} has out-of-range ray indices")
            continue
        if len(cone) != n:
            failures.append(f"maximal cone {cone} has size {len(cone)}, expected {n}")
            continue
        if not rays_well_shaped:
            continue
        det = dets[cone] = bareiss_determinant([f.vector(i) for i in cone])
        if det not in (1, -1):
            failures.append(f"cone {f.cone_labels(cone)} is not unimodular (det {det})")

    if not failures:
        # wall -> [(owner cone, side of the owner's opposite ray)]
        wall_count = {}
        for cone in f.max_cones:
            side = dets[cone]
            # the k-th wall drops position p = n-1-k: side det * (-1)^(n-1-p)
            for wall in combinations(cone, n - 1):
                wall_count.setdefault(wall, []).append((cone, side))
                side = -side
        bad = sorted((w, o) for w, o in wall_count.items() if len(o) != 2 or o[0][1] == o[1][1])
        for wall, owners in bad:
            if len(owners) != 2:
                failures.append(
                    f"wall {f.cone_labels(wall)} appears in {len(owners)} maximal cone(s), expected 2"
                )
            else:
                failures.append(
                    f"wall {f.cone_labels(wall)} is folded: both of its maximal cones lie on one side"
                )
        if not failures and len(f.max_cones) > 1:
            adj = {c: set() for c in f.max_cones}
            for (c1, _), (c2, _) in wall_count.values():
                adj[c1].add(c2)
                adj[c2].add(c1)
            seen = {f.max_cones[0]}
            stack = [f.max_cones[0]]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            if len(seen) != len(f.max_cones):
                failures.append("maximal-cone adjacency graph is disconnected")
        every_ray = set()
        for cone in f.max_cones:
            every_ray.update(cone)
        for ray in f.rays:
            if ray.index not in every_ray:
                failures.append(f"ray {ray.index} occurs in no maximal cone")

    return ValidationReport(ok=not failures, failures=tuple(failures))


# The package's former exact kernels, unchanged but for their names: the
# references for the one fraction-free elimination in toricfans.lattice.

def bareiss_determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            if lead:
                a[i] = [(x * pivot - lead * y) // prev for x, y in zip(row, top)]
            elif pivot != prev:
                a[i] = [x * pivot // prev for x in row]
        prev = pivot
    return sign * a[n - 1][n - 1]


def _rational_rref(a: list[list[Fraction]], rhs: list[Fraction]):
    """In-place forward elimination; returns (pivot column list, rank)."""
    rows, cols = len(a), len(a[0]) if a else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        rhs[r] = rhs[r] * inv
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols, r


def fraction_solve_integer_system(matrix: Sequence[Sequence[int]], b: Sequence[int]):
    """Solve matrix @ x = b exactly over the integers.

    Returns the unique integer solution as a tuple, NO_SOLUTION when the
    system is inconsistent or the unique rational solution is non-integral,
    and UNDERDETERMINED when solutions are non-unique.
    """
    m = as_matrix(matrix)
    rows = len(m)
    if rows != len(b):
        raise ShapeError(f"{rows} equations but {len(b)} right-hand sides")
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return () if all(x == 0 for x in b) else NO_SOLUTION
    a = [[Fraction(x) for x in row] for row in m]
    rhs = [Fraction(x) for x in b]
    piv_cols, rank = _rational_rref(a, rhs)
    for i in range(rank, rows):
        if rhs[i] != 0:
            return NO_SOLUTION
    if rank < cols:
        return UNDERDETERMINED
    x = [Fraction(0)] * cols
    for r, c in enumerate(piv_cols):
        x[c] = rhs[r]
    if any(v.denominator != 1 for v in x):
        return NO_SOLUTION
    return tuple(int(v) for v in x)


def euclid_unimodular_inverse(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Integer inverse of a square matrix with determinant +-1.

    Gauss-Jordan on [m | I] with integer row operations only: in each column,
    Euclid's algorithm on the rows from the diagonal down leaves a single
    nonzero pivot, and m is unimodular only if every pivot is +-1.  The
    result is checked by check_inverse before it is returned.  Raises
    PreconditionError on a singular or non-unimodular matrix.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("inverse requires a square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        while True:
            live = [r for r in range(c, n) if a[r][c]]
            if not live:
                raise PreconditionError("matrix is singular")
            p = min(live, key=lambda r: abs(a[r][c]))
            a[c], a[p] = a[p], a[c]
            if len(live) == 1:
                break
            for r in range(c + 1, n):
                if a[r][c]:
                    q = a[r][c] // a[c][c]
                    a[r] = [x - q * y for x, y in zip(a[r], a[c])]
        if a[c][c] not in (1, -1):
            raise PreconditionError("matrix is not unimodular")
        if a[c][c] == -1:
            a[c] = [-x for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                q = a[r][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[c])]
    inverse = tuple(tuple(row[n:]) for row in a)
    check_inverse(m, inverse)
    return inverse
