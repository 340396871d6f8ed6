"""Exact integer linear algebra used by every other module.

Vectors are tuples of Python ints (arbitrary precision), matrices are
sequences of such row vectors.  Every elimination (determinants, integer
solves, unimodular inverses, the Gordan LP) is fraction-free: one integer
pivot step, _pivot, whose division by the previous pivot is exact.  Every
public result is an integer object or an explicit non-integrality signal.
No floats anywhere.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import PreconditionError, ShapeError

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]

#: sentinel results of solve_integer_system
NO_SOLUTION = "none"
UNDERDETERMINED = "underdetermined"


def as_vector(entries: Iterable[int]) -> IntVector:
    return tuple(int(e) for e in entries)


def as_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    m = tuple(as_vector(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ShapeError("matrix rows have unequal lengths")
    return m


def vec_sum(vectors: Iterable[Sequence[int]], dim: int) -> IntVector:
    total = [0] * dim
    for v in vectors:
        if len(v) != dim:
            raise ShapeError(f"vector length {len(v)} != {dim}")
        for i, x in enumerate(v):
            total[i] += x
    return tuple(total)


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ShapeError(f"vector lengths differ: {len(a)} vs {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def _pivot(rows: list[list[int]], r: int, c: int, scale: int) -> int:
    """Edmonds' integer pivot on rows[r][c]: every other row x becomes
    (x * p - x[c] * rows[r]) // scale, where p = rows[r][c] and scale is the
    previous pivot.  The division is exact, since every entry is a minor of
    the original rows.  Returns p, the next scale."""
    top = rows[r]
    p = top[c]
    for j, row in enumerate(rows):
        if j == r:
            continue
        x = row[c]
        if x:
            rows[j] = [(a * p - x * b) // scale for a, b in zip(row, top)]
        elif p != scale:
            rows[j] = [a * p // scale for a in row]
    return p


def _reduce(rows: list[list[int]], cols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan on the first cols columns, in place.

    Each column pivots on its first +-1 entry at or below the pivot rows,
    or else on its first nonzero one, swapped up to the next pivot row; a
    pivot equal to -scale has its row negated first, so unit pivots keep
    the scale.  Afterwards the pivot rows lead the list, every pivot entry
    equals scale and every other entry of a pivot column is 0.  scale is
    the minor of the swapped and negated rows on the pivot rows and columns,
    and sign is -1 to the number of swaps and negations, so a square matrix
    of full rank has determinant sign * scale.  Returns (pivot columns,
    scale, sign)."""
    pivots = []
    scale = sign = 1
    for c in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
        first = None
        for i in range(r, len(rows)):
            x = rows[i][c]
            if x == 1 or x == -1:
                first = i
                break
            if x and first is None:
                first = i
        if first is None:
            continue
        if first != r:
            rows[r], rows[first] = rows[first], rows[r]
            sign = -sign
        if rows[r][c] == -scale:
            rows[r] = [-x for x in rows[r]]
            sign = -sign
        scale = _pivot(rows, r, c, scale)
        pivots.append(c)
    return pivots, scale, sign


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("determinant requires a square matrix")
    pivots, scale, sign = _reduce([list(row) for row in m], n)
    return sign * scale if len(pivots) == n else 0


def cone_determinants(
    vectors: Sequence[Sequence[int]], cones: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], int]:
    """Determinant of the matrix with rows ``vectors[i]`` (i in cone), for
    each cone, keyed by the cone.

    Each cone's rows are eliminated in order against the unit (+-1) pivots
    of the rows before them, and the reduced rows of the longest prefix it
    shares with the previous cone are reused, so sorted cone lists, whose
    neighbours share prefixes, eliminate each shared prefix once.  The
    reduced rows are triangular under the order of their pivot columns, so
    the determinant is the product of the pivots times the sign of that
    order.  A cone with a reduced row that has no +-1 entry (a singular or
    non-unimodular matrix, or a unimodular one whose rows need other
    pivots) gets the exact ``determinant`` of its matrix instead."""
    dets = {}
    # the current prefix: (ray, reduced row, pivot column, pivot, sign of
    # the determinant so far: pivots times the sign of the column order)
    stack: list[tuple[int, list[int], int, int, int]] = []
    for cone in cones:
        n = len(cone)
        if any(len(vectors[i]) != n for i in cone):
            raise ShapeError("determinant requires a square matrix")
        k = 0
        while k < len(stack) and k < n and stack[k][0] == cone[k]:
            k += 1
        del stack[k:]
        for i in cone[k:]:
            row = list(vectors[i])
            for _, top, p, unit, _ in stack:
                c = row[p] * unit
                if c:
                    row = [x - c * y for x, y in zip(row, top)]
            for unit in (1, -1):
                if unit in row:
                    break
            else:
                dets[cone] = determinant([vectors[j] for j in cone])
                break
            p = row.index(unit)
            sign = stack[-1][4] if stack else 1
            for entry in stack:
                if entry[2] > p:
                    sign = -sign
            stack.append((i, row, p, unit, sign * unit))
        else:
            dets[cone] = stack[-1][4] if stack else 1
    return dets


def solve_integer_system(matrix: Sequence[Sequence[int]], b: Sequence[int]):
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
    a = [list(row) + [int(v)] for row, v in zip(m, b)]
    pivots, scale, _ = _reduce(a, cols)
    rank = len(pivots)
    if any(row[cols] for row in a[rank:]):
        return NO_SOLUTION
    if rank < cols:
        return UNDERDETERMINED
    x = []
    for row in a[:rank]:
        q, rem = divmod(row[cols], scale)
        if rem:
            return NO_SOLUTION
        x.append(q)
    return tuple(x)


def express_in_basis(basis: Sequence[Sequence[int]], p: Sequence[int]) -> IntVector:
    """Integer coordinates c with sum_i c_i * basis_row_i = p.

    The basis must be square unimodular (determinant +-1), so the coordinates
    are guaranteed integral.
    """
    n = len(basis)
    if any(len(row) != n for row in basis):
        raise PreconditionError("basis must be square")
    if len(p) != n:
        raise ShapeError(f"point has length {len(p)}, basis rank is {n}")
    if determinant(basis) not in (1, -1):
        raise PreconditionError("basis is not unimodular")
    # p = c . basis  <=>  basis^T c = p
    transposed = tuple(tuple(basis[i][j] for i in range(n)) for j in range(n))
    sol = solve_integer_system(transposed, p)
    assert isinstance(sol, tuple), "unimodular system must have a unique integer solution"
    return sol


def unimodular_inverse(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Integer inverse of a square matrix with determinant +-1.

    Fraction-free Gauss-Jordan on [m | I]: at full rank the left block is
    scale * I and the right one scale * m^-1, where scale = +-det(m), so m
    is unimodular exactly when scale is +-1, and its inverse is the right
    block times scale.  The result is checked by check_inverse before it is
    returned.  Raises PreconditionError on a singular (det 0) or
    non-unimodular (|det| >= 2) matrix.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("inverse requires a square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, scale, _ = _reduce(a, n)
    if len(pivots) < n:
        raise PreconditionError("matrix is singular")
    if scale not in (1, -1):
        raise PreconditionError("matrix is not unimodular")
    inverse = tuple(tuple(scale * x for x in row[n:]) for row in a)
    check_inverse(m, inverse)
    return inverse


def check_inverse(m: Sequence[Sequence[int]], inverse: Sequence[Sequence[int]]) -> None:
    """Raise ArithmeticError unless m @ inverse is the identity.  A failure
    is a defect of this module, not of the input."""
    n = len(m)
    cols = list(zip(*inverse))
    if len(inverse) != n or len(cols) != n:
        raise ArithmeticError("integer inverse failed the B @ M = I check")
    for i, row in enumerate(m):
        for j, col in enumerate(cols):
            if sum(map(mul, row, col)) != (i == j):
                raise ArithmeticError("integer inverse failed the B @ M = I check")


def is_primitive(v: Sequence[int]) -> bool:
    """True iff v is nonzero with coprime entries."""
    return gcd(*v) == 1


def has_nonnegative_kernel(rows: Sequence[Sequence[int]]) -> bool:
    """True iff some nonzero nonnegative combination of the rows vanishes:
    the verdict of gordan_witness, whose witness is checked on every call."""
    return gordan_witness(rows)[0]


def gordan_witness(rows: Sequence[Sequence[int]]) -> tuple[bool, IntVector]:
    """Gordan's alternative for integer rows a_i, with a checked witness.

    Exactly one side holds.  Either some lambda >= 0, lambda != 0, has
    sum_i lambda_i a_i = 0: returns (True, lambda) with lambda integral.  Or
    some x has a_i . x > 0 for every i: returns (False, x) with x integral
    and a_i . x >= 1.

    Decided by the phase-1 simplex for  sum_i lambda_i a_i = 0,
    sum lambda = 1, lambda >= 0  (dim + 1 equations, one artificial each),
    in integers: the tableau is kept scaled by the previous pivot D, so a
    pivot on p updates every other row by (x * p - c * y) // D, an exact
    division (Edmonds' integer pivoting, _pivot).  D stays positive, so
    every sign test and the cross-multiplied ratio test read as over the
    rationals, and Bland's rule (the first column with negative reduced cost
    enters; ratio ties go to the smallest basis index) fixes the pivots and
    termination.
    A zero optimum leaves D * lambda in the rhs of the basic lambda columns;
    a positive one leaves the duals y of the coordinate equations in the
    artificial columns' reduced costs 1 - y, and x = -y * D.  The witness
    is checked by check_gordan_witness before it is returned.
    """
    rows = [tuple(r) for r in rows]
    dim = len(rows[0]) if rows else 0
    if any(len(r) != dim for r in rows):
        raise ShapeError("rows have unequal lengths")
    m = len(rows)
    n_eqs = dim + 1
    n_cols = m + n_eqs  # lambdas, then one artificial per equation
    # [lambda coefficients | artificials | rhs]: the coordinate equations,
    # sum lambda = 1, and last the artificial sum's reduced costs, priced
    # out against the artificial basis
    tab = [[r[d] for r in rows] + [int(k == d) for k in range(n_eqs)] + [0] for d in range(dim)]
    tab.append([1] * m + [int(k == dim) for k in range(n_eqs)] + [1])
    tab.append([-sum(r) - 1 for r in rows] + [0] * n_eqs + [-1])
    obj = n_eqs
    basis = list(range(m, n_cols))
    scale = 1
    while True:
        enter = next((k for k in range(n_cols) if tab[obj][k] < 0), None)
        if enter is None:
            break
        # Bland's rule: the smallest ratio rhs / a over a > 0, compared by
        # cross-multiplication, ties to the smallest basis index
        pivot_row = None
        for j in range(n_eqs):
            a = tab[j][enter]
            if a > 0:
                if pivot_row is not None:
                    best = tab[pivot_row]
                    lhs, rhs = tab[j][n_cols] * best[enter], best[n_cols] * a
                    if lhs > rhs or (lhs == rhs and basis[j] > basis[pivot_row]):
                        continue
                pivot_row = j
        if pivot_row is None:
            break  # unbounded; cannot happen for a phase-1 objective
        scale = _pivot(tab, pivot_row, enter, scale)
        basis[pivot_row] = enter
    if tab[obj][n_cols] == 0:
        lam = [0] * m
        for j, b in enumerate(basis):
            if b < m:
                lam[b] = tab[j][n_cols]
        kernel, witness = True, tuple(lam)
    else:
        kernel, witness = False, tuple(tab[obj][m + d] - scale for d in range(dim))
    check_gordan_witness(rows, kernel, witness)
    return kernel, witness


def check_gordan_witness(rows: Sequence[Sequence[int]], kernel: bool, witness: Sequence[int]) -> None:
    """Raise ArithmeticError unless the witness proves its side of Gordan's
    alternative for the rows: with kernel, a nonzero nonnegative lambda (one
    entry per row) with sum_i lambda_i row_i = 0; without, an x with
    row . x >= 1 for every row.  Exact dot products, independent of the LP;
    a failure is a defect of this module, not of the input."""
    if kernel:
        if len(witness) != len(rows) or any(c < 0 for c in witness) or not any(witness):
            raise ArithmeticError("kernel witness is not a nonzero nonnegative weight per row")
        dim = len(rows[0])
        if vec_sum(([c * x for x in row] for c, row in zip(witness, rows) if c), dim) != (0,) * dim:
            raise ArithmeticError("kernel witness does not combine the rows to zero")
    elif any(len(row) != len(witness) or dot(row, witness) < 1 for row in rows):
        raise ArithmeticError("divisor witness does not pair to >= 1 with every row")
