"""Exact integer linear algebra used by every other module.

Vectors are tuples of Python ints (arbitrary precision), matrices are
sequences of such row vectors.  solve_integer_system's elimination uses
fractions.Fraction; determinants, inverses and the Gordan LP are
fraction-free.  Every public result is an integer object or an explicit
non-integrality signal.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
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


def gcd_all(entries: Iterable[int]) -> int:
    return gcd(*entries)


def determinant(m: Sequence[Sequence[int]]) -> int:
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
    return gcd_all(v) == 1


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
    division (Edmonds' integer pivoting).  D stays positive, so every sign
    test and the cross-multiplied ratio test read as over the rationals, and
    Bland's rule (the first column with negative reduced cost enters; ratio
    ties go to the smallest basis index) fixes the pivots and termination.
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
        top = tab[pivot_row]
        piv = top[enter]
        for j, row in enumerate(tab):
            if j == pivot_row:
                continue
            c = row[enter]
            if c:
                tab[j] = [(x * piv - c * y) // scale for x, y in zip(row, top)]
            elif piv != scale:
                tab[j] = [x * piv // scale for x in row]
        basis[pivot_row] = enter
        scale = piv
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
