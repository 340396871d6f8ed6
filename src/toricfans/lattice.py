"""Exact integer linear algebra used by every other module.

Vectors are tuples of Python ints (arbitrary precision), matrices are
sequences of such row vectors.  Rational intermediates use fractions.Fraction;
every public result is an integer object or an explicit non-integrality
signal.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
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
    from math import gcd

    g = 0
    for e in entries:
        g = gcd(g, e)
    return g


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
    for i, row in enumerate(m):
        for j in range(n):
            if sum(row[k] * inverse[k][j] for k in range(n)) != (i == j):
                raise ArithmeticError("integer inverse failed the B @ M = I check")


def is_primitive(v: Sequence[int]) -> bool:
    """True iff v is nonzero with coprime entries."""
    return gcd_all(v) == 1


def has_nonnegative_kernel(rows: Sequence[Sequence[int]]) -> bool:
    """True iff some nonzero nonnegative combination of the rows vanishes.

    Decides strict feasibility of  A x > 0  by Gordan duality: the system is
    infeasible exactly when  sum_i lambda_i * row_i = 0  has a solution with
    lambda >= 0, sum lambda = 1.  That equality system is solved by an exact
    phase-1 simplex over Fractions with Bland's rule (small: rank+1 equations,
    one variable per row), so the answer is exact and termination guaranteed.
    """
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
