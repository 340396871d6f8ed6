from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from toricfans import lattice
from toricfans.errors import PreconditionError, ShapeError
from oracles import (
    bareiss_determinant,
    brute_force_determinant,
    euclid_unimodular_inverse,
    fraction_solve_integer_system,
    rational_solve,
)

small_int = st.integers(min_value=-9, max_value=9)


def square_matrix(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


def sparse_matrix(n):
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def signed_permutation(n):
    """(permutation, signs) of the matrix with signs[i] at (i, perm[i])."""
    return st.tuples(st.permutations(list(range(n))), st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))


def unimodular(n, steps=6):
    """Random unimodular matrix: identity churned by integer row operations."""

    @st.composite
    def build(draw):
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(draw(st.integers(0, steps))):
            i = draw(st.integers(0, n - 1))
            j = draw(st.integers(0, n - 1))
            if i == j:
                continue
            c = draw(st.integers(-3, 3))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if draw(st.booleans()):
            m[0], m[-1] = m[-1], m[0]
        return [tuple(r) for r in m]

    return build()


@st.composite
def linear_systems(draw):
    """(matrix, b): m x n integer systems, m and n from 1 to 5, some
    reshaped to have a zero row, a repeated row or rank below min(m, n), with
    b drawn freely or as matrix @ x for an integer x (a consistent system)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vec = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(vec, min_size=m, max_size=m))
    shape = draw(st.sampled_from(["plain", "zero row", "repeated row", "rank deficient"]))
    if shape == "zero row":
        rows[draw(st.integers(0, m - 1))] = [0] * n
    elif shape == "repeated row":
        rows[draw(st.integers(0, m - 1))] = rows[draw(st.integers(0, m - 1))]
    elif shape == "rank deficient":
        basis = rows[: max(1, min(m, n) - 1)]
        combo = st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis))
        combos = draw(st.lists(combo, min_size=m, max_size=m))
        rows = [[sum(c * r[d] for c, r in zip(cs, basis)) for d in range(n)] for cs in combos]
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        b = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        b = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    return [tuple(r) for r in rows], b


@st.composite
def gordan_systems(draw):
    """Integer row systems for Gordan's alternative, some reshaped to have a
    zero row, a repeated row, a single row, or rank below the dimension."""
    dim = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    shape = draw(st.sampled_from(["plain", "zero row", "repeated row", "single row", "rank deficient"]))
    if shape == "zero row":
        rows.insert(draw(st.integers(0, len(rows))), (0,) * dim)
    elif shape == "repeated row":
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    elif shape == "single row":
        rows = rows[:1]
    elif shape == "rank deficient":
        basis = rows[: max(1, dim - 1)]
        combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)), min_size=1, max_size=6))
        rows = [tuple(sum(c * b[d] for c, b in zip(cs, basis)) for d in range(dim)) for cs in combos]
    return rows


class TestDeterminant:
    def test_identity(self):
        assert lattice.determinant([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1

    def test_2x2_cofactor(self):
        assert lattice.determinant([(1, 0), (-1, -1)]) == -1

    def test_diagonal(self):
        assert lattice.determinant([(2, 0), (0, 2)]) == 4

    def test_non_square(self):
        with pytest.raises(ShapeError):
            lattice.determinant([(1, 0, 0), (0, 1, 0)])

    def test_empty(self):
        assert lattice.determinant([]) == 1

    @given(square_matrix(3))
    def test_against_leibniz(self, m):
        assert lattice.determinant(m) == brute_force_determinant(m)

    @given(square_matrix(4), st.permutations(list(range(4))))
    @settings(max_examples=50)
    def test_row_permutation_sign(self, m, perm):
        parity = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    parity = -parity
        permuted = [m[i] for i in perm]
        assert lattice.determinant(permuted) == parity * lattice.determinant(m)

    def test_no_overflow(self):
        big = 10**30
        assert lattice.determinant([(big, 0), (0, big)]) == big * big

    @given(st.integers(1, 5).flatmap(sparse_matrix))
    @settings(max_examples=200)
    def test_sparse_against_leibniz(self, m):
        # mostly zeros: zero pivots, zero leading entries and singular matrices
        assert lattice.determinant(m) == brute_force_determinant(m)

    @pytest.mark.parametrize(
        "m",
        [
            [(0, 1, 0), (1, 0, 0), (0, 0, 1)],  # zero pivot, one swap
            [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
            [(0, 2, 1, 0), (0, 0, 3, 1), (1, 0, 0, 2), (0, 1, 1, 0)],
            [(2, 4, 1), (1, 2, 5), (3, 6, 0)],  # zero pivot in the second step
            [(1, 2, 3), (2, 4, 6), (0, 1, 1)],  # singular: dependent rows
            [(1, 2, 3), (4, 5, 6), (7, 8, 9)],  # singular, full support
            [(0, 1, 2), (0, 3, 4), (0, 5, 6)],  # singular: zero column
            [(3, 0, 0, 0), (0, 0, 0, 0), (0, 0, 5, 0), (0, 0, 0, 7)],  # zero row
            [(2, 0, 0), (0, 2, 0), (1, 1, 2)],  # pivot equals the previous pivot
        ],
    )
    def test_zero_pivots_and_singular(self, m):
        assert lattice.determinant(m) == brute_force_determinant(m)

    @given(st.integers(1, 8).flatmap(lambda n: st.one_of(square_matrix(n), sparse_matrix(n))))
    @settings(max_examples=400)
    def test_matches_bareiss(self, m):
        # dense and mostly-zero matrices up to 8 x 8, singular ones included
        assert lattice.determinant(m) == bareiss_determinant(m)

    @given(st.integers(1, 10).flatmap(signed_permutation))
    @settings(max_examples=100)
    def test_signed_permutation(self, case):
        perm, signs = case
        n = len(perm)
        m = [tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n)]
        parity = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    parity = -parity
        product = 1
        for s in signs:
            product *= s
        assert lattice.determinant(m) == parity * product


@st.composite
def cone_systems(draw):
    """(vectors, cones): up to n + 4 rays in Z^n (n <= 5) and a list of cones
    of n distinct rays each.  Rays are sparse small integers (singular,
    non-unimodular and unit-free rows) or, half the time, start with the
    rows of a unimodular matrix; cones are sorted or in drawn order, the
    list sorted or not, and sometimes repeats a cone."""
    n = draw(st.integers(0, 5))
    entry = st.sampled_from([0, 0, 1, -1, 2, -2, 3])
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n + 4))
    if n and draw(st.booleans()):
        vectors[:n] = draw(unimodular(n))
    order = draw(st.sampled_from([sorted, tuple]))
    cone = st.permutations(range(len(vectors))).map(lambda p: tuple(order(p[:n])))
    cones = draw(st.lists(cone, max_size=10))
    if draw(st.booleans()):
        cones.sort()
    if cones and draw(st.booleans()):
        cones.insert(draw(st.integers(0, len(cones))), cones[0])
    return vectors, cones


class TestConeDeterminants:
    @given(cone_systems())
    @settings(max_examples=400)
    def test_against_bareiss(self, system):
        vectors, cones = system
        dets = lattice.cone_determinants(vectors, cones)
        assert set(dets) == set(cones)
        for cone in cones:
            assert dets[cone] == bareiss_determinant([vectors[i] for i in cone]), cone

    def test_rows_without_a_unit_entry(self):
        assert lattice.cone_determinants([(2, 3), (1, 1)], [(0, 1), (1, 0)]) == {(0, 1): -1, (1, 0): 1}
        vectors = [(1, 0, 0), (0, 2, 1), (0, 1, 1), (0, 3, 2), (2, 0, 1)]
        cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4)]
        assert lattice.cone_determinants(vectors, cones) == {(0, 1, 2): 1, (0, 1, 3): 1, (0, 2, 3): -1, (1, 2, 4): 2}

    def test_rank_zero_and_one(self):
        assert lattice.cone_determinants([], [()]) == {(): 1}
        assert lattice.cone_determinants([(), ()], [(), ()]) == {(): 1}
        assert lattice.cone_determinants([], []) == {}
        vectors = [(1,), (-1,), (2,), (0,)]
        assert lattice.cone_determinants(vectors, [(0,), (1,), (2,), (3,)]) == {(0,): 1, (1,): -1, (2,): 2, (3,): 0}

    def test_non_square(self):
        with pytest.raises(ShapeError):
            lattice.cone_determinants([(1, 0), (0, 1), (1, 1, 1)], [(0, 1), (0, 2)])

    @given(st.integers(1, 8).flatmap(signed_permutation))
    @settings(max_examples=100)
    def test_signed_permutations_need_no_fallback(self, case):
        # every row of a signed permutation matrix has a unit pivot, so the
        # sign comes from the pivot signs and the pivot-column order alone
        perm, signs = case
        n = len(perm)
        vectors = [tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n)]
        with mock.patch.object(lattice, "determinant") as fallback:
            dets = lattice.cone_determinants(vectors, [tuple(range(n)), tuple(range(n))[::-1]])
        assert not fallback.called
        assert dets[tuple(range(n))] == lattice.determinant(vectors)
        assert dets[tuple(range(n))[::-1]] == lattice.determinant(vectors[::-1])


class TestSolve:
    def test_identity(self):
        assert lattice.solve_integer_system([(1, 0), (0, 1)], (3, -1)) == (3, -1)

    def test_back_substitution(self):
        # rows (1,0),(1,1): x1 = 1, x1 + x2 = 2
        assert lattice.solve_integer_system([(1, 0), (1, 1)], (1, 2)) == (1, 1)

    def test_parity_obstruction(self):
        assert lattice.solve_integer_system([(2,)], (1,)) == lattice.NO_SOLUTION

    def test_underdetermined(self):
        assert lattice.solve_integer_system([(1, 1)], (2,)) == lattice.UNDERDETERMINED

    def test_inconsistent(self):
        assert lattice.solve_integer_system([(1,), (1,)], (0, 1)) == lattice.NO_SOLUTION

    def test_overdetermined_consistent(self):
        assert lattice.solve_integer_system([(1, 0), (0, 1), (1, 1)], (2, 3, 5)) == (2, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lattice.solve_integer_system([(1, 0)], (1, 2))

    @given(square_matrix(3), st.lists(small_int, min_size=3, max_size=3))
    @settings(max_examples=80)
    def test_matches_rational_solver(self, m, b):
        got = lattice.solve_integer_system(m, b)
        exact = rational_solve(m, b)
        if exact is None:
            assert got in (lattice.NO_SOLUTION, lattice.UNDERDETERMINED)
        elif all(x.denominator == 1 for x in exact):
            assert got == tuple(int(x) for x in exact)
        else:
            assert got == lattice.NO_SOLUTION

    @given(linear_systems())
    @settings(max_examples=400)
    def test_matches_fraction_solver(self, system):
        m, b = system
        assert lattice.solve_integer_system(m, b) == fraction_solve_integer_system(m, b)

    @given(square_matrix(3), st.lists(small_int, min_size=3, max_size=3))
    @settings(max_examples=80)
    def test_solution_satisfies_system(self, m, b):
        got = lattice.solve_integer_system(m, b)
        if isinstance(got, tuple):
            for row, rhs in zip(m, b):
                assert sum(r * x for r, x in zip(row, got)) == rhs


class TestExpressInBasis:
    def test_standard_basis(self):
        basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert lattice.express_in_basis(basis, (0, 1, 1)) == (0, 1, 1)

    def test_2x2(self):
        assert lattice.express_in_basis([(1, 0), (1, 1)], (2, 1)) == (1, 1)

    def test_permutation(self):
        assert lattice.express_in_basis([(0, 1), (1, 0)], (5, 7)) == (7, 5)

    def test_rejects_non_unimodular(self):
        with pytest.raises(PreconditionError):
            lattice.express_in_basis([(2, 0), (0, 1)], (2, 0))

    @given(unimodular(3), st.lists(small_int, min_size=3, max_size=3))
    @settings(max_examples=80)
    def test_round_trip(self, basis, coeffs):
        p = [0, 0, 0]
        for c, row in zip(coeffs, basis):
            for d in range(3):
                p[d] += c * row[d]
        assert lattice.express_in_basis(basis, tuple(p)) == tuple(coeffs)


class TestUnimodularInverse:
    @given(st.data(), st.integers(1, 5))
    @settings(max_examples=80)
    def test_matches_rational_solve(self, data, n):
        m = data.draw(unimodular(n, steps=10))
        inverse = lattice.unimodular_inverse(m)
        for j in range(n):
            column = rational_solve(m, [int(i == j) for i in range(n)])
            assert tuple(inverse[i][j] for i in range(n)) == tuple(column)

    @given(square_matrix(3))
    @settings(max_examples=150)
    def test_raises_exactly_off_unimodular(self, m):
        # the message follows the determinant: 0 is singular, |det| >= 2 is
        # not unimodular
        det = lattice.determinant(m)
        if det in (1, -1):
            inverse = lattice.unimodular_inverse(m)
            assert all(isinstance(x, int) for row in inverse for x in row)
        else:
            message = "matrix is singular" if det == 0 else "matrix is not unimodular"
            with pytest.raises(PreconditionError, match=f"^{message}$"):
                lattice.unimodular_inverse(m)

    @given(st.data(), st.integers(1, 6))
    @settings(max_examples=120)
    def test_matches_euclid_inverse(self, data, n):
        m = data.draw(unimodular(n, steps=12))
        assert lattice.unimodular_inverse(m) == euclid_unimodular_inverse(m)

    def test_singular(self):
        # det 0 reads "singular" also when the first column's gcd is not 1
        for m in [(1, 2), (2, 4)], [(2, 1), (4, 2)], [(2, 0), (0, 0)], [(0, 0), (0, 0)]:
            with pytest.raises(PreconditionError, match="^matrix is singular$"):
                lattice.unimodular_inverse(m)

    @pytest.mark.parametrize("m", [[(2, 0), (0, 1)], [(1, 1), (1, -1)], [(1, 0, 0), (0, 3, 1), (0, 1, 1)]])
    def test_det_two(self, m):
        assert lattice.determinant(m) in (2, -2)
        with pytest.raises(PreconditionError, match="not unimodular"):
            lattice.unimodular_inverse(m)

    def test_non_square(self):
        with pytest.raises(ShapeError):
            lattice.unimodular_inverse([(1, 0, 0), (0, 1, 0)])

    def test_empty(self):
        assert lattice.unimodular_inverse([]) == ()

    @given(unimodular(3))
    @settings(max_examples=30)
    def test_corrupted_inverse_fails_check(self, m):
        # mutation test: every single-entry corruption of a correct inverse
        # is caught by the B @ M = I check that guards the per-fan cache
        inverse = [list(row) for row in lattice.unimodular_inverse(m)]
        lattice.check_inverse(m, inverse)
        for i in range(3):
            for j in range(3):
                for delta in (1, -1):
                    inverse[i][j] += delta
                    with pytest.raises(ArithmeticError):
                        lattice.check_inverse(m, inverse)
                    inverse[i][j] -= delta


def test_primitivity():
    assert lattice.is_primitive((0, 1, 1))
    assert not lattice.is_primitive((2, 0, 2))
    assert not lattice.is_primitive((0, 0, 0))


class TestNonnegativeKernel:
    def test_opposite_rows(self):
        assert lattice.has_nonnegative_kernel([(1, 2), (-1, -2)])

    def test_three_cycle(self):
        assert lattice.has_nonnegative_kernel([(1, -1, 0), (0, 1, -1), (-1, 0, 1)])

    def test_positive_rows_have_none(self):
        assert not lattice.has_nonnegative_kernel([(1, 1, 1), (1, 1, 1)])
        assert not lattice.has_nonnegative_kernel([(1, 0), (0, 1), (1, 2)])

    def test_zero_row_is_a_kernel(self):
        assert lattice.has_nonnegative_kernel([(0, 0), (1, 1)])

    def test_empty(self):
        assert not lattice.has_nonnegative_kernel([])

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_matches_fourier_motzkin_oracle(self, rows):
        # Gordan duality against an independent exact oracle: a nonzero
        # nonnegative kernel exists iff  A x >= 1  is infeasible
        from oracles import fm_feasible

        assert lattice.has_nonnegative_kernel(rows) == (not fm_feasible(rows))

    @given(gordan_systems())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_simplex_and_fourier_motzkin(self, rows):
        from oracles import fm_feasible, fraction_simplex_kernel

        kernel, witness = lattice.gordan_witness(rows)
        assert kernel == fraction_simplex_kernel(rows) == (not fm_feasible(rows))
        assert lattice.has_nonnegative_kernel(rows) == kernel
        lattice.check_gordan_witness(rows, kernel, witness)
        if not kernel:
            assert all(lattice.dot(r, witness) >= 1 for r in rows)

    def test_witness_forms(self):
        kernel, lam = lattice.gordan_witness([(1, 2), (0, 1), (-2, -4)])
        assert kernel and lam[1] == 0 and lam[0] == 2 * lam[2] > 0
        kernel, x = lattice.gordan_witness([(1, 0), (0, 1), (1, 2)])
        assert not kernel and min(x) >= 1
        assert lattice.gordan_witness([]) == (False, ())

    def test_unequal_rows(self):
        with pytest.raises(ShapeError):
            lattice.gordan_witness([(1, 0), (1,)])


class TestGordanWitnessCheck:
    """check_gordan_witness rejects corrupted witnesses with ArithmeticError,
    independently of the LP that produced them."""

    FEASIBLE = [(1, 0, 2), (0, 1, -1), (1, 1, 0), (2, -1, 3)]
    KERNEL = [(1, 0, 1), (0, 1, -1), (-1, -1, 0), (2, 0, 2)]

    def test_lowered_divisor_coordinate(self):
        rows = self.FEASIBLE
        kernel, x = lattice.gordan_witness(rows)
        assert not kernel
        for d in range(len(x)):
            for row in rows:
                if row[d] > 0:
                    # lower x_d just far enough that this row pairs to <= 0
                    bad = list(x)
                    bad[d] -= -(-lattice.dot(row, x) // row[d])
                    assert lattice.dot(row, bad) <= 0
                    with pytest.raises(ArithmeticError):
                        lattice.check_gordan_witness(rows, False, bad)

    def test_shifted_or_negative_weights(self):
        rows = self.KERNEL
        kernel, lam = lattice.gordan_witness(rows)
        assert kernel
        lattice.check_gordan_witness(rows, True, lam)
        for a in range(len(rows)):
            for b in range(len(rows)):
                if a != b and lam[b] > 0 and rows[a] != rows[b]:
                    shifted = list(lam)
                    shifted[a] += 1
                    shifted[b] -= 1
                    with pytest.raises(ArithmeticError):
                        lattice.check_gordan_witness(rows, True, shifted)
            negative = list(lam)
            negative[a] = -1
            with pytest.raises(ArithmeticError):
                lattice.check_gordan_witness(rows, True, negative)
        # still combines the rows to zero, but with negative weights
        with pytest.raises(ArithmeticError):
            lattice.check_gordan_witness(rows, True, [-c for c in lam])

    def test_wrong_side_or_shape(self):
        with pytest.raises(ArithmeticError):
            lattice.check_gordan_witness(self.KERNEL, True, (0, 0, 0, 0))
        with pytest.raises(ArithmeticError):
            lattice.check_gordan_witness(self.KERNEL, True, (1, 1, 1))
        with pytest.raises(ArithmeticError):
            lattice.check_gordan_witness(self.FEASIBLE, False, (1, 1))
        with pytest.raises(ArithmeticError):
            lattice.check_gordan_witness([], True, ())
