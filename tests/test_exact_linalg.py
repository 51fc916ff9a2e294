import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from ribboncalc.errors import DomainMismatch
from ribboncalc.exact_linalg import (
    kernel_basis,
    over_common_denominator,
    pfaffian,
    restrict_form,
)


def det(matrix):
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    sign = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def antisym(entries, n):
    a = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = Fraction(entries[k])
            a[j][i] = -a[i][j]
            k += 1
    return a


def expansion_pfaffian(matrix):
    """Pfaffian by expansion along the first row, memoized on index subsets.

    About 2^n work; an independent oracle for the elimination in
    ``exact_linalg.pfaffian``.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    if len(a) % 2 == 1:
        return Fraction(0)
    memo = {}

    def pf(indices):
        if not indices:
            return Fraction(1)
        if indices in memo:
            return memo[indices]
        first, rest = indices[0], indices[1:]
        total = Fraction(0)
        for pos, j in enumerate(rest):
            if a[first][j]:
                term = a[first][j] * pf(rest[:pos] + rest[pos + 1:])
                total += term if pos % 2 == 0 else -term
        memo[indices] = total
        return total

    return pf(tuple(range(len(a))))


def random_antisym(rng, n, density=1.0):
    entries = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density else 0
        for _ in range(n * (n - 1) // 2)
    ]
    return antisym(entries, n)


def direct_sum(a, b):
    n, m = len(a), len(b)
    out = [[Fraction(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        out[i][:n] = a[i]
    for i in range(m):
        out[n + i][n:] = b[i]
    return out


class TestPfaffianAgainstExpansion:
    def test_random_rational_matrices(self):
        rng = random.Random(20261018)
        for n in range(13):
            for density in (1.0, 0.5, 0.2):
                for _ in range(12):
                    a = random_antisym(rng, n, density)
                    assert pfaffian(a) == expansion_pfaffian(a)

    def test_pivot_swap(self):
        # a[0][1] = 0 makes the elimination swap index 1 with a later one
        rng = random.Random(7)
        for n in (4, 6, 8, 10):
            for _ in range(10):
                a = random_antisym(rng, n)
                a[0][1] = a[1][0] = Fraction(0)
                assert pfaffian(a) == expansion_pfaffian(a)
        a = antisym([0, 2, 3, 4, 5, 6], 4)
        assert pfaffian(a) == -2 * 5 + 3 * 4

    def test_zero_superdiagonal(self):
        # row k of the input meets its first nonzero entry at k + 3, not k + 1
        n = 8
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 3, n):
                a[i][j] = Fraction(i + 2 * j, j - i)
                a[j][i] = -a[i][j]
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = Fraction(0)
        assert pfaffian(a) == expansion_pfaffian(a)

    def test_zero_first_row(self):
        rng = random.Random(11)
        for n in (2, 4, 6, 8):
            a = random_antisym(rng, n)
            for j in range(n):
                a[0][j] = a[j][0] = Fraction(0)
            assert pfaffian(a) == 0 == expansion_pfaffian(a)

    def test_zero_row_met_after_elimination(self):
        # the Schur complement a23 + (a20 a13 - a21 a03) / a01 = 0 - 12 + 12
        # is zero although no row of the input is
        a = antisym([1, 2, 4, 3, 6, 0], 4)
        assert pfaffian(a) == 0 == expansion_pfaffian(a)


class TestPfaffianClosedForms:
    @pytest.mark.parametrize("n", range(0, 41, 2))
    def test_all_ones_above_the_diagonal(self, n):
        assert pfaffian(antisym([1] * (n * (n - 1) // 2), n)) == 1

    def test_square_is_determinant_at_twenty(self):
        a = random_antisym(random.Random(20), 20)
        assert pfaffian(a) ** 2 == det(a)

    def test_direct_sum_multiplies(self):
        rng = random.Random(5)
        for n, m in [(2, 2), (4, 6), (8, 10), (12, 14)]:
            a, b = random_antisym(rng, n), random_antisym(rng, m)
            assert pfaffian(direct_sum(a, b)) == pfaffian(a) * pfaffian(b)

    def test_input_is_not_modified(self):
        a = antisym([0, 2, 3, 4, 5, 6], 4)
        before = [row[:] for row in a]
        pfaffian(a)
        assert a == before


class TestPfaffian:
    def test_small_sizes(self):
        assert pfaffian([]) == 1
        assert pfaffian([[0]]) == 0
        assert pfaffian([[0, 5], [-5, 0]]) == 5
        a = antisym([1, 2, 3, 4, 5, 6], 4)
        # pf = a01*a23 - a02*a13 + a03*a12
        assert pfaffian(a) == 1 * 6 - 2 * 5 + 3 * 4

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(DomainMismatch):
            pfaffian([[0, 1], [1, 0]])
        with pytest.raises(DomainMismatch):
            pfaffian([[1, 1], [-1, 0]])
        with pytest.raises(DomainMismatch):
            pfaffian([[0, 1, 2], [-1, 0, 3]])

    @given(st.lists(st.integers(-9, 9), min_size=15, max_size=15))
    def test_square_is_determinant(self, entries):
        a = antisym(entries, 6)
        assert pfaffian(a) ** 2 == det(a)

    @given(st.lists(st.integers(-5, 5), min_size=6, max_size=6))
    def test_odd_size_vanishes(self, entries):
        # top-left 4x4 block of a 5x5 antisymmetric matrix, padded
        a = antisym(entries + [0, 0, 0, 0], 5)
        assert pfaffian(a) == 0

    def test_unimodular_change_of_basis(self):
        a = antisym([1, 2, 3, 4, 5, 6], 4)
        u = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 1, 0, 1]]
        b = restrict_form(a, [[row[i] for row in u] for i in range(4)])
        assert abs(pfaffian(b)) == abs(pfaffian(a))


class TestKernel:
    def test_plane_in_three_space(self):
        basis = kernel_basis([[1, 1, 1]], 3)
        assert len(basis) == 2
        for _, w in basis:
            assert sum(w) == 0

    def test_full_rank_gives_nothing(self):
        assert kernel_basis([[1, 0], [1, 1]], 2) == []

    def test_dependent_rows_collapse(self):
        basis = kernel_basis([[1, 2, 3], [2, 4, 6]], 3)
        assert len(basis) == 2

    def test_no_rows(self):
        basis = kernel_basis([], 3)
        assert len(basis) == 3

    def test_rational_entries(self):
        basis = kernel_basis([[Fraction(1, 2), Fraction(1, 3)]], 2)
        assert len(basis) == 1
        ((_, w),) = basis
        assert Fraction(w[0], 2) + Fraction(w[1], 3) == 0

    def test_row_length_checked(self):
        with pytest.raises(DomainMismatch):
            kernel_basis([[1, 2]], 3)

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5),
                    min_size=0, max_size=4))
    def test_members_annihilate_rows(self, rows):
        basis = kernel_basis(rows, 5)
        for _, w in basis:
            for row in rows:
                assert sum(Fraction(r) * x for r, x in zip(row, w)) == 0


class TestRestrict:
    def test_two_by_two_slice(self):
        a = antisym([0, 1, 0, 2, 0, 3], 4)  # a02 = 1
        basis = [[1, 0, 0, 0], [0, 0, 1, 0]]
        b = restrict_form(a, basis)
        assert b[0][0] == 0 and b[1][1] == 0
        assert b[0][1] == a[0][2]
        assert b[1][0] == -a[0][2]


# --- the Fraction-only kernel and restriction, kept as oracles ---------------------


def fraction_kernel_basis(rows, dim):
    """Free-column kernel basis from a reduced row echelon form over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for c in range(dim):
        if c in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][c]
        basis.append(vec)
    return basis


def divided(basis):
    """Each (d, w) of ``kernel_basis`` as the Fraction vector w / d."""
    return [[Fraction(x, d) for x in w] for d, w in basis]


def dense_restriction(matrix, basis):
    """B^T A B entry by entry, over Fraction."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    return [
        [sum((Fraction(u[i]) * a[i][j] * Fraction(v[j])
              for i in range(n) for j in range(n)), Fraction(0))
         for v in basis]
        for u in basis
    ]


def random_rational(rng, density):
    if rng.random() >= density:
        return 0
    if rng.random() < 0.5:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


class TestIntegerElimination:
    """Kernels and restrictions keep integers; the results are the Fraction ones."""

    def test_kernel_matches_the_fraction_echelon_form(self):
        rng = random.Random(20261018)
        for dim in range(1, 9):
            for n_rows in range(0, dim + 2):
                for density in (1.0, 0.5, 0.2):
                    rows = [
                        [random_rational(rng, density) for _ in range(dim)]
                        for _ in range(n_rows)
                    ]
                    if n_rows > 1 and rng.random() < 0.3:
                        rows[-1] = [3 * x - y for x, y in zip(rows[0], rows[1])]
                    got = kernel_basis(rows, dim)
                    assert divided(got) == fraction_kernel_basis(rows, dim)
                    assert all(d > 0 and type(x) is int for d, w in got for x in w)

    def test_perimeter_rows_give_the_same_slice(self):
        # 0/1/2 incidence rows like a hole's edge multiplicities
        rng = random.Random(5)
        for dim in (3, 6, 9, 12):
            for _ in range(20):
                rows = [[rng.choice((0, 0, 1, 2)) for _ in range(dim)]
                        for _ in range(rng.randint(1, 5))]
                assert divided(kernel_basis(rows, dim)) == fraction_kernel_basis(rows, dim)

    def test_restriction_matches_the_dense_product(self):
        rng = random.Random(11)
        for n in range(1, 8):
            for _ in range(10):
                a = antisym(
                    [rng.randint(-5, 5) for _ in range(n * (n - 1) // 2)], n
                )
                ints = [[int(x) for x in row] for row in a]
                basis = [
                    [random_rational(rng, 0.5) for _ in range(n)]
                    for _ in range(rng.randint(0, n))
                ]
                want = dense_restriction(a, basis)
                assert restrict_form(ints, basis) == want
                assert restrict_form(a, basis) == want
                # integer slice vectors w = d v keep an integer form integer
                scaled = [over_common_denominator(v) for v in basis]
                got = restrict_form(ints, [w for _, w in scaled])
                assert all(type(x) is int for row in got for x in row)
                assert [
                    [Fraction(x, du * dv) for (dv, _), x in zip(scaled, row)]
                    for (du, _), row in zip(scaled, got)
                ] == want

    def test_entries_that_fraction_accepts_are_converted(self):
        # floats, Decimals and strings go through Fraction() as they always did
        rows = [[0.5, "1/3", Decimal("2.25"), 1]]
        exact = [[Fraction(1, 2), Fraction(1, 3), Fraction(9, 4), Fraction(1)]]
        assert kernel_basis(rows, 4) == kernel_basis(exact, 4)
        a = [[0, 0.5, "-2"], [-0.5, 0, Decimal("0.75")], ["2", Decimal("-0.75"), 0]]
        a_exact = [[Fraction(x) for x in row] for row in a]
        basis = [[0.25, "1/3", 1], [1, 0, "-3/7"]]
        basis_exact = [[Fraction(x) for x in v] for v in basis]
        want = dense_restriction(a_exact, basis_exact)
        assert restrict_form(a, basis) == want
        assert all(type(x) is Fraction for row in want for x in row)


# --- the Fraction elimination the fraction-free Pfaffian replaced, kept as an oracle ---


def parlett_reid_pfaffian(matrix):
    """Pfaffian by skew-symmetric Gaussian elimination over Fraction (Parlett-Reid).

    For k = 0, 2, 4, ... bring a nonzero a[k][j] to (k, k+1) by swapping
    index k+1 with j (each swap flips the sign), take p = a[k][k+1] as a
    factor and replace the trailing block by its Schur complement
    a[i][j] += (a[i][k] a[k+1][j] - a[i][k+1] a[k][j]) / p.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    result = Fraction(1)
    for k in range(0, n, 2):
        j = next((j for j in range(k + 1, n) if a[k][j]), None)
        if j is None:
            return Fraction(0)
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            result = -result
        p = a[k][k + 1]
        result *= p
        top, below = a[k], a[k + 1]
        for i in range(k + 2, n):
            row = a[i]
            if not row[k] and not row[k + 1]:
                continue
            f, h = row[k] / p, row[k + 1] / p
            for c in range(k + 2, n):
                row[c] += f * below[c] - h * top[c]
    return result


def random_skew(rng, n, rational, density):
    """A seeded antisymmetric matrix of int entries, or of Fractions if ``rational``."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                a[i][j] = (
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    if rational
                    else rng.randint(-9, 9)
                )
                a[j][i] = -a[i][j]
    return a


class TestFractionFreeAgainstParlettReid:
    """The fraction-free Pfaffian against the Fraction elimination, sign included."""

    def test_seeded_skew_matrices_up_to_twelve(self):
        rng = random.Random(20261020)
        swaps = 0
        for n in range(13):
            for rational in (False, True):
                for density in (1.0, 0.5, 0.2):
                    for _ in range(8):
                        a = random_skew(rng, n, rational, density)
                        case = rng.randrange(3) if n >= 4 else 0
                        if case == 1:
                            # a zero pivot at the first step
                            a[0][1] = a[1][0] = 0
                        elif case == 2:
                            # Pf of the leading 4 x 4 block is 0, and it is the
                            # pivot of the second step
                            a[0][1], a[1][0] = 1, -1
                            a[2][3] = a[0][2] * a[1][3] - a[0][3] * a[1][2]
                            a[3][2] = -a[2][3]
                        swaps += case > 0
                        got = pfaffian(a)
                        assert got == parlett_reid_pfaffian(a)
                        assert type(got) is Fraction
        assert swaps > 100

    def test_integer_twenty_by_twenty(self):
        a = random_skew(random.Random(2020), 20, False, 1.0)
        want = parlett_reid_pfaffian(a)
        assert want != 0
        assert pfaffian(a) == want


class TestIntegerSlice:
    """Integer slice vectors w_i = d_i v_i and the integer restriction W^T A W."""

    def test_scaled_kernel_matches_the_fraction_echelon_form(self):
        rng = random.Random(20261018)
        for dim in range(1, 9):
            for n_rows in range(0, dim + 2):
                for density in (1.0, 0.5, 0.2):
                    rows = [
                        [random_rational(rng, density) for _ in range(dim)]
                        for _ in range(n_rows)
                    ]
                    for (d, w), want in zip(kernel_basis(rows, dim),
                                            fraction_kernel_basis(rows, dim)):
                        assert all(type(x) is int for x in w)
                        assert gcd(d, *w) == 1
                        assert [Fraction(x, d) for x in w] == want

    def test_integer_restriction_matches_the_dense_product(self):
        rng = random.Random(11)
        for n in range(1, 8):
            for _ in range(10):
                ints = [
                    [int(x) for x in row]
                    for row in antisym(
                        [rng.randint(-5, 5) for _ in range(n * (n - 1) // 2)], n
                    )
                ]
                basis = [
                    [random_rational(rng, 0.5) for _ in range(n)]
                    for _ in range(rng.randint(0, n))
                ]
                scaled = [over_common_denominator(v) for v in basis]
                got = restrict_form(ints, [w for _, w in scaled])
                want = dense_restriction(ints, basis)
                assert all(type(x) is int for row in got for x in row)
                assert got == [
                    [du * dv * x for (dv, _), x in zip(scaled, row)]
                    for (du, _), row in zip(scaled, want)
                ]
                # Pf(W^T A W) = prod d_i Pf(B^T A B)
                assert pfaffian(got) == prod(d for d, _ in scaled) * parlett_reid_pfaffian(want)
