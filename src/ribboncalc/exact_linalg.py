"""Small exact linear algebra: kernels, restriction, Pfaffians.

The matrices that show up are antisymmetric forms on cell coordinates,
mostly integer, and the arithmetic stays in integers.  Kernels come from
elimination on primitive integer rows and come out as integer vectors
over one denominator each; Pfaffians come from fraction-free
skew elimination, O(n^3) integer operations on an n x n matrix in which
each division is exact (Bareiss, Math. Comp. 22, 1968; Knuth, "Overlapping
Pfaffians", Electron. J. Combin. 3(2), 1996).  A rational input has its
denominators cleared once and divided back once, so every value is an
exact rational without a numerical stack.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainMismatch


def _rational(x):
    """x if it is an int or a Fraction, else Fraction(x) (a float, Decimal, '1/2')."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def over_common_denominator(v):
    """(d, w) with w an integer vector and v = w / d, d the least such."""
    v = [_rational(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return d, [x.numerator * (d // x.denominator) for x in v]


def _primitive(w):
    """An integer row divided by the gcd of its entries (same kernel)."""
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def kernel_basis(rows, dim) -> list:
    """Basis of the common kernel of the given functionals on Q^dim.

    ``rows`` is an iterable of length-``dim`` rational vectors.  Returns the
    standard free-column basis from the reduced row echelon form, one vector
    per non-pivot coordinate, each as (d, w): an integer vector w over the
    least positive d, the vector being w / d.  The elimination runs on
    primitive integer rows (p*row - f*pivot_row keeps the kernel), so no
    Fraction is made.
    """
    mat = []
    for row in rows:
        if len(row) != dim:
            raise DomainMismatch(f"row length {len(row)} != dimension {dim}")
        mat.append(_primitive(over_common_denominator(row)[1]))
    pivots = []
    r = 0
    for c in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = _primitive([p * a - f * b for a, b in zip(row, top)])
        pivots.append(c)
        r += 1
    # pivot row i is zero in the other pivot columns: p_i x_pc + sum_free a_ic x_c = 0
    common = lcm(*(mat[i][pc] for i, pc in enumerate(pivots)))
    basis = []
    pivot_set = set(pivots)
    for c in range(dim):
        if c in pivot_set:
            continue
        w = [0] * dim
        w[c] = common
        for i, pc in enumerate(pivots):
            w[pc] = -mat[i][c] * (common // mat[i][pc])
        g = gcd(*w)
        basis.append((common // g, [x // g for x in w]))
    return basis


def restrict_form(matrix, basis) -> list:
    """Pull an antisymmetric form back to a subspace: B^T A B.

    Entries are taken as exact rationals and kept in their own type, so an
    integer A and integer basis vectors give an integer matrix.  Slice bases
    are sparse: the products run over the nonzero entries of u and A u only.
    """
    matrix = [[_rational(x) for x in row] for row in matrix]
    vectors = [[_rational(x) for x in v] for v in basis]
    images = []
    for u in vectors:
        support = [(j, x) for j, x in enumerate(u) if x]
        au = [sum(row[j] * x for j, x in support) for row in matrix]
        images.append([(i, y) for i, y in enumerate(au) if y])
    return [[sum(v[i] * y for i, y in image) for image in images] for v in vectors]


def pfaffian(matrix) -> Fraction:
    """Pfaffian of an antisymmetric rational matrix (0 for odd size, 1 for empty).

    Fraction-free skew elimination, O(n^3) integer operations.  The
    denominators are cleared once, Pf(dA) = d^(n/2) Pf(A).  For k = 0, 2,
    4, ... a nonzero a[k][j] is brought to position (k, k+1) by swapping
    index k+1 with j in rows and columns (each swap flips the sign), and
    with p = a[k][k+1] and q the pivot of the step before (1 at k = 0) the
    trailing block becomes

        a[i][j] <- (p a[i][j] + a[i][k] a[k+1][j] - a[i][k+1] a[k][j]) / q.

    By the Pfaffian form of Sylvester's identity (Knuth, "Overlapping
    Pfaffians", Electron. J. Combin. 3(2), 1996) the new entry is the
    Pfaffian of the cleared (and swapped) matrix on the indices 0..k+1, i, j,
    so the division is exact and every intermediate is an integer, as in
    Bareiss's fraction-free determinant (Math. Comp. 22, 1968).  The last
    pivot is the Pfaffian of the whole cleared matrix.  A row k with no
    nonzero entry right of the diagonal makes the Pfaffian 0; an odd matrix
    always ends at one, its last 1x1 block.  Each step
    works on the trailing block only, a new list, so the input is not
    modified.
    """
    a = [[_rational(x) for x in row] for row in matrix]
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise DomainMismatch("matrix is not square")
        for j in range(i, n):
            if a[i][j] != -a[j][i]:
                raise DomainMismatch("matrix is not antisymmetric")

    d = lcm(*(x.denominator for row in a for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in a]
    sign, pivot = 1, 1
    while a:
        top = a[0]
        j = next((j for j in range(1, len(a)) if top[j]), None)
        if j is None:
            return Fraction(0)
        if j != 1:
            a[1], a[j] = a[j], a[1]
            for row in a:
                row[1], row[j] = row[j], row[1]
            sign = -sign
        p, q = top[1], pivot
        top, below = top[2:], a[1][2:]
        trailing = []
        for row in a[2:]:
            f, h = row[0], row[1]
            trailing.append(
                [(p * x + f * b - h * t) // q for x, b, t in zip(row[2:], below, top)]
            )
        a, pivot = trailing, p
    return Fraction(sign * pivot, d ** (n // 2))
