"""Small exact linear algebra over Fraction: kernels, restriction, Pfaffians.

The matrices that show up are antisymmetric forms on cell coordinates.
Pfaffians come from skew-symmetric Gaussian elimination, O(n^3) exact
operations on an n x n matrix, so every value stays an exact rational
without a numerical stack.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainMismatch


def kernel_basis(rows, dim) -> list:
    """Basis of the common kernel of the given functionals on Q^dim.

    ``rows`` is an iterable of length-``dim`` rational vectors.  Returns the
    standard free-column basis from the reduced row echelon form, one vector
    per non-pivot coordinate.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    for row in mat:
        if len(row) != dim:
            raise DomainMismatch(f"row length {len(row)} != dimension {dim}")
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
    pivot_set = set(pivots)
    for c in range(dim):
        if c in pivot_set:
            continue
        vec = [Fraction(0)] * dim
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][c]
        basis.append(vec)
    return basis


def restrict_form(matrix, basis) -> list:
    """Pull an antisymmetric form back to a subspace: B^T A B.

    Slice bases are sparse (two nonzero entries per simplex chart vector),
    so the products run over the nonzero entries of u and A u only.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    zero = Fraction(0)
    out = []
    for u in basis:
        support = [(j, x) for j, x in enumerate(u) if x]
        au = [sum((row[j] * x for j, x in support), zero) for row in a]
        image = [(i, y) for i, y in enumerate(au) if y]
        out.append([sum((v[i] * y for i, y in image), zero) for v in basis])
    # out[i][j] currently holds v_j^T A u_i; transpose into row-major B^T A B
    return [[out[j][i] for j in range(len(basis))] for i in range(len(basis))]


def pfaffian(matrix) -> Fraction:
    """Pfaffian of an antisymmetric rational matrix (0 for odd size, 1 for empty).

    Skew-symmetric Gaussian elimination (Parlett-Reid), O(n^3) exact
    operations: for k = 0, 2, 4, ... bring a nonzero a[k][j] to position
    (k, k+1) by swapping index k+1 with j in rows and columns (each swap
    flips the sign), take the pivot p = a[k][k+1] as a factor, and replace
    the trailing block by its Schur complement
    a[i][j] += (a[i][k] a[k+1][j] - a[i][k+1] a[k][j]) / p, which has the
    remaining Pfaffian.  A row k with no nonzero entry right of the
    diagonal makes the Pfaffian 0.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise DomainMismatch("matrix is not square")
        for j in range(i, n):
            if a[i][j] != -a[j][i]:
                raise DomainMismatch("matrix is not antisymmetric")
    if n % 2 == 1:
        return Fraction(0)

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
