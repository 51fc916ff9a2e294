"""Small exact linear algebra over Fraction: kernels, restriction, Pfaffians.

The matrices that show up are antisymmetric forms on cell coordinates,
mostly integer; kernels and restrictions keep integers as integers.
Pfaffians come from skew-symmetric Gaussian elimination, O(n^3) exact
operations on an n x n matrix, so every value stays an exact rational
without a numerical stack.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainMismatch


def _rational(x):
    """x if it is an int or a Fraction, else Fraction(x) (a float, Decimal, '1/2')."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _over_common_denominator(v):
    """(d, w) with w an integer vector and v = w / d."""
    v = [_rational(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return d, [x.numerator * (d // x.denominator) for x in v]


def _primitive(v):
    """The integer multiple of a rational row with coprime entries (same kernel)."""
    w = _over_common_denominator(v)[1]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def kernel_basis(rows, dim) -> list:
    """Basis of the common kernel of the given functionals on Q^dim.

    ``rows`` is an iterable of length-``dim`` rational vectors.  Returns the
    standard free-column basis from the reduced row echelon form, one vector
    per non-pivot coordinate.  The elimination runs on primitive integer
    rows (p*row - f*pivot_row keeps the kernel) and divides once at the end.
    """
    mat = []
    for row in rows:
        if len(row) != dim:
            raise DomainMismatch(f"row length {len(row)} != dimension {dim}")
        mat.append(_primitive(row))
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
    basis = []
    pivot_set = set(pivots)
    for c in range(dim):
        if c in pivot_set:
            continue
        vec = [Fraction(0)] * dim
        vec[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-mat[i][c], mat[i][pc])
        basis.append(vec)
    return basis


def restrict_form(matrix, basis) -> list:
    """Pull an antisymmetric form back to a subspace: B^T A B.

    Each basis vector is an integer vector over a common denominator, so an
    integer A stays integer up to one division per entry.  Slice bases are
    sparse: the products run over the nonzero entries of u and A u only.
    """
    matrix = [[_rational(x) for x in row] for row in matrix]
    scaled = [_over_common_denominator(v) for v in basis]
    images = []
    for d, u in scaled:
        support = [(j, x) for j, x in enumerate(u) if x]
        au = [sum(row[j] * x for j, x in support) for row in matrix]
        images.append((d, [(i, y) for i, y in enumerate(au) if y]))
    return [
        [Fraction(sum(v[i] * y for i, y in image), dv * du) for du, image in images]
        for dv, v in scaled
    ]


def pfaffian(matrix) -> Fraction:
    """Pfaffian of an antisymmetric rational matrix (0 for odd size, 1 for empty).

    Skew-symmetric Gaussian elimination (Parlett-Reid), O(n^3) exact
    operations: for k = 0, 2, 4, ... bring a nonzero a[k][j] to position
    (k, k+1) by swapping index k+1 with j in rows and columns (each swap
    flips the sign), take the pivot p = a[k][k+1] as a factor, and replace
    the trailing block by its Schur complement
    a[i][j] += (a[i][k] a[k+1][j] - a[i][k+1] a[k][j]) / p, which has the
    remaining Pfaffian.  A row k with no nonzero entry right of the
    diagonal makes the Pfaffian 0; the last row of an odd matrix is one.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    for i in range(n):
        if len(a[i]) != n:
            raise DomainMismatch("matrix is not square")
        for j in range(i, n):
            if a[i][j] != -a[j][i]:
                raise DomainMismatch("matrix is not antisymmetric")

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
