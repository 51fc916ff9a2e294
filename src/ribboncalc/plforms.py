"""Piecewise-linear 2-forms on cells and their exact fiber integrals.

A hole's form omega_p = sum_{s<t} d(l_s/L_p) ^ d(l_t/L_p) is W/L_p^2 in the
edge coordinates of a cell, with W the integer walk matrix of
sum_{s<t} de_s ^ de_t.  The scales cancel before any linear algebra: on a
fixed-perimeter slice (L_p/2)^2 / L_p^2 = 1/4, so a cell's symplectic
Pfaffian depends only on the cell, not on the metric, and is worked out
once per cell graph; on a fiber simplex
the form's 1/(2 epsilon)^2 per factor meets the volume (2 epsilon)^(2r+2).
What is left is integer: the walk matrices, their sum, the slice vectors
scaled to integers and the chart matrices all have integer entries, their
Pfaffians come from fraction-free elimination, and each answer is one
Fraction built at the end.  Orientation is not pinned down globally, so the
integral routines report magnitudes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from . import exact_linalg
from . import permutations as perms
from .degeneration import cylinder_configurations
from .enumeration import DEFAULT_MAX_SIDES
from .errors import (
    DomainMismatch,
    NotTopCell,
    OddDimension,
    ParityMismatch,
    TooLarge,
    VertexMark,
)
from .ribbon import MarkedMetricGraph, VERTEX


class CellForm:
    """An antisymmetric rational matrix standing for sum A_uv de_u ^ de_v.

    Coordinates are the unoriented edges of a cell, in the order given by
    ``edges`` (or just 0..dim-1 for synthetic forms).
    """

    __slots__ = ("dim", "matrix", "edges")

    def __init__(self, matrix, edges=None):
        a = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        n = len(a)
        for i, row in enumerate(a):
            if len(row) != n:
                raise DomainMismatch("form matrix is not square")
            for j in range(i, n):
                if a[i][j] != -a[j][i]:
                    raise DomainMismatch("form matrix is not antisymmetric")
        self.dim = n
        self.matrix = a
        self.edges = tuple(edges) if edges is not None else None

    def __repr__(self):
        return f"CellForm(dim {self.dim})"


def _add_walk(w, cycle):
    """Add the walk form sum_{s<t} de_s ^ de_t of one hole into the matrix w.

    ``cycle`` lists, per side position, the coordinate index of its edge;
    repeated indices share a differential, so entries accumulate (and a
    repeated pair cancels on the diagonal).
    """
    for t, v in enumerate(cycle):
        for u in cycle[:t]:
            w[u][v] += 1
            w[v][u] -= 1


def _walk_matrix(cycle, n):
    """Integer n x n matrix W of the walk form along one hole (``_add_walk``)."""
    w = [[0] * n for _ in range(n)]
    _add_walk(w, cycle)
    return w


def omega_on_cell(g: MarkedMetricGraph, p) -> CellForm:
    """The p-th hole's form W/L_p^2 on the cell of g, in sorted-edge coordinates.

    The walk of the hole is linearized starting from its least side, as
    ``holes()`` lists it; different starting sides change the matrix only by
    a d(perimeter) term, which dies on every fixed-perimeter slice.
    """
    if not isinstance(g, MarkedMetricGraph):
        raise DomainMismatch("omega_on_cell needs a marked metric graph")
    marking = g.marking
    if p not in marking.targets:
        raise DomainMismatch(f"no marking named {p!r}")
    kind, orbit = marking.targets[p]
    if kind == VERTEX:
        raise VertexMark(f"{p!r} marks a vertex, not a hole")
    perimeter = g.circumference(p)
    edges = sorted(g.graph.edges())
    index = {e: i for i, e in enumerate(edges)}
    walk = perms.orbit_of(g.graph.sigma_inf, min(orbit))
    scale = 1 / perimeter**2
    w = _walk_matrix([index[g.graph.edge_of(x)] for x in walk], len(edges))
    return CellForm([[x * scale for x in row] for row in w], edges)


def _chart_pfaffian(cycle, weight):
    """Pfaffian of weight * B^T W B on the simplex {weight*e_0 + e_1 + ... = c}.

    The chart eliminates e_0 = -(e_1 + ...)/weight, so the restricted
    entries are weight*W_ij - W_0j + W_0i for i, j >= 1, all integers.
    """
    w = _walk_matrix(cycle, max(cycle) + 1)
    top = w[0]
    restricted = [
        [weight * row[j] - top[j] + top[i] for j in range(1, len(row))]
        for i, row in enumerate(w)
        if i
    ]
    return exact_linalg.pfaffian(restricted)


def _check_walk_size(sides):
    """Refuse a hole walk longer than ``DEFAULT_MAX_SIDES`` sides."""
    if sides > DEFAULT_MAX_SIDES:
        raise TooLarge(f"a hole walk of {sides} sides exceeds the limit {DEFAULT_MAX_SIDES}")


def fiber_integral_disk(r, epsilon=Fraction(1)) -> Fraction:
    """Integral of the hole form's (r+1)-st power over the disk fiber.

    The fiber at ``epsilon`` is the simplex where the 2r+3 distinct edge
    lengths of the hole sum to 2*epsilon.  The form's 1/(2 epsilon)^2 per
    factor cancels the simplex volume (2 epsilon)^(2r+2), so the value is
    (r+1)! |Pf| / (2r+2)! with Pf the integer chart Pfaffian; epsilon is
    checked but does not enter.  The Pfaffian costs O(r^3), so a hole walk
    of more than ``DEFAULT_MAX_SIDES`` sides raises ``TooLarge``.
    """
    if r < 0:
        raise DomainMismatch(f"negative excess {r}")
    if Fraction(epsilon) <= 0:
        raise DomainMismatch("epsilon must be positive")
    _check_walk_size(2 * r + 3)
    pf = _chart_pfaffian(range(2 * r + 3), 1)
    return factorial(r + 1) * abs(pf) / factorial(2 * r + 2)


def fiber_integral_cyl(v1, v2, epsilon=Fraction(1)) -> Fraction:
    """Integral of the hole form's power over the cylinder fiber.

    The doubled edge contributes twice to the perimeter (2e_0 + sum e_j =
    2*epsilon); the fiber is a union of top simplices, one per local model
    from the stratum inventory, and the integrals add.  Models that share a
    side sequence have the same form, so each distinct sequence is
    integrated once and counted with its multiplicity.  As on the disk,
    epsilon cancels; the chart weight 2 leaves a further 1/2^(r+1).  The
    inventory holds v1*v2 models, so a hole walk of more than
    ``DEFAULT_MAX_SIDES`` sides (v1 + v2 + 4) raises ``TooLarge`` before it
    is built.
    """
    if v1 < 1 or v2 < 1:
        raise DomainMismatch("cylinder arcs need v1, v2 >= 1")
    if (v1 + v2) % 2 == 1:
        raise ParityMismatch(f"split ({v1}, {v2}) has odd total")
    if Fraction(epsilon) <= 0:
        raise DomainMismatch("epsilon must be positive")
    _check_walk_size(v1 + v2 + 4)
    r = (v1 + v2) // 2
    scale = Fraction(factorial(r + 1), 2 ** (r + 1) * factorial(2 * r + 2))
    cycles = Counter(config["cycle"] for config in cylinder_configurations(v1, v2))
    return sum(
        count * abs(_chart_pfaffian(cycle, 2)) * scale
        for cycle, count in cycles.items()
    )


def nondegeneracy_check(g: MarkedMetricGraph):
    """Whether the perimeter-weighted total form is symplectic on the cell.

    Restricts sum_p (L_p/2)^2 omega_p to the fixed-perimeter slice and
    returns (Pfaffian != 0, Pfaffian).  Each term is W_p/4 since the
    perimeters cancel, so the form is M/4 with M the integer sum of the walk
    matrices, built in one matrix.  The slice is the kernel of the perimeter
    rows; its basis vector v_i = w_i/d_i is an integer vector w_i over its
    own denominator, so the restriction W^T M W is an integer matrix and, on
    a slice of dimension 2k, the Pfaffian is Pf(W^T M W) / (4^k prod d_i),
    with that quotient the only division.  It depends only on the cell
    graph, never on the metric or on which label marks which hole, so the
    graph keeps it (``_pfaffian``) and a later call on any metric or
    labelling of that graph reads it.  Only top cells qualify: trivalent
    with every marking on a hole, which every call checks.
    """
    if not isinstance(g, MarkedMetricGraph):
        raise DomainMismatch("nondegeneracy_check needs a marked metric graph")
    graph = g.graph
    if any(len(v) != 3 for v in graph.vertices()):
        raise NotTopCell("cell is not trivalent")
    if g.marking.vertex_labels():
        raise NotTopCell("vertex markings land outside the top stratum")
    if graph._pfaffian is None:
        graph._pfaffian = _slice_pfaffian(graph)
    pf = graph._pfaffian
    return pf != 0, pf


def _slice_pfaffian(graph):
    """The Pfaffian of ``nondegeneracy_check`` on a trivalent graph."""
    edges = sorted(graph.edges())
    n = len(edges)
    index = {e: i for i, e in enumerate(edges)}
    total = [[0] * n for _ in range(n)]
    perimeter_rows = []
    for walk in graph.holes():
        cycle = [index[graph.edge_of(x)] for x in walk]
        _add_walk(total, cycle)
        perimeter_rows.append([cycle.count(i) for i in range(n)])

    slice_basis = exact_linalg.kernel_basis(perimeter_rows, n)
    k, odd = divmod(len(slice_basis), 2)
    if odd:
        raise OddDimension(
            f"fixed-perimeter slice has odd dimension {len(slice_basis)}"
        )
    restricted = exact_linalg.restrict_form(total, [w for _, w in slice_basis])
    return exact_linalg.pfaffian(restricted) / (4**k * prod(d for d, _ in slice_basis))
