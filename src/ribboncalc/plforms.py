"""Piecewise-linear 2-forms on cells and their exact fiber integrals.

A hole's form has constant rational coefficients in the edge coordinates of
a cell, so wedge powers reduce to Pfaffians and integrals over simplices to
a coefficient times an exact volume.  Everything stays in Fraction land;
orientation is not pinned down globally, so the integral routines report
magnitudes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial

from . import exact_linalg
from .degeneration import cylinder_configurations
from .errors import (
    DomainMismatch,
    NotTopCell,
    OddDimension,
    ParityMismatch,
    VertexMark,
    ZeroPerimeter,
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


def _walk_form(cycle, n_coords, perimeter):
    """Matrix of sum_{s<t} d(e_s/perimeter) ^ d(e_t/perimeter).

    ``cycle`` lists, per side position, the coordinate index of its edge;
    repeated indices share a differential, so entries accumulate.
    """
    m = [[Fraction(0)] * n_coords for _ in range(n_coords)]
    k = len(cycle)
    for s in range(k):
        for t in range(s + 1, k):
            u, v = cycle[s], cycle[t]
            if u == v:
                continue
            m[u][v] += 1
            m[v][u] -= 1
    scale = Fraction(1) / (Fraction(perimeter) ** 2)
    return [[x * scale for x in row] for row in m]


def omega_on_cell(g: MarkedMetricGraph, p) -> CellForm:
    """The p-th hole's form on the cell of g, in sorted-edge coordinates.

    The walk of the hole is linearized starting from its canonical tuple;
    different starting sides change the matrix only by a d(perimeter) term,
    which dies on every fixed-perimeter slice.
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
    if perimeter == 0:
        raise ZeroPerimeter(f"hole {p!r} has zero perimeter")
    edges = sorted(g.graph.edges())
    index = {e: i for i, e in enumerate(edges)}
    walk = next(h for h in g.graph.holes() if frozenset(h) == orbit)
    cycle = [index[g.graph.edge_of(x)] for x in walk]
    return CellForm(_walk_form(cycle, len(edges), perimeter), edges)


def wedge_power_top(form: CellForm, k, subspace):
    """Coefficient of form^k against the basis volume of an even slice.

    ``subspace`` is a list of rational vectors in the form's coordinates.
    The result is k! times the Pfaffian of the restricted matrix; its sign
    depends on the basis order, its magnitude only on the subspace up to
    unimodular change.
    """
    if k < 0:
        raise DomainMismatch(f"wedge power {k} is negative")
    vectors = [list(v) for v in subspace]
    for v in vectors:
        if len(v) != form.dim:
            raise DomainMismatch(
                f"slice vector length {len(v)} != form dimension {form.dim}"
            )
    if len(vectors) % 2 == 1:
        raise OddDimension(f"slice dimension {len(vectors)} is odd")
    if len(vectors) != 2 * k:
        raise DomainMismatch(
            f"form^{k} needs a slice of dimension {2 * k}, got {len(vectors)}"
        )
    if k == 0:
        return Fraction(1)
    restricted = exact_linalg.restrict_form(form.matrix, vectors)
    return factorial(k) * exact_linalg.pfaffian(restricted)


def _simplex_chart(n_coords, first_weight):
    """Tangent basis of {weight*e_0 + e_1 + ... = const} eliminating e_0."""
    basis = []
    for i in range(1, n_coords):
        v = [Fraction(0)] * n_coords
        v[0] = -Fraction(1, first_weight)
        v[i] = Fraction(1)
        basis.append(v)
    return basis


def fiber_integral_disk(r, epsilon=Fraction(1)) -> Fraction:
    """Integral of the hole form's (r+1)-st power over the disk fiber.

    The fiber at ``epsilon`` is the simplex where the 2r+3 distinct edge
    lengths of the hole sum to 2*epsilon.  The value comes out of an exact
    Pfaffian times the simplex volume and does not depend on epsilon.
    """
    if r < 0:
        raise DomainMismatch(f"negative excess {r}")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainMismatch("epsilon must be positive")
    n = 2 * r + 3
    form = CellForm(_walk_form(list(range(n)), n, 2 * eps))
    coeff = wedge_power_top(form, r + 1, _simplex_chart(n, 1))
    volume = (2 * eps) ** (n - 1) / factorial(n - 1)
    return abs(coeff) * volume


def fiber_integral_cyl(v1, v2, epsilon=Fraction(1)) -> Fraction:
    """Integral of the hole form's power over the cylinder fiber.

    The doubled edge contributes twice to the perimeter (2e_0 + sum e_j =
    2*epsilon); the fiber is a union of top simplices, one per local model
    from the stratum inventory, and the integrals add.  Models that share a
    side sequence have the same form, so each distinct sequence is
    integrated once and counted with its multiplicity.
    """
    if v1 < 1 or v2 < 1:
        raise DomainMismatch("cylinder arcs need v1, v2 >= 1")
    if (v1 + v2) % 2 == 1:
        raise ParityMismatch(f"split ({v1}, {v2}) has odd total")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainMismatch("epsilon must be positive")
    r = (v1 + v2) // 2
    n = 2 * r + 3
    volume = (2 * eps) ** (2 * r + 2) / factorial(2 * r + 2)
    chart = _simplex_chart(n, 2)
    cycles = Counter(config["cycle"] for config in cylinder_configurations(v1, v2))
    total = Fraction(0)
    for cycle, count in cycles.items():
        form = CellForm(_walk_form(cycle, n, 2 * eps))
        coeff = wedge_power_top(form, r + 1, chart)
        total += count * abs(coeff) * volume
    return total


def nondegeneracy_check(g: MarkedMetricGraph):
    """Whether the perimeter-weighted total form is symplectic on the cell.

    Restricts sum_p l_p^2 omega_p to the fixed-perimeter slice and returns
    (Pfaffian != 0, Pfaffian).  Only top cells qualify: trivalent with
    every marking on a hole.
    """
    if not isinstance(g, MarkedMetricGraph):
        raise DomainMismatch("nondegeneracy_check needs a marked metric graph")
    graph, marking = g.graph, g.marking
    if any(len(v) != 3 for v in graph.vertices()):
        raise NotTopCell("cell is not trivalent")
    if marking.vertex_labels():
        raise NotTopCell("vertex markings land outside the top stratum")

    edges = sorted(graph.edges())
    index = {e: i for i, e in enumerate(edges)}
    total = [[Fraction(0)] * len(edges) for _ in range(len(edges))]
    perimeter_rows = []
    for p in marking.hole_labels():
        weight = (g.circumference(p) / 2) ** 2
        form = omega_on_cell(g, p)
        for total_row, row in zip(total, form.matrix):
            for j, entry in enumerate(row):
                if entry:
                    total_row[j] += weight * entry
        row = [Fraction(0)] * len(edges)
        for x in marking.orbit(p):
            row[index[graph.edge_of(x)]] += 1
        perimeter_rows.append(row)

    slice_basis = exact_linalg.kernel_basis(perimeter_rows, len(edges))
    if len(slice_basis) % 2 == 1:
        raise OddDimension(
            f"fixed-perimeter slice has odd dimension {len(slice_basis)}"
        )
    restricted = exact_linalg.restrict_form(total, slice_basis)
    pf = exact_linalg.pfaffian(restricted)
    return pf != 0, pf
