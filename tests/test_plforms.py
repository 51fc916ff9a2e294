import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fresh_copy, mark_all_holes
from ribboncalc import enumeration, exact_linalg
from ribboncalc.errors import (
    DomainMismatch,
    NotTopCell,
    OddDimension,
    ParityMismatch,
    VertexMark,
)
from ribboncalc.plforms import (
    CellForm,
    _walk_matrix,
    fiber_integral_cyl,
    fiber_integral_disk,
    nondegeneracy_check,
    omega_on_cell,
)
from ribboncalc.ribbon import (
    HOLE,
    VERTEX,
    Marking,
    MarkedMetricGraph,
    validate,
)

TORUS_CELL = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])
THETA = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 6), (3, 5)])
# two bigon circles tied together by a doubled edge (1,7) and an outer edge
# (6,12); the hole (1,9,10,7,3,4) runs through (1,7) twice
CYL = validate(
    [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)],
    [(1, 7), (2, 4), (3, 5), (8, 10), (9, 11), (6, 12)],
)

F = Fraction


def metric(graph, labels, lengths):
    marking = mark_all_holes(graph, labels)
    return MarkedMetricGraph(graph, marking, lengths)


def uniform_metric(graph, labels, value=F(1)):
    return metric(graph, labels, {e: value for e in graph.edges()})


def random_lengths(rng, graph):
    return {e: F(rng.randint(1, 48), rng.randint(1, 48)) for e in graph.edges()}


# --- the Fraction path the integer walk matrices replaced, kept as an oracle ---


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


def perimeter_row(g, label):
    """Edge multiplicities of a hole's walk, in sorted-edge coordinates."""
    edges = sorted(g.graph.edges())
    index = {e: i for i, e in enumerate(edges)}
    row = [F(0)] * len(edges)
    for x in g.marking.orbit(label):
        row[index[g.graph.edge_of(x)]] += 1
    return row


class TestCellForm:
    def test_accepts_antisymmetric_ints(self):
        f = CellForm([[0, 1], [-1, 0]])
        assert f.dim == 2
        assert f.matrix == ((F(0), F(1)), (F(-1), F(0)))
        assert f.edges is None

    def test_rejects_non_square(self):
        with pytest.raises(DomainMismatch):
            CellForm([[0, 1]])

    def test_rejects_symmetric(self):
        with pytest.raises(DomainMismatch):
            CellForm([[0, 1], [1, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainMismatch):
            CellForm([[1]])


class TestOmegaOnCell:
    def test_theta_two_sided_hole(self):
        # hole a = (1, 6) uses edges (1,4) and (2,6) once each; with all
        # lengths 1/4 the perimeter is 1/2, so the single pair scales to 4
        g = uniform_metric(THETA, ["a", "b", "c"], F(1, 4))
        form = omega_on_cell(g, "a")
        assert form.edges == ((1, 4), (2, 6), (3, 5))
        assert form.matrix == (
            (F(0), F(4), F(0)),
            (F(-4), F(0), F(0)),
            (F(0), F(0), F(0)),
        )

    def test_torus_hole_with_repeated_edges(self):
        # walk (1,6,2,4,3,5) hits every edge twice: positions accumulate to
        # entries 2, 2, -2 before the 1/perimeter^2 = 1/36 scaling
        g = uniform_metric(TORUS_CELL, ["p"])
        form = omega_on_cell(g, "p")
        assert form.matrix == (
            (F(0), F(1, 18), F(1, 18)),
            (F(-1, 18), F(0), F(-1, 18)),
            (F(-1, 18), F(1, 18), F(0)),
        )

    def test_scales_with_inverse_square_perimeter(self):
        small = uniform_metric(TORUS_CELL, ["p"], F(1, 5))
        big = uniform_metric(TORUS_CELL, ["p"], F(2))
        ratio = F(10) ** 2
        for r1, r2 in zip(omega_on_cell(small, "p").matrix,
                          omega_on_cell(big, "p").matrix):
            assert tuple(x / ratio for x in r1) == r2

    def test_two_sided_hole_dies_on_its_perimeter_slice(self):
        g = uniform_metric(THETA, ["a", "b", "c"], F(1, 4))
        form = omega_on_cell(g, "a")
        basis = exact_linalg.kernel_basis([perimeter_row(g, "a")], 3)
        restricted = exact_linalg.restrict_form(form.matrix, [w for _, w in basis])
        assert all(x == 0 for row in restricted for x in row)

    @pytest.mark.parametrize("graph,labels,label", [
        (TORUS_CELL, ["p"], "p"),
        (THETA, ["a", "b", "c"], "a"),
        (CYL, ["q", "p"], "q"),
    ])
    def test_walk_rotation_invisible_on_perimeter_slice(self, graph, labels, label):
        # relinearizing the walk at another side shifts the matrix by a
        # d(perimeter) wedge, so the difference must vanish on the slice
        g = uniform_metric(graph, labels)
        edges = sorted(graph.edges())
        index = {e: i for i, e in enumerate(edges)}
        orbit = g.marking.orbit(label)
        walk = next(h for h in graph.holes() if frozenset(h) == orbit)
        cycle = [index[graph.edge_of(x)] for x in walk]
        per = g.circumference(label)
        base = _walk_form(cycle, len(edges), per)
        basis = exact_linalg.kernel_basis([perimeter_row(g, label)], len(edges))
        for shift in range(1, len(cycle)):
            turned = _walk_form(cycle[shift:] + cycle[:shift], len(edges), per)
            diff = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(base, turned)]
            restricted = exact_linalg.restrict_form(diff, [w for _, w in basis])
            assert all(x == 0 for row in restricted for x in row)

    def test_rejects_unknown_label(self):
        g = uniform_metric(THETA, ["a", "b", "c"])
        with pytest.raises(DomainMismatch):
            omega_on_cell(g, "z")

    def test_rejects_vertex_label(self):
        marking = Marking(THETA, {
            "a": (HOLE, frozenset({1, 6})),
            "b": (HOLE, frozenset({2, 5})),
            "c": (HOLE, frozenset({3, 4})),
            "z": (VERTEX, frozenset({1, 2, 3})),
        })
        g = MarkedMetricGraph(THETA, marking, {e: F(1) for e in THETA.edges()})
        with pytest.raises(VertexMark):
            omega_on_cell(g, "z")

    def test_rejects_bare_graph(self):
        with pytest.raises(DomainMismatch):
            omega_on_cell(THETA, "a")


class TestWedgePowerTop:
    def test_zeroth_power_is_one(self):
        form = CellForm([[0, 1], [-1, 0]])
        assert wedge_power_top(form, 0, []) == 1

    def test_standard_symplectic_pair(self):
        j4 = CellForm([
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ])
        eye = [[F(i == j) for j in range(4)] for i in range(4)]
        assert wedge_power_top(j4, 2, eye) == 2

    def test_odd_slice_rejected(self):
        form = CellForm([[0, 1], [-1, 0]])
        with pytest.raises(OddDimension):
            wedge_power_top(form, 1, [[1, 0]])

    def test_dimension_mismatch_rejected(self):
        form = CellForm([[0, 1], [-1, 0]])
        with pytest.raises(DomainMismatch):
            wedge_power_top(form, 2, [[1, 0], [0, 1]])

    def test_wrong_vector_length_rejected(self):
        form = CellForm([[0, 1], [-1, 0]])
        with pytest.raises(DomainMismatch):
            wedge_power_top(form, 1, [[1, 0, 0], [0, 1, 0]])

    def test_negative_power_rejected(self):
        form = CellForm([[0, 1], [-1, 0]])
        with pytest.raises(DomainMismatch):
            wedge_power_top(form, -1, [])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_magnitude_survives_unimodular_basis_change(self, data):
        k = data.draw(st.integers(1, 2))
        n = 2 * k + data.draw(st.integers(0, 2))
        upper = [
            [data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)
        ]
        mat = [
            [upper[i][j] if i < j else -upper[j][i] if j < i else 0
             for j in range(n)]
            for i in range(n)
        ]
        form = CellForm(mat)
        basis = [[F(i == j) for j in range(n)] for i in range(2 * k)]
        before = abs(wedge_power_top(form, k, basis))
        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(["shear", "swap", "negate"]))
            i = data.draw(st.integers(0, 2 * k - 1))
            j = data.draw(st.integers(0, 2 * k - 1))
            if op == "shear" and i != j:
                c = data.draw(st.integers(-3, 3))
                basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
            elif op == "swap":
                basis[i], basis[j] = basis[j], basis[i]
            else:
                basis[i] = [-a for a in basis[i]]
        assert abs(wedge_power_top(form, k, basis)) == before


class TestFiberIntegralDisk:
    @pytest.mark.parametrize("r,value", [
        (0, F(1, 2)),
        (1, F(1, 12)),
        (2, F(1, 120)),
    ])
    def test_small_excess_values(self, r, value):
        assert fiber_integral_disk(r) == value

    # r = 13 is a hole walk of 29 sides and needs a 28 x 28 Pfaffian
    @pytest.mark.parametrize("r", range(14))
    @pytest.mark.parametrize("eps", [F(1, 3), F(1), F(7, 2)])
    def test_closed_form_and_epsilon_independence(self, r, eps):
        assert fiber_integral_disk(r, eps) == F(
            factorial(r + 1), factorial(2 * r + 2)
        )

    def test_negative_excess_rejected(self):
        with pytest.raises(DomainMismatch):
            fiber_integral_disk(-1)

    @pytest.mark.parametrize("eps", [0, F(-1, 2)])
    def test_bad_epsilon_rejected(self, eps):
        with pytest.raises(DomainMismatch):
            fiber_integral_disk(1, eps)


class TestFiberIntegralCyl:
    @pytest.mark.parametrize("v1,v2,value", [
        (1, 1, F(1, 12)),
        (2, 2, F(0)),
        (1, 3, F(1, 40)),
        (3, 1, F(1, 40)),
    ])
    def test_small_split_values(self, v1, v2, value):
        assert fiber_integral_cyl(v1, v2) == value

    def test_vanishes_exactly_on_even_splits(self):
        # no parity branch in the implementation: the zero has to come out
        # of the Pfaffians themselves
        for v1 in range(1, 8):
            for v2 in range(1, 8):
                if v1 + v2 > 8 or (v1 + v2) % 2 == 1:
                    continue
                val = fiber_integral_cyl(v1, v2)
                assert (val == 0) == (v1 % 2 == 0)
                assert val == fiber_integral_cyl(v2, v1)

    def test_closed_form_on_every_split_up_to_twenty_six(self):
        # v1*v2 local models, each worth (r+1)!/(2r+2)! when v1 is odd; at
        # v1 + v2 = 26 the hole walk has 30 sides, the limit
        splits = [
            (v1, v2)
            for v1 in range(1, 26)
            for v2 in range(1, 27 - v1)
            if (v1 + v2) % 2 == 0
        ]
        assert len(splits) == 169
        for v1, v2 in splits:
            r = (v1 + v2) // 2
            law = F(v1 * v2 * factorial(r + 1), factorial(2 * r + 2))
            assert fiber_integral_cyl(v1, v2) == (law if v1 % 2 == 1 else 0)

    def test_one_pfaffian_per_distinct_side_sequence(self, monkeypatch):
        calls = []
        real = exact_linalg.pfaffian

        def counting(matrix):
            calls.append(len(matrix))
            return real(matrix)

        monkeypatch.setattr(exact_linalg, "pfaffian", counting)
        assert fiber_integral_cyl(7, 7) == F(49 * factorial(8), factorial(16))
        assert calls == [16]

    def test_epsilon_independence(self):
        assert fiber_integral_cyl(1, 3, F(1, 3)) == fiber_integral_cyl(1, 3, F(2))

    def test_odd_total_rejected(self):
        with pytest.raises(ParityMismatch):
            fiber_integral_cyl(1, 2)

    @pytest.mark.parametrize("v1,v2", [(0, 2), (1, 0), (-1, 3)])
    def test_degenerate_split_rejected(self, v1, v2):
        with pytest.raises(DomainMismatch):
            fiber_integral_cyl(v1, v2)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(DomainMismatch):
            fiber_integral_cyl(1, 1, 0)


class TestNondegeneracy:
    def test_three_holes_sphere_slice_is_a_point(self):
        # three perimeters cut the three edge lengths down to a point, and
        # the empty Pfaffian is 1
        for value in (F(1), F(3, 7)):
            g = uniform_metric(THETA, ["a", "b", "c"], value)
            assert nondegeneracy_check(g) == (True, F(1))

    def test_torus_cell_value(self):
        g = uniform_metric(TORUS_CELL, ["p"])
        assert nondegeneracy_check(g) == (True, F(-1, 2))

    def test_slice_vectors_with_denominators_are_divided_back(self, monkeypatch):
        # the free-column slice basis of a top cell is integer; a basis change
        # of determinant 1 that doubles one vector and halves the other gives
        # the halved vector a denominator 2, and the Pfaffian must not move
        real = exact_linalg.kernel_basis
        ran = []

        def rescaled(rows, dim):
            ran.append(dim)
            (d1, w1), (d2, w2), *rest = real(rows, dim)
            return [(d1, [2 * x for x in w1]), (2 * d2, w2), *rest]

        monkeypatch.setattr(exact_linalg, "kernel_basis", rescaled)
        # a fresh graph: TORUS_CELL may already keep its Pfaffian
        g = uniform_metric(fresh_copy(TORUS_CELL), ["p"])
        assert nondegeneracy_check(g) == (True, F(-1, 2))
        assert ran == [3]

    def test_all_small_top_cells_are_symplectic(self):
        # the restricted form has constant coefficients, so the Pfaffian
        # must not react to the metric either
        rng = random.Random(20260815)
        trials = 0
        for g, labels in [(0, "abc"), (0, "abcd"), (1, "p"), (1, "pq")]:
            profile = enumeration.Profile.from_valencies(
                [3] * (4 * g - 4 + 2 * len(labels))
            )
            for cell in enumeration.enumerate(g, list(labels), profile):
                seen = set()
                for _ in range(2):
                    mg = MarkedMetricGraph(
                        cell.graph, cell.marking, random_lengths(rng, cell.graph)
                    )
                    ok, pf = nondegeneracy_check(mg)
                    assert ok and pf != 0
                    seen.add(pf)
                    trials += 1
                assert len(seen) == 1
        assert trials >= 100

    def test_rejects_non_trivalent_cell(self):
        square = validate([(1, 2, 3, 4)], [(1, 3), (2, 4)])
        g = uniform_metric(square, ["a"])
        with pytest.raises(NotTopCell):
            nondegeneracy_check(g)

    def test_rejects_vertex_marked_cell(self):
        marking = Marking(THETA, {
            "a": (HOLE, frozenset({1, 6})),
            "b": (HOLE, frozenset({2, 5})),
            "c": (HOLE, frozenset({3, 4})),
            "z": (VERTEX, frozenset({1, 2, 3})),
        })
        g = MarkedMetricGraph(THETA, marking, {e: F(1) for e in THETA.edges()})
        with pytest.raises(NotTopCell):
            nondegeneracy_check(g)

    def test_rejects_bare_graph(self):
        with pytest.raises(DomainMismatch):
            nondegeneracy_check(THETA)


def top_cells(g, n):
    labels = [f"p{i}" for i in range(1, n + 1)]
    tops = enumeration.enumerate_all_cells(g, labels, max_excess=0)
    return [cell for _, classes in sorted(tops.items()) for cell in classes]


def hole_cycle(g, label):
    """The hole's walk as sorted-edge indices, from its canonical tuple."""
    edges = sorted(g.graph.edges())
    index = {e: i for i, e in enumerate(edges)}
    orbit = g.marking.orbit(label)
    walk = next(h for h in g.graph.holes() if frozenset(h) == orbit)
    return [index[g.graph.edge_of(x)] for x in walk]


def fraction_path_pfaffian(g):
    """Pfaffian of sum_p (L_p/2)^2 omega_p on the slice, every form in Fraction."""
    n = g.graph.n_edges()
    total = [[F(0)] * n for _ in range(n)]
    for p in g.marking.hole_labels():
        perimeter = g.circumference(p)
        weight = (perimeter / 2) ** 2
        form = _walk_form(hole_cycle(g, p), n, perimeter)
        total = [
            [a + weight * b for a, b in zip(r1, r2)] for r1, r2 in zip(total, form)
        ]
    rows = [perimeter_row(g, p) for p in g.marking.hole_labels()]
    basis = [[F(x, d) for x in w] for d, w in exact_linalg.kernel_basis(rows, n)]
    return exact_linalg.pfaffian(exact_linalg.restrict_form(total, basis))


class TestWalkMatrix:
    def test_torus_hole(self):
        # the walk (1,6,2,4,3,5) meets edges 0, 2, 1, 0, 2, 1; the entries
        # 2, 2, -2 are those of omega before its 1/36 scaling
        assert _walk_matrix([0, 2, 1, 0, 2, 1], 3) == [
            [0, 2, 2], [-2, 0, -2], [-2, 2, 0],
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    def test_is_the_walk_form_at_unit_perimeter(self, cycle):
        assert _walk_matrix(cycle, 6) == _walk_form(cycle, 6, 1)


class TestAgainstTheFractionPath:
    """The integer walk matrices against the metric-weighted Fraction forms.

    The new code cancels the perimeter and epsilon weights before any
    linear algebra, so metric independence holds by construction; these
    tests check it against the path that carried the weights.
    """

    @pytest.mark.parametrize("g,n", [(0, 4), (1, 2)])
    def test_omega_matches_the_walk_form(self, g, n):
        rng = random.Random(20261018)
        for cell in top_cells(g, n):
            mg = MarkedMetricGraph(
                cell.graph, cell.marking, random_lengths(rng, cell.graph)
            )
            for p in mg.marking.hole_labels():
                want = _walk_form(hole_cycle(mg, p), mg.graph.n_edges(),
                                  mg.circumference(p))
                assert omega_on_cell(mg, p).matrix == CellForm(want).matrix

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2)])
    def test_nondegeneracy_matches_the_weighted_total_form(self, g, n):
        rng = random.Random(20261018 + 10 * g + n)
        for cell in top_cells(g, n):
            edges = sorted(cell.graph.edges())
            metrics = [random_lengths(rng, cell.graph) for _ in range(3)]
            # one edge 48^2 times longer or shorter than the rest
            metrics.append({e: F(48) if e == edges[0] else F(1, 48) for e in edges})
            metrics.append({e: F(1, 48) if e == edges[0] else F(48) for e in edges})
            for lengths in metrics:
                mg = MarkedMetricGraph(cell.graph, cell.marking, lengths)
                want = fraction_path_pfaffian(mg)
                assert want != 0
                assert nondegeneracy_check(mg) == (True, want)

    @pytest.mark.parametrize("g,n", [(0, 4), (1, 2), (2, 1)])
    def test_a_kept_pfaffian_matches_fresh_metrics(self, g, n):
        # the first call keeps the Pfaffian on the cell graph; three more
        # metrics must read the value the weighted Fraction path gives them
        rng = random.Random(20261020 + 10 * g + n)
        for cell in top_cells(g, n):
            first = MarkedMetricGraph(cell.graph, cell.marking, random_lengths(rng, cell.graph))
            nondegeneracy_check(first)
            assert cell.graph._pfaffian is not None
            for _ in range(3):
                mg = MarkedMetricGraph(cell.graph, cell.marking, random_lengths(rng, cell.graph))
                assert nondegeneracy_check(mg) == (True, fraction_path_pfaffian(mg))

    @pytest.mark.parametrize("eps", [F(1, 3), F(1), F(7, 2)])
    def test_disk_matches_the_wedge_power(self, eps):
        for r in range(13):
            n = 2 * r + 3
            form = CellForm(_walk_form(list(range(n)), n, 2 * eps))
            coeff = wedge_power_top(form, r + 1, _simplex_chart(n, 1))
            volume = (2 * eps) ** (n - 1) / factorial(n - 1)
            assert fiber_integral_disk(r, eps) == abs(coeff) * volume

    @pytest.mark.parametrize("eps", [F(1, 3), F(1), F(7, 2)])
    def test_cylinder_matches_the_wedge_power(self, eps):
        splits = 0
        for v1 in range(1, 16):
            for v2 in range(1, 17 - v1):
                if (v1 + v2) % 2 == 1:
                    continue
                n = v1 + v2 + 3
                cycle = [0, *range(1, v1 + 2), 0, *range(v1 + 2, n)]
                form = CellForm(_walk_form(cycle, n, 2 * eps))
                coeff = wedge_power_top(form, (n - 1) // 2, _simplex_chart(n, 2))
                volume = (2 * eps) ** (n - 1) / factorial(n - 1)
                # one local model per gap choice on each side
                want = v1 * v2 * abs(coeff) * volume
                assert fiber_integral_cyl(v1, v2, eps) == want
                splits += 1
        assert splits == 64


class TestSymplecticVolume:
    # |Pf| = 2^-g on the fixed-perimeter slice of every top cell, well beyond
    # the families the Fraction path is compared on
    @pytest.mark.parametrize("g,n,cells", [
        (0, 3, 4), (0, 4, 64), (0, 5, 2240), (1, 1, 1), (1, 2, 9), (1, 3, 236),
        (2, 1, 9), (2, 2, 713),
    ])
    def test_pfaffian_is_two_to_the_minus_genus(self, g, n, cells):
        tops = top_cells(g, n)
        assert len(tops) == cells
        for cell in tops:
            lengths = {e: F(1) for e in cell.graph.edges()}
            ok, pf = nondegeneracy_check(
                MarkedMetricGraph(cell.graph, cell.marking, lengths)
            )
            assert ok and abs(pf) == F(1, 2**g)
