import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribboncalc import enumeration
from ribboncalc import permutations as perms
from ribboncalc import ribbon
from ribboncalc.errors import (
    Disconnected,
    DomainMismatch,
    EmptySides,
    FixedPointInvolution,
    LoopContraction,
    NoSuchEdge,
)
from ribboncalc.ribbon import (
    HOLE,
    VERTEX,
    Marking,
    MarkedMetricGraph,
    canonical_form,
    canonicalize,
    contract_edge,
    dual,
    from_code,
    genus,
    graph_from_json,
    graph_to_json,
    is_reduced,
    mark_all_holes,
    validate,
)

CIRCLE = validate([(1, 2)], [(1, 2)])
# two trivalent vertices, three parallel edges, parallel pairing: genus 1
TORUS_CELL = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])
# same vertices, crossed pairing: the genus-0 three-hole (theta) graph
THETA = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 6), (3, 5)])


def random_graph(data, max_edges=5):
    """Draw a connected ribbon graph from a hypothesis data object."""
    n_edges = data.draw(st.integers(1, max_edges), label="edges")
    n = 2 * n_edges
    one_line = data.draw(st.permutations(range(1, n + 1)), label="sigma0")
    s0 = {i + 1: one_line[i] for i in range(n)}
    shuffled = data.draw(st.permutations(range(1, n + 1)), label="matching")
    s1 = {}
    for i in range(0, n, 2):
        a, b = shuffled[i], shuffled[i + 1]
        s1[a], s1[b] = b, a
    g = validate(s0, s1)
    assume(g.is_connected())
    return g


class TestValidate:
    def test_circle(self):
        assert CIRCLE.n_vertices() == 1
        assert CIRCLE.n_edges() == 1
        assert CIRCLE.n_holes() == 2

    def test_one_hole_torus(self):
        assert TORUS_CELL.n_vertices() == 2
        assert TORUS_CELL.n_edges() == 3
        assert TORUS_CELL.holes() == [(1, 6, 2, 4, 3, 5)]

    def test_fixed_point_rejected(self):
        with pytest.raises(FixedPointInvolution):
            validate([(1, 2, 3, 4)], [(1, 2)], sides=4)

    def test_non_involution_rejected(self):
        with pytest.raises(FixedPointInvolution):
            validate([(1, 2, 3)], {1: 2, 2: 3, 3: 1})

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            validate({1: 2, 2: 1}, {1: 2, 2: 1, 3: 4, 4: 3})

    def test_empty(self):
        with pytest.raises(EmptySides):
            validate([], [])


class TestGenus:
    def test_circle_genus_zero(self):
        assert genus(CIRCLE) == 0

    def test_torus_cell(self):
        assert genus(TORUS_CELL) == 1

    def test_theta(self):
        assert genus(THETA) == 0
        assert set(THETA.holes()) == {(1, 6), (2, 5), (3, 4)}

    def test_disconnected_rejected(self):
        g = validate([(1, 2), (3, 4)], [(1, 2), (3, 4)])
        with pytest.raises(Disconnected):
            genus(g)

    @settings(max_examples=60)
    @given(st.data())
    def test_euler_formula(self, data):
        g = random_graph(data)
        lhs = g.n_vertices() - g.n_edges() + g.n_holes()
        assert lhs == 2 - 2 * genus(g)


class TestDual:
    def test_circle_dual(self):
        d = dual(CIRCLE)
        assert d.n_vertices() == 2
        assert d.n_edges() == 1
        assert d.n_holes() == 1

    def test_involution_on_torus_cell(self):
        dd = dual(dual(TORUS_CELL))
        assert dd.sigma0 == TORUS_CELL.sigma0
        assert dd.sigma1 == TORUS_CELL.sigma1

    @settings(max_examples=60)
    @given(st.data())
    def test_dual_swaps_counts(self, data):
        g = random_graph(data)
        d = dual(g)
        assert d.n_vertices() == g.n_holes()
        assert d.n_holes() == g.n_vertices()
        assert canonical_form(dual(d)) == canonical_form(g)


class TestContract:
    def test_torus_cell_contraction(self):
        h = contract_edge(TORUS_CELL, (1, 4))
        assert h.n_vertices() == 1
        assert h.n_edges() == 2
        assert h.n_holes() == 1
        assert genus(h) == 1
        assert h.valencies() == [4]

    def test_theta_contraction(self):
        h = contract_edge(THETA, (1, 4))
        assert (h.n_vertices(), h.n_edges(), h.n_holes()) == (1, 2, 3)
        assert genus(h) == 0

    def test_loop_rejected(self):
        with pytest.raises(LoopContraction):
            contract_edge(CIRCLE, (1, 2))

    def test_unknown_edge(self):
        with pytest.raises(NoSuchEdge):
            contract_edge(THETA, (1, 5))

    @settings(max_examples=60)
    @given(st.data())
    def test_preserves_genus_and_holes(self, data):
        g = random_graph(data)
        assume(g.n_edges() > 1)
        for e in g.edges():
            a, b = e
            if b in perms.orbit_of(g.sigma0, a):
                continue
            h = contract_edge(g, e)
            assert len(h.sides) == len(g.sides) - 2
            assert genus(h) == genus(g)
            # the hole partition survives, minus the two removed sides
            old = {frozenset(x) - {a, b} for x in g.holes()}
            assert {frozenset(x) for x in h.holes()} == old


class TestCanonical:
    def test_torus_cell_aut(self):
        m = mark_all_holes(TORUS_CELL, ["p1"])
        _, aut = canonical_form(TORUS_CELL, m)
        assert aut == 6

    def test_circle_marked_aut_is_pointwise(self):
        # the side swap exchanges the two holes, so it does not fix a
        # marking that tells them apart
        m = mark_all_holes(CIRCLE, ["p1", "p2"])
        _, aut = canonical_form(CIRCLE, m)
        assert aut == 1
        _, aut_unmarked = canonical_form(CIRCLE)
        assert aut_unmarked == 2

    def test_disconnected_rejected(self):
        g = validate([(1, 2), (3, 4)], [(1, 2), (3, 4)])
        with pytest.raises(Disconnected):
            canonical_form(g)

    @settings(max_examples=60)
    @given(st.data())
    def test_conjugation_invariance(self, data):
        g = random_graph(data)
        labels = [f"p{i}" for i in range(1, g.n_holes() + 1)]
        m = mark_all_holes(g, labels)
        n = len(g.sides)
        relabel_img = data.draw(st.permutations(range(1, n + 1)), label="conj")
        relabel = {i + 1: relabel_img[i] for i in range(n)}
        g2 = ribbon.RibbonGraph(
            perms.conjugate(g.sigma0, relabel),
            perms.conjugate(g.sigma1, relabel),
            range(1, n + 1),
        )
        m2 = Marking(g2, m.relabel_sides(relabel))
        assert canonical_form(g, m) == canonical_form(g2, m2)

    def test_canonicalize_round_trip(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        cg, cm, aut = canonicalize(THETA, m)
        assert canonical_form(cg, cm) == canonical_form(THETA, m)
        assert aut >= 1


def _relabel_bfs(g, marking, root):
    """The traversal code rooted at ``root`` and the relabeling behind it."""
    relabel = {root: 1}
    order = [root]
    for x in order:
        for y in (g.sigma0[x], g.sigma1[x]):
            if y not in relabel:
                relabel[y] = len(order) + 1
                order.append(y)
    code0 = tuple(relabel[g.sigma0[x]] for x in order)
    code1 = tuple(relabel[g.sigma1[x]] for x in order)
    mark_code = ()
    if marking is not None:
        mark_code = tuple(
            (label, kind, min(relabel[x] for x in orb))
            for label, (kind, orb) in sorted(marking.targets.items())
        )
    return (code0, code1, mark_code), relabel


def relabel_canonicalize(g, marking=None):
    """Oracle: conjugate by the BFS relabeling of a minimal root."""
    best = best_relabel = None
    count = 0
    for root in g.sides:
        code, relabel = _relabel_bfs(g, marking, root)
        if best is None or code < best:
            best, best_relabel, count = code, relabel, 1
        elif code == best:
            count += 1
    new_g = ribbon.RibbonGraph(
        perms.conjugate(g.sigma0, best_relabel),
        perms.conjugate(g.sigma1, best_relabel),
        range(1, len(g.sides) + 1),
    )
    new_m = None
    if marking is not None:
        new_m = Marking(new_g, marking.relabel_sides(best_relabel))
    return new_g, new_m, count


@pytest.fixture(scope="module")
def marked_cells():
    """Every class of (0, 4) and (1, 2) on scrambled sides: unmarked, with
    shuffled hole labels, and with a vertex mark on top of those."""
    rng = random.Random(7)
    out = []
    for g, labels in ((0, ["a", "b", "c", "d"]), (1, ["p", "q"])):
        for classes in enumeration.enumerate_all_cells(g, labels).values():
            for cell in classes:
                n = len(cell.graph.sides)
                relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
                graph = ribbon.RibbonGraph(
                    perms.conjugate(cell.graph.sigma0, relabel),
                    perms.conjugate(cell.graph.sigma1, relabel),
                    range(1, n + 1),
                )
                shuffled = rng.sample(labels, len(labels))
                holes = {l: (HOLE, frozenset(h)) for l, h in zip(shuffled, graph.holes())}
                vertex = frozenset(rng.choice(graph.vertices()))
                out.append((graph, None))
                out.append((graph, Marking(graph, holes)))
                out.append((graph, Marking(graph, holes | {"v": (VERTEX, vertex)})))
    return out


class TestSingleRootLoop:
    def test_matches_the_relabeling_oracle(self, marked_cells):
        assert len(marked_cells) == 3 * (327 + 43)
        for graph, marking in marked_cells:
            cg, cm, aut = canonicalize(graph, marking)
            og, om, oaut = relabel_canonicalize(graph, marking)
            assert cg.sides == og.sides
            assert (cg.sigma0, cg.sigma1, aut) == (og.sigma0, og.sigma1, oaut)
            if marking is None:
                assert cm is om is None
            else:
                assert cm.targets == om.targets

    def test_code_determines_the_graph(self, marked_cells):
        for graph, marking in marked_cells:
            code, aut = canonical_form(graph, marking)
            rebuilt, rebuilt_marking = from_code(code)
            assert (rebuilt_marking is None) == (marking is None)
            assert canonical_form(rebuilt, rebuilt_marking) == (code, aut)

    def test_one_traversal_per_root_per_graph(self, monkeypatch):
        # each rooted map is canonicalized once and each unlabelled class
        # finds its least roots once; a hole labelling traverses nothing.
        # The maps rooted on a trivalent vertex number
        # C_0(3, 3) * 3 * 2 / |Z(sigma0)|
        valencies, holes = [3, 3], 3
        rooted = Fraction(
            enumeration._connected_pairings(valencies, holes) * 3 * 2,
            enumeration._centralizer_size(valencies),
        )
        assert rooted == 4
        unlabelled = len(enumeration._unlabeled_classes(valencies, holes))
        assert unlabelled == 2
        calls = []
        original = ribbon._bfs_code

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ribbon, "_bfs_code", counting)
        classes = enumeration.enumerate(0, ["p", "q", "r"], [2])
        assert len(classes) == 4
        assert len(calls) == 6 * (rooted + unlabelled) == 36


class TestMarking:
    def test_every_hole_needed(self):
        with pytest.raises(DomainMismatch):
            Marking(CIRCLE, {"p1": (HOLE, frozenset({1}))})

    def test_vertex_target(self):
        m = Marking(
            THETA,
            {
                "a": (HOLE, frozenset({1, 6})),
                "b": (HOLE, frozenset({2, 5})),
                "c": (HOLE, frozenset({3, 4})),
                "q": (VERTEX, frozenset({1, 2, 3})),
            },
        )
        assert m.vertex_labels() == ["q"]
        assert m.label_of(HOLE, (2, 5)) == "b"

    def test_not_injective(self):
        with pytest.raises(DomainMismatch):
            Marking(
                CIRCLE,
                {"p": (HOLE, frozenset({1})), "q": (HOLE, frozenset({1}))},
            )

    def test_reduced(self):
        assert is_reduced(THETA, None)
        # a segment: two univalent vertices, one hole around the edge
        seg = validate([(1,), (2,)], [(1, 2)])
        assert seg.n_holes() == 1
        assert not is_reduced(seg, None)
        marked = Marking(
            seg,
            {
                "p": (HOLE, frozenset({1, 2})),
                "q1": (VERTEX, frozenset({1})),
                "q2": (VERTEX, frozenset({2})),
            },
        )
        assert is_reduced(seg, marked)


class TestMetric:
    def test_circumference(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        mg = MarkedMetricGraph(
            THETA,
            m,
            {(1, 4): Fraction(1, 2), (2, 6): Fraction(1, 3), (3, 5): 1},
        )
        assert mg.circumference("a") == Fraction(1, 2) + Fraction(1, 3)
        total = sum(mg.circumference(l) for l in ("a", "b", "c"))
        assert total == 2 * mg.total_length()

    def test_positive_lengths_required(self):
        m = mark_all_holes(CIRCLE, ["p1", "p2"])
        with pytest.raises(DomainMismatch):
            MarkedMetricGraph(CIRCLE, m, {(1, 2): 0})

    @settings(max_examples=40)
    @given(st.data())
    def test_total_circumference_law(self, data):
        g = random_graph(data)
        labels = [f"p{i}" for i in range(1, g.n_holes() + 1)]
        m = mark_all_holes(g, labels)
        lengths = {}
        for e in g.edges():
            num = data.draw(st.integers(1, 9))
            den = data.draw(st.integers(1, 9))
            lengths[e] = Fraction(num, den)
        mg = MarkedMetricGraph(g, m, lengths)
        assert sum(mg.circumference(l) for l in labels) == 2 * mg.total_length()


class TestJson:
    def test_round_trip(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        lengths = {(1, 4): Fraction(1, 2), (2, 6): Fraction(2, 3), (3, 5): Fraction(7)}
        data = graph_to_json(THETA, m, lengths)
        assert data["sides"] == 6
        assert data["lengths"]["1-4"] == "1/2"
        g2, m2, l2 = graph_from_json(data)
        assert canonical_form(g2, m2) == canonical_form(THETA, m)
        assert l2 == lengths

    def test_non_contiguous_sides_renumbered(self):
        g = validate({3: 7, 7: 3}, {3: 7, 7: 3})
        data = graph_to_json(g)
        assert data["sides"] == 2
        g2, _, _ = graph_from_json(data)
        assert canonical_form(g2) == canonical_form(g)
