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
    TooLarge,
)
from ribboncalc.ribbon import (
    HOLE,
    VERTEX,
    Marking,
    MarkedMetricGraph,
    RibbonGraph,
    canonical_form,
    canonicalize,
    contract_edge,
    dual,
    from_code,
    genus,
    graph_from_json,
    graph_to_json,
    mark_all_holes,
    validate,
)


def conjugate(perm, relabel):
    """relabel o perm o relabel^{-1}: the same permutation on renamed points."""
    return {relabel[x]: relabel[y] for x, y in perm.items()}


def relabel_marking(marking, relabel):
    """The targets of ``marking`` with every side renamed by ``relabel``."""
    return {
        label: (kind, frozenset(relabel[x] for x in orb))
        for label, (kind, orb) in marking.targets.items()
    }


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


class TestOrbitCache:
    @pytest.mark.parametrize("method", ["vertices", "holes"])
    def test_mutating_a_returned_list_leaves_the_next_call_unchanged(self, method):
        g = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 6), (3, 5)])
        first = getattr(g, method)()
        want = list(first)
        first.append((99,))
        first.reverse()
        assert getattr(g, method)() == want
        assert getattr(g, method)() is not getattr(g, method)()

    def test_counts_and_orbits_match_the_permutations(self):
        for g in (CIRCLE, TORUS_CELL, THETA):
            assert g.vertices() == perms.cycles(g.sigma0)
            assert g.holes() == perms.cycles(g.sigma_inf)
            assert (g.n_vertices(), g.n_holes()) == (len(g.vertices()), len(g.holes()))

    def test_a_fresh_graph_holds_no_cache(self):
        g = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 6), (3, 5)])
        caches = [slot for slot in RibbonGraph.__slots__ if slot.startswith("_")]
        assert {slot: getattr(g, slot) for slot in caches} == dict.fromkeys(caches)
        g.n_holes()
        assert g._vertices is None and len(g._holes) == 3


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
            conjugate(g.sigma0, relabel),
            conjugate(g.sigma1, relabel),
            range(1, n + 1),
        )
        m2 = Marking(g2, relabel_marking(m, relabel))
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
        conjugate(g.sigma0, best_relabel),
        conjugate(g.sigma1, best_relabel),
        range(1, len(g.sides) + 1),
    )
    new_m = None
    if marking is not None:
        new_m = Marking(new_g, relabel_marking(marking, best_relabel))
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
                    conjugate(cell.graph.sigma0, relabel),
                    conjugate(cell.graph.sigma1, relabel),
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
        # a rooted map is compared with its rival roots on the generator's
        # lists, in lockstep; a rejected map is never built as a graph nor
        # traversed in full.  Each kept map is built once and swept once by
        # its canonical form: each other root compared lazily, the least
        # root traversed in full.  Its canonical graph is handed the least
        # roots and never swept; a hole labelling traverses nothing, and
        # neither does a second call.  The maps rooted on a trivalent
        # vertex number C_0(3, 3) * 3 * 2 / |Z(sigma0)|
        valencies, holes = [3, 3], 3
        rooted = Fraction(
            enumeration._connected_pairings(valencies, holes) * 3 * 2,
            enumeration._centralizer_size(valencies),
        )
        assert rooted == 4
        built, full, lazy, against_rivals = [], [], [], []

        def recording(calls, original, result=False):
            def recorded(*args):
                out = original(*args)
                calls.append(out if result else args)
                return out

            return recorded

        monkeypatch.setattr(
            enumeration, "RibbonGraph", recording(built, enumeration.RibbonGraph, result=True)
        )
        monkeypatch.setattr(ribbon, "_bfs_code", recording(full, ribbon._bfs_code))
        monkeypatch.setattr(ribbon, "_code_against", recording(lazy, ribbon._code_against))
        monkeypatch.setattr(
            enumeration, "_code_against", recording(against_rivals, enumeration._code_against)
        )
        classes = enumeration.enumerate(0, ["p", "q", "r"], [2])
        assert len(classes) == 4
        unlabelled = len(enumeration._unlabeled_classes(valencies, holes))
        assert unlabelled == 2
        # each rooted map meets one to five rivals on the generator's one live
        # sigma0 list, compared with root 0; a rejected map gets nothing more
        assert len({id(args[0]) for args in against_rivals}) == 1
        assert all(isinstance(args[0], list) and args[3] == 0 for args in against_rivals)
        assert rooted <= len(against_rivals) <= rooted * 5
        assert len(built) == unlabelled
        assert [g for g, _ in full] == built
        assert sorted((id(s0), root) for s0, _, root, _ in lazy) == sorted(
            (id(g.sigma0), root) for g in built for root in range(1, 6)
        )
        graphs = {id(cell.graph): cell.graph for cell in classes}
        assert len(graphs) == unlabelled
        assert all(g._least is not None for g in graphs.values())
        full.clear()
        lazy.clear()
        again = enumeration.enumerate(0, ["p", "q", "r"], [2])
        assert [(c.graph, c.marking, c.aut) for c in again] == [
            (c.graph, c.marking, c.aut) for c in classes
        ]
        assert full == lazy == []


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

    def test_not_injective(self):
        with pytest.raises(DomainMismatch):
            Marking(
                CIRCLE,
                {"p": (HOLE, frozenset({1})), "q": (HOLE, frozenset({1}))},
            )


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
        assert total == 2 * sum(mg.lengths.values())

    def test_positive_lengths_required(self):
        m = mark_all_holes(CIRCLE, ["p1", "p2"])
        with pytest.raises(DomainMismatch):
            MarkedMetricGraph(CIRCLE, m, {(1, 2): 0})

    def test_every_length_form_normalizes_alike(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        given = {(4, 1): Fraction(3, 4), (2, 6): 3, (3, 5): "3/4"}
        mg = MarkedMetricGraph(THETA, m, given)
        assert mg.lengths == {(1, 4): Fraction(3, 4), (2, 6): Fraction(3), (3, 5): Fraction(3, 4)}
        assert list(mg.lengths) == [(1, 4), (2, 6), (3, 5)]
        assert all(type(v) is Fraction for v in mg.lengths.values())
        same = MarkedMetricGraph(THETA, m, {(1, 4): "3/4", (6, 2): Fraction(3), (5, 3): 0.75})
        assert same.lengths == mg.lengths

    @pytest.mark.parametrize(
        "changed,error,message",
        [
            ({(2, 6): 0}, DomainMismatch, "edge (2, 6) has non-positive length 0"),
            ({(6, 2): "-1/2"}, DomainMismatch, "edge (2, 6) has non-positive length -1/2"),
            ({(1, 4): Fraction(-3)}, DomainMismatch, "edge (1, 4) has non-positive length -3"),
            ({(2, 6): None}, DomainMismatch, "missing lengths for [(2, 6)]"),
            ({(2, 1): 1}, NoSuchEdge, "length given for non-edge (1, 2)"),
            ({(7, 8): 1}, NoSuchEdge, "length given for non-edge (7, 8)"),
        ],
    )
    def test_a_bad_length_raises_as_before(self, changed, error, message):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        # None drops an edge's length
        base = {(1, 4): 1, (2, 6): 1, (3, 5): 1}
        lengths = {e: v for e, v in (base | changed).items() if v is not None}
        with pytest.raises(error) as caught:
            MarkedMetricGraph(THETA, m, lengths)
        assert type(caught.value) is error and str(caught.value) == message

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
        assert sum(mg.circumference(l) for l in labels) == 2 * sum(mg.lengths.values())


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

    def test_a_rational_past_the_digit_limit_is_too_large(self):
        assert ribbon.rational_str(Fraction(-6, 4)) == "-3/2"
        with pytest.raises(TooLarge):
            ribbon.rational_str(Fraction(1, 10**5000))

    @pytest.mark.parametrize(
        "doc",
        [
            {"sides": 2, "sigma0": 5, "sigma1": [[1, 2]]},
            {"sides": 2, "sigma0": [1, 2], "sigma1": [[1, 2]]},
            {"sides": 2, "sigma0": [[1, 2]], "sigma1": [[[1], 2]]},
            {"sides": [[2]], "sigma0": [[1, 2]], "sigma1": [[1, 2]]},
            {"sides": 2.5, "sigma0": [[1, 2]], "sigma1": [[1, 2]]},
            {
                "sides": 2,
                "sigma0": [[1, 2]],
                "sigma1": [[1, 2]],
                "marking": {"p": {"kind": "hole", "orbit": 5}},
            },
            {
                "sides": 2,
                "sigma0": [[1, 2]],
                "sigma1": [[1, 2]],
                "marking": {"p": {"kind": "hole", "orbit": [[1]]}},
            },
        ],
        ids=[
            "sigma0-int",
            "sigma0-flat",
            "sigma1-nested",
            "sides-nested",
            "sides-float",
            "orbit-int",
            "orbit-nested",
        ],
    )
    def test_ill_typed_document_is_a_domain_error(self, doc):
        with pytest.raises(DomainMismatch):
            graph_from_json(doc)

    def test_non_contiguous_sides_renumbered(self):
        g = validate({3: 7, 7: 3}, {3: 7, 7: 3})
        data = graph_to_json(g)
        assert data["sides"] == 2
        g2, _, _ = graph_from_json(data)
        assert canonical_form(g2) == canonical_form(g)

    @settings(max_examples=60)
    @given(st.data())
    def test_scrambled_sides_write_as_the_conjugated_graph(self, data):
        g = random_graph(data)
        n = len(g.sides)
        names = data.draw(
            st.lists(st.integers(1, 10 * n), min_size=n, max_size=n, unique=True),
            label="names",
        )
        scramble = dict(zip(g.sides, names))
        h = ribbon.RibbonGraph(
            conjugate(g.sigma0, scramble), conjugate(g.sigma1, scramble), names
        )
        targets = {f"p{i}": (HOLE, frozenset(c)) for i, c in enumerate(h.holes())}
        vertex = data.draw(st.sampled_from(h.vertices()), label="vertex")
        targets["v"] = (VERTEX, frozenset(vertex))
        marking = Marking(h, targets)
        lengths = {
            e: Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
            for e in h.edges()
        }
        assert graph_to_json(h, marking, lengths) == conjugated_to_json(h, marking, lengths)


def conjugated_to_json(g, marking, lengths):
    """Oracle: renumber the sides to 1..n by conjugation, then write the
    renumbered graph's own cycles, orbits and edges."""
    relabel = {x: i + 1 for i, x in enumerate(sorted(g.sides))}
    n = len(relabel)
    g2 = ribbon.RibbonGraph(
        conjugate(g.sigma0, relabel), conjugate(g.sigma1, relabel), range(1, n + 1)
    )
    m2 = Marking(g2, relabel_marking(marking, relabel))
    l2 = {tuple(sorted((relabel[a], relabel[b]))): v for (a, b), v in lengths.items()}
    return {
        "sides": n,
        "sigma0": [list(c) for c in g2.vertices()],
        "sigma1": [list(c) for c in perms.cycles(g2.sigma1)],
        "marking": {
            label: {"kind": kind, "orbit": sorted(orb)}
            for label, (kind, orb) in sorted(m2.targets.items())
        },
        "lengths": {f"{a}-{b}": ribbon.rational_str(v) for (a, b), v in sorted(l2.items())},
    }
