import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fresh_copy
from ribboncalc import enumeration
from ribboncalc import permutations as perms
from ribboncalc.errors import (
    BrokenInvariant,
    DisconnectedSubset,
    DomainMismatch,
    EmptySubset,
    NoSuchEdge,
    NotPermissible,
)
from ribboncalc.ribbon import (
    HOLE,
    VERTEX,
    Marking,
    canonical_form,
    contract_edge,
    genus,
    graph_from_json,
    mark_all_holes,
    validate,
)
from ribboncalc.stable import (
    CONTRACTIBLE,
    SEMISTABLE,
    STABLE_BEARING,
    StableGraphData,
    SubsetClass,
    build_stable,
    carry_labels,
    classify_subset,
    collapse,
    order_is_admissible,
    quotient_parts,
    stable_to_json,
)

TORUS_CELL = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])
THETA = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 6), (3, 5)])
# two loops joined by a bridge; genus 0, holes (1), (2,3,6,4), (5)
DUMBBELL = validate([(1, 2, 3), (4, 5, 6)], [(1, 2), (3, 4), (5, 6)])
# a torus block on sides 1..6 hanging off a fourth edge (7,8); genus 1, two holes
HANDLE = validate([(1, 2, 3, 7), (4, 5, 6, 8)], [(1, 4), (2, 5), (3, 6), (7, 8)])
TORUS_BLOCK = frozenset({(1, 4), (2, 5), (3, 6)})


def random_graph(data, max_edges=4):
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


def scars(g, sub):
    """The holes of G_Z that ``g`` never had, by least side."""
    return sorted(sub.hole_orbits() - g.hole_orbits(), key=min)


def new_vertices(g, quo):
    """The vertices of G/G_Z that ``g`` never had, by least side."""
    return sorted(quo.vertex_orbits() - g.vertex_orbits(), key=min)


class TestSubgraph:
    def test_theta_single_edge_is_a_segment(self):
        sub = collapse(THETA, [(1, 4)]).sub
        assert sub.n_vertices() == 2
        assert sub.n_edges() == 1
        assert scars(THETA, sub) == [frozenset({1, 4})]

    def test_full_subset_is_the_graph_itself(self):
        sub = collapse(THETA, THETA.edges()).sub
        assert sub.sigma0 == THETA.sigma0
        assert sub.sigma1 == THETA.sigma1
        assert scars(THETA, sub) == []

    def test_torus_circle_has_two_scars(self):
        sub = collapse(TORUS_CELL, [(1, 4), (2, 5)]).sub
        assert sub.n_holes() == 2
        assert scars(TORUS_CELL, sub) == [frozenset({1, 5}), frozenset({2, 4})]

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubset):
            collapse(THETA, [])

    def test_unknown_edge_rejected(self):
        with pytest.raises(NoSuchEdge):
            collapse(THETA, [(1, 5)])


class TestQuotient:
    def test_full_subset_leaves_no_sides(self):
        quo = collapse(THETA, THETA.edges()).quo
        assert quo.sides == ()
        assert new_vertices(THETA, quo) == []

    def test_theta_by_one_edge_merges_the_vertices(self):
        quo = collapse(THETA, [(1, 4)]).quo
        assert quo.n_vertices() == 1
        assert new_vertices(THETA, quo) == [frozenset({2, 3, 5, 6})]
        assert genus(quo) == 0

    def test_pinching_a_torus_leaves_a_sphere(self):
        quo = collapse(TORUS_CELL, [(1, 4), (2, 5)]).quo
        assert genus(quo) == 0
        assert new_vertices(TORUS_CELL, quo) == [frozenset({3}), frozenset({6})]

    def test_agrees_with_edge_contraction(self):
        quo = collapse(THETA, [(1, 4)]).quo
        assert canonical_form(quo) == canonical_form(contract_edge(THETA, (1, 4)))


def assert_every_edge_collapses_to_nothing(g):
    """Z = every edge: no quotient sides, no scars, no labelled part."""
    cut = collapse(g, g.edges())
    quo = cut.quo
    assert (quo.sides, quo.vertices(), quo.components(), new_vertices(g, quo)) == (
        (), [], [], []
    )
    assert (cut.sub.sigma0, cut.sub.sigma1) == (g.sigma0, g.sigma1)
    assert scars(g, cut.sub) == []
    assert cut.pairs == []
    labels = [f"p{i}" for i in range(g.n_holes())]
    assert carry_labels(quotient_parts(cut), mark_all_holes(g, labels).targets) == []


class TestExceptionalCorrespondence:
    def test_theta_edge(self):
        pairs = collapse(THETA, [(1, 4)]).pairs
        assert pairs == [(frozenset({1, 4}), frozenset({2, 3, 5, 6}))]

    def test_dumbbell_loop_and_bridge(self):
        pairs = collapse(DUMBBELL, [(1, 2), (3, 4)]).pairs
        assert pairs == [(frozenset({2, 3, 4}), frozenset({5, 6}))]

    def test_handle_torus_block(self):
        pairs = collapse(HANDLE, TORUS_BLOCK).pairs
        assert pairs == [(frozenset({1, 2, 3, 4, 5, 6}), frozenset({7, 8}))]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_subsets_match_up(self, data):
        g = random_graph(data)
        edges = g.edges()
        assume(len(edges) >= 2)
        k = data.draw(st.integers(1, len(edges) - 1), label="size")
        z = data.draw(
            st.lists(st.sampled_from(edges), min_size=k, max_size=k, unique=True),
            label="subset",
        )
        cut = collapse(g, z)
        assert len(cut.sub.sides) + len(cut.quo.sides) == len(g.sides)
        assert [h for h, _ in cut.pairs] == scars(g, cut.sub)
        assert sorted((v for _, v in cut.pairs), key=min) == new_vertices(g, cut.quo)
        # the sigma_inf a derived graph was handed is its own
        for derived in [cut.sub, cut.quo] + [p for _, p in quotient_parts(cut)]:
            assert derived.sigma_inf == fresh_copy(derived).sigma_inf

    @pytest.mark.parametrize("g", [THETA, TORUS_CELL, DUMBBELL, HANDLE])
    def test_every_edge_leaves_no_sides_and_no_pairs(self, g):
        assert_every_edge_collapses_to_nothing(g)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_every_edge_of_a_random_graph_collapses_to_nothing(self, data):
        assert_every_edge_collapses_to_nothing(random_graph(data))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_quotient_of_one_edge_is_contraction(self, data):
        g = random_graph(data)
        non_loops = [e for e in g.edges() if len(g.edges()) > 1 and not _is_loop(g, e)]
        assume(non_loops)
        e = data.draw(st.sampled_from(non_loops), label="edge")
        quo = collapse(g, [e]).quo
        assert canonical_form(quo) == canonical_form(contract_edge(g, e))


# a five-valent vertex with two loops and a tail; holes (1,3), (2), (4,6,5).
# Collapsing the loop (3,6) splits the quotient: the loop (1,2) on one side,
# the tail (4,5) on the other.
SPLIT = validate([(2, 1, 6, 5, 3), (4,)], [(1, 2), (4, 5), (3, 6)])


class TestCarryLabels:
    def test_two_components_by_least_side(self):
        cut = collapse(SPLIT, [(3, 6)])
        marks = dict(
            mark_all_holes(SPLIT, ["a", "b", "c"]).targets, v=(VERTEX, frozenset({4}))
        )
        carried = carry_labels(quotient_parts(cut), marks)
        assert [sorted(c.sides) for c, _ in carried] == [[1, 2], [4, 5]]
        (left, left_marks), (right, right_marks) = carried
        # a keeps the remnant of (1,3), b is untouched, c loses its zone side 6
        assert left_marks == {
            "a": (HOLE, frozenset({1})),
            "b": (HOLE, frozenset({2})),
        }
        assert right_marks == {
            "c": (HOLE, frozenset({4, 5})),
            "v": (VERTEX, frozenset({4})),
        }
        for comp, comp_marks in carried:
            assert Marking(comp, comp_marks).targets == comp_marks

    def test_a_label_inside_the_zone_reaches_no_component(self):
        g = DUMBBELL
        marks = mark_all_holes(g, ["a", "b", "c"]).targets
        carried = carry_labels(quotient_parts(collapse(g, [(1, 2)])), marks)
        assert [sorted(m) for _, m in carried] == [["b", "c"]]
        assert carried[0][1]["b"] == (HOLE, frozenset({3, 6, 4}))

    def test_a_vertex_label_straddling_the_zone_is_refused(self):
        cut = collapse(SPLIT, [(3, 6)])
        marks = {"w": (VERTEX, frozenset({1, 2, 3, 5, 6}))}
        with pytest.raises(BrokenInvariant, match="touches the collapse zone"):
            carry_labels(quotient_parts(cut), marks)


def _is_loop(g, e):
    a, b = e
    return b in perms.orbit_of(g.sigma0, a)


class TestClassifySubset:
    def test_single_edge_is_contractible(self):
        assert classify_subset(THETA, None, [(1, 4)]) == SubsetClass(CONTRACTIBLE)

    def test_two_parallel_edges_make_a_circle(self):
        got = classify_subset(TORUS_CELL, None, [(1, 4), (2, 5)])
        assert got == SubsetClass(SEMISTABLE)

    def test_loop_plus_bridge_is_still_a_circle(self):
        got = classify_subset(DUMBBELL, None, [(1, 2), (3, 4)])
        assert got == SubsetClass(SEMISTABLE)

    def test_torus_block_keeps_itself_as_core(self):
        got = classify_subset(HANDLE, None, TORUS_BLOCK)
        assert got == SubsetClass(STABLE_BEARING, TORUS_BLOCK)

    def test_stable_core_drops_unmarked_tails(self):
        g = validate(
            [(1, 2, 3, 7), (4, 5, 6, 8, 9), (10,)],
            [(1, 4), (2, 5), (3, 6), (7, 8), (9, 10)],
        )
        got = classify_subset(g, None, [(1, 4), (2, 5), (3, 6), (9, 10)])
        assert got == SubsetClass(STABLE_BEARING, TORUS_BLOCK)

    def test_marked_vertex_upgrades_a_tree(self):
        marks = Marking(
            HANDLE,
            {
                "p": (HOLE, frozenset({1, 8, 3, 5})),
                "q": (HOLE, frozenset({2, 4, 7, 6})),
                "y": (VERTEX, frozenset({1, 2, 3, 7})),
                "z": (VERTEX, frozenset({4, 5, 6, 8})),
            },
        )
        got = classify_subset(HANDLE, marks, [(7, 8)])
        assert got == SubsetClass(STABLE_BEARING, frozenset({(7, 8)}))

    def test_one_marked_vertex_keeps_a_tree_contractible(self):
        marks = Marking(
            HANDLE,
            {
                "p": (HOLE, frozenset({1, 8, 3, 5})),
                "q": (HOLE, frozenset({2, 4, 7, 6})),
                "z": (VERTEX, frozenset({4, 5, 6, 8})),
            },
        )
        assert classify_subset(HANDLE, marks, [(7, 8)]) == SubsetClass(CONTRACTIBLE)

    def test_disconnected_subset_rejected(self):
        with pytest.raises(DisconnectedSubset):
            classify_subset(DUMBBELL, None, [(1, 2), (5, 6)])

    def test_core_carrying_kinds_reject_mismatched_payloads(self):
        with pytest.raises(DomainMismatch):
            SubsetClass(CONTRACTIBLE, frozenset({(1, 4)}))
        with pytest.raises(DomainMismatch):
            SubsetClass(STABLE_BEARING)


def _glue_component_count(data):
    n = len(data.components)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in data.iota.items():
        ra, rb = find(a[0]), find(b[0])
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)})


def _total_genus(data):
    """Component genera plus the cycle rank of the gluing graph."""
    pieces = sum(genus(c) for c in data.components)
    rank = len(data.iota) // 2 - len(data.components) + _glue_component_count(data)
    return pieces + rank


class TestBuildStable:
    def test_trivial_sequence_returns_the_graph(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        data = build_stable(THETA, m, [THETA.edges()])
        assert len(data.components) == 1
        assert data.order == (0,)
        assert data.iota == {}
        assert data.markings[0] == dict(m.targets)
        assert sum(data.lengths[0].values()) == 1

    def test_handle_spawns_a_torus_component(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        data = build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK])
        assert data.order == (0, 1)
        assert genus(data.components[0]) == 0
        assert genus(data.components[1]) == 1
        assert data.markings[0] == {
            "p": (HOLE, frozenset({8})),
            "q": (HOLE, frozenset({7})),
        }
        assert data.markings[1] == {}
        [(a, b)] = [(k, v) for k, v in data.iota.items() if k[0] == 0]
        assert a == (0, VERTEX, frozenset({7, 8}))
        assert b == (1, HOLE, frozenset({1, 2, 3, 4, 5, 6}))
        assert _total_genus(data) == 1

    def test_pinched_torus_discards_the_sphere(self):
        m = mark_all_holes(TORUS_CELL, ["p"])
        data = build_stable(TORUS_CELL, m, [TORUS_CELL.edges(), [(1, 4), (2, 5)]])
        assert data.order == (0,)
        assert genus(data.components[0]) == 0
        assert data.iota == {
            (0, VERTEX, frozenset({3})): (0, VERTEX, frozenset({6})),
            (0, VERTEX, frozenset({6})): (0, VERTEX, frozenset({3})),
        }
        assert _total_genus(data) == 1

    def test_bridge_collapse_merges_the_vertices(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        data = build_stable(HANDLE, m, [HANDLE.edges(), [(7, 8)]])
        assert data.order == (0,)
        assert data.components[0].n_vertices() == 1
        assert data.markings[0] == {
            "p": (HOLE, frozenset({1, 3, 5})),
            "q": (HOLE, frozenset({2, 4, 6})),
        }
        assert data.iota == {}

    def test_marked_vertex_rides_a_tree_collapse(self):
        m = Marking(
            HANDLE,
            {
                "p": (HOLE, frozenset({1, 8, 3, 5})),
                "q": (HOLE, frozenset({2, 4, 7, 6})),
                "z": (VERTEX, frozenset({4, 5, 6, 8})),
            },
        )
        data = build_stable(HANDLE, m, [HANDLE.edges(), [(7, 8)]])
        assert data.markings[0]["z"] == (VERTEX, frozenset({1, 2, 3, 4, 5, 6}))

    def test_circle_around_a_marked_hole_demotes_the_label(self):
        m = mark_all_holes(DUMBBELL, ["a", "b", "c"])
        data = build_stable(DUMBBELL, m, [DUMBBELL.edges(), [(1, 2), (3, 4)]])
        assert data.order == (0,)
        assert data.markings[0] == {
            "a": (VERTEX, frozenset({5, 6})),
            "b": (HOLE, frozenset({6})),
            "c": (HOLE, frozenset({5})),
        }
        assert data.iota == {}

    def test_two_circles_hand_each_label_to_its_own_vertex(self):
        m = mark_all_holes(DUMBBELL, ["a", "b", "c"])
        data = build_stable(DUMBBELL, m, [DUMBBELL.edges(), [(1, 2), (5, 6)]])
        assert data.markings == (
            {
                "a": (VERTEX, frozenset({3})),
                "b": (HOLE, frozenset({3, 4})),
                "c": (VERTEX, frozenset({4})),
            },
        )

    def test_a_core_takes_its_marked_vertex_off_the_quotient(self):
        m = Marking(
            HANDLE,
            {
                "p": (HOLE, frozenset({1, 8, 3, 5})),
                "q": (HOLE, frozenset({2, 4, 7, 6})),
                "y": (VERTEX, frozenset({1, 2, 3, 7})),
            },
        )
        data = build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK])
        assert data.markings == (
            {"p": (HOLE, frozenset({8})), "q": (HOLE, frozenset({7}))},
            {"y": (VERTEX, frozenset({1, 2, 3}))},
        )

    def test_collapse_zone_tail_is_pruned_and_bivalents_smoothed(self):
        g = validate(
            [(1, 2, 3, 7), (4, 5, 6, 8), (9, 10)],
            [(1, 4), (2, 5), (3, 9), (10, 6), (7, 8)],
        )
        m = mark_all_holes(g, ["p", "q"])
        data = build_stable(g, m, [g.edges(), [(1, 4), (2, 5), (3, 9), (10, 6)]])
        assert data.order == (0, 1)
        spawned = data.components[1]
        assert spawned.edges() == [(1, 4), (2, 5), (3, 6)]
        assert canonical_form(spawned) == canonical_form(TORUS_CELL)
        assert _total_genus(data) == genus(g)

    def test_circle_around_an_inherited_special_hole_reroutes_the_pairing(self):
        g = validate(
            [(1, 9, 2, 7), (3, 4, 8), (10,)],
            [(1, 4), (2, 3), (7, 8), (9, 10)],
        )
        m = mark_all_holes(g, ["a", "b", "c"])
        data = build_stable(
            g, m, [g.edges(), [(1, 4), (2, 3), (7, 8)], [(1, 4), (2, 3)]]
        )
        assert data.order == (0, 1)
        assert data.markings[0] == {"a": (HOLE, frozenset({9, 10}))}
        assert data.markings[1] == {
            "b": (HOLE, frozenset({8})),
            "c": (HOLE, frozenset({7})),
        }
        assert data.iota[(0, VERTEX, frozenset({9}))] == (1, VERTEX, frozenset({7, 8}))
        assert _total_genus(data) == 0

    def test_two_stage_pinch_inside_the_spawned_torus(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        data = build_stable(
            HANDLE, m, [HANDLE.edges(), TORUS_BLOCK, [(1, 4), (2, 5)]]
        )
        assert data.order == (0, 1)
        assert [genus(c) for c in data.components] == [0, 0]
        vertex_ends = [
            a for a, b in data.iota.items() if a[1] == VERTEX and b[1] == VERTEX
        ]
        assert len(vertex_ends) == 2
        assert _total_genus(data) == 1

    def test_every_component_gets_the_uniform_metric(self):
        g = validate(
            [(1, 2, 3, 7), (4, 5, 6, 8), (9, 10)],
            [(1, 4), (2, 5), (3, 9), (10, 6), (7, 8)],
        )
        m = mark_all_holes(g, ["p", "q"])
        data = build_stable(g, m, [g.edges(), [(1, 4), (2, 5), (3, 9), (10, 6)]])
        assert data.lengths == (
            {(7, 8): Fraction(1)},
            {e: Fraction(1, 3) for e in [(1, 4), (2, 5), (3, 6)]},
        )

    def test_sequence_must_start_with_everything(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        with pytest.raises(NotPermissible):
            build_stable(HANDLE, m, [TORUS_BLOCK])
        with pytest.raises(NotPermissible):
            build_stable(HANDLE, m, [])

    def test_stage_may_not_swallow_a_component(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        with pytest.raises(NotPermissible):
            build_stable(HANDLE, m, [HANDLE.edges(), HANDLE.edges()])

    def test_stage_must_stay_inside_the_previous_one(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        with pytest.raises(NotPermissible):
            build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK, [(7, 8)]])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_single_stage_bookkeeping(self, data):
        g = random_graph(data)
        edges = g.edges()
        assume(len(edges) >= 2)
        labels = [f"p{i}" for i in range(g.n_holes())]
        m = mark_all_holes(g, labels)
        k = data.draw(st.integers(1, len(edges) - 1), label="size")
        z = data.draw(
            st.lists(st.sampled_from(edges), min_size=k, max_size=k, unique=True),
            label="subset",
        )
        stable = build_stable(g, m, [edges, z])
        assert order_is_admissible(stable)
        assert _glue_component_count(stable) == 1
        assert _total_genus(stable) == genus(g)
        for lengths in stable.lengths:
            assert sum(lengths.values()) == 1
            assert all(v > 0 for v in lengths.values())
        for a, b in stable.iota.items():
            assert stable.iota[b] == a
            assert a != b
            assert not (a[1] == HOLE and b[1] == HOLE)


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stage_follows_classify_subset(self, data):
        g = random_graph(data)
        edges = g.edges()
        assume(len(edges) >= 2)
        m = mark_all_holes(g, [f"p{i}" for i in range(g.n_holes())])
        k = data.draw(st.integers(1, len(edges) - 1), label="size")
        z = data.draw(
            st.lists(st.sampled_from(edges), min_size=k, max_size=k, unique=True),
            label="subset",
        )
        sub = collapse(g, z).sub
        cores = [
            comp
            for comp in sub.components()
            if classify_subset(g, m, [e for e in sub.edges() if e[0] in comp]).kind
            == STABLE_BEARING
        ]
        stable = build_stable(g, m, [edges, z])
        assert stable.order.count(1) == len(cores)


def _proper_subset(rng, edges):
    return rng.sample(edges, rng.randint(1, len(edges) - 1))


def _raw_stable(data):
    """Everything ``build_stable`` returns, in raw side names, as plain sorted lists."""
    return (
        [(sorted(c.sigma0.items()), sorted(c.sigma1.items())) for c in data.components],
        [sorted((l, k, sorted(o)) for l, (k, o) in m.items()) for m in data.markings],
        list(data.order),
        sorted(
            (a[0], a[1], sorted(a[2]), b[0], b[1], sorted(b[2])) for a, b in data.iota.items()
        ),
        [sorted((e, str(x)) for e, x in ls.items()) for ls in data.lengths],
    )


# (0,4), (1,2) and (2,1) with every hole labelled, plus a marked trivalent vertex
# on the (0,3) and (1,2) top cells
def _digest_cells():
    cells = [
        cell
        for g, labels in [(0, ["a", "b", "c", "d"]), (1, ["p", "q"]), (2, ["p"])]
        for classes in enumeration.enumerate_all_cells(g, labels).values()
        for cell in classes
    ]
    cells += enumeration.enumerate(0, ["a", "b", "c", "z"], [2], {"z": 3})
    cells += enumeration.enumerate(1, ["p", "q", "z"], [4], {"z": 3})
    return cells


class TestBuildStableDigest:
    def test_seeded_sequences_on_every_small_cell(self):
        """A differential guard: three seeded two-stage sequences per cell, each
        extended by a third stage inside the components it spawned, hashed in raw
        side names.  The digest was recorded before pairing points rode as labels.
        """
        rng = random.Random(2101)
        digest = hashlib.sha256()
        runs = 0
        for cell in _digest_cells():
            edges = cell.graph.edges()
            if len(edges) < 2:
                continue
            for _ in range(3):
                seq = [edges, _proper_subset(rng, edges)]
                data = build_stable(cell.graph, cell.marking, seq)
                digest.update(repr(_raw_stable(data)).encode())
                runs += 1
                top = [c.edges() for c, o in zip(data.components, data.order) if o == 1]
                third = [e for es in top if len(es) > 1 for e in _proper_subset(rng, es)]
                if third:
                    data = build_stable(cell.graph, cell.marking, seq + [third])
                    digest.update(repr(_raw_stable(data)).encode())
                    runs += 1
        assert runs == 2209
        assert digest.hexdigest() == (
            "d718a1bf0dbad946ba733940e2aadc675db4c45c49bada1d76ad93d8b1f05579"
        )


def _with_order(data, order):
    return StableGraphData(data.components, data.markings, order, data.iota, data.lengths)


class TestOrderAdmissibility:
    def test_constructed_orders_pass(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        data = build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK])
        assert order_is_admissible(data)

    def test_unmarked_hole_needs_a_lower_partner(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        data = build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK])
        assert not order_is_admissible(_with_order(data, (0, 0)))
        assert not order_is_admissible(_with_order(data, (1, 0)))

    def test_orders_cannot_outrun_their_partners(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        data = build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK])
        assert not order_is_admissible(_with_order(data, (0, 2)))

    def test_isolated_components_sit_at_order_zero(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        data = build_stable(THETA, m, [THETA.edges()])
        assert order_is_admissible(data)
        assert not order_is_admissible(_with_order(data, (1,)))


def assert_json_consistent(data):
    """Every emitted component parses back, and every orbit is one of its cycles."""
    blob = stable_to_json(data)
    parsed = []
    for comp, graph, lengths in zip(blob["components"], data.components, data.lengths):
        # holes paired by iota stay unmarked, so parse the graph without the marking
        g, _, got_lengths = graph_from_json({k: v for k, v in comp.items() if k != "marking"})
        assert canonical_form(g) == canonical_form(graph)
        assert set(got_lengths) == set(g.edges())
        assert sorted(got_lengths.values()) == sorted(lengths.values())
        parsed.append(g)
    points = [
        (i, entry["kind"], entry["orbit"])
        for i, comp in enumerate(blob["components"])
        for entry in comp["marking"].values()
    ]
    points += [(p["component"], p["kind"], p["orbit"]) for pair in blob["iota"] for p in pair]
    holes_named = [set() for _ in parsed]
    for i, kind, orbit in points:
        cycles = parsed[i].vertices() if kind == VERTEX else parsed[i].holes()
        assert frozenset(orbit) in {frozenset(c) for c in cycles}
        if kind == HOLE:
            holes_named[i].add(frozenset(orbit))
    for g, named in zip(parsed, holes_named):
        assert named == {frozenset(c) for c in g.holes()}


TAILED_HANDLE = validate(
    [(1, 2, 3, 7), (4, 5, 6, 8), (9, 10)],
    [(1, 4), (2, 5), (3, 9), (10, 6), (7, 8)],
)
THREE_HOLES = validate([(1, 9, 2, 7), (3, 4, 8), (10,)], [(1, 4), (2, 3), (7, 8), (9, 10)])
# (graph, hole labels, stages after the first, id)
COLLAPSES = [
    (HANDLE, ["p", "q"], [TORUS_BLOCK], "handle-torus"),
    (HANDLE, ["p", "q"], [TORUS_BLOCK, [(1, 4), (2, 5)]], "handle-torus-pinch"),
    (HANDLE, ["p", "q"], [[(7, 8)]], "handle-bridge"),
    (TORUS_CELL, ["p"], [[(1, 4), (2, 5)]], "torus-pinch"),
    (DUMBBELL, ["a", "b", "c"], [[(1, 2), (3, 4)]], "dumbbell-circle"),
    (TAILED_HANDLE, ["p", "q"], [[(1, 4), (2, 5), (3, 9), (10, 6)]], "tailed-handle"),
    (THREE_HOLES, ["a", "b", "c"], [[(1, 4), (2, 3), (7, 8)], [(1, 4), (2, 3)]], "two-stages"),
]


class TestStableJson:
    @pytest.mark.parametrize(
        "graph,labels,stages", [c[:3] for c in COLLAPSES], ids=[c[3] for c in COLLAPSES]
    )
    def test_every_component_round_trips(self, graph, labels, stages):
        m = mark_all_holes(graph, labels)
        assert_json_consistent(build_stable(graph, m, [graph.edges()] + stages))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_collapses_round_trip(self, data):
        g = random_graph(data)
        edges = g.edges()
        assume(len(edges) >= 2)
        m = mark_all_holes(g, [f"p{i}" for i in range(g.n_holes())])
        k = data.draw(st.integers(1, len(edges) - 1), label="size")
        z = data.draw(
            st.lists(st.sampled_from(edges), min_size=k, max_size=k, unique=True),
            label="subset",
        )
        assert_json_consistent(build_stable(g, m, [edges, z]))

    def test_lengths_are_written_as_rationals(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        blob = stable_to_json(build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK]))
        assert blob["components"][0]["lengths"] == {"1-2": "1/1"}
        assert blob["components"][1]["lengths"] == {"1-4": "1/3", "2-5": "1/3", "3-6": "1/3"}

    def test_round_trippable_shape(self):
        m = mark_all_holes(HANDLE, ["p", "q"])
        data = build_stable(HANDLE, m, [HANDLE.edges(), TORUS_BLOCK])
        blob = stable_to_json(data)
        assert len(blob["components"]) == 2
        assert blob["components"][0]["order"] == 0
        assert blob["components"][1]["order"] == 1
        [pair] = blob["iota"]
        kinds = {pair[0]["kind"], pair[1]["kind"]}
        assert kinds == {"hole", "vertex"}
