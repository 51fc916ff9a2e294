import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fresh_copy, mark_all_holes
from ribboncalc import checks, degeneration, enumeration, stable
from ribboncalc import permutations as perms
from ribboncalc.degeneration import (
    CYLINDER,
    DISK,
    SURFACE,
    DualGraph,
    HoleTopology,
    ShrinkResult,
    cylinder_configurations,
    detect_clusters,
    hole_topology,
    shrink,
    shrink_to_json,
)
from ribboncalc.errors import (
    ConeViolation,
    DomainMismatch,
    InconsistentLabels,
    RibbonError,
    VertexMark,
)
from ribboncalc.ribbon import (
    HOLE,
    VERTEX,
    Marking,
    MarkedMetricGraph,
    canonical_form,
    contract_edge,
    genus,
    graph_from_json,
    validate,
)

TORUS_CELL = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])
THETA = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 6), (3, 5)])
DUMBBELL = validate([(1, 2, 3), (4, 5, 6)], [(1, 2), (3, 4), (5, 6)])
CIRCLE = validate([(1, 2)], [(1, 2)])
# two bigon circles tied together by a doubled edge (1,7) and an outer edge
# (6,12); genus 1, the hole (1,9,10,7,3,4) runs through (1,7) twice
CYL = validate(
    [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)],
    [(1, 7), (2, 4), (3, 5), (8, 10), (9, 11), (6, 12)],
)
# a handle block with a tail hanging off the five-valent vertex; genus 1,
# the hole (2,4,7,6) sweeps the whole handle but not the tail
TADPOLE = validate(
    [(1, 2, 3, 7), (4, 5, 6, 8, 9), (10,)],
    [(1, 4), (2, 5), (3, 6), (7, 8), (9, 10)],
)
# one 4-valent vertex carrying two bigons; holes (1,6) and (3,8) share
# only that vertex
CROSS = validate(
    [(1, 2, 3, 4), (5, 6), (7, 8)],
    [(1, 5), (2, 6), (3, 7), (4, 8)],
)


def theta_metric(a=Fraction(1, 8), b=Fraction(1, 8), c=Fraction(3, 4)):
    m = mark_all_holes(THETA, ["a", "b", "c"])
    return MarkedMetricGraph(THETA, m, {(1, 4): a, (2, 6): b, (3, 5): c})


def zone_metric(graph, marking, q, scale=Fraction(1)):
    """Zone edges tiny (times ``scale``), everything else length one."""
    zone = {graph.edge_of(x) for x in marking.orbit(q)}
    eps = Fraction(1, 64 * graph.n_edges())
    lengths = {
        e: eps * scale if e in zone else Fraction(1) for e in graph.edges()
    }
    return MarkedMetricGraph(graph, marking, lengths)


def cone_reachable(graph, marking, q):
    """Some metric obeys the cone iff no other hole sits inside the zone."""
    zone = {graph.edge_of(x) for x in marking.orbit(q)}
    for p in marking.hole_labels():
        if p == q:
            continue
        if all(graph.edge_of(x) in zone for x in marking.orbit(p)):
            return False
    return True


def component_key(comp):
    code, _ = canonical_form(comp.graph, comp.marking)
    return code, tuple(sorted(comp.lengths.items()))


def total_genus(dual):
    """Vertex genera plus the cycle rank of a dual graph."""
    n = len(dual.vertices)
    rank = len(dual.edges) - n + len(perms.blocks(range(n), dual.edges))
    return sum(g for g, _, _ in dual.vertices) + rank


def is_bubble_star(dual):
    """At most one nonpositive vertex, and each edge joins it to a positive one."""
    bubbles = [v for v in dual.vertices if not v[2]]
    return len(bubbles) <= 1 and all(
        dual.vertices[i][2] != dual.vertices[j][2] for i, j in dual.edges
    )


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


class TestDualGraph:
    def test_duplicate_labels_are_rejected(self):
        with pytest.raises(InconsistentLabels):
            DualGraph([(0, {"q"}, True), (1, {"q"}, False)], [])

    def test_edges_must_point_at_vertices(self):
        with pytest.raises(InconsistentLabels):
            DualGraph([(0, {"q"}, True)], [(0, 1)])


class TestHoleTopology:
    def test_theta_hole_is_a_disk(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        assert hole_topology((THETA, m), "a") == HoleTopology(DISK)

    def test_dumbbell_loop_hole_is_a_disk(self):
        m = mark_all_holes(DUMBBELL, ["a", "b", "c"])
        assert hole_topology((DUMBBELL, m), "a") == HoleTopology(DISK)

    def test_dumbbell_waist_is_a_degenerate_cylinder(self):
        m = mark_all_holes(DUMBBELL, ["a", "b", "c"])
        assert hole_topology((DUMBBELL, m), "b") == HoleTopology(CYLINDER, 0, (0, 0))

    def test_doubled_edge_with_two_and_two_external_sides(self):
        m = mark_all_holes(CYL, ["q", "p"])
        assert hole_topology((CYL, m), "q") == HoleTopology(CYLINDER, 0, (1, 1))

    def test_torus_cell_swallows_the_surface(self):
        m = mark_all_holes(TORUS_CELL, ["p"])
        topo = hole_topology((TORUS_CELL, m), "p")
        assert topo == HoleTopology(SURFACE, 1, ())
        assert topo.closed_complement

    def test_tadpole_handle_zone_is_a_surface(self):
        m = mark_all_holes(TADPOLE, ["p", "q"])
        topo = hole_topology((TADPOLE, m), "q")
        assert topo == HoleTopology(SURFACE, 1, (1,))
        assert not topo.closed_complement

    def test_vertex_mark_is_refused(self):
        m = mark_all_holes(TORUS_CELL, ["p"])
        m = Marking(
            TORUS_CELL, dict(m.targets, z=(VERTEX, frozenset({1, 2, 3})))
        )
        with pytest.raises(VertexMark):
            hole_topology((TORUS_CELL, m), "z")


class TestShrink:
    def test_nodes_are_ordered_by_valency_then_least_side(self):
        # one vertex, genus 1: crushing p3 leaves a univalent node at side 5
        # and a trivalent one, whose least side 1 would come first
        graph = validate([(1, 2, 3, 4, 6, 5, 8, 7)], [(1, 2), (3, 5), (4, 7), (6, 8)])
        targets = {"p1": {1}, "p2": {2, 3, 5, 6, 7}, "p3": {4, 8}}
        m = Marking(graph, {l: (HOLE, frozenset(o)) for l, o in targets.items()})
        res = shrink(zone_metric(graph, m, "p3"), "p3")
        assert res.kind == SURFACE and res.topology.boundary == (1, 3)
        assert res.nodes == ((0, frozenset({5})), (0, frozenset({1, 2, 3})))

    def test_theta_disk_hole_leaves_a_marked_vertex(self):
        g = theta_metric()
        res = shrink(g, "a")
        assert res.kind == DISK
        assert res.nodes == ()
        (comp,) = res.components
        assert set(comp.graph.sides) == {3, 5}
        assert comp.marking.targets == {
            "a": (VERTEX, frozenset({3, 5})),
            "b": (HOLE, frozenset({5})),
            "c": (HOLE, frozenset({3})),
        }
        assert comp.lengths == {(3, 5): Fraction(3, 4)}
        assert res.dual == DualGraph([(0, {"a", "b", "c"}, True)], [])

    def test_disk_vertex_valency_matches_the_hole_side_count(self):
        g = theta_metric()
        res = shrink(g, "a")
        (comp,) = res.components
        assert len(comp.marking.orbit("a")) == len(g.marking.orbit("a")) == 2

    def test_torus_cell_shrinks_to_a_bare_bubble(self):
        m = mark_all_holes(TORUS_CELL, ["p"])
        lengths = {e: Fraction(1, 3) for e in TORUS_CELL.edges()}
        res = shrink(MarkedMetricGraph(TORUS_CELL, m, lengths), "p")
        assert res.kind == SURFACE
        assert res.topology.closed_complement
        assert res.components == ()
        assert res.dual == DualGraph([(1, {"p"}, False)], [])

    def test_cylinder_hole_buds_a_two_node_sphere(self):
        m = mark_all_holes(CYL, ["q", "p"])
        lengths = {e: Fraction(1, 64) for e in CYL.edges()}
        lengths[(6, 12)] = Fraction(2)
        res = shrink(MarkedMetricGraph(CYL, m, lengths), "q")
        assert res.kind == CYLINDER
        assert res.topology.boundary == (1, 1)
        (comp,) = res.components
        assert set(comp.graph.sides) == {6, 12}
        assert comp.marking.targets == {"p": (HOLE, frozenset({6, 12}))}
        assert comp.lengths == {(6, 12): Fraction(2)}
        assert res.nodes == ((0, frozenset({6})), (0, frozenset({12})))
        assert res.dual == DualGraph(
            [(0, {"p"}, True), (0, {"q"}, False)], [(0, 1), (0, 1)]
        )
        assert total_genus(res.dual) == genus(CYL) == 1

    def test_surface_hole_buds_a_genus_bubble(self):
        m = mark_all_holes(TADPOLE, ["p", "q"])
        lengths = {e: Fraction(1, 64) for e in TADPOLE.edges()}
        lengths[(9, 10)] = Fraction(3)
        res = shrink(MarkedMetricGraph(TADPOLE, m, lengths), "q")
        assert res.kind == SURFACE
        assert res.topology == HoleTopology(SURFACE, 1, (1,))
        (comp,) = res.components
        assert comp.marking.targets == {"p": (HOLE, frozenset({9, 10}))}
        assert res.nodes == ((0, frozenset({9})),)
        assert res.dual == DualGraph(
            [(0, {"p"}, True), (1, {"q"}, False)], [(0, 1)]
        )
        assert total_genus(res.dual) == genus(TADPOLE) == 1

    def test_untouched_vertex_mark_rides_along(self):
        m = mark_all_holes(TADPOLE, ["p", "q"])
        m = Marking(TADPOLE, dict(m.targets, z=(VERTEX, frozenset({10}))))
        res = shrink(zone_metric(TADPOLE, m, "q"), "q")
        (comp,) = res.components
        assert comp.marking.targets["z"] == (VERTEX, frozenset({10}))

    def test_vertex_mark_on_the_zone_violates_the_cone(self):
        g = theta_metric()
        m = Marking(
            THETA, dict(g.marking.targets, z=(VERTEX, frozenset({1, 2, 3})))
        )
        g = MarkedMetricGraph(THETA, m, g.lengths)
        with pytest.raises(ConeViolation):
            shrink(g, "a")

    def test_fat_hole_violates_the_cone(self):
        g = theta_metric(a=Fraction(1, 2), b=Fraction(1, 4), c=Fraction(1, 4))
        with pytest.raises(ConeViolation):
            shrink(g, "a")

    def test_dumbbell_waist_never_satisfies_the_cone(self):
        m = mark_all_holes(DUMBBELL, ["a", "b", "c"])
        with pytest.raises(ConeViolation):
            shrink(zone_metric(DUMBBELL, m, "b"), "b")

    def test_vertex_marking_has_zero_perimeter(self):
        res = shrink(theta_metric(), "a")
        with pytest.raises(VertexMark, match="'a' marks a vertex, not a hole"):
            shrink(res.components[0], "a")

    def test_plain_graph_input_is_refused(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        with pytest.raises(DomainMismatch):
            shrink((THETA, m), "a")

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: hole_topology(g, "a"),
            lambda g: detect_clusters(g, ["a", "b"]),
        ],
        ids=["hole_topology", "detect_clusters"],
    )
    def test_bare_graph_input_is_refused(self, call):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        bad_inputs = (
            THETA,
            (THETA, m.targets),
            (m, THETA),
            (THETA, m, m),
            "THETA",
            theta_metric(),
        )
        for bad in bad_inputs:
            with pytest.raises(DomainMismatch, match=r"need a \(graph, marking\) pair"):
                call(bad)
        call((THETA, m))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_shrink_bookkeeping_on_random_graphs(self, data):
        g = random_graph(data)
        labels = [f"h{i}" for i in range(g.n_holes())]
        marking = mark_all_holes(g, labels)
        q = data.draw(st.sampled_from(labels), label="q")
        metric = zone_metric(g, marking, q)
        if not cone_reachable(g, marking, q):
            with pytest.raises(ConeViolation):
                shrink(metric, q)
            return
        res = shrink(metric, q)
        assert is_bubble_star(res.dual)
        assert total_genus(res.dual) == genus(g)
        kept = set()
        for comp in res.components:
            assert genus(comp.graph) >= 0
            for label in comp.marking.hole_labels():
                kept.add(label)
        assert kept == set(labels) - {q}
        if res.kind == DISK:
            homes = [
                c
                for c in res.components
                if c.marking.targets.get(q, (None,))[0] == VERTEX
            ]
            assert len(homes) == 1
        else:
            assert len(res.nodes) == len(res.topology.boundary)
        for comp in res.components:
            for e, l in comp.lengths.items():
                assert l == metric.lengths[e]


class TestOneCollapse:
    """Each zone or stage is collapsed once: one G_Z, one G/G_Z."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count the G_Z and G/G_Z that ``stable`` builds.

        ``collapse`` checks its subset once and builds G_Z with ``_subgraph``
        and G/G_Z with ``_quotient``, so those are what is counted.
        """
        seen = {"subgraph": 0, "quotient": 0}
        for name in seen:
            original = getattr(stable, f"_{name}")

            def counted(*args, _name=name, _original=original):
                seen[_name] += 1
                return _original(*args)

            monkeypatch.setattr(stable, f"_{name}", counted)
        return seen

    def test_cylinder_shrink(self, calls):
        graph = fresh_copy(CYL)
        m = mark_all_holes(graph, ["q", "p"])
        res = shrink(zone_metric(graph, m, "q"), "q")
        assert res.kind == CYLINDER
        assert calls == {"subgraph": 1, "quotient": 1}
        # a second shrink of the hole, on another metric, reads the zone entry
        again = shrink(zone_metric(graph, m, "q", scale=Fraction(1, 2)), "q")
        assert again.kind == CYLINDER
        assert calls == {"subgraph": 1, "quotient": 1}

    def test_surface_shrink(self, calls):
        graph = fresh_copy(TADPOLE)
        m = mark_all_holes(graph, ["p", "q"])
        res = shrink(zone_metric(graph, m, "q"), "q")
        assert res.kind == SURFACE
        assert calls == {"subgraph": 1, "quotient": 1}
        # and so does one under another labelling of the same hole orbit
        relabelled = Marking(graph, {"x": m.targets["q"], "y": m.targets["p"]})
        again = shrink(zone_metric(graph, relabelled, "x"), "x")
        assert again.kind == SURFACE
        assert calls == {"subgraph": 1, "quotient": 1}

    def test_one_stage_spawning_one_core(self, calls):
        handle = validate(
            [(1, 2, 3, 7), (4, 5, 6, 8)], [(1, 4), (2, 5), (3, 6), (7, 8)]
        )
        m = mark_all_holes(handle, ["p", "q"])
        data = stable.build_stable(
            handle, m, [handle.edges(), [(1, 4), (2, 5), (3, 6)]]
        )
        assert data.order == (0, 1)
        # the core is all of G_Z, so it spawns from G_Z with no second subgraph
        assert calls == {"subgraph": 1, "quotient": 1}

    def test_a_connected_quotient_is_its_own_part(self, calls, monkeypatch):
        handle = validate(
            [(1, 2, 3, 7), (4, 5, 6, 8)], [(1, 4), (2, 5), (3, 6), (7, 8)]
        )
        cut = stable.collapse(handle, [(1, 4), (2, 5), (3, 6)])
        assert calls == {"subgraph": 1, "quotient": 1}

        def refuse(*args):
            raise AssertionError("a connected quotient was copied")

        monkeypatch.setattr(stable, "restrict", refuse)
        ((sides, part),) = stable.quotient_parts(cut)
        assert part is cut.quo and sides == frozenset(cut.quo.sides) == {7, 8}


class TestStratumCensus:
    @pytest.mark.parametrize(
        "g,labels",
        [(1, ["p"]), (0, ["a", "b", "c", "d"])],
        ids=["genus1-one-hole", "genus0-four-holes"],
    )
    def test_kind_determines_shrink_shape(self, g, labels):
        cells = enumeration.enumerate_all_cells(g, labels)
        seen = set()
        for valencies, classes in cells.items():
            trivalent = set(valencies) == {3}
            for cell in classes:
                for q in labels:
                    topo = hole_topology((cell.graph, cell.marking), q)
                    seen.add(topo.kind)
                    metric = zone_metric(cell.graph, cell.marking, q)
                    if not cone_reachable(cell.graph, cell.marking, q):
                        with pytest.raises(ConeViolation):
                            shrink(metric, q)
                        continue
                    res = shrink(metric, q)
                    assert res.topology == topo
                    assert is_bubble_star(res.dual)
                    assert total_genus(res.dual) == g
                    if topo.kind == DISK:
                        homes = [
                            c
                            for c in res.components
                            if q in c.marking.vertex_labels()
                        ]
                        assert len(homes) == 1
                        assert res.nodes == ()
                        if trivalent:
                            assert len(homes[0].marking.orbit(q)) == len(
                                cell.marking.orbit(q)
                            )
                    else:
                        bubbles = [
                            v for v in res.dual.vertices if not v[2]
                        ]
                        assert bubbles == [(topo.genus, frozenset({q}), False)]
                        assert len(res.nodes) == len(topo.boundary)
                        if trivalent:
                            sizes = tuple(
                                sorted(len(v) for _, v in res.nodes)
                            )
                            assert sizes == topo.boundary
        if g == 0:
            assert DISK in seen

    def test_closed_complement_cells_are_flagged(self):
        cells = enumeration.enumerate_all_cells(1, ["p"])
        for classes in cells.values():
            for cell in classes:
                topo = hole_topology((cell.graph, cell.marking), "p")
                assert topo.closed_complement


class TestZoneOfEveryEdge:
    """A one-hole cell's zone is every edge, and the whole surface is crushed."""

    @pytest.mark.parametrize("g,count", [(1, 2), (2, 160)])
    def test_every_one_hole_cell_leaves_the_bubble_alone(self, g, count):
        cells = [
            cell
            for classes in enumeration.enumerate_all_cells(g, ["q"]).values()
            for cell in classes
        ]
        assert len(cells) == count
        for cell in cells:
            graph, marking = cell.graph, cell.marking
            zone = degeneration._zone_edges(graph, marking.orbit("q"))
            assert len(zone) == graph.n_edges()
            topo = hole_topology((graph, marking), "q")
            assert topo == HoleTopology(SURFACE, g, ())
            lengths = {e: Fraction(1, graph.n_edges()) for e in graph.edges()}
            res = shrink(MarkedMetricGraph(graph, marking, lengths), "q")
            assert (res.topology, res.components, res.nodes) == (topo, (), ())
            assert res.dual == DualGraph([(g, {"q"}, False)], [])


class TestZoneMemo:
    """A graph keeps one zone entry per hole orbit, whatever the labelling."""

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (1, 3)])
    def test_memo_matches_the_uncached_classification(self, g, n):
        labels = [f"p{i}" for i in range(1, n + 1)]
        cells = enumeration.enumerate_all_cells(g, labels)
        classified = set()
        for classes in cells.values():
            for cell in classes:
                for q in labels:
                    got = hole_topology((cell.graph, cell.marking), q)
                    orbit = cell.marking.orbit(q)
                    graph = fresh_copy(cell.graph)
                    zone = degeneration._zone_edges(graph, orbit)
                    cut = stable.collapse(graph, zone)
                    assert got == degeneration._hole_zone_topology(graph, orbit, zone, cut)
                    assert cell.graph._zones[orbit].topology is got
                    classified.add((id(cell.graph), orbit))
        # one classification per hole of each distinct graph, whatever the labelling
        graphs = {id(cell.graph) for classes in cells.values() for cell in classes}
        assert len(classified) == n * len(graphs)

    def test_second_call_reads_the_memo(self, monkeypatch):
        graph = fresh_copy(CYL)
        m = mark_all_holes(graph, ["p", "q"])
        first = hole_topology((graph, m), "q")
        monkeypatch.setattr(degeneration, "collapse", None)
        assert hole_topology((graph, m), "q") is first
        relabelled = Marking(graph, {"x": m.targets["q"], "y": m.targets["p"]})
        assert hole_topology((graph, relabelled), "x") is first

    def test_only_shrink_and_hole_topology_fill_the_memo(self):
        graph = fresh_copy(CYL)
        m = mark_all_holes(graph, ["p", "q"])
        detect_clusters((graph, m), ["p", "q"])
        stable.build_stable(graph, m, [graph.edges(), [(1, 7), (2, 4)]])
        stable.collapse(graph, degeneration._zone_edges(graph, m.orbit("q")))
        assert graph._zones is None
        # a topology query keeps the topology only; a shrink adds the parts
        topo = hole_topology((graph, m), "q")
        entry = graph._zones[m.orbit("q")]
        assert (entry.topology, entry.parts, entry.genera, entry.nodes) == (topo, None, None, None)
        res = shrink(zone_metric(graph, m, "q"), "q")
        assert list(graph._zones) == [m.orbit("q")]
        assert graph._zones[m.orbit("q")] is entry and entry.topology is topo
        assert [part for _, part in entry.parts] == [c.graph for c in res.components]
        assert entry.genera == [genus(c.graph) for c in res.components]
        assert entry.nodes == res.nodes

    def test_errors_are_not_memoized(self):
        graph = fresh_copy(THETA)
        targets = {l: (HOLE, frozenset(h)) for l, h in zip("abc", graph.holes())}
        m = Marking(graph, targets | {"v": (VERTEX, frozenset({1, 2, 3}))})
        with pytest.raises(VertexMark):
            hole_topology((graph, m), "v")
        with pytest.raises(DomainMismatch):
            hole_topology((graph, m), "z")
        assert graph._zones is None


class TestShrinkDigest:
    """Every shrink of a labelled cell, cold and then warm, against a digest.

    The digest was recorded before ``shrink`` kept the quotient's parts in
    the zone entries: one sha256 over ``shrink_to_json`` (keys sorted), or
    the error's name, for every labelled cell and hole of (0,4), (1,2) and
    (2,1) under ``checks._zone_metric``, in ``enumerate_all_cells`` order.
    """

    DIGEST = "1454b7845ca9e31ee4fe8935fe7133ff227e755e3f25a94c0cb71bcb46f1753a"

    @staticmethod
    def digest():
        h = hashlib.sha256()
        count = 0
        for g, n in [(0, 4), (1, 2), (2, 1)]:
            labels = [f"p{i}" for i in range(1, n + 1)]
            for _, classes in sorted(enumeration.enumerate_all_cells(g, labels).items()):
                for cell in classes:
                    for q in labels:
                        metric = checks._zone_metric(cell.graph, cell.marking, q)
                        try:
                            blob = json.dumps(shrink_to_json(shrink(metric, q)), sort_keys=True)
                        except RibbonError as err:
                            blob = type(err).__name__
                        h.update(blob.encode() + b"\n")
                        count += 1
        return h.hexdigest(), count

    def test_cold_and_warm_passes_give_the_recorded_digest(self, monkeypatch):
        assert self.digest() == (self.DIGEST, 1554)

        # the cached classes share their graphs, so every zone is now kept
        def refuse(*args):
            raise AssertionError("a warm shrink collapsed its zone again")

        monkeypatch.setattr(degeneration, "collapse", refuse)
        assert self.digest() == (self.DIGEST, 1554)


class TestIntegerConeCheck:
    """``shrink``'s integer cone check against the ``Fraction`` perimeters.

    Every labelled cell and hole of (0,4), (1,2) and (2,1) under
    ``checks._zone_metric``, and for each other hole p the zone rescaled
    by the t at which l_q and l_p tie exactly, and by t just below and just
    above it.
    """

    @staticmethod
    def metrics(cell, q):
        base = checks._zone_metric(cell.graph, cell.marking, q)
        yield base
        zone = degeneration._zone_edges(cell.graph, cell.marking.orbit(q))
        l_q = base.circumference(q)
        for p in cell.marking.hole_labels():
            if p == q:
                continue
            # l_p = a_p + b_p, a_p on the zone's edges; scaling the zone by t
            # gives t*l_q against t*a_p + b_p
            a_p = sum(
                base.side_length(x)
                for x in cell.marking.orbit(p)
                if cell.graph.edge_of(x) in zone
            )
            b_p = base.circumference(p) - a_p
            if b_p > 0 and l_q > a_p:
                tie = b_p / (l_q - a_p)
                for t in (tie, tie * Fraction(9999, 10000), tie * Fraction(10001, 10000)):
                    lengths = {e: v * t if e in zone else v for e, v in base.lengths.items()}
                    yield MarkedMetricGraph(cell.graph, cell.marking, lengths)

    def test_a_violation_exactly_when_the_fraction_perimeters_give_one(self):
        checked, ties, violations = 0, 0, 0
        for g, n in [(0, 4), (1, 2), (2, 1)]:
            labels = [f"p{i}" for i in range(1, n + 1)]
            for classes in enumeration.enumerate_all_cells(g, labels).values():
                for cell in classes:
                    for q in labels:
                        for metric in self.metrics(cell, q):
                            l_q = metric.circumference(q)
                            others = [metric.circumference(p) for p in labels if p != q]
                            want = any(l_q >= l_p for l_p in others)
                            try:
                                shrink(metric, q)
                                got = False
                            except ConeViolation:
                                got = True
                            assert got == want
                            checked += 1
                            ties += l_q in others
                            violations += want
        assert ties > 0 and 0 < violations < checked


class TestMetricPath:
    def scaled_results(self, graph, marking, q):
        out = []
        for t in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            res = shrink(zone_metric(graph, marking, q, scale=t), q)
            out.append(
                (
                    [component_key(c) for c in res.components],
                    res.dual,
                    res.topology,
                )
            )
        return out

    def test_retraction_path_lands_on_one_endpoint(self):
        cells = enumeration.enumerate_all_cells(0, ["a", "b", "c", "d"])
        checked = 0
        for classes in cells.values():
            for cell in classes:
                for q in ("a", "b", "c", "d"):
                    if not cone_reachable(cell.graph, cell.marking, q):
                        continue
                    first, *rest = self.scaled_results(
                        cell.graph, cell.marking, q
                    )
                    assert all(r == first for r in rest)
                    checked += 1
        assert checked > 0

    def test_contracting_a_zero_limit_edge_commutes(self):
        cells = enumeration.enumerate_all_cells(0, ["a", "b", "c", "d"])
        compared = 0
        for classes in cells.values():
            for cell in classes:
                for q in ("a", "b", "c", "d"):
                    graph, marking = cell.graph, cell.marking
                    if not cone_reachable(graph, marking, q):
                        continue
                    zone = {
                        graph.edge_of(x) for x in marking.orbit(q)
                    }
                    res = shrink(zone_metric(graph, marking, q), q)
                    want = sorted(component_key(c) for c in res.components)
                    for e in sorted(zone):
                        if frozenset(e) in {
                            frozenset(h) for h in graph.holes()
                        }:
                            continue
                        try:
                            small = contract_edge(graph, e)
                        except Exception:
                            continue
                        cut = {
                            l: (k, o - set(e))
                            for l, (k, o) in marking.targets.items()
                        }
                        small_m = Marking(small, cut)
                        if not cone_reachable(small, small_m, q):
                            continue
                        res2 = shrink(zone_metric(small, small_m, q), q)
                        got = sorted(
                            component_key(c) for c in res2.components
                        )
                        assert got == want
                        assert res2.dual == res.dual
                        compared += 1
        assert compared > 0


class TestIteratedShrink:
    def find_disjoint_disk_pair(self):
        cells = enumeration.enumerate_all_cells(0, ["a", "b", "c", "d"])
        for classes in cells.values():
            for cell in classes:
                graph, marking = cell.graph, cell.marking
                zones = {}
                touched = {}
                for q in ("a", "b", "c", "d"):
                    zones[q] = {graph.edge_of(x) for x in marking.orbit(q)}
                    touched[q] = {
                        frozenset(v)
                        for v in graph.vertices()
                        if any(graph.edge_of(x) in zones[q] for x in v)
                    }
                for q1 in ("a", "b", "c", "d"):
                    for q2 in ("a", "b", "c", "d"):
                        if q1 >= q2 or touched[q1] & touched[q2]:
                            continue
                        k1 = hole_topology((graph, marking), q1).kind
                        k2 = hole_topology((graph, marking), q2).kind
                        if k1 == DISK and k2 == DISK:
                            return cell, q1, q2
        raise AssertionError("no disjoint disk pair found")

    def nested_metric(self, graph, marking, q1, q2, delta):
        z1 = {graph.edge_of(x) for x in marking.orbit(q1)}
        z2 = {graph.edge_of(x) for x in marking.orbit(q2)}
        lengths = {}
        for e in graph.edges():
            if e in z2:
                lengths[e] = delta
            elif e in z1:
                lengths[e] = 16 * delta
            else:
                lengths[e] = Fraction(1)
        return MarkedMetricGraph(graph, marking, lengths)

    def two_stage(self, metric, q1, q2):
        first = shrink(metric, q2)
        outputs = []
        for comp in first.components:
            if q1 in comp.marking.hole_labels():
                second = shrink(comp, q1)
                outputs.append(second)
            else:
                outputs.append(comp)
        return first, outputs

    def test_final_shape_ignores_the_metric_choice(self):
        cell, q1, q2 = self.find_disjoint_disk_pair()
        runs = []
        for delta in (Fraction(1, 4096), Fraction(1, 65536)):
            metric = self.nested_metric(
                cell.graph, cell.marking, q1, q2, delta
            )
            first, outputs = self.two_stage(metric, q1, q2)
            shapes = []
            for out in outputs:
                if isinstance(out, ShrinkResult):
                    shapes.append(
                        (
                            sorted(
                                component_key(c) for c in out.components
                            ),
                            out.dual,
                        )
                    )
                else:
                    shapes.append(component_key(out))
            runs.append(shapes)
        assert runs[0] == runs[1]


class TestDetectClusters:
    def test_loops_of_the_dumbbell_stay_apart(self):
        m = mark_all_holes(DUMBBELL, ["a", "b", "c"])
        blocks = detect_clusters((DUMBBELL, m), ["a", "c"])
        assert blocks == [frozenset({"a"}), frozenset({"c"})]

    def test_holes_sharing_an_edge_cluster_together(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        assert detect_clusters((THETA, m), ["a", "b"]) == [frozenset({"a", "b"})]
        assert detect_clusters((THETA, m), ["a", "b", "c"]) == [frozenset({"a", "b", "c"})]

    def test_holes_sharing_only_a_vertex_cluster_together(self):
        m = mark_all_holes(CROSS, ["x", "y", "z"])
        x_edges = {CROSS.edge_of(s) for s in m.orbit("x")}
        z_edges = {CROSS.edge_of(s) for s in m.orbit("z")}
        assert not x_edges & z_edges
        assert detect_clusters((CROSS, m), ["x", "z"]) == [frozenset({"x", "z"})]

    def test_blocks_are_maximal(self):
        m = mark_all_holes(DUMBBELL, ["a", "b", "c"])
        blocks = detect_clusters((DUMBBELL, m), ["a", "b", "c"])
        assert blocks == [frozenset({"a", "b", "c"})]

    def test_order_of_labels_is_irrelevant(self):
        m = mark_all_holes(CROSS, ["x", "y", "z"])
        one = detect_clusters((CROSS, m), ["x", "y", "z"])
        two = detect_clusters((CROSS, m), ["z", "x", "y"])
        assert one == two

    def test_vertex_labels_are_refused(self):
        m = mark_all_holes(THETA, ["a", "b", "c"])
        m = Marking(THETA, dict(m.targets, z=(VERTEX, frozenset({1, 2, 3}))))
        with pytest.raises(VertexMark):
            detect_clusters((THETA, m), ["a", "z"])


class TestCylinderConfigurations:
    def test_the_count_is_the_product_of_the_gaps(self):
        for v1 in range(1, 5):
            for v2 in range(1, 5):
                configs = cylinder_configurations(v1, v2)
                assert len(configs) == v1 * v2
                gaps = {c["gaps"] for c in configs}
                assert len(gaps) == v1 * v2

    def test_each_cycle_walks_the_doubled_edge_twice(self):
        for config in cylinder_configurations(2, 3):
            cycle = config["cycle"]
            assert len(cycle) == 2 + 3 + 4
            assert cycle.count(0) == 2
            i, j = [k for k, e in enumerate(cycle) if e == 0]
            assert j - i - 1 in (3, 4)
            others = [e for e in cycle if e != 0]
            assert sorted(others) == list(range(1, 8))

    def test_degenerate_arcs_are_refused(self):
        with pytest.raises(DomainMismatch):
            cylinder_configurations(0, 2)


def assert_json_consistent(res, data):
    """Every emitted component parses back, and every node names one of its vertices."""
    assert len(data["components"]) == len(res.components)
    vertex_sets = []
    for blob, comp in zip(data["components"], res.components):
        graph, marking, lengths = graph_from_json(blob)
        assert canonical_form(graph, marking) == canonical_form(comp.graph, comp.marking)
        assert sorted(lengths.values()) == sorted(comp.lengths.values())
        vertex_sets.append({frozenset(v) for v in graph.vertices()})
    for node in data["nodes"]:
        assert frozenset(node["vertex"]) in vertex_sets[node["component"]]


class TestJsonForms:
    def test_every_shrink_round_trips(self):
        # the genus-1 two-hole complex has components whose sides are not 1..n
        labels = ["p1", "p2"]
        shrinks = 0
        for classes in enumeration.enumerate_all_cells(1, labels).values():
            for cell in classes:
                for q in labels:
                    if not cone_reachable(cell.graph, cell.marking, q):
                        continue
                    res = shrink(zone_metric(cell.graph, cell.marking, q), q)
                    assert_json_consistent(res, shrink_to_json(res))
                    shrinks += 1
        assert shrinks

    def test_disk_shrink_payload(self):
        res = shrink(theta_metric(), "a")
        data = shrink_to_json(res)
        assert data["kind"] == DISK
        assert data["topology"] == {
            "kind": DISK,
            "genus": 0,
            "boundary": [],
            "closed_complement": False,
        }
        assert data["nodes"] == []
        (comp,) = data["components"]
        gph, marking, lengths = graph_from_json(comp)
        assert marking.kind("a") == VERTEX
        assert lengths == {(1, 2): Fraction(3, 4)}

    def test_cylinder_shrink_payload_round_trips(self):
        m = mark_all_holes(CYL, ["q", "p"])
        lengths = {e: Fraction(1, 64) for e in CYL.edges()}
        lengths[(6, 12)] = Fraction(2)
        res = shrink(MarkedMetricGraph(CYL, m, lengths), "q")
        data = shrink_to_json(res)
        assert data["kind"] == CYLINDER
        # the component keeps edge (6, 12), written with its sides renumbered 1..2
        assert data["nodes"] == [
            {"component": 0, "vertex": [1]},
            {"component": 0, "vertex": [2]},
        ]
        assert_json_consistent(res, data)
        assert data["dual"] == {
            "vertices": [
                {"genus": 0, "labels": ["p"], "positive": True},
                {"genus": 0, "labels": ["q"], "positive": False},
            ],
            "edges": [[0, 1], [0, 1]],
        }

    def test_bare_bubble_has_no_components(self):
        m = mark_all_holes(TORUS_CELL, ["p"])
        lengths = {e: Fraction(1, 3) for e in TORUS_CELL.edges()}
        data = shrink_to_json(shrink(MarkedMetricGraph(TORUS_CELL, m, lengths), "p"))
        assert data["components"] == []
        assert data["topology"]["closed_complement"] is True
