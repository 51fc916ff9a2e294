"""Shrinking a marked hole, and the bookkeeping around it.

Setting every edge length around one hole to zero crushes a thickened zone
of the surface.  What remains splits into positive components (honest
metric ribbon graphs) and at most one nonpositive piece that survives only
as numerical data.  The zone's own topology, disk, cylinder with one
doubled edge, or a genuine surface, decides which: a disk leaves the hole
label on a fresh vertex, anything bigger buds off a labeled bubble joined
to the positive parts at nodes.  One ``stable.collapse`` of the zone
computes the zone subgraph G_Z, the quotient G/G_Z and the pairing of the
scar holes with the new vertices; the topology and the nodes are read from
it, and ``stable.carry_labels`` carries the labels onto the components of
G/G_Z, the positive parts.  Only the disk's vertex label is placed here.
A zone of every edge is no exception: it leaves no part, only the bubble.

The module also houses the dual graph a shrink records, the per-hole zone
classification used for stratum censuses, the adjacency clusters of a set
of holes, and the inventory of cylinder configurations the fiber integrals
sum over.  None of the zone's data reads a metric or a label, so a graph
keeps one zone entry per hole orbit (its ``_zones``), shared by every
metric and labelling of that graph: ``hole_topology`` makes it with the
zone's topology, and the first ``shrink`` of the hole adds the components
of G/G_Z, their genera and the nodes, checked once against the topology.
Each of them costs one collapse, and the collapse itself is not kept; only
the cone checks (integer perimeters over the common denominator of the
lengths), the labels and the lengths are worked out again on every shrink.
"""

from __future__ import annotations

from math import lcm

from .errors import (
    BrokenInvariant,
    ConeViolation,
    DomainMismatch,
    InconsistentLabels,
    VertexMark,
)
from .ribbon import (
    HOLE,
    VERTEX,
    Marking,
    MarkedMetricGraph,
    RibbonGraph,
    genus,
    graph_to_json,
    side_numbering,
)
from . import permutations as perms
from .stable import carry_labels, collapse, quotient_parts

DISK = "disk"
CYLINDER = "cylinder"
SURFACE = "surface"


# --- dual graphs ------------------------------------------------------------------


class DualGraph:
    """Vertices labeled (genus, labels, positive flag); edges are nodes.

    Loops are allowed.  Labels must be disjoint across vertices.  A shrink
    builds one with at most one nonpositive vertex, the bubble, and every
    edge joins the bubble to a positive component.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        seen = set()
        norm_v = []
        for g_v, labels, positive in vertices:
            if g_v < 0:
                raise InconsistentLabels(f"vertex genus {g_v} is negative")
            labels = frozenset(str(l) for l in labels)
            clash = labels & seen
            if clash:
                raise InconsistentLabels(f"label {sorted(clash)[0]!r} used twice")
            seen |= labels
            norm_v.append((int(g_v), labels, bool(positive)))
        norm_e = []
        for i, j in edges:
            if not (0 <= i < len(norm_v) and 0 <= j < len(norm_v)):
                raise InconsistentLabels(f"edge ({i}, {j}) points outside the graph")
            norm_e.append((min(i, j), max(i, j)))
        self.vertices = tuple(norm_v)
        self.edges = tuple(sorted(norm_e))

    def __eq__(self, other):
        return (
            isinstance(other, DualGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        vs = "; ".join(
            f"({g},{{{','.join(sorted(ls))}}},{'+' if pos else '0'})"
            for g, ls, pos in self.vertices
        )
        return f"DualGraph([{vs}], {list(self.edges)})"


# --- zone topology ----------------------------------------------------------------


class HoleTopology:
    """What the thickened zone of a hole (or cluster) looks like.

    kind is disk, cylinder, or surface; genus and the sorted boundary
    valency tuple qualify the surface case.
    """

    __slots__ = ("kind", "genus", "boundary")

    def __init__(self, kind, genus=0, boundary=()):
        if kind not in (DISK, CYLINDER, SURFACE):
            raise DomainMismatch(f"unknown zone kind {kind!r}")
        self.kind = kind
        self.genus = int(genus)
        self.boundary = tuple(boundary)

    @property
    def closed_complement(self):
        """A surface zone with no other boundary swallows the whole surface."""
        return self.kind == SURFACE and not self.boundary

    def __eq__(self, other):
        return isinstance(other, HoleTopology) and (
            (self.kind, self.genus, self.boundary)
            == (other.kind, other.genus, other.boundary)
        )

    def __repr__(self):
        if self.kind == DISK:
            return "HoleTopology(disk)"
        if self.kind == CYLINDER:
            return f"HoleTopology(cylinder{self.boundary})"
        tail = ", closed" if self.closed_complement else ""
        return f"HoleTopology(surface, genus {self.genus}, {self.boundary}{tail})"


def _graph_and_marking(g):
    graph, marking = g if isinstance(g, tuple) and len(g) == 2 else (None, None)
    if not (isinstance(graph, RibbonGraph) and isinstance(marking, Marking)):
        raise DomainMismatch("need a (graph, marking) pair")
    return graph, marking


def _hole_orbit(marking: Marking, q):
    if q not in marking.targets:
        raise DomainMismatch(f"no marking named {q!r}")
    kind, orbit = marking.targets[q]
    if kind == VERTEX:
        raise VertexMark(f"{q!r} marks a vertex, not a hole")
    return orbit


def _zone_edges(graph: RibbonGraph, orbit):
    return {graph.edge_of(x) for x in orbit}


def _zone_boundary(cut, orbit):
    """Genus of the zone subgraph and the valencies of its other boundary circles.

    ``cut`` is the zone's collapse.  A circle's valency is the size of the
    collapsed vertex it wraps (0 for a circle that is already a hole of the
    ambient graph, as every circle is for a zone of every edge).
    """
    partner = {h: len(v) for h, v in cut.pairs}
    boundary = [
        partner.get(hs, 0) for hs in map(frozenset, cut.sub.holes()) if hs != orbit
    ]
    return genus(cut.sub), boundary


def _cylinder_split(graph: RibbonGraph, orbit, doubled_edge):
    """Arc sizes, each minus one, on the two sides of the doubled edge."""
    walk = perms.orbit_of(graph.sigma_inf, min(orbit))
    a, b = doubled_edge
    i, j = walk.index(a), walk.index(b)
    n = len(walk)
    first = (j - i - 1) % n
    second = (i - j - 1) % n
    return first - 1, second - 1


class _Zone:
    """What a graph keeps about the zone of one hole orbit (its ``_zones``).

    ``topology`` is set when the entry is made.  The rest stays None until
    the first ``shrink`` of the hole fills it: ``parts`` (the quotient's
    ``quotient_parts``), ``genera`` (each part's genus) and ``nodes``, each
    exceptional vertex of G/G_Z as (part index, vertex) ordered by valency,
    then least side: the bubble's nodes, or a disk's one new vertex.  The
    check that the node valencies are the zone's boundary runs once, when
    the entry is filled.  None of it reads a metric or a label.
    """

    __slots__ = ("topology", "parts", "genera", "nodes")

    def __init__(self, topology):
        self.topology = topology
        self.parts = None
        self.genera = None
        self.nodes = None


def _zone_entry(graph: RibbonGraph, orbit, with_parts=False) -> _Zone:
    """The graph's entry for the zone of ``orbit``, made or filled on demand.

    One collapse serves whatever is missing; the collapse itself is not
    kept.  A failure keeps nothing.
    """
    if graph._zones is None:
        graph._zones = {}
    entry = graph._zones.get(orbit)
    if entry is None or (with_parts and entry.parts is None):
        zone = _zone_edges(graph, orbit)
        cut = collapse(graph, zone)
        topo = _hole_zone_topology(graph, orbit, zone, cut) if entry is None else entry.topology
        filled = _zone_parts(cut, topo) if with_parts else None
        if entry is None:
            entry = _Zone(topo)
        if filled:
            entry.parts, entry.genera, entry.nodes = filled
        graph._zones[orbit] = entry
    return entry


def _zone_parts(cut, topo):
    """The parts, genera and nodes of a ``_Zone``, from the zone's collapse."""
    parts = quotient_parts(cut)
    part_of = {x: i for i, (sides, _) in enumerate(parts) for x in sides}
    verts = sorted((v for _, v in cut.pairs), key=lambda v: (len(v), min(v)))
    # the cylinder boundary is measured along the hole walk instead
    if topo.kind == SURFACE and tuple(map(len, verts)) != topo.boundary:
        raise BrokenInvariant("node valencies differ from the zone boundary")
    nodes = tuple((part_of[min(v)], v) for v in verts)
    return parts, [genus(part) for _, part in parts], nodes


def hole_topology(g, q) -> HoleTopology:
    """Classify the thickened zone spanned by the edges bordering hole q.

    ``g`` is a (graph, marking) pair.  Disk: genus 0 with one boundary
    circle and no doubled edge.  Cylinder: genus 0, two circles, exactly
    one edge traversed twice by the hole; its boundary pair counts the
    hole's other sides on each arc, minus one.  Everything else is a
    surface whose boundary entries are the valencies of the vertices the
    circles collapse onto.  The answer is kept in the graph's zone entry
    for the hole orbit, for every labelling that shares the graph.
    """
    graph, marking = _graph_and_marking(g)
    return _zone_entry(graph, _hole_orbit(marking, q)).topology


def _hole_zone_topology(graph, orbit, zone, cut):
    """``hole_topology`` on a zone whose collapse ``cut`` is already known."""
    h, boundary = _zone_boundary(cut, orbit)
    doubled = [e for e in sorted(zone) if e[0] in orbit and e[1] in orbit]
    if h == 0 and len(boundary) == 1 and not doubled:
        return HoleTopology(DISK)
    if h == 0 and len(boundary) == 2 and len(doubled) == 1:
        v1, v2 = _cylinder_split(graph, orbit, doubled[0])
        if v1 >= 0 and v2 >= 0:
            return HoleTopology(CYLINDER, 0, tuple(sorted((v1, v2))))
    topo = HoleTopology(SURFACE, h, tuple(sorted(boundary)))
    _check_surface_count(graph, zone, topo)
    return topo


def _check_surface_count(graph, zone, topo):
    """Consistency identity for trivalent zones: boundary data vs edge count.

    With every touched vertex trivalent and an odd number of distinct
    edges 2r+3, the boundary valencies satisfy 6h - 6 + sum(v_j + 3) = 2r.
    """
    vertex = graph.vertex_orbit_map()
    touched = {vertex[x] for e in zone for x in e}
    if any(len(v) != 3 for v in touched):
        return
    n_edges = len(zone)
    if n_edges % 2 == 0:
        return
    lhs = 6 * topo.genus - 6 + sum(v + 3 for v in topo.boundary)
    if lhs != n_edges - 3:
        raise BrokenInvariant("zone boundary bookkeeping is inconsistent")


# --- shrinking --------------------------------------------------------------------


class ShrinkResult:
    """Outcome of crushing one hole's zone to a point.

    components are the positive parts (marked metric graphs keeping their
    original lengths).  For a disk zone the q label reappears as a vertex
    marking inside a component and there is no bubble; otherwise q names a
    nonpositive bubble recorded only through ``topology`` (genus and node
    valencies), and ``nodes`` lists, per boundary circle, the component
    and vertex orbit the bubble is glued to.  ``dual`` is the dual graph
    of the whole configuration.
    """

    __slots__ = ("topology", "components", "nodes", "dual")

    def __init__(self, topology, components, nodes, dual):
        self.topology = topology
        self.components = tuple(components)
        self.nodes = tuple(nodes)
        self.dual = dual

    @property
    def kind(self):
        return self.topology.kind

    def __repr__(self):
        return (
            f"ShrinkResult({self.kind}, {len(self.components)} component(s), "
            f"{len(self.nodes)} node(s))"
        )


def shrink(g: MarkedMetricGraph, q) -> ShrinkResult:
    """Crush the zone of hole q; the cone condition guards the limit.

    Requires l_q strictly below every other marked hole's perimeter, and
    no marked vertex bordering the zone (either failure could squeeze a
    second special point along with q); both are checked on every call, the
    first against this call's perimeters, compared as integers over the
    common denominator of the lengths.  The rest is the graph's: the first
    shrink of a hole keeps the quotient's parts, their genera and the
    exceptional vertices in the hole's zone entry, next to its topology,
    and every later shrink of that hole orbit, under any metric or
    labelling, carries its labels onto those parts.  The q label lands on
    the new vertex for a disk zone, on the bubble otherwise.
    """
    if not isinstance(g, MarkedMetricGraph):
        raise DomainMismatch("shrink needs a marked metric graph")
    marking = g.marking
    orbit = _hole_orbit(marking, q)
    d = lcm(*(v.denominator for v in g.lengths.values()))
    side_length = {}
    for (a, b), v in g.lengths.items():
        side_length[a] = side_length[b] = v.numerator * (d // v.denominator)
    l_q = sum(map(side_length.__getitem__, orbit))

    for p in marking.labels():
        if p == q:
            continue
        kind_p, orb_p = marking.targets[p]
        if kind_p == HOLE:
            if l_q >= sum(map(side_length.__getitem__, orb_p)):
                raise ConeViolation(
                    f"perimeter of {q!r} is not below that of {p!r}"
                )
        # the vertex borders the zone iff one of its sides, or that side's
        # partner, lies on q's hole
        elif any(x in orbit or g.graph.sigma1[x] in orbit for x in orb_p):
            raise ConeViolation(f"the marked vertex {p!r} borders the collapse zone")

    entry = _zone_entry(g.graph, orbit, with_parts=True)
    topo = entry.topology

    # q's hole lies inside the zone, so it reaches no part; a zone of every
    # edge leaves no part at all, and the cone checks made q the only label
    carried = carry_labels(entry.parts, marking.targets)

    if topo.kind == DISK:
        ((i, vert),) = entry.nodes
        carried[i][1][q] = (VERTEX, vert)

    components = []
    for part, marks in carried:
        lengths = {e: g.lengths[e] for e in part.edges()}
        components.append(MarkedMetricGraph(part, Marking(part, marks), lengths))

    dual_vertices = [
        (h, frozenset(c.marking.targets), True) for h, c in zip(entry.genera, components)
    ]
    if topo.kind == DISK:
        return ShrinkResult(topo, components, (), DualGraph(dual_vertices, []))

    bubble = len(dual_vertices)
    dual_vertices.append((topo.genus, frozenset({q}), False))
    dual = DualGraph(dual_vertices, [(i, bubble) for i, _ in entry.nodes])
    return ShrinkResult(topo, components, entry.nodes, dual)


# --- clusters ---------------------------------------------------------------------


def detect_clusters(g, labels):
    """Partition the given hole labels into adjacency clusters.

    ``g`` is a (graph, marking) pair.  Two holes are adjacent when they
    touch a common vertex; clusters are the chains of that relation,
    returned as sorted blocks.
    """
    graph, marking = _graph_and_marking(g)
    labels = sorted(str(l) for l in labels)
    vertex = graph.vertex_orbit_map()
    touched = {q: {vertex[x] for x in _hole_orbit(marking, q)} for q in labels}
    links = [
        (q1, q2)
        for i, q1 in enumerate(labels)
        for q2 in labels[i + 1 :]
        if touched[q1] & touched[q2]
    ]
    return sorted(perms.blocks(labels, links))


# --- cylinder configurations ------------------------------------------------------


def cylinder_configurations(v1: int, v2: int):
    """All local models of a cylinder zone with arc sizes v1+1 and v2+1.

    The doubled edge's endpoint on each boundary circle sits in one of the
    gaps between that circle's outgoing edges, so the models are indexed
    by a gap choice per side.  Each model carries the cyclic side sequence
    of the hole as edge indices: 0 is the doubled edge, 1..v1+1 the first
    arc, v1+2..v1+v2+2 the second.
    """
    if v1 < 1 or v2 < 1:
        raise DomainMismatch("cylinder arcs need at least one external edge each")
    first_arc = list(range(1, v1 + 2))
    second_arc = list(range(v1 + 2, v1 + v2 + 3))
    cycle = tuple([0] + first_arc + [0] + second_arc)
    return [
        {"gaps": (i, j), "cycle": cycle}
        for i in range(v1)
        for j in range(v2)
    ]


# --- JSON forms -------------------------------------------------------------------


def topology_to_json(t: HoleTopology) -> dict:
    return {
        "kind": t.kind,
        "genus": t.genus,
        "boundary": list(t.boundary),
        "closed_complement": t.closed_complement,
    }


def dual_to_json(gamma: DualGraph) -> dict:
    return {
        "vertices": [
            {"genus": g, "labels": sorted(labels), "positive": pos}
            for g, labels, pos in gamma.vertices
        ],
        "edges": [list(e) for e in gamma.edges],
    }


def shrink_to_json(res: ShrinkResult) -> dict:
    """Everything a shrink produced, components in full graph form.

    Node vertices are written in their component's serialized side numbering.
    """
    numbering = [side_numbering(c.graph) for c in res.components]
    return {
        "kind": res.kind,
        "topology": topology_to_json(res.topology),
        "components": [
            graph_to_json(c.graph, c.marking, c.lengths) for c in res.components
        ],
        "nodes": [
            {"component": i, "vertex": sorted(numbering[i][x] for x in v)}
            for i, v in res.nodes
        ],
        "dual": dual_to_json(res.dual),
    }
