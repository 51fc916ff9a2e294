"""Collapse surgery; stable ribbon graphs from collapse sequences.

An edge subset Z of a ribbon graph spawns two smaller graphs: the subgraph
G_Z keeps only the orientations of Z and lets rotations become first-return
maps, while the quotient G/G_Z keeps the complementary sides and lets the
boundary walks become first-return maps.  Holes of G_Z that the ambient
graph never had ("exceptional") match up, one for one, with vertices of
G/G_Z that the ambient graph never had, and the matching is computed by an
explicit walk, not by counting.  ``collapse`` is the one way to cut a
graph: it computes G_Z, G/G_Z and that matching once, from Z checked once,
handing G/G_Z the sigma_inf it is built from.  Every collapse in the
package goes through it, and ``carry_labels`` is the one routine that
moves labels onto the components of G/G_Z (``quotient_parts``).  A stable
core that is all of G_Z spawns from G_Z itself.

Iterating the construction along a permissible sequence of subsets yields a
stable ribbon graph: components at increasing orders plus an involution
``iota`` pairing each unmarked hole with the vertex its collapse created.
Tree-like collapse pieces just donate an ordinary vertex, circle-like ones
either hand their surrounded hole's label to the new vertex or vanish as
unstable spheres (their two boundary points get paired directly), and only
the stable cores spawn deeper components.  Each piece is sorted into these
three kinds by the rule ``_classify_edges`` applies.

iota's pairing points ride as labels.  A hole or vertex that awaits its
partner carries a (token, end) label beside the real (string) labels, so
``carry_labels`` moves it across later collapses like any other label, and
iota is read off at the end by pairing the two ends of each token.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count as _count
from typing import NamedTuple

from . import permutations as perms
from .errors import (
    BrokenInvariant,
    EmptySubset,
    NoSuchEdge,
    NotPermissible,
)
from .ribbon import (
    HOLE,
    VERTEX,
    Marking,
    RibbonGraph,
    graph_to_json,
    restrict,
    side_numbering,
    smooth_bivalent,
)

CONTRACTIBLE = "contractible"
SEMISTABLE = "semistable"
STABLE_BEARING = "stable-bearing"


def _normalize_edges(g: RibbonGraph, Z):
    out = set()
    for e in Z:
        e = tuple(sorted(e))
        if len(e) != 2 or g.sigma1.get(e[0]) != e[1]:
            raise NoSuchEdge(f"{e!r} is not an edge of the graph")
        out.add(e)
    return out


def _zone_sides(edges):
    return {x for e in edges for x in e}


# --- collapse -------------------------------------------------------------------


def _subgraph(g: RibbonGraph, zz):
    """G_Z for a nonempty set ``zz`` of edges of ``g``, each as (a, b), a < b.

    Rotations restrict by first return, so surviving sides keep their cyclic
    order around each vertex.
    """
    sides = _zone_sides(zz)
    s0 = perms.restrict_first_return(g.sigma0, sides)
    s1 = {x: g.sigma1[x] for x in sides}
    return RibbonGraph(s0, s1, sides)


def _new_orbits(orbits, ambient):
    return sorted(orbits - ambient, key=min)


def _quotient(g: RibbonGraph, zz):
    """G/G_Z for a nonempty set ``zz`` of edges of ``g``.

    Boundary walks restrict by first return, and the graph keeps that
    sigma_inf; the rotations are recovered from sigma0 = sigma1 o
    sigma_inf^{-1}.
    """
    remaining = set(g.sides) - _zone_sides(zz)
    s1 = {x: g.sigma1[x] for x in remaining}
    s_inf = perms.restrict_first_return(g.sigma_inf, remaining)
    inv_inf = perms.inverse(s_inf)
    s0 = {x: s1[inv_inf[x]] for x in remaining}
    return RibbonGraph(s0, s1, remaining, sigma_inf=s_inf)


class Collapse(NamedTuple):
    """Collapsing an edge subset Z: G_Z, G/G_Z and the scar pairing.

    ``sub`` is G_Z on the sides of Z and ``quo`` is G/G_Z on the others;
    ``pairs`` matches each exceptional hole of ``sub`` with the exceptional
    vertex of ``quo`` it collapses onto, as [(hole, vertex), ...] sorted by
    hole.
    """

    sub: RibbonGraph
    quo: RibbonGraph
    pairs: list


def collapse(g: RibbonGraph, Z) -> Collapse:
    """Collapse a nonempty subset Z: G_Z and G/G_Z once, scars paired.

    Z is checked and normalized once, and an empty Z is refused.  G/G_Z is
    built knowing its sigma_inf (the first return of the ambient one), so
    it does not work it out again.  The exceptional holes are
    ``sub.hole_orbits() - g.hole_orbits()`` and the exceptional vertices
    ``quo.vertex_orbits() - g.vertex_orbits()``.  From a side of a
    truncated hole, walking the ambient rotation until the edge involution
    re-enters the hole sweeps out exactly the sides of the matching
    collapsed vertex; walking boundary links from a collapsed vertex sweeps
    the hole back out.  Both walks are performed and checked against each
    other.  A Z of every edge leaves a quotient with no sides and no pairs:
    the whole surface becomes one point.
    """
    zz = _normalize_edges(g, Z)
    if not zz:
        raise EmptySubset("subgraph of no edges")
    sub = _subgraph(g, zz)
    quo = _quotient(g, zz)
    exc_holes = _new_orbits(sub.hole_orbits(), g.hole_orbits())
    exc_verts = _new_orbits(quo.vertex_orbits(), g.vertex_orbits())
    s0, s1, s_inf = g.sigma0, g.sigma1, g.sigma_inf
    bound = len(g.sides) + 1

    pairs = []
    for hole in exc_holes:
        swept = set()
        for e in hole:
            x = s0[e]
            steps = 1
            while s1[x] not in hole:
                swept.add(x)
                x = s0[x]
                steps += 1
                if steps > bound:
                    raise BrokenInvariant("hole-to-vertex walk failed to return")
        pairs.append((hole, frozenset(swept)))

    back = {}
    for vert in exc_verts:
        swept = set()
        for e in vert:
            x = s_inf[s1[e]]
            steps = 1
            while x not in vert:
                swept.add(x)
                x = s_inf[x]
                steps += 1
                if steps > bound:
                    raise BrokenInvariant("vertex-to-hole walk failed to return")
        back[frozenset(vert)] = frozenset(swept)

    forward = dict(pairs)
    if set(forward.values()) != set(back):
        raise BrokenInvariant("exceptional holes and vertices fail to match up")
    if any(back[v] != h for h, v in pairs):
        raise BrokenInvariant("exceptional correspondence is not involutive")
    return Collapse(sub, quo, pairs)


def quotient_parts(cut: Collapse):
    """[(sides, component)] for the components of G/G_Z by least side.

    A connected G/G_Z is its own one component: it is returned, not copied.
    """
    comps = cut.quo.components()
    if len(comps) == 1:
        return [(comps[0], cut.quo)]
    return [(sides, restrict(cut.quo, sides)) for sides in comps]


def carry_labels(parts, marks):
    """[(component, labels)] for the ``quotient_parts`` of a collapse.

    ``marks`` maps labels to (kind, orbit) targets of the ambient graph, or
    to vertices of G/G_Z itself.  A hole label keeps its remnant in every
    component it reaches, a vertex label stays whole on its vertex, and a
    label inside the zone is dropped.  The parts are only read, so a caller
    may keep them and carry other labels across the same collapse later.
    """
    out = []
    for sides, part in parts:
        here = {}
        for label, (kind, orb) in marks.items():
            remnant = orb & sides
            if kind == VERTEX and remnant and remnant != orb:
                raise BrokenInvariant(
                    "an unconsumed vertex label touches the collapse zone"
                )
            if remnant:
                here[label] = (kind, remnant)
        out.append((part, here))
    return out


# --- subset classification --------------------------------------------------------


def _subset_valencies(g: RibbonGraph, edges):
    """Incidence count of each touched vertex orbit; loops count twice."""
    vertex = g.vertex_orbit_map()
    val = {}
    for a, b in edges:
        for x in (a, b):
            v = vertex[x]
            val[v] = val.get(v, 0) + 1
    return val


def _prune_unmarked_tails(g: RibbonGraph, edges, marked_orbits):
    """Drop leaf edges at unmarked univalent vertices until none remain."""
    vertex = g.vertex_orbit_map()
    keep = set(edges)
    while True:
        val = _subset_valencies(g, keep)
        prunable = {v for v, d in val.items() if d == 1 and v not in marked_orbits}
        if not prunable:
            return frozenset(keep)
        for e in list(keep):
            if any(vertex[x] in prunable for x in e):
                keep.discard(e)


def _classify_edges(g: RibbonGraph, edges, marked_orbits):
    """(kind, core) of a connected edge subset: what shrinking it leaves behind.

    A tree carrying at most one marked vertex contracts to an ordinary
    point; a homotopy circle with no marked vertex pinches; anything else
    keeps a nonempty stable core, obtained by pruning unmarked tails.  The
    core is None for the first two kinds.  The rule reads the marked
    vertices only, never a hole's label, and each kind leaves the piece's
    holes inside the subset labelled, so one hole-to-label map serves all
    three kinds in ``_quotient_piece``.
    """
    val = _subset_valencies(g, edges)
    n_marked = sum(1 for v in val if v in marked_orbits)
    n_vertices, n_edges = len(val), len(edges)
    if n_edges == n_vertices - 1 and n_marked <= 1:
        return CONTRACTIBLE, None
    if n_edges == n_vertices and n_marked == 0:
        return SEMISTABLE, None
    core = _prune_unmarked_tails(g, edges, marked_orbits)
    if not core:
        raise BrokenInvariant("pruning emptied a stable-bearing subset")
    return STABLE_BEARING, core


# --- stable ribbon graphs ---------------------------------------------------------


class StableGraphData:
    """A disjoint union of marked components glued along an involution.

    ``components[i]`` is a ribbon graph; ``markings[i]`` maps surviving
    labels to (kind, orbit) targets inside it.  ``iota`` is a
    fixed-point-free involution on the unmarked holes and exceptional
    vertices, as (component, kind, orbit) points, pairing each degenerate
    hole with the vertex it collapsed onto (or two vertices across a
    discarded sphere).  ``order[i]`` is the stage at which component i
    was spawned.
    """

    __slots__ = ("components", "markings", "order", "iota")

    def __init__(self, components, markings, order, iota):
        self.components = tuple(components)
        self.markings = tuple(dict(m) for m in markings)
        self.order = tuple(order)
        self.iota = dict(iota)

    @property
    def lengths(self):
        """The uniform stable metric of each component: 1/E on each of its E edges."""
        return tuple(
            dict.fromkeys(edges, Fraction(1, len(edges)))
            for edges in (graph.edges() for graph in self.components)
        )

    def __repr__(self):
        sizes = ", ".join(
            f"order {o}: {g.n_edges()} edges" for g, o in zip(self.components, self.order)
        )
        return f"StableGraphData({sizes}; {len(self.iota) // 2} iota pairs)"


class _Piece:
    """One live component during assembly: graph, labels, order.

    ``marks`` maps labels to (kind, orbit) targets.  Besides the real
    labels (strings), it holds the pairing points that await their iota
    partner: each is labelled (token, end), and the two ends of a token
    are paired once the assembly is done.
    """

    __slots__ = ("graph", "marks", "order")

    def __init__(self, graph, marks, order):
        self.graph = graph
        self.marks = dict(marks)
        self.order = order


def _smooth_unmarked_bivalents(graph: RibbonGraph, keep_orbits) -> RibbonGraph:
    """Splice out bivalent vertices whose orbit is not in ``keep_orbits``."""
    while True:
        for a in graph.sides:
            b = graph.sigma0[a]
            if b != a and graph.sigma0[b] == a and frozenset((a, b)) not in keep_orbits:
                graph = smooth_bivalent(graph, a, b)
                break
        else:
            return graph


def _spawn_core(cut: Collapse, core_edges, marked_orbits):
    """Build the next-stage component on the pruned core of a stable piece.

    A core that is all of G_Z is G_Z itself; any other is cut out of it.
    """
    if len(core_edges) == cut.sub.n_edges():
        core = cut.sub
    else:
        core = _subgraph(cut.sub, core_edges)
    keep = set()
    for orb in marked_orbits:
        remnant = orb & set(core.sides)
        if remnant:
            keep.add(frozenset(perms.orbit_of(core.sigma0, min(remnant))))
    return _smooth_unmarked_bivalents(core, keep)


def _quotient_piece(piece: _Piece, zr, tokens):
    """Collapse ``zr`` inside one piece; return (finished quo pieces, spawned).

    The labels are read once.  A vertex label on the zone moves with its
    component of G_Z: a tree's one goes to the tree's new vertex and a
    core's go into the spawn, while a circle has none.  So ``left``, the
    labels carried onto G/G_Z, starts without them.  A hole of G_Z is a
    scar or a hole of the piece inside the zone, and every hole of the
    piece carries a label, real or a pairing point.  So one hole-to-label
    map serves every branch: a circle hands its inner hole's label to its
    new vertex, and a core hands its inner holes' labels to the spawn.  A
    hole label inside the zone may stay in ``left``, since ``carry_labels``
    drops a label that reaches no component of G/G_Z.
    """
    graph = piece.graph
    cut = collapse(graph, zr)
    vert_of = dict(cut.pairs)
    hole_label, on_zone, left = {}, {}, {}
    for label, (kind, orb) in piece.marks.items():
        if kind == HOLE:
            hole_label[orb] = label
        elif not orb.isdisjoint(cut.sub.sigma1):  # keyed by the sides of G_Z
            on_zone[label] = orb
            continue
        left[label] = (kind, orb)
    marked_orbits = set(on_zone.values())
    sub_edges = cut.sub.edges()
    explained = set()
    spawned = []

    for comp_sides in cut.sub.components():
        comp_edges = {e for e in sub_edges if e[0] in comp_sides}
        scars, inner = [], {}
        for h in cut.sub.hole_orbits():
            if not h <= comp_sides:
                continue
            if h in vert_of:
                scars.append(h)
            elif h in hole_label:
                inner[h] = hole_label[h]
            else:
                raise BrokenInvariant("a hole of the piece carries no label")
        comp_marked = {l: orb for l, orb in on_zone.items() if orb & comp_sides}
        kind, core = _classify_edges(graph, comp_edges, marked_orbits)

        if kind == CONTRACTIBLE:
            # a tree: its collapse vertex is ordinary, inheriting the one label
            if inner or len(scars) != 1:
                raise BrokenInvariant("a proper tree piece must scar its hole")
            vert = vert_of[scars[0]]
            explained.add(vert)
            for label in comp_marked:
                left[label] = (VERTEX, vert)
        elif kind == SEMISTABLE:
            # a circle: pinch; the two boundary walks decide what the ends become
            if len(scars) + len(inner) != 2:
                raise BrokenInvariant("a circle piece must have two holes")
            if len(scars) == 2:
                # unstable sphere: discard it, pair its two scars directly
                tok = next(tokens)
                for end, h in enumerate(scars):
                    left[(tok, end)] = (VERTEX, vert_of[h])
                    explained.add(vert_of[h])
            elif len(scars) == 1:
                # the inner hole's label, real or a pairing point, moves to the vertex
                (label,) = inner.values()
                left[label] = (VERTEX, vert_of[scars[0]])
                explained.add(vert_of[scars[0]])
            else:
                raise BrokenInvariant("a circle collapse piece must scar at least one hole")
        else:
            # a stable core: spawn the next-stage component
            spawn_graph = _spawn_core(cut, core, marked_orbits)
            spawn_sides = set(spawn_graph.sides)
            marks = {}
            for label, orb in comp_marked.items():
                remnant = orb & spawn_sides
                if not remnant:
                    raise BrokenInvariant("a marked vertex of a core kept no side in the spawn")
                marks[label] = (VERTEX, remnant)
            labelled = set()
            for orb, label in inner.items():
                remnant = orb & spawn_sides
                if not remnant:
                    raise BrokenInvariant("marked hole lost every side in the spawn")
                marks[label] = (HOLE, remnant)
                labelled.add(remnant)
            # a hole left without a label survives from a scar: pair the two
            scar_of = {x: h for h in scars for x in h}
            for hs in spawn_graph.hole_orbits() - labelled:
                scar = scar_of.get(min(hs))
                if scar is None or not hs <= scar:
                    raise BrokenInvariant("spawned hole is not a remnant of a collapse hole")
                tok = next(tokens)
                marks[(tok, 0)] = (HOLE, hs)
                left[(tok, 1)] = (VERTEX, vert_of[scar])
                explained.add(vert_of[scar])
            spawned.append(_Piece(spawn_graph, marks, piece.order + 1))

    if explained != set(vert_of.values()):
        raise BrokenInvariant("an exceptional vertex was left unexplained")

    finished = [
        _Piece(comp_graph, marks, piece.order)
        for comp_graph, marks in carry_labels(quotient_parts(cut), left)
    ]
    return finished, spawned


def build_stable(g: RibbonGraph, marking: Marking, zseq) -> StableGraphData:
    """Assemble the stable graph determined by a collapse sequence.

    ``zseq[0]`` must be the full edge set; each later entry lives inside
    the components spawned by the previous stage and may not swallow one
    whole.  Each component gets the uniform metric, 1/E on each of its E
    edges.  Every hole carries a label throughout: a real one, or a
    pairing point whose token names its iota partner.
    """
    if not zseq:
        raise NotPermissible("the sequence must start with the full edge set")
    first = {tuple(sorted(e)) for e in zseq[0]}
    if first != set(g.edges()):
        raise NotPermissible("the sequence must start with the full edge set")

    tokens = _count(1)
    final = []
    layer = [_Piece(g, marking.targets, 0)]

    for znext in zseq[1:]:
        if not znext:
            raise NotPermissible("collapse subsets must be nonempty")
        wanted = {tuple(sorted(e)) for e in znext}
        pieces = [(piece, set(piece.graph.edges())) for piece in layer]
        stray = wanted.difference(*(edges for _, edges in pieces))
        if stray:
            raise NotPermissible(
                f"{sorted(stray)[0]!r} is not an edge of the current stage"
            )
        next_layer = []
        for piece, edges in pieces:
            zr = wanted & edges
            if not zr:
                final.append(piece)
                continue
            if zr == edges:
                raise NotPermissible("a stage may not swallow a whole component")
            finished, spawned = _quotient_piece(piece, zr, tokens)
            final.extend(finished)
            next_layer.extend(spawned)
        layer = next_layer
    final.extend(layer)

    final.sort(key=lambda p: (p.order, min(p.graph.sides)))
    components = [p.graph for p in final]
    order = [p.order for p in final]

    markings = []
    token_points = {}
    for i, piece in enumerate(final):
        labelled = {orb for kind, orb in piece.marks.values() if kind == HOLE}
        if not piece.graph.hole_orbits() <= labelled:
            raise BrokenInvariant("a hole carries no label")
        real = {}
        for label, (kind, orb) in piece.marks.items():
            if isinstance(label, tuple):
                token_points.setdefault(label[0], []).append((i, kind, orb))
            else:
                real[label] = (kind, orb)
        markings.append(real)

    iota = {}
    for tok, points in token_points.items():
        if len(points) != 2:
            raise BrokenInvariant(f"pairing token {tok} appears {len(points)} time(s)")
        a, b = points
        if a[1] == HOLE and b[1] == HOLE:
            raise BrokenInvariant("iota may never pair two holes")
        iota[a] = b
        iota[b] = a

    data = StableGraphData(components, markings, order, iota)
    if not order_is_admissible(data):
        raise BrokenInvariant("constructed order fails admissibility")
    return data


def order_is_admissible(data: StableGraphData) -> bool:
    """Check ``data.order`` against the three admissibility rules.

    Order-0 components must contain a marked hole; a component whose
    exceptional points all point at components of order <= k must itself
    have order <= k+1 (and order 0 if it has none); every unmarked hole
    must sit at positive order with its partner a vertex strictly below.
    """
    order = data.order
    for i, marks in enumerate(data.markings):
        has_marked_hole = any(kind == HOLE for kind, _ in marks.values())
        if order[i] == 0 and not has_marked_hole:
            return False
        partners = [
            order[data.iota[p][0]] for p in data.iota if p[0] == i
        ]
        if not partners:
            if order[i] != 0:
                return False
        elif order[i] > 1 + max(partners):
            return False

    for point, partner in data.iota.items():
        if point[1] != HOLE:
            continue
        k = order[point[0]]
        if k == 0:
            return False
        if partner[1] != VERTEX or order[partner[0]] > k - 1:
            return False
    return True


def stable_to_json(data: StableGraphData) -> dict:
    """JSON-ready description: components, markings, orders, iota pairs.

    Each component is written with its sides renumbered to 1..n, and every
    orbit and edge naming its sides is written in the same numbering.
    """
    numbering = [side_numbering(graph) for graph in data.components]

    def orbit(i, sides):
        return sorted(numbering[i][x] for x in sides)

    def point(p):
        return {"component": p[0], "kind": p[1], "orbit": orbit(p[0], p[2])}

    comps = []
    for i, (graph, lengths) in enumerate(zip(data.components, data.lengths)):
        blob = graph_to_json(graph, lengths=lengths)
        blob["marking"] = {
            label: {"kind": kind, "orbit": orbit(i, orb)}
            for label, (kind, orb) in data.markings[i].items()
        }
        blob["order"] = data.order[i]
        comps.append(blob)
    pairs = []
    seen = set()
    for a, b in data.iota.items():
        key = tuple(sorted((a, b), key=lambda p: (p[0], p[1], min(p[2]))))
        if key in seen:
            continue
        seen.add(key)
        pairs.append([point(key[0]), point(key[1])])
    pairs.sort(key=lambda pr: (pr[0]["component"], pr[0]["orbit"]))
    return {"components": comps, "iota": pairs}
