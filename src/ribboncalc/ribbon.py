"""Ribbon graphs as permutation pairs, with markings, metrics, and JSON I/O.

A ribbon graph is a pair of permutations (sigma0, sigma1) of a finite set X
of *sides* (oriented edges): sigma0 rotates the sides counterclockwise around
their vertex, sigma1 swaps the two sides of each edge (a fixed-point-free
involution).  The third permutation sigma_inf, defined by

    sigma_inf o sigma1 o sigma0 = identity,

traverses the boundary cycles.  Orbits: vertices = sigma0-orbits, edges =
sigma1-orbits, holes = sigma_inf-orbits.  No graph changes once built, so
each graph object works out sigma_inf, its vertex, edge and hole cycles,
the sets of its vertex and hole orbits, the vertex orbit of each side, its
components and its least traversal code on first use and keeps them;
``vertices()``, ``edges()``, ``holes()`` and ``components()`` still return a
fresh list per call.  A graph derived from another may be handed its
sigma_inf when it is already known (``stable``'s G/G_Z, built from it),
and a canonical graph ``from_code`` built may be handed the least roots of
the graph whose code built it (``_hand_least_roots``); no other cache is
handed in, and only this module writes the caches of the orbits, the
edges, the components and the least roots.

Worked example (two trivalent vertices, three parallel edges)::

    >>> g = validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 5), (3, 6)])
    >>> g.holes()
    [(1, 6, 2, 4, 3, 5)]
    >>> genus(g)
    1

Swapping one pairing drops the genus::

    >>> genus(validate([(1, 2, 3), (4, 5, 6)], [(1, 4), (2, 6), (3, 5)]))
    0
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm

from . import permutations as perms
from .errors import (
    BrokenInvariant,
    Disconnected,
    DomainMismatch,
    EmptySides,
    FixedPointInvolution,
    LoopContraction,
    NoSuchEdge,
    TooLarge,
)


def _as_perm(spec, domain):
    """Coerce ``spec`` (dict or iterable of cycles) to a permutation dict on domain."""
    if isinstance(spec, dict):
        if set(spec) != set(domain):
            raise DomainMismatch("permutation keys do not match the side set")
        if not perms.is_permutation(spec):
            raise DomainMismatch("mapping is not a permutation of the side set")
        return dict(spec)
    return perms.from_cycles([tuple(c) for c in spec], domain)


def _mentioned(spec):
    if isinstance(spec, dict):
        return set(spec)
    return {x for cyc in spec for x in cyc}


class RibbonGraph:
    """Immutable-by-convention pair of permutations on a common side set.

    The caches start as None and are filled on first use: sigma_inf, the
    vertex, edge and hole cycles, the orbit sets ``vertex_orbits()`` and
    ``hole_orbits()``, the side-to-vertex-orbit map ``vertex_orbit_map()``
    and the ``components()``.  A caller that built the permutations and
    already knows sigma_inf passes it to the constructor, which keeps it; it
    must be what the graph would work out itself.  sigma_inf is the only
    cache a caller may hand in.  ``_least`` is the least unmarked code with
    the relabelings of the roots attaining it: ``_least_roots`` writes it
    after a sweep of the graph's roots, and ``_hand_least_roots`` writes it
    on a ``from_code`` graph from the sweep of the graph whose code built
    it, so a class graph built that way is never swept.  The others
    hold what the forms layer works out from the graph alone, never from a
    metric or a labelling: ``_zones`` maps a hole orbit to its zone entry
    (``degeneration``: the topology, and after a shrink the quotient's
    parts, their genera and the exceptional vertices), and ``_pfaffian`` is
    the symplectic Pfaffian of a top cell (``plforms.nondegeneracy_check``).
    """

    __slots__ = (
        "sides",
        "sigma0",
        "sigma1",
        "_sigma_inf",
        "_vertices",
        "_edges",
        "_holes",
        "_vertex_orbits",
        "_hole_orbits",
        "_vertex_orbit_map",
        "_components",
        "_least",
        "_zones",
        "_pfaffian",
    )

    def __init__(self, sigma0, sigma1, sides, sigma_inf=None):
        self.sides = tuple(sorted(sides))
        self.sigma0 = sigma0
        self.sigma1 = sigma1
        self._sigma_inf = sigma_inf
        self._vertices = None
        self._edges = None
        self._holes = None
        self._vertex_orbits = None
        self._hole_orbits = None
        self._vertex_orbit_map = None
        self._components = None
        self._least = None
        self._zones = None
        self._pfaffian = None

    # -- derived permutations -------------------------------------------------

    @property
    def sigma_inf(self):
        """sigma0^{-1} o sigma1, computed on demand and cached."""
        if self._sigma_inf is None:
            inv0 = perms.inverse(self.sigma0)
            self._sigma_inf = {x: inv0[self.sigma1[x]] for x in self.sides}
        return self._sigma_inf

    # -- orbits ----------------------------------------------------------------

    def vertices(self):
        if self._vertices is None:
            self._vertices = perms.cycles(self.sigma0)
        return list(self._vertices)

    def edges(self):
        """Edges as 2-tuples (a, b), a < b = sigma1(a), sorted by a."""
        if self._edges is None:
            self._edges = perms.cycles(self.sigma1)
        return list(self._edges)

    def holes(self):
        if self._holes is None:
            self._holes = perms.cycles(self.sigma_inf)
        return list(self._holes)

    def vertex_orbits(self):
        """The vertices as a frozenset of frozensets of sides."""
        if self._vertex_orbits is None:
            self._vertex_orbits = frozenset(map(frozenset, self.vertices()))
        return self._vertex_orbits

    def hole_orbits(self):
        """The holes as a frozenset of frozensets of sides."""
        if self._hole_orbits is None:
            self._hole_orbits = frozenset(map(frozenset, self.holes()))
        return self._hole_orbits

    def vertex_orbit_map(self):
        """Each side's vertex orbit (a frozenset of sides); the kept dict, not a copy."""
        if self._vertex_orbit_map is None:
            self._vertex_orbit_map = {x: v for v in self.vertex_orbits() for x in v}
        return self._vertex_orbit_map

    def n_vertices(self):
        return len(self.vertices())

    def n_edges(self):
        return len(self.sides) // 2

    def n_holes(self):
        return len(self.holes())

    def edge_of(self, side):
        other = self.sigma1[side]
        return (side, other) if side < other else (other, side)

    def vertex_of(self, side):
        return min(self.vertex_orbit_map()[side])

    # -- connectivity ----------------------------------------------------------

    def components(self):
        """Side sets of the orbits of the group generated by sigma0, sigma1."""
        if self._components is None:
            remaining = set(self.sides)
            comps = []
            while remaining:
                start = min(remaining)
                comp = {start}
                stack = [start]
                while stack:
                    x = stack.pop()
                    for y in (self.sigma0[x], self.sigma1[x]):
                        if y not in comp:
                            comp.add(y)
                            stack.append(y)
                comps.append(frozenset(comp))
                remaining -= comp
            self._components = comps
        return list(self._components)

    def is_connected(self):
        return len(self.components()) == 1

    def __repr__(self):
        s0 = "".join(str(c) for c in self.vertices())
        s1 = "".join(str(c) for c in self.edges())
        return f"RibbonGraph(sigma0={s0}, sigma1={s1})"


def validate(sigma0, sigma1, sides=None) -> RibbonGraph:
    """Check the ribbon-graph axioms and build the graph.

    ``sigma0`` and ``sigma1`` may be dicts or iterables of cycles.  The side
    set is ``sides`` (an int n meaning 1..n, or an iterable); if omitted it
    is inferred from the elements mentioned by the two permutations.
    """
    if sides is None:
        domain = _mentioned(sigma0) | _mentioned(sigma1)
    elif isinstance(sides, int):
        domain = set(range(1, sides + 1))
    else:
        domain = set(sides)
    if not domain:
        raise EmptySides("a ribbon graph needs a nonempty side set")
    s0 = _as_perm(sigma0, domain)
    s1 = _as_perm(sigma1, domain)
    if not perms.is_fpf_involution(s1):
        raise FixedPointInvolution("sigma1 must be a fixed-point-free involution")
    return RibbonGraph(s0, s1, domain)


def genus(g: RibbonGraph) -> int:
    """(2 - V + E - H) / 2 for a connected graph."""
    if not g.is_connected():
        raise Disconnected("genus of a disconnected graph is ambiguous")
    doubled = 2 - g.n_vertices() + g.n_edges() - g.n_holes()
    if doubled % 2 != 0 or doubled < 0:
        raise BrokenInvariant("Euler bookkeeping broke")
    return doubled // 2


def dual(g: RibbonGraph) -> RibbonGraph:
    """The dual graph (X, sigma_inf^{-1}, sigma1); an involution."""
    return RibbonGraph(perms.inverse(g.sigma_inf), g.sigma1, g.sides)


def contract_edge(g: RibbonGraph, e) -> RibbonGraph:
    """Contract the non-loop edge ``e``, splicing its endpoints into one vertex."""
    a, b = tuple(e)
    if g.sigma1.get(a) != b:
        raise NoSuchEdge(f"{e!r} is not an edge of the graph")
    orbit_a = perms.orbit_of(g.sigma0, a)
    if b in orbit_a:
        raise LoopContraction(f"edge {e!r} is a loop")
    orbit_b = perms.orbit_of(g.sigma0, b)
    merged = orbit_a[1:] + orbit_b[1:]
    new_domain = set(g.sides) - {a, b}
    if not new_domain:
        raise EmptySides("contracting the only edge leaves no sides")
    untouched = [c for c in g.vertices() if a not in c and b not in c]
    cycles = untouched + ([tuple(merged)] if merged else [])
    s0 = perms.from_cycles(cycles, new_domain)
    s1 = {x: g.sigma1[x] for x in new_domain}
    return RibbonGraph(s0, s1, new_domain)


def restrict(g: RibbonGraph, sides) -> RibbonGraph:
    """The graph on ``sides``, a union of components of ``g``."""
    return RibbonGraph(
        {x: g.sigma0[x] for x in sides},
        {x: g.sigma1[x] for x in sides},
        sides,
    )


def smooth_bivalent(g: RibbonGraph, a, b) -> RibbonGraph:
    """Splice out the bivalent vertex (a, b): its two edges merge into one."""
    x, y = g.sigma1[a], g.sigma1[b]
    if x == b:
        raise DomainMismatch("cannot smooth the only vertex of a circle")
    sides = set(g.sides) - {a, b}
    s0 = {z: g.sigma0[z] for z in sides}
    s1 = {z: g.sigma1[z] for z in sides}
    s1[x], s1[y] = y, x
    return RibbonGraph(s0, s1, sides)


# --- markings -----------------------------------------------------------------

HOLE = "hole"
VERTEX = "vertex"


class Marking:
    """Injective map from labels to holes and vertices, covering every hole.

    Targets are stored as (kind, frozenset-of-sides).  Labels are strings.
    """

    __slots__ = ("targets",)

    def __init__(self, graph: RibbonGraph, targets):
        holes = graph.hole_orbits()
        verts = graph.vertex_orbits()
        norm = {}
        used = set()
        for label, (kind, orbit) in targets.items():
            orb = frozenset(orbit)
            if kind == HOLE:
                if orb not in holes:
                    raise DomainMismatch(f"{label!r}: {sorted(orb)} is not a hole")
            elif kind == VERTEX:
                if orb not in verts:
                    raise DomainMismatch(f"{label!r}: {sorted(orb)} is not a vertex")
            else:
                raise DomainMismatch(f"{label!r}: unknown target kind {kind!r}")
            key = (kind, orb)
            if key in used:
                raise DomainMismatch(f"marking is not injective at {label!r}")
            used.add(key)
            norm[str(label)] = key
        uncovered = holes - {orb for kind, orb in norm.values() if kind == HOLE}
        if uncovered:
            raise DomainMismatch(f"{len(uncovered)} hole(s) left unmarked")
        self.targets = norm

    def labels(self):
        return sorted(self.targets)

    def kind(self, label):
        return self.targets[label][0]

    def orbit(self, label):
        return self.targets[label][1]

    def hole_labels(self):
        return [l for l in self.labels() if self.kind(l) == HOLE]

    def vertex_labels(self):
        return [l for l in self.labels() if self.kind(l) == VERTEX]

    def __eq__(self, other):
        return isinstance(other, Marking) and self.targets == other.targets

    def __repr__(self):
        parts = ", ".join(
            f"{l}->{k}{sorted(o)}" for l, (k, o) in sorted(self.targets.items())
        )
        return f"Marking({parts})"


# --- metric -------------------------------------------------------------------

class MarkedMetricGraph:
    """A marked ribbon graph with positive rational edge lengths."""

    __slots__ = ("graph", "marking", "lengths")

    def __init__(self, graph: RibbonGraph, marking: Marking, lengths):
        edge_set = set(graph.edges())
        norm = {}
        for e, val in lengths.items():
            # a key that is already an edge, or a length that is already a
            # Fraction, is taken as it is
            if e not in edge_set:
                e = tuple(sorted(e))
                if e not in edge_set:
                    raise NoSuchEdge(f"length given for non-edge {e!r}")
            if type(val) is not Fraction:
                val = Fraction(val)
            if val.numerator <= 0:  # a Fraction's denominator is positive
                raise DomainMismatch(f"edge {e!r} has non-positive length {val}")
            norm[e] = val
        missing = edge_set - set(norm)
        if missing:
            raise DomainMismatch(f"missing lengths for {sorted(missing)}")
        self.graph = graph
        self.marking = marking
        self.lengths = norm

    def side_length(self, side):
        return self.lengths[self.graph.edge_of(side)]

    def circumference(self, label) -> Fraction:
        """Sum of side lengths along the hole; a vertex mark has perimeter 0.

        The lengths are added as integers over their common denominator,
        and the sum becomes one ``Fraction``.
        """
        kind, orbit = self.marking.targets[label]
        if kind == VERTEX:
            return Fraction(0)
        lengths = [self.side_length(x) for x in orbit]
        d = lcm(*(x.denominator for x in lengths))
        return Fraction(sum(x.numerator * (d // x.denominator) for x in lengths), d)


# --- canonical form -----------------------------------------------------------

def _bfs_code(g: RibbonGraph, root):
    """Unmarked traversal code rooted at ``root``, and its side relabeling."""
    relabel = {root: 1}
    order = [root]
    for x in order:  # appending while iterating = BFS
        for y in (g.sigma0[x], g.sigma1[x]):
            if y not in relabel:
                relabel[y] = len(order) + 1
                order.append(y)
    if len(order) != len(g.sides):
        raise Disconnected("canonical form needs a connected graph")
    code0 = tuple(relabel[g.sigma0[x]] for x in order)
    code1 = tuple(relabel[g.sigma1[x]] for x in order)
    return (code0, code1), relabel


def _code_against(sigma0, sigma1, root, rival):
    """Compare the traversal codes rooted at ``root`` and at ``rival``.

    ``sigma0`` and ``sigma1`` are anything indexable by side: a graph's
    dicts, or the rooted-map generator's lists.  Both codes are built in
    lockstep, one BFS step at a time; each step fixes one more code0 entry
    of each, so the comparison stops at the first entry that differs, and
    code1 is compared only when code0 ties.  Returns (sign, relabel): sign
    is negative, zero or positive as root's code is below, equal to or above
    rival's, and relabel, root's side relabeling, is returned on a tie
    only, else None.
    """
    mine, theirs = {root: 1}, {rival: 1}
    order, other = [root], [rival]
    for x, w in zip(order, other):  # appending while iterating = BFS
        y, v = sigma0[x], sigma0[w]
        if y not in mine:
            order.append(y)
            mine[y] = len(order)
        if v not in theirs:
            other.append(v)
            theirs[v] = len(other)
        sign = mine[y] - theirs[v]
        if sign:
            return sign, None
        y, v = sigma1[x], sigma1[w]
        if y not in mine:
            order.append(y)
            mine[y] = len(order)
        if v not in theirs:
            other.append(v)
            theirs[v] = len(other)
    for x, w in zip(order, other):
        sign = mine[sigma1[x]] - theirs[sigma1[w]]
        if sign:
            return sign, None
    return 0, mine


def _least_roots(g: RibbonGraph):
    """The least unmarked code and the relabelings of the roots attaining it.

    Each root is compared with the least root so far (``_code_against``),
    and only the least root is traversed in full, once, at the end.  The
    answer depends on the graph alone, so it is kept on the graph
    (``_least``) and later calls read it.
    """
    if g._least is None:
        least, tied = g.sides[0], []
        for root in g.sides[1:]:
            sign, relabel = _code_against(g.sigma0, g.sigma1, root, least)
            if sign < 0:
                least, tied = root, []
            elif sign == 0:
                tied.append(relabel)
        best, relabel = _bfs_code(g, least)
        g._least = best, [relabel, *tied]
    return g._least


def _hand_least_roots(g: RibbonGraph, canonical: RibbonGraph) -> RibbonGraph:
    """``canonical``, handed the least roots of ``g``; returns it.

    ``canonical`` is the graph ``from_code`` built from g's least code, and
    g's least roots are known (``canonical_form(g)`` found them).  The first
    least relabeling carries g onto ``canonical``, so each least relabeling
    of g, read through it, is one of ``canonical``'s: that graph needs no
    sweep of its own.
    """
    best, relabels = g._least
    carry = relabels[0]
    canonical._least = best, [{carry[x]: relabel[x] for x in g.sides} for relabel in relabels]
    return canonical


def _first_sides(relabels, orbits):
    """Per root relabeling, the first (least relabeled) side of each orbit."""
    return [{orb: min(relabel[x] for x in orb) for orb in orbits} for relabel in relabels]


def _marked_code(best, firsts, targets):
    """The least code (*best, mark code) over these roots, and how many attain it.

    ``firsts`` holds one ``_first_sides`` entry per least root, covering
    every target orbit, so comparing roots reads first sides and traverses
    nothing.
    """
    marks = sorted(targets.items())
    least, count = None, 0
    for first in firsts:
        mark_code = tuple((label, kind, first[orb]) for label, (kind, orb) in marks)
        if least is None or mark_code < least:
            least, count = mark_code, 1
        elif mark_code == least:
            count += 1
    return (*best, least), count


def canonical_form(g: RibbonGraph, marking: Marking | None = None):
    """Lex-least rooted traversal code and the automorphism count.

    Two marked graphs have equal codes iff they are isomorphic by a side
    relabeling commuting with both permutations and fixing every label's
    target.  |Aut| equals the number of roots attaining the least code: an
    automorphism is determined by the image of one side, so these roots form
    a single free orbit.  The code is (code0, code1, mark code), the last a
    (label, kind, first side) per target, so only the roots attaining the
    least unmarked code (``_least_roots``) compete on the mark code, read
    from each root's first side of every target orbit (``_first_sides``,
    ``_marked_code``).  ``enumeration._marked_classes`` precomputes those
    first sides once per class and reuses ``_marked_code`` for every
    labelling.  The code determines the canonical graph itself:
    ``from_code`` rebuilds it.
    """
    targets = {} if marking is None else marking.targets
    best, relabels = _least_roots(g)
    firsts = _first_sides(relabels, {orb for _, orb in targets.values()})
    return _marked_code(best, firsts, targets)


def from_code(code):
    """The canonical graph and marking (or None) that a code determines.

    Sides are 1..n with sigma0(i+1) = code0[i] and sigma1(i+1) = code1[i]:
    the code lists both permutations in traversal order.  Each (label,
    kind, side) entry marks the hole or vertex through ``side``.
    """
    code0, code1, mark_code = code
    sides = range(1, len(code0) + 1)
    g = RibbonGraph(dict(zip(sides, code0)), dict(zip(sides, code1)), sides)
    if not mark_code:
        return g, None
    perm = {HOLE: g.sigma_inf, VERTEX: g.sigma0}
    targets = {
        label: (kind, frozenset(perms.orbit_of(perm[kind], side)))
        for label, kind, side in mark_code
    }
    return g, Marking(g, targets)


# --- rationals and JSON ---------------------------------------------------------

def rational_str(x) -> str:
    """"num/den"; TooLarge past Python's int-to-str digit limit."""
    x = Fraction(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError as err:
        limit = sys.get_int_max_str_digits()
        raise TooLarge(f"a number has more than {limit} digits") from err


def parse_rational(s) -> Fraction:
    return Fraction(s)


def edge_id(e) -> str:
    a, b = sorted(e)
    return f"{a}-{b}"


def parse_edge_id(s):
    a, b = s.split("-")
    return tuple(sorted((int(a), int(b))))


def side_numbering(g: RibbonGraph) -> dict:
    """The renumbering ``graph_to_json`` applies: the k-th smallest side -> k.

    Anything written next to a serialized graph that names its sides (an
    orbit, an edge) goes through this map to match the written graph.
    """
    return {x: i + 1 for i, x in enumerate(g.sides)}


def graph_to_json(g: RibbonGraph, marking: Marking | None = None, lengths=None) -> dict:
    """Serialize with every side written through ``side_numbering``.

    The numbering keeps the order of the sides, so each cycle still starts
    at its least side, the cycles stay sorted, and so do orbits and edges.
    """
    num = side_numbering(g)
    data = {
        "sides": len(num),
        "sigma0": [[num[x] for x in c] for c in g.vertices()],
        "sigma1": [[num[x] for x in c] for c in g.edges()],
    }
    if marking is not None:
        data["marking"] = {
            label: {"kind": kind, "orbit": sorted(num[x] for x in orb)}
            for label, (kind, orb) in sorted(marking.targets.items())
        }
    if lengths is not None:
        data["lengths"] = {
            edge_id((num[a], num[b])): rational_str(v)
            for (a, b), v in sorted(lengths.items())
        }
    return data


def graph_from_json(data):
    """Inverse of graph_to_json; returns (graph, marking-or-None, lengths-or-None)."""
    if not (isinstance(data, dict) and {"sigma0", "sigma1", "sides"} <= data.keys()):
        raise DomainMismatch("a graph document is an object with sigma0, sigma1 and sides")
    try:
        g = validate(data["sigma0"], data["sigma1"], sides=data["sides"])
    except TypeError as err:
        raise DomainMismatch(f"sides, sigma0 and sigma1 must list integer sides: {err}") from err
    marking = None
    marks = data.get("marking")
    if marks:
        if not (
            isinstance(marks, dict)
            and all(isinstance(e, dict) and {"kind", "orbit"} <= e.keys() for e in marks.values())
        ):
            raise DomainMismatch("the marking must give each label a kind and an orbit")
        try:
            marking = Marking(
                g,
                {
                    label: (entry["kind"], frozenset(entry["orbit"]))
                    for label, entry in marks.items()
                },
            )
        except TypeError as err:
            raise DomainMismatch(f"each orbit must be a list of integer sides: {err}") from err
    lengths = None
    if data.get("lengths"):
        try:
            lengths = {parse_edge_id(k): parse_rational(v) for k, v in data["lengths"].items()}
        except (AttributeError, TypeError, ValueError, ZeroDivisionError) as err:
            raise DomainMismatch(f"the lengths must map edge ids to rationals: {err}") from err
    return g, marking, lengths
