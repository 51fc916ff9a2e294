"""Ribbon graphs as permutation pairs, with markings, metrics, and JSON I/O.

A ribbon graph is a pair of permutations (sigma0, sigma1) of a finite set X
of *sides* (oriented edges): sigma0 rotates the sides counterclockwise around
their vertex, sigma1 swaps the two sides of each edge (a fixed-point-free
involution).  The third permutation sigma_inf, defined by

    sigma_inf o sigma1 o sigma0 = identity,

traverses the boundary cycles.  Orbits: vertices = sigma0-orbits, edges =
sigma1-orbits, holes = sigma_inf-orbits.  No graph changes once built, so
each graph object works out sigma_inf and its vertex and hole cycles on
first use and keeps them; ``vertices()`` and ``holes()`` still return a
fresh list per call.

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

    The caches start as None; ``_zones`` is ``degeneration.hole_topology``'s.
    """

    __slots__ = ("sides", "sigma0", "sigma1", "_sigma_inf", "_vertices", "_holes", "_zones")

    def __init__(self, sigma0, sigma1, sides):
        self.sides = tuple(sorted(sides))
        self.sigma0 = sigma0
        self.sigma1 = sigma1
        self._sigma_inf = None
        self._vertices = None
        self._holes = None
        self._zones = None

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
        """Edges as sorted 2-tuples (a, b) with sigma1(a) = b."""
        return [tuple(sorted(c)) for c in perms.cycles(self.sigma1)]

    def holes(self):
        if self._holes is None:
            self._holes = perms.cycles(self.sigma_inf)
        return list(self._holes)

    def n_vertices(self):
        return len(self.vertices())

    def n_edges(self):
        return len(self.sides) // 2

    def n_holes(self):
        return len(self.holes())

    def edge_of(self, side):
        return tuple(sorted((side, self.sigma1[side])))

    def vertex_of(self, side):
        return min(perms.orbit_of(self.sigma0, side))

    def valencies(self):
        """Sorted list of vertex valencies."""
        return sorted(len(v) for v in self.vertices())

    # -- connectivity ----------------------------------------------------------

    def components(self):
        """Side sets of the orbits of the group generated by sigma0, sigma1."""
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
        return comps

    def is_connected(self):
        return len(self.components()) == 1

    def __repr__(self):
        s0 = "".join(str(c) for c in self.vertices())
        s1 = "".join(str(c) for c in perms.cycles(self.sigma1))
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
        holes = {frozenset(h) for h in graph.holes()}
        verts = {frozenset(v) for v in graph.vertices()}
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


def mark_all_holes(graph: RibbonGraph, labels) -> Marking:
    """Convenience: assign ``labels`` to the holes in min-side order."""
    holes = graph.holes()
    labels = list(labels)
    if len(labels) != len(holes):
        raise DomainMismatch(f"need {len(holes)} labels, got {len(labels)}")
    return Marking(graph, {l: (HOLE, frozenset(h)) for l, h in zip(labels, holes)})


# --- metric -------------------------------------------------------------------

class MarkedMetricGraph:
    """A marked ribbon graph with positive rational edge lengths."""

    __slots__ = ("graph", "marking", "lengths")

    def __init__(self, graph: RibbonGraph, marking: Marking, lengths):
        edge_set = set(graph.edges())
        norm = {}
        for e, val in lengths.items():
            e = tuple(sorted(e))
            if e not in edge_set:
                raise NoSuchEdge(f"length given for non-edge {e!r}")
            val = Fraction(val)
            if val <= 0:
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
        """Sum of side lengths along the hole; a vertex mark has perimeter 0."""
        kind, orbit = self.marking.targets[label]
        if kind == VERTEX:
            return Fraction(0)
        return sum(self.side_length(x) for x in orbit)


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


def _code_against(g: RibbonGraph, root, best):
    """Compare the code rooted at ``root`` with ``best``, building it lazily.

    Returns (sign, relabel): sign is negative, zero or positive as the code
    is below, equal to or above ``best``.  Each BFS step fixes one more
    code0 entry, so a rival root is dropped at the first entry that
    differs; code1 is compared only when code0 ties.  The relabeling is
    returned on a tie only, else None.
    """
    code0, code1 = best
    sigma0, sigma1 = g.sigma0, g.sigma1
    relabel = {root: 1}
    order = [root]
    for i, x in enumerate(order):  # appending while iterating = BFS
        y, z = sigma0[x], sigma1[x]
        if y not in relabel:
            relabel[y] = len(order) + 1
            order.append(y)
        if z not in relabel:
            relabel[z] = len(order) + 1
            order.append(z)
        sign = relabel[y] - code0[i]
        if sign:
            return sign, None
    for i, x in enumerate(order):
        sign = relabel[sigma1[x]] - code1[i]
        if sign:
            return sign, None
    return 0, relabel


def _tied_roots(g: RibbonGraph, best, roots):
    """Relabelings of the roots whose code equals ``best``; None if one is below."""
    tied = []
    for root in roots:
        sign, relabel = _code_against(g, root, best)
        if sign < 0:
            return None
        if sign == 0:
            tied.append(relabel)
    return tied


def _least_roots(g: RibbonGraph):
    """The least unmarked code and the relabelings of the roots attaining it.

    Only the first root, and a root whose code falls below the least so
    far, is traversed in full; every other root is compared lazily
    (``_code_against``).
    """
    best, relabels = None, []
    for root in g.sides:
        sign, relabel = (-1, None) if best is None else _code_against(g, root, best)
        if sign < 0:
            best, relabel = _bfs_code(g, root)
            relabels = [relabel]
        elif sign == 0:
            relabels.append(relabel)
    return best, relabels


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
    return g, _code_marking(g, mark_code) if mark_code else None


def _code_marking(g: RibbonGraph, mark_code) -> Marking:
    """The marking a mark code puts on ``g``, a graph ``from_code`` built."""
    perm = {HOLE: g.sigma_inf, VERTEX: g.sigma0}
    targets = {
        label: (kind, frozenset(perms.orbit_of(perm[kind], side)))
        for label, kind, side in mark_code
    }
    return Marking(g, targets)


def canonicalize(g: RibbonGraph, marking: Marking | None = None):
    """Rebuild the graph (and marking) in canonical side labels 1..|X|.

    Returns (graph, marking, aut): the graph and marking are the ones the
    canonical code determines (``from_code``), so isomorphic inputs give
    equal outputs.
    """
    code, aut = canonical_form(g, marking)
    return (*from_code(code), aut)


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
        "sigma1": [[num[x] for x in c] for c in perms.cycles(g.sigma1)],
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
