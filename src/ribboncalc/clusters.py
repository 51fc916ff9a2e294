"""Census of admissible cluster configurations, two independent ways.

A cluster is a run of holes that collapse onto a single vertex one after
the other.  ``count_admissible`` finds every genus-zero realization of
the run by exhaustive search and filters; ``count_by_recurrence`` evaluates
the two-case recursion on the excess values alone.  Both must agree with
the double-factorial closed form in combclasses, and the tests insist on
exactly that.

The search splits the realizations at their bivalent vertices.  Those all
carry the root hole, so smoothing them leaves a trivalent core whose
admissibility filters do not feel the smoothing at all; the bivalent
vertices come back as subdivision points on the core edges that border
the root, with a side-count budget per cluster hole.  The cores are the
labelled classes of enumeration, and the distributions are counted
arithmetically, so the census stays exact without generating the
subdivided graphs, whose bivalent vertices multiply the maps to search.
"""

from fractions import Fraction
from itertools import product

from . import enumeration
from .combclasses import merge_coefficient
from .degeneration import DISK, detect_clusters, hole_topology, shrink
from .errors import ConeViolation, DomainMismatch, TooLarge
from .ribbon import (
    HOLE,
    VERTEX,
    Marking,
    MarkedMetricGraph,
    canonical_form,
    validate,
)

ROOT_LABEL = "0"
ANCHOR_LABEL = "v"


class AdmissibleClusterSpec:
    """Excess values of the cluster's holes, in hole-index order.

    Every entry is >= 0 except possibly the first, which may be -1 to
    express the recursion's internal loop step.
    """

    __slots__ = ("rho",)

    def __init__(self, rho):
        vals = tuple(int(r) for r in rho)
        if not vals:
            raise DomainMismatch("a cluster holds at least one hole")
        if vals[0] < -1 or any(r < 0 for r in vals[1:]):
            raise DomainMismatch(f"bad excess values {vals}")
        self.rho = vals

    @property
    def size(self) -> int:
        return len(self.rho)

    @property
    def excess(self) -> int:
        return sum(self.rho)

    def __eq__(self, other):
        return isinstance(other, AdmissibleClusterSpec) and self.rho == other.rho

    def __repr__(self):
        return f"AdmissibleClusterSpec({list(self.rho)})"


def _coerce(spec) -> AdmissibleClusterSpec:
    if isinstance(spec, AdmissibleClusterSpec):
        return spec
    return AdmissibleClusterSpec(spec)


# --- exhaustive search ------------------------------------------------------------


def _fresh_side_counts(graph, orbits, q_labels):
    """Sides of each cluster hole not shared with a later cluster hole."""
    fresh = {}
    later = set()
    for q in reversed(q_labels):
        orbit = orbits[q]
        fresh[q] = sum(1 for x in orbit if graph.sigma1[x] not in later)
        later |= orbit
    return fresh


def _shrink_chain_ok(graph, targets, q_labels):
    """Crush the cluster holes from the top index down.

    Every stage has to leave a single positive component that still houses
    the root hole and the not-yet-shrunk cluster holes.  Vertex markings
    left behind by earlier stages are dropped: in the limit they all melt
    into the one new vertex anyway.
    """
    current = graph
    marks = dict(targets)
    for stage in range(len(q_labels) - 1, 0, -1):
        q = q_labels[stage]
        zone = {current.edge_of(x) for x in marks[q][1]}
        eps = Fraction(1, 4 * len(current.sides) ** 2)
        lengths = {
            e: eps if e in zone else Fraction(1) for e in current.edges()
        }
        mg = MarkedMetricGraph(current, Marking(current, marks), lengths)
        try:
            result = shrink(mg, q)
        except ConeViolation:
            return False
        if len(result.components) != 1:
            return False
        comp = result.components[0]
        current = comp.graph
        marks = {
            l: t for l, t in comp.marking.targets.items() if t[0] == HOLE
        }
        if set(marks) != {ROOT_LABEL, *q_labels[:stage]}:
            return False
    return True


def _admissible_core(rep, orbits, q_labels):
    """The filters that do not feel subdivision: disks, one cluster, chain."""
    targets = {l: (HOLE, o) for l, o in orbits.items()}
    pair = (rep, Marking(rep, targets))
    if any(hole_topology(pair, l).kind != DISK for l in orbits):
        return False
    blocks, _ = detect_clusters(pair, q_labels)
    if len(blocks) != 1:
        return False
    return _shrink_chain_ok(rep, targets, q_labels)


def _compositions(total, boxes):
    if boxes == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, boxes - 1):
            yield (first,) + rest


def _subdivide(core, points):
    """Insert chains of bivalent vertices, points[e] many on edge e."""
    cycles = [tuple(v) for v in core.vertices()]
    pairs = []
    fresh = max(core.sides) + 1
    for e in sorted(core.edges()):
        x, y = e
        prev = x
        for _ in range(points.get(e, 0)):
            cycles.append((fresh, fresh + 1))
            pairs.append((prev, fresh))
            prev = fresh + 1
            fresh += 2
        pairs.append((prev, y))
    return validate(cycles, pairs)


def _count_subdivisions(core, orbits, q_labels, deficits, n_points, aut):
    """Configurations refining one admissible labeled core.

    Subdivision points sit on edges bordering the root hole; the far side
    of such an edge decides which hole's side count the points feed.  The
    anchor can mark any point; a rigid trivalent core makes every choice
    distinct, otherwise the subdivided graphs are told apart canonically.
    """
    label_of = {x: l for l, orbit in orbits.items() for x in orbit}
    slots = {l: [] for l in orbits}
    for e in sorted(core.edges()):
        x, y = e
        lx, ly = label_of[x], label_of[y]
        if lx == ROOT_LABEL:
            slots[ly].append(e)
        elif ly == ROOT_LABEL:
            slots[lx].append(e)
    demand = dict(deficits)
    demand[ROOT_LABEL] = n_points - sum(deficits.values())
    if demand[ROOT_LABEL] < 0:
        return 0

    per_label = []
    for l in [ROOT_LABEL, *q_labels]:
        combos = list(_compositions(demand[l], len(slots[l])))
        if not combos:
            return 0
        per_label.append((slots[l], combos))

    # smoothing inverts subdivision only when the core itself has no
    # bivalent vertices, so the shortcut is off for the one-hole seed
    if aut == 1 and all(len(v) > 2 for v in core.vertices()):
        count = 1
        for _, combos in per_label:
            count *= len(combos)
        return count * n_points

    targets = {l: (HOLE, o) for l, o in orbits.items()}
    codes = set()
    for picks in product(*(combos for _, combos in per_label)):
        points = {}
        for (edges, _), filling in zip(per_label, picks):
            for e, k in zip(edges, filling):
                if k:
                    points[e] = k
        g = _subdivide(core, points)
        marks = {}
        for l, orbit in orbits.items():
            probe = min(orbit)
            new_orbit = next(
                frozenset(hole) for hole in g.holes() if probe in hole
            )
            marks[l] = (HOLE, new_orbit)
        for vertex in g.vertices():
            if len(vertex) != 2:
                continue
            marking = Marking(
                g, {**marks, ANCHOR_LABEL: (VERTEX, frozenset(vertex))}
            )
            code, _ = canonical_form(g, marking)
            codes.add(code)
    return len(codes)


def count_admissible(spec, max_sides=None) -> int:
    """Isomorphism classes of cluster realizations, by brute force.

    A realization is a connected genus-zero graph on h + 1 holes whose
    2 excess + 3 bivalent vertices all border the root hole, one of them
    anchored; the cluster holes must span disks, be mutually adjacent,
    respect the per-hole side counts, and survive the chain of shrinkings
    in one positive piece.  Classes are isomorphism classes of the fully
    labeled graph, anchor included.
    """
    spec = _coerce(spec)
    h = spec.size
    total_sides = 6 * h + 4 * spec.excess
    budget = enumeration.max_sides_limit(max_sides)
    if total_sides > budget:
        raise TooLarge(f"{total_sides} sides exceeds the limit {budget}")

    q_labels = [f"q{j}" for j in range(1, h + 1)]
    # the one-hole seed is the one-vertex circle; it already spends a bivalent
    valencies = [2] if h == 1 else [3] * (2 * h - 2)
    n_points = 2 * spec.excess + (2 if h == 1 else 3)
    total = 0
    for rep, marking, aut in enumeration._marked_classes(valencies, [ROOT_LABEL, *q_labels], {}):
        orbits = {l: orbit for l, (_, orbit) in marking.targets.items()}
        fresh = _fresh_side_counts(rep, orbits, q_labels)
        deficits = {q: 2 * r + 3 - fresh[q] for q, r in zip(q_labels, spec.rho)}
        if any(d < 0 for d in deficits.values()):
            continue
        if not _admissible_core(rep, orbits, q_labels):
            continue
        total += _count_subdivisions(rep, orbits, q_labels, deficits, n_points, aut)
    return total


# --- the recursion ----------------------------------------------------------------


def _case_counts(rho):
    """Totals for the two ways the first pair of holes can touch.

    The remaining holes scatter over t = 2 (rho_1 + rho_2) + 5 slots; in
    the shared-vertex case slot 0 is the common vertex, it must absorb
    positive excess, and each unit of it doubles the count.
    """
    rest = rho[2:]
    t = 2 * (rho[0] + rho[1]) + 5
    scale = 2 * sum(rho) + 3
    edge_case = 0
    vertex_case = 0
    for assignment in product(range(t), repeat=len(rest)):
        slots = [[] for _ in range(t)]
        for r, k in zip(rest, assignment):
            slots[k].append(r)
        prod = 1
        for slot in slots:
            prod *= _evaluate(tuple(slot))
        edge_case += prod
        shared = sum(slots[0])
        if shared >= 1:
            vertex_case += 2 * shared * prod
    return scale * edge_case, scale * vertex_case


def _evaluate(rho) -> int:
    if len(rho) <= 1:
        return 1
    if len(rho) == 2:
        return 2 * sum(rho) + 3
    if rho[0] == -1:
        return (2 * sum(rho) + 3) * _evaluate(rho[1:])
    edge_case, vertex_case = _case_counts(rho)
    return edge_case + vertex_case


def count_by_recurrence(spec) -> int:
    """The same census, evaluated by the case recursion on excesses only.

    A leading -1 is a loop around the first hole: it contributes the
    anchor factor and reduces the size by one.  Otherwise the first two
    holes either share an edge or share a vertex, and both cases reduce
    to distributions of the remaining holes over slots.
    """
    return _evaluate(_coerce(spec).rho)


def closed_count(spec) -> int:
    """The double-factorial ratio both censuses collapse to.

    Depends only on the total excess and the number of holes; needs a
    nonnegative total (the loop degeneration has no closed form here).
    """
    spec = _coerce(spec)
    return merge_coefficient(sum(spec.rho), len(spec.rho))
