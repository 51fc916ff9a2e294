"""Census of admissible cluster configurations, two independent ways.

A cluster is a run of holes that collapse onto a single vertex one after
the other.  ``count_admissible`` finds every genus-zero realization of
the run by exhaustive search and filters; ``count_by_recurrence`` evaluates
the two-case recursion on the excess values alone.  Both must agree with
the double-factorial closed form in combclasses, and the tests insist on
exactly that.  Each census takes ``rho``, the excess values of the
cluster's holes in hole-index order.

The search splits the realizations at their bivalent vertices.  Those all
carry the root hole, so smoothing them leaves a trivalent core whose
admissibility filters do not feel the smoothing at all; the bivalent
vertices come back as subdivision points on the core edges that border
the root, with a side-count budget per cluster hole.  The cores are the
labelled classes of enumeration, and the distributions are counted
arithmetically, so the census stays exact without generating the
subdivided graphs, whose bivalent vertices multiply the maps to search.
No admissibility filter reads rho, so the admissible cores of a cluster
size, with everything the census reads of them, are built once per process
(``_cores``) and every rho of that size reuses them.
The shrinking chain needs no metric: each stage is one ``stable.collapse``
of a hole's zone, and ``stable.carry_labels`` says which holes survive it.
"""

from functools import cache
from itertools import product
from typing import NamedTuple

from . import enumeration
from .combclasses import merge_coefficient
from .degeneration import DISK, detect_clusters, hole_topology
from .errors import DomainMismatch, TooLarge
from .ribbon import (
    HOLE,
    VERTEX,
    Marking,
    RibbonGraph,
    canonical_form,
    validate,
)
from .stable import carry_labels, collapse, quotient_parts

ROOT_LABEL = "0"
ANCHOR_LABEL = "v"
# the recursion's top-level walk over slot assignments refuses past this
MAX_SLOT_ASSIGNMENTS = 100_000


def _excesses(rho) -> tuple:
    """``rho`` as a tuple of ints, each >= 0 except possibly the first.

    A first entry of -1 expresses the recursion's internal loop step.
    """
    vals = tuple(int(r) for r in rho)
    if not vals:
        raise DomainMismatch("a cluster holds at least one hole")
    if vals[0] < -1 or any(r < 0 for r in vals[1:]):
        raise DomainMismatch(f"bad excess values {vals}")
    return vals


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
    """Collapse the zones of the cluster holes from the top index down.

    Every stage has to leave a single component that still houses the root
    hole and the not-yet-collapsed cluster holes; a hole lying inside the
    zone leaves no remnant, so it fails the label test, and a zone of every
    edge leaves no component at all.  The collapsed
    vertices stay unlabelled: in the limit they all melt into the one new
    vertex anyway.
    """
    current = graph
    marks = dict(targets)
    for stage in range(len(q_labels) - 1, 0, -1):
        zone = {current.edge_of(x) for x in marks[q_labels[stage]][1]}
        carried = carry_labels(quotient_parts(collapse(current, zone)), marks)
        if len(carried) != 1:
            return False
        ((current, marks),) = carried
        marks = Marking(current, marks).targets
        if set(marks) != {ROOT_LABEL, *q_labels[:stage]}:
            return False
    return True


def _admissible_core(rep, orbits, q_labels):
    """The filters that do not feel subdivision: disks, one cluster, chain."""
    targets = {l: (HOLE, o) for l, o in orbits.items()}
    pair = (rep, Marking(rep, targets))
    if any(hole_topology(pair, l).kind != DISK for l in orbits):
        return False
    if len(detect_clusters(pair, q_labels)) != 1:
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


def _count_subdivisions(core, q_labels, deficits, n_points):
    """Configurations refining one admissible labeled core.

    Subdivision points sit on the core's slots, the edges bordering the
    root hole; the far side of such an edge decides which hole's side count
    the points feed.  The anchor can mark any point; a rigid trivalent core
    makes every choice distinct, otherwise the subdivided graphs are told
    apart canonically.
    """
    demand = dict(deficits)
    demand[ROOT_LABEL] = n_points - sum(deficits.values())

    # a demand no composition meets empties both the product and the code set
    per_label = [
        (core.slots[l], list(_compositions(demand[l], len(core.slots[l]))))
        for l in [ROOT_LABEL, *q_labels]
    ]

    if core.rigid:
        count = 1
        for _, combos in per_label:
            count *= len(combos)
        return count * n_points

    codes = set()
    for picks in product(*(combos for _, combos in per_label)):
        points = {}
        for (edges, _), filling in zip(per_label, picks):
            for e, k in zip(edges, filling):
                if k:
                    points[e] = k
        g = _subdivide(core.graph, points)
        marks = {}
        for l, orbit in core.orbits.items():
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


class _Core(NamedTuple):
    """An admissible labelled core and what the census reads of it, for any rho.

    ``orbits`` maps each label to its hole, ``fresh`` each cluster hole to
    its sides not shared with a later one (``_fresh_side_counts``), and
    ``slots`` each label to the root-bordering edges whose subdivision
    points feed its side count.  ``rigid`` says every subdivision is its own
    class: smoothing inverts subdivision only when the core has no
    automorphism and no bivalent vertex, so it is off for the one-hole seed.
    """

    graph: RibbonGraph
    orbits: dict
    fresh: dict
    slots: dict
    rigid: bool


def _q_labels(h):
    return [f"q{j}" for j in range(1, h + 1)]


@cache
def _cores(h) -> tuple:
    """The admissible cores of an h-hole cluster, built once per process.

    The cores are the labelled classes of enumeration with the root and the
    h cluster holes labelled; they are filtered here by everything that does
    not read rho (disks, one cluster, the shrink chain), so only the side
    deficits and the subdivision count are left per rho.
    """
    q_labels = _q_labels(h)
    # the one-hole seed is the one-vertex circle; it already spends a bivalent
    valencies = [2] if h == 1 else [3] * (2 * h - 2)
    cores = []
    for rep, marking, aut in enumeration._marked_classes(valencies, [ROOT_LABEL, *q_labels], {}):
        orbits = {l: orbit for l, (_, orbit) in marking.targets.items()}
        if not _admissible_core(rep, orbits, q_labels):
            continue
        hole_of = {x: l for l, orbit in orbits.items() for x in orbit}
        slots = {l: [] for l in orbits}
        for e in rep.edges():
            lx, ly = hole_of[e[0]], hole_of[e[1]]
            if lx == ROOT_LABEL:
                slots[ly].append(e)
            elif ly == ROOT_LABEL:
                slots[lx].append(e)
        fresh = _fresh_side_counts(rep, orbits, q_labels)
        rigid = aut == 1 and all(len(v) > 2 for v in rep.vertices())
        cores.append(_Core(rep, orbits, fresh, slots, rigid))
    return tuple(cores)


def count_admissible(rho, max_sides=None) -> int:
    """Isomorphism classes of cluster realizations, by brute force.

    A realization is a connected genus-zero graph on h + 1 holes whose
    2 excess + 3 bivalent vertices all border the root hole, one of them
    anchored; the cluster holes must span disks, be mutually adjacent,
    respect the per-hole side counts, and survive the chain of shrinkings
    in one positive piece.  Classes are isomorphism classes of the fully
    labeled graph, anchor included.  The admissible cores of each cluster
    size are built once per process (``_cores``); per rho only the side
    deficits and the subdivisions are counted.
    """
    rho = _excesses(rho)
    h = len(rho)
    total_sides = 6 * h + 4 * sum(rho)
    budget = enumeration.max_sides_limit(max_sides)
    if total_sides > budget:
        raise TooLarge(f"{total_sides} sides exceeds the limit {budget}")

    q_labels = _q_labels(h)
    n_points = 2 * sum(rho) + (2 if h == 1 else 3)
    total = 0
    for core in _cores(h):
        deficits = {q: 2 * r + 3 - core.fresh[q] for q, r in zip(q_labels, rho)}
        if any(d < 0 for d in deficits.values()):
            continue
        total += _count_subdivisions(core, q_labels, deficits, n_points)
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


def count_by_recurrence(rho) -> int:
    """The same census, evaluated by the case recursion on excesses only.

    A leading -1 is a loop around the first hole: it contributes the
    anchor factor and reduces the size by one.  Otherwise the first two
    holes either share an edge or share a vertex, and both cases reduce
    to distributions of the remaining holes over slots.  The top level
    walks t^(h-2) assignments of the h holes left after a leading -1,
    with t = 2 (rho_1 + rho_2) + 5, and the time tracks that count, so
    past ``MAX_SLOT_ASSIGNMENTS`` it raises ``TooLarge`` before walking.
    """
    rho = _excesses(rho)
    top = rho[1:] if rho[0] == -1 else rho
    if len(top) > 2:
        walk = (2 * (top[0] + top[1]) + 5) ** (len(top) - 2)
        if walk > MAX_SLOT_ASSIGNMENTS:
            raise TooLarge(
                f"{walk} slot assignments exceeds the limit {MAX_SLOT_ASSIGNMENTS}"
            )
    return _evaluate(rho)


def closed_count(rho) -> int:
    """The double-factorial ratio both censuses collapse to.

    Depends only on the total excess and the number of holes; needs a
    nonnegative total (the loop degeneration has no closed form here).
    """
    rho = _excesses(rho)
    return merge_coefficient(sum(rho), len(rho))
