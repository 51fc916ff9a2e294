"""Exhaustive enumeration of marked ribbon graphs; orbifold Euler characteristics.

Cells are indexed by connected reduced ribbon graphs, generated as rooted
maps in discovery order.  A root vertex of valency mu_1 opens with sides
0 .. mu_1 - 1.  Then the smallest unpaired opened side x is paired either
with a later unpaired opened side or with side 0 of a newly opened vertex,
one choice per valency still unused, whose sides take the next numbers.
A rooted map with unlabelled vertices, rooted on a vertex of valency mu_1,
fixes every choice: walking it from the root numbers each vertex's sides
when the vertex is first reached.  So each such map comes out exactly
once, connected by construction; this inverts the root-edge decomposition
of Walsh and Lehman cited below.  Faces are counted as boundary walks
close, and a branch that can no longer end with n faces is cut.
Isomorphism classes, the rooted maps up to moving the root, are collected
by canonical augmentation (McKay, Isomorph-free exhaustive generation,
J. Algorithms 26, 1998): a rooted map is kept only if its root attains
the least traversal code (code0, code1) among all roots on vertices of
valency mu_1.  The generator yields each class once per Aut-orbit of such
roots, and the roots attaining the least code form one Aut-orbit, since
two roots with equal codes differ by an automorphism; so exactly one map
per class passes, and nothing is deduplicated.  The test runs on the
generator's own lists, before any graph is built: the root's code and a
rival's are built in lockstep, one traversal step at a time, and dropped
at the first entry that differs, so a rejected map costs a few steps per
rival and nothing more.  A kept map is built as a graph once and gets one
canonical form, whose sweep of every root finds the class's least-code
roots; the canonical graph rebuilt from that code is handed those roots,
renamed into its own sides, and is never swept.  A labelled class's code
extends the unlabelled one, so every labelling only compares mark codes
over those roots, each root's first side of every hole (and marked
vertex) is read once per call, and a labelled class's marking is read off
a map from least sides to orbits.
Every labelled class of one unlabelled class is built on that class's
canonical graph, one shared object, so what the graph determines (its
orbits, the zone of each hole) is worked out once for all labellings.
The unlabelled classes of a (valency list, hole count) are cached for the
life of the process, like the rooted-map counts below, so every later
graph sum over them (another labelling, the cluster census) starts from the
same canonical graphs and their cached orbits and zones.  The cache never
evicts; the side guard bounds what can enter it.

The Euler sum does not need the classes themselves: with sigma0 fixed, the
isomorphism classes with a given valency list are the orbits of the
centralizer of sigma0 acting on valid pairings, so by orbit-stabilizer

    sum over unlabeled classes of 1/|Aut| = (#valid pairings) / |Z(sigma0)|

and labeling the n holes multiplies the sum by n!.

Nor does it need the pairings.  Fixing sigma0 with labelled sides labels
the vertices and roots each one at its first side, so the valid pairings
of a valency list mu with F faces are exactly the rooted maps of genus g,
2 - 2g = V - E + F, with labelled vertices of degrees mu.  Their number
C_g(mu), a generalized Catalan number, obeys the root-edge recursion of
Walsh and Lehman (Counting rooted maps by genus I, J. Combin. Theory B 13,
1972) in the form of Dumitrescu, Mulase, Safnuk and Sorkin (The spectral
curve of the Eynard-Orantin recursion via the Laplace transform, 2013).
Removing the root edge at the vertex of degree mu_1 either contracts it
into another vertex j, or splits mu_1 into the two sides alpha + beta =
mu_1 - 2 of a loop, which lowers the genus or disconnects the map:

    C_g(mu) = sum_j mu_j C_g(mu_1 + mu_j - 2, mu minus {1, j})
            + sum_{alpha+beta = mu_1-2} [ C_{g-1}(alpha, beta, mu minus 1)
                + sum_{g1+g2=g, I+J = mu minus 1} C_g1(alpha, I) C_g2(beta, J) ]

with C_0(0) = 1.  ``orbifold_euler`` evaluates this memoized recursion in
integers, so its cost no longer grows with the number of pairings.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations as _perm_iter
from math import factorial
from typing import NamedTuple

from .errors import DomainMismatch, InconsistentProfile, TooLarge
from .permutations import _sub_multisets
from .ribbon import (
    HOLE,
    VERTEX,
    Marking,
    RibbonGraph,
    _code_against,
    _first_sides,
    _hand_least_roots,
    _least_roots,
    _marked_code,
    canonical_form,
    from_code,
)

DEFAULT_MAX_SIDES = 30


def max_sides_limit(override=None) -> int:
    """The side-count bound: override, else ``DEFAULT_MAX_SIDES``."""
    return DEFAULT_MAX_SIDES if override is None else int(override)


class Profile:
    """Valency profile m: m[i] vertices of valency 2i+3 (odd, reduced).

    Univalent vertices (the would-be index -1) are rejected outright, as are
    negative multiplicities.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        vals = tuple(int(x) for x in m)
        if any(x < 0 for x in vals):
            raise InconsistentProfile("profile entries must be nonnegative")
        while vals and vals[-1] == 0:
            vals = vals[:-1]
        self.m = vals

    @classmethod
    def from_valencies(cls, valencies):
        counts = Counter()
        for v in valencies:
            if v < 3 or v % 2 == 0:
                raise InconsistentProfile(f"valency {v} is not of the form 2i+3")
            counts[(v - 3) // 2] += 1
        size = max(counts) + 1 if counts else 0
        return cls(counts.get(i, 0) for i in range(size))

    def weight(self) -> int:
        """Sum of (2i+1) * m_i; equals 4g-4+2n on consistent input."""
        return sum((2 * i + 1) * mi for i, mi in zip(range(len(self.m)), self.m))

    def consistent_with(self, g, n) -> bool:
        return self.weight() == 4 * g - 4 + 2 * n

    def valencies(self):
        """All vertex valencies, largest first."""
        out = []
        for i in range(len(self.m) - 1, -1, -1):
            out.extend([2 * i + 3] * self.m[i])
        return out

    def n_vertices(self) -> int:
        return sum(self.m)

    def n_sides(self) -> int:
        return sum(self.valencies())

    def __eq__(self, other):
        return isinstance(other, Profile) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"Profile({list(self.m)})"


# --- the pairing search ---------------------------------------------------------

def _open_vertex(inv0, first, valency):
    """Set sigma0^-1 on the block of sides first .. first + valency - 1."""
    for j in range(valency):
        inv0[first + (j + 1) % valency] = first + j


def _join(par, size, a, b, undo):
    """Union the classes of a and b (logging it in undo); 1 if already one."""
    while par[a] != a:
        a = par[a]
    while par[b] != b:
        b = par[b]
    if a == b:
        return 1
    if size[a] < size[b]:
        a, b = b, a
    par[b] = a
    size[a] += size[b]
    undo.append((b, a))
    return 0


def _unjoin(par, size, undo):
    """Undo the unions logged in undo, latest first."""
    for b, a in reversed(undo):
        size[a] -= size[b]
        par[b] = b


def _search(valencies, n_holes):
    """Count pairings giving a connected graph with n_holes faces.

    Sides are 0-based here, blocked consecutively by vertex; sigma0 rotates
    within each block.  Faces are tracked incrementally: pairing (x, y)
    creates the boundary-walk links x -> inv0[y] and y -> inv0[x]; a link
    whose ends already sit in one union-find component closes a face.  With
    k pairings left, at least one and at most 2k more faces will close, and
    connectivity needs at most k more merges; violations prune the branch.

    It visits every labelled pairing, so nothing in the package calls it:
    ``orbifold_euler`` counts by ``_connected_pairings`` and cells come from
    ``_rooted_map_graphs``.  It stays as the independent brute-force oracle
    that the tests check both of those against.
    """
    n = sum(valencies)
    inv0 = [0] * n
    cpar = [0] * n
    csz = [1] * n
    base = 0
    for v in valencies:
        _open_vertex(inv0, base, v)
        cpar[base:base + v] = [base] * v
        csz[base] = v
        base += v
    partner = [-1] * n
    fpar = list(range(n))
    fsz = [1] * n

    def go(x, k, closed, comps):
        while partner[x] >= 0:
            x += 1
        count = 0
        for y in range(x + 1, n):
            if partner[y] >= 0:
                continue
            partner[x], partner[y] = y, x
            undo, cundo = [], []
            now = closed + _join(fpar, fsz, x, inv0[y], undo)
            now += _join(fpar, fsz, y, inv0[x], undo)
            parts = comps - 1 + _join(cpar, csz, x, y, cundo)
            if k == 1:
                count += now == n_holes and parts == 1
            elif now < n_holes <= now + 2 * k - 2 and parts <= k:
                count += go(x + 1, k - 1, now, parts)
            _unjoin(fpar, fsz, undo)
            _unjoin(cpar, csz, cundo)
            partner[x] = partner[y] = -1
        return count

    return go(0, n // 2, 0, len(valencies))


# --- counting pairings by the root-edge recursion ---------------------------------

def _rooted_maps(g, degrees) -> int:
    """C_g(degrees): rooted maps of genus g on labelled vertices of these degrees."""
    return _rooted_sorted(g, tuple(sorted(degrees, reverse=True)))


@cache
def _rooted_sorted(g, mu) -> int:
    if 0 in mu:
        return 1 if g == 0 and mu == (0,) else 0
    total = sum(mu)
    # a connected map has at least one face: 2g = 2 - V + E - F <= 1 - V + E
    if g < 0 or total % 2 or 2 * g > 1 - len(mu) + total // 2:
        return 0
    first, rest = mu[0], mu[1:]
    out = 0
    for j in range(len(rest)):  # this module's enumerate shadows the builtin
        out += rest[j] * _rooted_maps(g, (first + rest[j] - 2,) + rest[:j] + rest[j + 1:])
    splits = list(_sub_multisets(rest))
    for alpha in range(first - 1):
        beta = first - 2 - alpha
        out += _rooted_maps(g - 1, (alpha, beta) + rest)
        for inside, outside, ways in splits:
            for g1 in range(g + 1):
                left = _rooted_maps(g1, (alpha,) + inside)
                if left:
                    out += ways * left * _rooted_maps(g - g1, (beta,) + outside)
    return out


def _connected_pairings(valencies, n_holes) -> int:
    """Number of pairings ``_search(valencies, n_holes)`` would count."""
    sides = sum(valencies)
    twice_genus = 2 - len(valencies) + sides // 2 - n_holes
    if sides % 2 or twice_genus < 0 or twice_genus % 2:
        return 0
    return _rooted_maps(twice_genus // 2, valencies)


# --- rooted maps in discovery order -----------------------------------------------

def _rooted_map_graphs(valencies, n_holes):
    """Yield every rooted map on these valencies with n_holes faces, once each.

    Vertices are unlabelled and the root is side 0, on a vertex of valency
    ``valencies[0]``; the module docstring says why each map comes out
    once.  A map is yielded as the generator's own lists (sigma0, sigma1,
    rivals): the two permutations of the sides 0 .. n-1, and the sides
    other than the root on vertices of valency ``valencies[0]``, the rival
    roots, collected as those vertices open.  The lists are live state that
    the next step changes, so a caller that keeps a map copies them.
    Opening a vertex fixes sigma0 on all its sides, so faces are tracked and
    pruned as in ``_search``, through sigma0 o sigma1 in place of sigma_inf:
    sigma1 conjugates one to the other's inverse, so a face closes at the
    same pairing either way.
    """
    n = sum(valencies)
    first = valencies[0]
    left = Counter(valencies)
    left[first] -= 1
    kinds = sorted(left)
    sigma0 = [*range(1, first), 0] + [0] * (n - first)
    partner = [-1] * n
    rivals = list(range(1, first))
    fpar = list(range(n))
    fsz = [1] * n

    def go(x, k, opened, closed):
        while x < opened and partner[x] >= 0:
            x += 1
        if x == opened:
            return  # every opened side is paired, but vertices remain
        choices = [(y, 0) for y in range(x + 1, opened) if partner[y] < 0]
        choices += [(opened, v) for v in kinds if left[v]]
        for y, v in choices:
            if v:
                left[v] -= 1
                sigma0[y:y + v] = [*range(y + 1, y + v), y]
                if v == first:
                    rivals.extend(range(y, y + v))
            partner[x], partner[y] = y, x
            undo = []
            now = closed + _join(fpar, fsz, x, sigma0[y], undo)
            now += _join(fpar, fsz, y, sigma0[x], undo)
            if k == 1:
                if now == n_holes:
                    yield sigma0, partner, rivals
            elif now < n_holes <= now + 2 * k - 2:
                yield from go(x + 1, k - 1, opened + v, now)
            _unjoin(fpar, fsz, undo)
            partner[x] = partner[y] = -1
            if v:
                left[v] += 1
                if v == first:
                    del rivals[-v:]

    yield from go(0, n // 2, first, 0)


# --- class enumeration ----------------------------------------------------------

class CellClass(NamedTuple):
    """One isomorphism class: canonical graph, its marking, |Aut| fixing both."""

    graph: RibbonGraph
    marking: Marking
    aut: int


def _unlabeled_classes(valencies, n_holes) -> tuple:
    """Canonical representatives (sorted by code) of unlabeled classes.

    A rooted map is kept only if its root, side 0, attains the least code
    among the rival roots on vertices of valency ``valencies[0]``; the
    module docstring says why exactly one map per class passes.  The test
    runs on the generator's lists, comparing root 0 with each rival in
    lockstep (``_code_against``), so a rejected map is never built as a
    graph.  A kept map is built once and gets one ``canonical_form``, and
    the canonical graph ``from_code`` rebuilds is handed the least roots
    that call found (``_hand_least_roots``).  The classes depend on nothing
    but (valencies, n_holes), so they are built once per process
    (``_unlabeled_sorted``) and every later call returns the same tuple of
    the same graphs.
    """
    return _unlabeled_sorted(tuple(valencies), n_holes)


@cache
def _unlabeled_sorted(valencies, n_holes):
    reps = {}
    for sigma0, sigma1, rivals in _rooted_map_graphs(valencies, n_holes):
        if all(_code_against(sigma0, sigma1, root, 0)[0] >= 0 for root in rivals):
            sides = range(len(sigma0))
            graph = RibbonGraph(dict(zip(sides, sigma0)), dict(zip(sides, sigma1)), sides)
            code, _ = canonical_form(graph)
            reps[code] = _hand_least_roots(graph, from_code(code)[0])
    return tuple(reps[c] for c in sorted(reps))


def _vertex_assignments(vertex_marks, vertices):
    """All injective maps: marked label -> vertex of the required valency."""
    labels = sorted(vertex_marks)
    for chosen in _perm_iter(vertices, len(labels)):
        if all(len(v) == vertex_marks[q] for q, v in zip(labels, chosen)):
            yield {q: (VERTEX, frozenset(v)) for q, v in zip(labels, chosen)}


def _marked_classes(valencies, hole_labels, vertex_marks):
    """Labelled classes by code; a labelling only breaks ties among least roots.

    ``g`` is canonical, so ``from_code`` of any of its labelled codes would
    rebuild ``g`` itself; they all share it.  Its least code and least roots
    were handed to it when it was built (``_least_roots`` reads them), and
    each least root's first side of every hole (and vertex, when vertices
    are marked) is read once per class and call.  A least root's relabeling
    is an automorphism of ``g``, so each side in a mark code is the least
    side of a hole or vertex of ``g``, and the marking is read from a map
    of least sides to orbits.
    """
    out = {}
    for g in _unlabeled_classes(valencies, len(hole_labels)):
        best, relabels = _least_roots(g)
        holes = [(HOLE, frozenset(h)) for h in g.holes()]
        vertices = g.vertices()
        targets = holes + [(VERTEX, frozenset(v)) for v in vertices] if vertex_marks else holes
        firsts = _first_sides(relabels, [orb for _, orb in targets])
        by_least = {(kind, min(orb)): (kind, orb) for kind, orb in targets}
        extras = list(_vertex_assignments(vertex_marks, vertices))
        for assigned_holes in _perm_iter(holes):
            base = dict(zip(hole_labels, assigned_holes))
            for extra in extras:
                code, aut = _marked_code(best, firsts, base | extra)
                if code not in out:
                    marks = {label: by_least[kind, side] for label, kind, side in code[2]}
                    out[code] = CellClass(g, Marking(g, marks), aut)
    return [out[c] for c in sorted(out)]


def enumerate(g, P, profile, vertex_marks=None, max_sides=None):  # noqa: A001
    """All isomorphism classes for one valency profile.

    P is the label set; vertex_marks maps a subset Q of P to required (odd,
    >= 3) valencies, and the remaining labels mark the holes bijectively.
    Returns CellClass entries sorted by canonical encoding; an inconsistent
    (g, n, profile) combination yields the empty list.
    """
    labels = [str(l) for l in P]
    if len(set(labels)) != len(labels):
        raise DomainMismatch("duplicate labels in P")
    vm = {str(q): int(v) for q, v in (vertex_marks or {}).items()}
    for q, v in vm.items():
        if q not in labels:
            raise DomainMismatch(f"vertex mark {q!r} is not in P")
        if v < 3 or v % 2 == 0:
            raise InconsistentProfile(f"marked valency {v} must be odd and >= 3")
    hole_labels = [l for l in labels if l not in vm]
    if not hole_labels:
        raise DomainMismatch("at least one label must mark a hole")
    _check_genus(g)
    if not isinstance(profile, Profile):
        profile = Profile(profile)
    if not profile.consistent_with(g, len(hole_labels)):
        return []
    if profile.n_sides() > max_sides_limit(max_sides):
        raise TooLarge(
            f"{profile.n_sides()} sides exceeds the limit {max_sides_limit(max_sides)}"
        )
    return _marked_classes(profile.valencies(), hole_labels, vm)


def _partitions(total):
    """Partitions of ``total`` into parts >= 1, each tuple descending."""
    def rec(rem, mx):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, mx), 0, -1):
            for rest in rec(rem - p, p):
                yield (p,) + rest

    yield from rec(total, total)


def _check_genus(g):
    """A negative genus has no cells: ``InconsistentProfile``."""
    if g < 0:
        raise InconsistentProfile(f"no cells for negative genus {g}")


def valency_lists(g, n):
    """Vertex-valency multisets (descending) of all cells for (g, n).

    Parts are val-2 >= 1, summing to 4g-4+2n; every valency >= 3 of any
    parity is allowed, so this includes the non-odd profiles that occur
    away from the top-dimensional cells.
    """
    _check_genus(g)
    total = 4 * g - 4 + 2 * n
    if total <= 0 or n < 1:
        raise InconsistentProfile(f"no cells for genus {g} with {n} holes")
    return [tuple(p + 2 for p in part) for part in _partitions(total)]


def enumerate_all_cells(g, P, max_excess=None, max_sides=None):
    """Classes for every valency list, grouped: {valencies: [CellClass, ...]}.

    max_excess bounds the total valency excess sum(val - 3), which is the
    codimension of the cell; 0 keeps only the trivalent top cells.  Hole
    labels are all of P (no vertex marks here).
    """
    labels = [str(l) for l in P]
    if len(set(labels)) != len(labels):
        raise DomainMismatch("duplicate labels in P")
    limit = max_sides_limit(max_sides)
    total = 4 * g - 4 + 2 * len(labels)
    if total > 0 and 3 * total > limit:
        raise TooLarge(f"top cells need {3 * total} sides, over the limit {limit}")
    out = {}
    for vals in valency_lists(g, len(labels)):
        excess = sum(v - 3 for v in vals)
        if max_excess is not None and excess > max_excess:
            continue
        classes = _marked_classes(list(vals), labels, {})
        if classes:
            out[vals] = classes
    return out


# --- Euler characteristics --------------------------------------------------------

def _centralizer_size(valencies) -> int:
    out = 1
    for length, c in Counter(valencies).items():
        out *= length**c * factorial(c)
    return out


def orbifold_euler(g, n, jobs=1, max_sides=None) -> Fraction:
    """Sum of (-1)^(edges - n) / |Aut| over labeled classes, all profiles.

    Computed per valency list from pairing counts via the centralizer
    identity in the module docstring; the counts come from the root-edge
    recursion, so neither pairings nor isomorphism classes are built.
    ``jobs`` is accepted for compatibility and ignored: the count runs in
    one process.
    """
    if n < 1 or 2 * g - 2 + n <= 0:
        raise InconsistentProfile(f"(g, n) = ({g}, {n}) has no cells")
    shapes = valency_lists(g, n)
    limit = max_sides_limit(max_sides)
    worst = max(sum(v) for v in shapes)
    if worst > limit:
        raise TooLarge(f"largest cells need {worst} sides, over the limit {limit}")

    total = Fraction(0)
    for vals in shapes:
        edges = sum(vals) // 2
        sign = -1 if (edges - n) % 2 else 1
        total += Fraction(
            sign * factorial(n) * _connected_pairings(vals, n), _centralizer_size(vals)
        )
    return total
