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
by canonical form.  A labelled class's code extends the unlabelled one, so
each class's least-code roots are found once and every labelling of its
holes and marked vertices only compares mark codes over those roots.

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

    Vertices are unlabelled and the root is side 1, on a vertex of valency
    ``valencies[0]``; the module docstring says why each map comes out
    once.  Sides are 0-based while building.  Opening a vertex fixes sigma0
    on all its sides, so faces are tracked and pruned as in ``_search``.
    """
    n = sum(valencies)
    left = Counter(valencies)
    left[valencies[0]] -= 1
    kinds = sorted(left)
    inv0 = [0] * n
    _open_vertex(inv0, 0, valencies[0])
    partner = [-1] * n
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
                _open_vertex(inv0, y, v)
            partner[x], partner[y] = y, x
            undo = []
            now = closed + _join(fpar, fsz, x, inv0[y], undo)
            now += _join(fpar, fsz, y, inv0[x], undo)
            if k == 1:
                if now == n_holes:
                    yield RibbonGraph(
                        {inv0[i] + 1: i + 1 for i in range(n)},
                        {i + 1: partner[i] + 1 for i in range(n)},
                        range(1, n + 1),
                    )
            elif now < n_holes <= now + 2 * k - 2:
                yield from go(x + 1, k - 1, opened + v, now)
            _unjoin(fpar, fsz, undo)
            partner[x] = partner[y] = -1
            if v:
                left[v] += 1

    yield from go(0, n // 2, valencies[0], 0)


# --- class enumeration ----------------------------------------------------------

class CellClass(NamedTuple):
    """One isomorphism class: canonical graph, its marking, |Aut| fixing both."""

    graph: RibbonGraph
    marking: Marking
    aut: int


def _unlabeled_classes(valencies, n_holes):
    """Canonical representatives (sorted by code) of unlabeled classes."""
    reps = {}
    for graph in _rooted_map_graphs(valencies, n_holes):
        code, _ = canonical_form(graph)
        if code not in reps:
            reps[code] = from_code(code)[0]
    return [reps[c] for c in sorted(reps)]


def _vertex_assignments(vertex_marks, vertices):
    """All injective maps: marked label -> vertex of the required valency."""
    labels = sorted(vertex_marks)
    for chosen in _perm_iter(vertices, len(labels)):
        if all(len(v) == vertex_marks[q] for q, v in zip(labels, chosen)):
            yield {q: (VERTEX, frozenset(v)) for q, v in zip(labels, chosen)}


def _marked_classes(valencies, hole_labels, vertex_marks):
    """Labelled classes by code; a labelling only breaks ties among least roots."""
    out = {}
    for g in _unlabeled_classes(valencies, len(hole_labels)):
        best, relabels = _least_roots(g)
        holes = [(HOLE, frozenset(h)) for h in g.holes()]
        vertices = g.vertices()
        for assigned_holes in _perm_iter(holes):
            base = dict(zip(hole_labels, assigned_holes))
            for extra in _vertex_assignments(vertex_marks, vertices):
                code, aut = _marked_code(best, relabels, base | extra)
                if code not in out:
                    out[code] = CellClass(*from_code(code), aut)
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


def valency_lists(g, n):
    """Vertex-valency multisets (descending) of all cells for (g, n).

    Parts are val-2 >= 1, summing to 4g-4+2n; every valency >= 3 of any
    parity is allowed, so this includes the non-odd profiles that occur
    away from the top-dimensional cells.
    """
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


def dimension_counts(cells) -> dict:
    """Number of classes per cell dimension (= edge count) from enumerate_all_cells."""
    out = Counter()
    for vals, classes in cells.items():
        out[sum(vals) // 2] += len(classes)
    return dict(sorted(out.items()))


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
