"""Exhaustive enumeration of marked ribbon graphs; orbifold Euler characteristics.

Cells are indexed by connected reduced ribbon graphs.  The search fixes
sigma0 as a canonical product of cycles realizing a valency list and
exhausts fixed-point-free involutions sigma1, pruning on the number of
boundary cycles a partial pairing can still produce and on connectivity.
Isomorphism classes are collected by canonical form.

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

import os
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
    canonical_form,
    from_code,
    validate,
)

DEFAULT_MAX_SIDES = 30


def max_sides_limit(override=None) -> int:
    """The side-count bound: override, else $RIBBONCALC_MAX_SIDES, else 30."""
    if override is not None:
        return int(override)
    env = os.environ.get("RIBBONCALC_MAX_SIDES")
    return int(env) if env else DEFAULT_MAX_SIDES


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

def _search(valencies, n_holes, *, collect=False, order=None):
    """Count (or collect) pairings giving a connected graph with n_holes faces.

    Sides are 0-based here, blocked consecutively by vertex; sigma0 rotates
    within each block.  Faces are tracked incrementally: pairing (x, y)
    creates the boundary-walk links x -> inv0[y] and y -> inv0[x]; a link
    whose ends already sit in one union-find component closes a face.  With
    k pairings left, at least one and at most 2k more faces will close, and
    connectivity needs at most k more merges; violations prune the branch.

    Count mode visits every valid pairing, so ``orbifold_euler`` counts by
    ``_connected_pairings`` instead; tests keep this count as its oracle.
    ``order`` is a ranking list used only by tests to scramble the candidate
    order.
    """
    n = sum(valencies)
    s0 = [0] * n
    base = 0
    for v in valencies:
        for j in range(v):
            s0[base + j] = base + (j + 1) % v
        base += v
    inv0 = [0] * n
    for i in range(n):
        inv0[s0[i]] = i

    partner = [-1] * n
    fpar = list(range(n))
    fsz = [1] * n
    cpar = [0] * n
    csz = [1] * n
    base = 0
    for v in valencies:
        for j in range(v):
            cpar[base + j] = base
        csz[base] = v
        base += v

    closed = 0
    comps = len(valencies)
    count = 0
    found = []
    total_pairs = n // 2

    def go(lo, remaining):
        nonlocal closed, comps, count
        while partner[lo] >= 0:
            lo += 1
        x = lo
        cands = range(lo + 1, n)
        if order is not None:
            cands = sorted(cands, key=lambda y: order[y])
        for y in cands:
            if partner[y] >= 0:
                continue
            partner[x] = y
            partner[y] = x
            newly = 0
            undo = []
            for u, v in ((x, inv0[y]), (y, inv0[x])):
                ru = u
                while fpar[ru] != ru:
                    ru = fpar[ru]
                rv = v
                while fpar[rv] != rv:
                    rv = fpar[rv]
                if ru == rv:
                    newly += 1
                else:
                    if fsz[ru] < fsz[rv]:
                        ru, rv = rv, ru
                    fpar[rv] = ru
                    fsz[ru] += fsz[rv]
                    undo.append((rv, ru))
            closed += newly
            ra = x
            while cpar[ra] != ra:
                ra = cpar[ra]
            rb = y
            while cpar[rb] != rb:
                rb = cpar[rb]
            cundo = None
            if ra != rb:
                if csz[ra] < csz[rb]:
                    ra, rb = rb, ra
                cpar[rb] = ra
                csz[ra] += csz[rb]
                cundo = (rb, ra)
                comps -= 1

            k = remaining - 1
            if k == 0:
                if closed == n_holes and comps == 1:
                    if collect:
                        found.append(tuple(partner))
                    else:
                        count += 1
            elif closed < n_holes and closed + 2 * k >= n_holes and comps - k <= 1:
                go(lo + 1, k)

            if cundo is not None:
                rb, ra = cundo
                csz[ra] -= csz[rb]
                cpar[rb] = rb
                comps += 1
            closed -= newly
            for rv, ru in reversed(undo):
                fsz[ru] -= fsz[rv]
                fpar[rv] = rv
            partner[x] = -1
            partner[y] = -1

    go(0, total_pairs)
    return found if collect else count


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


def _graph_from_partner(valencies, partner) -> RibbonGraph:
    n = sum(valencies)
    s0_cycles = []
    base = 0
    for v in valencies:
        s0_cycles.append(tuple(range(base + 1, base + v + 1)))
        base += v
    s1 = {i + 1: partner[i] + 1 for i in range(n)}
    return validate(s0_cycles, s1, sides=n)


# --- class enumeration ----------------------------------------------------------

class CellClass(NamedTuple):
    """One isomorphism class: canonical graph, its marking, |Aut| fixing both."""

    graph: RibbonGraph
    marking: Marking
    aut: int


def _unlabeled_classes(valencies, n_holes, order=None):
    """Canonical representatives (sorted by code) of unlabeled classes."""
    reps = {}
    for partner in _search(valencies, n_holes, collect=True, order=order):
        code, _ = canonical_form(_graph_from_partner(valencies, partner))
        if code not in reps:
            reps[code] = from_code(code)[0]
    return [reps[c] for c in sorted(reps)]


def _vertex_assignments(vertex_marks, vertices):
    """All injective maps: marked label -> vertex of the required valency."""
    labels = sorted(vertex_marks)
    if not labels:
        yield {}
        return

    def rec(idx, used, acc):
        if idx == len(labels):
            yield dict(acc)
            return
        q = labels[idx]
        want = vertex_marks[q]
        for v in vertices:
            if len(v) == want and v not in used:
                acc[q] = (VERTEX, frozenset(v))
                yield from rec(idx + 1, used | {v}, acc)
                del acc[q]

    yield from rec(0, frozenset(), {})


def _marked_classes(valencies, hole_labels, vertex_marks, order=None):
    n = len(hole_labels)
    out = {}
    for g in _unlabeled_classes(valencies, n, order=order):
        holes = g.holes()
        vertices = g.vertices()
        for assigned_holes in _perm_iter(holes):
            base = {
                l: (HOLE, frozenset(h)) for l, h in zip(hole_labels, assigned_holes)
            }
            for extra in _vertex_assignments(vertex_marks, vertices):
                code, aut = canonical_form(g, Marking(g, base | extra))
                if code not in out:
                    out[code] = CellClass(*from_code(code), aut)
    return [out[c] for c in sorted(out)]


def enumerate(g, P, profile, vertex_marks=None, max_sides=None, _order=None):  # noqa: A001
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
    return _marked_classes(profile.valencies(), hole_labels, vm, order=_order)


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
