"""Permutations of finite side sets, represented as plain dicts.

A permutation is a dict mapping every element of its domain to its image.
Sides are 1-based integers throughout the package, but nothing here cares:
any hashable keys work, which lets subgraphs keep the parent's side names.

Cycle notation round-trip::

    >>> p = from_cycles([(1, 2, 3), (4, 6)], domain=range(1, 7))
    >>> p[3], p[5], p[6]
    (1, 5, 4)
    >>> cycles(p)
    [(1, 2, 3), (4, 6)]

``cycles`` lists every orbit (fixed points included as 1-cycles), each
rotated so its minimum comes first, sorted by that minimum.

``blocks`` is the package's union-find: the connected components of a
graph given by its items and links (dual graphs, hole clusters, edge
subsets).

``_sub_multisets`` serves the recursions that treat equal values as
interchangeable: it groups the subsets of a labelled multiset by the
sub-multiset they pick.  The rooted-map count of ``enumeration`` uses it,
and so does ``_partition_sums``, which sums over the set partitions of a
labelled multiset by their block sums for the kappa cycle sums, the kappa
solver and the merging relations.  ``combclasses.merge_relation`` also
calls ``_sub_multisets`` itself, to pick each kept label's companions.

``_partition_sums`` answers from one table per process, keyed by the block
weight and the descending multiset, like ``enumeration``'s rooted-map
counts.  Its weights are module-level functions, so that one weight is one
key, and it returns read-only views of the table's entries.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product
from math import comb
from types import MappingProxyType

from .errors import DomainMismatch


def from_cycles(cycle_list, domain):
    """Build a permutation dict from disjoint cycles; unmentioned points stay fixed."""
    perm = {x: x for x in domain}
    seen = set()
    for cyc in cycle_list:
        for x in cyc:
            if x not in perm:
                raise DomainMismatch(f"cycle element {x!r} outside domain")
            if x in seen:
                raise DomainMismatch(f"element {x!r} appears in two cycles")
            seen.add(x)
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % len(cyc)]
    return perm


def cycles(perm):
    """Orbits of ``perm`` as min-first tuples, sorted by minimum element."""
    seen = set()
    out = []
    for start in sorted(perm):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            orbit.append(x)
            seen.add(x)
            x = perm[x]
        out.append(tuple(orbit))
    return out


def inverse(perm):
    return {y: x for x, y in perm.items()}


def is_permutation(perm):
    return set(perm.values()) == set(perm.keys())


def is_fpf_involution(perm):
    """True iff ``perm`` is an involution without fixed points."""
    return all(y != x and perm[y] == x for x, y in perm.items())


def restrict_first_return(perm, subset):
    """First-return map of ``perm`` on ``subset``.

    Sends x in subset to perm^k(x) for the least k >= 1 landing in subset.
    Well-defined because every orbit visiting subset returns to it.
    """
    sub = set(subset)
    out = {}
    for x in sub:
        y = perm[x]
        while y not in sub:
            y = perm[y]
        out[x] = y
    return out


def orbit_of(perm, start):
    """The orbit of ``start`` as a tuple beginning at ``start``."""
    orbit = [start]
    x = perm[start]
    while x != start:
        orbit.append(x)
        x = perm[x]
    return tuple(orbit)


def blocks(items, links):
    """Connected components of the graph on ``items`` with edges ``links``.

    Returns frozensets in the order of their first item in ``items``; a
    link may join an item to itself.
    """
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    out = {}
    for x in parent:
        out.setdefault(find(x), set()).add(x)
    return [frozenset(b) for b in out.values()]


def _sub_multisets(mu):
    """Each sub-multiset I of ``mu`` (descending) with its complement J and
    the number of labelled subsets of ``mu`` that realize it."""
    groups = sorted(Counter(mu).items(), reverse=True)
    for picks in product(*(range(c + 1) for _, c in groups)):
        inside, outside, ways = [], [], 1
        for (d, c), k in zip(groups, picks):
            inside += [d] * k
            outside += [d] * (c - k)
            ways *= comb(c, k)
        yield tuple(inside), tuple(outside), ways


def _partition_sums(values, block_weight):
    """Set partitions of labelled ``values``, grouped by their block sums.

    Maps each ascending tuple of block sums to the sum, over the partitions
    with those block sums, of the product over blocks B of
    ``block_weight(sum of B, |B|)``.  Recurses on the block holding the
    largest value, its other members grouped by sub-multiset.

    Every (weight, multiset) state lives in one table kept for the process,
    so the kappa cycle sums, the kappa solver and the merging relations
    share each sub-multiset any of them reaches.  ``block_weight`` is part
    of the key: pass a module-level function, since a fresh lambda per call
    would miss every time and grow the table.  The result is a read-only
    view of the table's own entry.
    """
    key = tuple(sorted(values, reverse=True))
    return MappingProxyType(_partition_table(block_weight, key))


@cache
def _partition_table(block_weight, key):
    if not key:
        return {(): 1}
    first, rest = key[0], key[1:]
    out = {}
    for inside, outside, ways in _sub_multisets(rest):
        block = first + sum(inside)
        weight = ways * block_weight(block, 1 + len(inside))
        for sums, coeff in _partition_table(block_weight, outside).items():
            merged = tuple(sorted(sums + (block,)))
            out[merged] = out.get(merged, 0) + weight * coeff
    return out
