"""The benchmark's workloads: fixed lists of exact queries, each with an oracle.

A workload is a list of ``Query`` objects built by ``build(name, seed, smoke)``.
Every query calls one public function of ``ribboncalc``; its check compares
the answer with an oracle that does not share the code path under test:
closed forms (Bernoulli and Harer-Zagier Euler numbers, the disk and
cylinder laws, the double-factorial cluster census), a character sum over
hook representations, or a second algorithm (the multiset recursion for
kappa cycle sums, the solver against the merge relation).

Only ``forms`` draws inputs from the seed (metrics, zone metrics, collapse
sequences); the other workloads are fixed query lists, so the seed leaves
them unchanged.  ``smoke`` swaps every list for a tiny one that finishes
in about a second and still reaches every traced layer.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Callable, NamedTuple, Optional

from ribboncalc import clusters, combclasses, degeneration, enumeration, plforms, stable, tautring
from ribboncalc.enumeration import Profile
from ribboncalc.ribbon import MarkedMetricGraph
from ribboncalc.tautring import TautPoly, kappa, map_generators, psi

NAMES = ("euler", "cells", "kappa", "forms")


class Query(NamedTuple):
    """One timed call and the check of its answer.

    ``check`` returns None when the answer is right, else a one-line reason.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def equals(expected) -> Callable[[object], Optional[str]]:
    def check(got):
        return None if got == expected else f"got {got}, expected {expected}"

    return check


def _late(module, attr, *args, **kwargs):
    """Call ``module.attr`` when the query runs, so a wrapper installed later is used."""
    return lambda: getattr(module, attr)(*args, **kwargs)


def build(name: str, seed: int, smoke: bool = False) -> list[Query]:
    """The query list of one workload; the same seed gives the same list."""
    makers = {"euler": _euler, "cells": _cells, "kappa": _kappa, "forms": _forms}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return makers[name](seed, smoke)


# --- closed forms and independent counts --------------------------------------


def bernoulli(m: int) -> Fraction:
    row = [Fraction(1)]
    for k in range(1, m + 1):
        row.append(-sum(comb(k + 1, j) * row[j] for j in range(k)) / (k + 1))
    return row[m]


def euler_characteristic(g: int, n: int) -> Fraction:
    """Harer-Zagier: chi(M_{0,3}) = 1, chi(M_{g,1}) = -B_2g / 2g, and
    chi(M_{g,k+1}) = (2 - 2g - k) chi(M_{g,k})."""
    k, value = (3, Fraction(1)) if g == 0 else (1, -bernoulli(2 * g) / (2 * g))
    for step in range(k, n):
        value *= 2 - 2 * g - step
    return value


def centralizer_size(valencies) -> int:
    out = 1
    for length in set(valencies):
        c = list(valencies).count(length)
        out *= length**c * factorial(c)
    return out


def hook_characters(cycle_type) -> list[int]:
    """chi^{(n-r, 1^r)} on the class ``cycle_type``, for r = 0..n-1.

    Read off from sum_r chi_r q^r = prod_i (1 - (-q)^{c_i}) / (1 + q).
    """
    poly = [1]
    for c in cycle_type:
        grown = poly + [0] * c
        for i, a in enumerate(poly):
            grown[i + c] -= (-1) ** c * a
        poly = grown
    out, carry = [], 0
    for a in poly[:-1]:
        carry = a - carry
        out.append(carry)
    return out


def one_face_pairings(valencies) -> int:
    """Fixed-point-free involutions s1 making s0 s1 one cycle, s0 of the given type.

    Frobenius' count of factorizations; only hook characters are nonzero
    on the full cycle, where chi_r = (-1)^r and chi_r(1) = C(n-1, r).
    """
    n = sum(valencies)
    lam = hook_characters(valencies)
    mu = hook_characters([2] * (n // 2))
    total = sum(Fraction((-1) ** r * lam[r] * mu[r], comb(n - 1, r)) for r in range(n))
    involutions = factorial(n) // (2 ** (n // 2) * factorial(n // 2))
    count = total * involutions * factorial(n - 1) / factorial(n)
    if count.denominator != 1:
        raise ArithmeticError(f"non-integral factorization count {count}")
    return int(count)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# --- euler: orbifold Euler characteristics ----------------------------------------


def _euler(seed, smoke):
    cases = [(0, 3), (0, 4), (1, 1), (1, 2)] + ([] if smoke else [(2, 1)])
    return [
        Query(
            f"orbifold_euler({g},{n})",
            _late(enumeration, "orbifold_euler", g, n, jobs=1),
            equals(euler_characteristic(g, n)),
        )
        for g, n in cases
    ]


# --- cells: cell complexes, the strata census, a marked profile, clusters ------------


KINDS = ("disk", "cylinder", "surface")


def _complex_query(g, labels, store):
    def call():
        store[(g, tuple(labels))] = enumeration.enumerate_all_cells(g, labels)
        return store[(g, tuple(labels))]

    def check(cells):
        n = len(labels)
        total = sum(
            Fraction(-1 if (sum(vals) // 2 - n) % 2 else 1, cell.aut)
            for vals, classes in cells.items()
            for cell in classes
        )
        return equals(euler_characteristic(g, n))(total)

    return Query(f"enumerate_all_cells({g},{len(labels)})", call, check)


def _census(store):
    """Zone kind of every hole of every cell, per complex and hole label."""
    census = {}
    for (g, labels), cells in store.items():
        for q in labels:
            row = {"cells": 0, "excluded": 0}
            for classes in cells.values():
                for cell in classes:
                    topo = degeneration.hole_topology((cell.graph, cell.marking), q)
                    row["cells"] += 1
                    if topo.closed_complement:
                        row["excluded"] += 1
                    else:
                        row[topo.kind] = row.get(topo.kind, 0) + 1
            census[(g, labels, q)] = row
    return census


def _check_census(census):
    for key, row in census.items():
        unknown = set(row) - set(KINDS) - {"cells", "excluded"}
        if unknown:
            return f"{key}: unknown zone kinds {sorted(unknown)}"
        if sum(row.get(k, 0) for k in KINDS) + row["excluded"] != row["cells"]:
            return f"{key}: census {row} does not add up to the cell count"
    return None


def _marked_profile_check(valencies):
    """One hole and one mark on a 5-valent vertex: by orbit counting the classes
    carry sum 1/|Aut| = (one-face pairings) * (places for the mark) / |Z(s0)|."""
    places = list(valencies).count(5)
    want = Fraction(one_face_pairings(valencies) * places, centralizer_size(valencies))

    def check(classes):
        return equals(want)(sum(Fraction(1, c.aut) for c in classes))

    return check


def _cluster_query(rho):
    s = sum(rho)
    printed = {1: 1, 2: 2 * s + 3, 3: (2 * s + 3) * (2 * s + 5)}[len(rho)]

    def check(got):
        closed = clusters.closed_count(rho)
        if not got == closed == printed:
            return f"search {got}, closed_count {closed}, printed {printed}"
        return None

    return Query(f"count_admissible{rho}", _late(clusters, "count_admissible", rho), check)


def _cells(seed, smoke):
    store = {}
    families = [(0, 3), (1, 1), (1, 2)] if smoke else [(0, 3), (0, 4), (1, 1), (1, 2)]
    queries = [
        _complex_query(g, [f"p{i}" for i in range(1, n + 1)], store) for g, n in families
    ]
    queries.append(Query("strata census", lambda: _census(store), _check_census))
    g, profile, valencies = (2, [0, 2], [5, 5]) if smoke else (2, [3, 1], [5, 3, 3, 3])
    queries.append(
        Query(
            f"enumerate({g},[p,q],{profile},q=5)",
            _late(enumeration, "enumerate", g, ["p", "q"], profile, vertex_marks={"q": 5}),
            _marked_profile_check(valencies),
        )
    )
    rhos = [(0, 1)] if smoke else [(0, 0, 0), (1, 0, 0), (1, 1, 1)]
    queries.extend(_cluster_query(rho) for rho in rhos)
    return queries


# --- kappa: solver, cycle sums, merge relations -------------------------------------------


def _surface_for(profile):
    """Smallest genus with one hole whose complex holds the profile."""
    spent = sum((2 * i + 1) * mi for i, mi in enumerate(profile) if i >= 1)
    return max(1, -(-(spent + 2) // 4))


def _product_rule(profile):
    """The pure kappa monomial prod kappa_i^{m_i} has coefficient
    prod (2^{i+1} (2i+1)!!)^{m_i} / m_i!."""
    lead = TautPoly.constant(1)
    want = Fraction(1)
    for i, mi in enumerate(profile):
        if i and mi:
            lead = lead * kappa(i) ** mi
            want *= Fraction((2 ** (i + 1) * double_factorial(2 * i + 1)) ** mi, factorial(mi))
    ((key, _),) = lead.terms().items()

    def check(poly):
        got = poly.terms().get(key, Fraction(0))
        return None if got == want else f"pure kappa coefficient {got}, product rule {want}"

    return check


def _golden(profile, golden):
    rule = _product_rule(profile)

    def check(poly):
        return rule(poly) or (None if poly == golden else f"got {poly.text()}, golden {golden.text()}")

    return check


def _two_vertex_formula(a, b):
    formula = 2 ** (a + b + 2) * double_factorial(2 * a + 1) * double_factorial(2 * b + 1) * (
        kappa(a) * kappa(b) + kappa(a + b)
    ) - 2 ** (a + b + 1) * double_factorial(2 * a + 2 * b + 3) * kappa(a + b)
    return formula * Fraction(1, 2 if a == b else 1)


def cycle_sum_by_recursion(values, memo=None) -> TautPoly:
    """Sum over S_m of prod over cycles of kappa(sum of values on the cycle).

    Recursion on the cycle through the smallest value: choosing its other
    members S (|S|! cyclic orders) leaves the same problem on the rest.
    """
    memo = {} if memo is None else memo
    key = tuple(sorted(values))
    if key in memo:
        return memo[key]
    if not key:
        return TautPoly.constant(1)
    first, rest = key[0], key[1:]
    total = TautPoly()
    for size in range(len(rest) + 1):
        for chosen in combinations(range(len(rest)), size):
            inside = first + sum(rest[i] for i in chosen)
            outside = [rest[i] for i in range(len(rest)) if i not in chosen]
            total = total + factorial(size) * kappa(inside) * cycle_sum_by_recursion(outside, memo)
    memo[key] = total
    return total


def _cycle_sum_check(values):
    m = len(values)
    ((top, _),) = kappa(sum(values)).terms().items()

    def check(poly):
        terms = poly.terms()
        if sum(terms.values()) != factorial(m):
            return f"coefficients sum to {sum(terms.values())}, not {m}!"
        if terms.get(top) != factorial(m - 1):
            return f"kappa_{sum(values)} has coefficient {terms.get(top)}, not ({m}-1)!"
        return equals(cycle_sum_by_recursion(values))(poly)

    return check


def _locus_profile(name):
    """Valencies of an unmarked locus symbol named locus_v1,v2,..."""
    if not name.startswith("locus_") or ";" in name:
        return None
    return [int(v) for v in name[len("locus_"):].split(",")]


def _relation_check(rho, kept):
    labels = sorted(rho)
    lhs_want = TautPoly.constant(1)
    for q in labels:
        lhs_want = lhs_want * (2 ** (rho[q] + 1) * double_factorial(2 * rho[q] + 1))
    for q in sorted(kept):
        lhs_want = lhs_want * psi(q) ** (rho[q] + 1)
    lhs_want = lhs_want * cycle_sum_by_recursion([rho[q] for q in labels if q not in kept])

    def check(rel):
        if rel.lhs != lhs_want:
            return f"lhs {rel.lhs.text()}, expected {lhs_want.text()}"
        if not (rel.rhs.is_homogeneous() and rel.rhs.weights() == rel.lhs.weights()):
            return "the two sides differ in weight"
        if kept:
            return None
        # nothing kept: every locus is a kappa polynomial, and the relation must close
        mapping = {}
        for entry in rel.rhs.to_json():
            for item in entry["monomial"]:
                vals = _locus_profile(item.get("name", ""))
                if vals is None:
                    continue
                ((mono, _),) = combclasses.valency_class(vals).terms().items()
                ((gen, _),) = mono
                prof = Profile.from_valencies(vals)
                mapping[gen] = combclasses.kappa_polynomial(prof, _surface_for(prof.m), 1)
        closed = map_generators(rel.rhs, mapping)
        return None if closed == rel.lhs else f"solved loci give {closed.text()}"

    return check


def _kappa(seed, smoke):
    queries = []
    # mixed profiles first, so their tails are solved here and not found in the memo
    mixed = [[0, 1, 1]] if smoke else [[0, 2, 1], [0, 1, 1, 1], [0, 3, 2], [0, 1, 0, 2]]
    singles = range(1, 4 if smoke else 8)
    goldens = {
        1: 12 * kappa(1),
        3: 288 * kappa(1) ** 3 - 4176 * kappa(1) * kappa(2) + 20736 * kappa(3),
    }
    for profile in mixed + [[0, k] for k in singles]:
        g = _surface_for(profile)
        check = _product_rule(profile)
        if len(profile) == 2 and profile[1] in goldens:
            check = _golden(profile, goldens[profile[1]])
        queries.append(
            Query(
                f"kappa_polynomial({profile})",
                _late(combclasses, "kappa_polynomial", profile, g, 1),
                check,
            )
        )
    top = 2 if smoke else 4
    for a in range(1, top + 1):
        for b in range(a, top + 1):
            want = _two_vertex_formula(a, b)
            queries.append(
                Query(
                    f"two_vertex_check({a},{b})",
                    _late(combclasses, "two_vertex_check", a, b),
                    lambda chk, want=want: equals(want)(chk.solved),
                )
            )
    sums = [[1, 2, 3], [1, 1, 1]] if smoke else [
        [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7], [1] * 7,
    ]
    for values in sums:
        queries.append(
            Query(
                f"kappa_cycle_sum({values})",
                _late(tautring, "kappa_cycle_sum", values),
                _cycle_sum_check(values),
            )
        )
    relations = [({"a": 1, "b": 1}, ()), ({"a": 1, "b": 1}, ("a", "b"))] if smoke else [
        ({"a": 1, "b": 1}, ()),
        ({"a": 1, "b": 1, "c": 1}, ()),
        ({"a": 1, "b": 2, "c": 1, "d": 1}, ()),
        ({"a": 1, "b": 2, "c": 1, "d": 1, "e": 1}, ()),
        ({"a": 1, "b": 1}, ("a", "b")),
        ({"a": 1, "b": 2, "c": 1, "d": 1}, ("a",)),
        ({"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}, ("a", "b")),
        ({"a": 1, "b": 1, "c": 1, "d": 1, "e": 1}, ("a", "b", "c", "d", "e")),
    ]
    # relations come last: their oracle calls the solver, which fills its memo
    for rho, kept in relations:
        g = combclasses.ambient_genus(rho)
        queries.append(
            Query(
                f"merge_relation({rho},kept={list(kept)})",
                _late(combclasses, "merge_relation", g, ["p"], rho, kept),
                _relation_check(rho, kept),
            )
        )
    return queries


# --- forms: Pfaffians, fiber integrals, shrinking, stable graphs ----------------------------


class FormsInputs(NamedTuple):
    metric_cells: list  # (cell id, MarkedMetricGraph) with random rational lengths
    zone_cells: list  # (cell id, MarkedMetricGraph, hole) with the hole's zone short
    collapses: list  # (cell id, graph, marking, collapse sequence)


def forms_inputs(seed: int, smoke: bool = False) -> FormsInputs:
    """Top cells with seeded metrics, zone metrics and collapse sequences."""
    rng = random.Random(seed)
    families = [(0, 3), (1, 1)] if smoke else [(0, 4), (1, 2)]
    metrics_per_cell = 2 if smoke else 3
    metric_cells, zone_cells, collapses = [], [], []
    for g, n in families:
        labels = [f"p{i}" for i in range(1, n + 1)]
        tops = enumeration.enumerate_all_cells(g, labels, max_excess=0)
        for vals, classes in sorted(tops.items()):
            for idx, cell in enumerate(classes):
                cid = f"({g},{n}){list(vals)}#{idx}"
                graph, marking = cell.graph, cell.marking
                edges = graph.edges()
                for _ in range(metrics_per_cell):
                    lengths = {
                        e: Fraction(rng.randint(1, 48), rng.randint(1, 48)) for e in edges
                    }
                    metric_cells.append((cid, MarkedMetricGraph(graph, marking, lengths)))
                for q in labels:
                    zone = {graph.edge_of(x) for x in marking.orbit(q)}
                    if any(
                        all(graph.edge_of(x) in zone for x in marking.orbit(p))
                        for p in labels
                        if p != q
                    ):
                        continue  # another hole lies inside the zone: outside the cone
                    # zone edges sum below 1, every other edge is at least 1 long
                    eps = Fraction(1, 64 * len(edges))
                    lengths = {
                        e: eps * Fraction(rng.randint(1, 16), 16)
                        if e in zone
                        else 1 + Fraction(rng.randint(0, 16), 16)
                        for e in edges
                    }
                    zone_cells.append((cid, MarkedMetricGraph(graph, marking, lengths), q))
                if len(edges) >= 2:
                    for _ in range(2):
                        z = rng.sample(edges, rng.randint(1, len(edges) - 1))
                        collapses.append((cid, graph, marking, [edges, sorted(z)]))
    return FormsInputs(metric_cells, zone_cells, collapses)


def _genus(graph) -> int:
    return (2 - graph.n_vertices() + graph.n_edges() - graph.n_holes()) // 2


def _nondegeneracy_query(cid, mmg, first_pfaffian):
    def check(answer):
        ok, pf = answer
        if not ok or pf == 0:
            return "the perimeter-weighted form is degenerate"
        first = first_pfaffian.setdefault(cid, pf)
        return None if pf == first else f"Pfaffian {pf} differs from {first} on another metric"

    return Query(f"nondegeneracy_check{cid}", _late(plforms, "nondegeneracy_check", mmg), check)


def _shrink_check(mmg, q):
    def check(res):
        want = degeneration.hole_topology((mmg.graph, mmg.marking), q)
        return None if res.topology == want else f"shrink gives {res.topology}, census {want}"

    return check


def _stable_check(graph):
    def check(data):
        n = len(data.components)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for a, b in data.iota.items():
            parent[find(a[0])] = find(b[0])
        glued = len({find(i) for i in range(n)})
        if glued != 1:
            return f"the gluing leaves {glued} pieces"
        total = sum(_genus(c) for c in data.components) + len(data.iota) // 2 - n + 1
        if total != _genus(graph):
            return f"stable genus {total} differs from the cell's genus {_genus(graph)}"
        for lengths in data.lengths:
            if sum(lengths.values()) != 1 or min(lengths.values()) <= 0:
                return "a component metric is not positive with total 1"
        return None

    return check


def _forms(seed, smoke):
    inputs = forms_inputs(seed, smoke)
    first_pfaffian = {}
    queries = [_nondegeneracy_query(cid, mmg, first_pfaffian) for cid, mmg in inputs.metric_cells]
    for r in range(3 if smoke else 8):
        queries.append(
            Query(
                f"fiber_integral_disk({r})",
                _late(plforms, "fiber_integral_disk", r),
                equals(Fraction(factorial(r + 1), factorial(2 * r + 2))),
            )
        )
    top = 3 if smoke else 7
    for v1 in range(1, top + 1):
        for v2 in range(v1, top + 1, 2):
            r = (v1 + v2) // 2
            want = Fraction(v1 * v2 * factorial(r + 1), factorial(2 * r + 2)) if v1 % 2 else 0
            queries.append(
                Query(
                    f"fiber_integral_cyl({v1},{v2})",
                    _late(plforms, "fiber_integral_cyl", v1, v2),
                    equals(want),
                )
            )
    for cid, mmg, q in inputs.zone_cells:
        queries.append(
            Query(f"shrink{cid}:{q}", _late(degeneration, "shrink", mmg, q), _shrink_check(mmg, q))
        )
    for cid, graph, marking, zseq in inputs.collapses:
        queries.append(
            Query(
                f"build_stable{cid}:{zseq[1]}",
                _late(stable, "build_stable", graph, marking, zseq),
                _stable_check(graph),
            )
        )
    return queries
