"""Golden-value checks behind ``ribboncalc --repro`` and the release gate.

Each entry recomputes a headline number from scratch and compares it with
an independent oracle: solver output against printed closed forms, the
cluster censuses against brute-force search, Euler characteristics against
Bernoulli numbers and the Harer-Zagier step, Pfaffians against seeded
random-metric sweeps and the closed form 2^-g.  A check returns
``(ok, detail)`` and touches no global state, so the registry can run in
any order, any number of times, with byte-identical output.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import Callable, NamedTuple

from . import clusters, combclasses, enumeration, plforms, stable
from .combclasses import double_factorial
from .degeneration import CYLINDER, DISK, SURFACE, hole_topology, shrink
from .ribbon import (
    HOLE,
    Marking,
    MarkedMetricGraph,
    canonical_form,
    contract_edge,
    dual,
    validate,
)
from .tautring import TautPoly, kappa, map_generators

_SEED = 20260815
# the random structural sweeps: rounds per sweep, and edges per random graph
_SWEEP_ROUNDS = 50
_SWEEP_MAX_EDGES = 4


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class _Failed(Exception):
    """A sweep assertion that should surface as a readable FAIL line."""


# --- 1. printed polynomial values ------------------------------------------------


def check_polynomial_goldens():
    w5 = combclasses.kappa_polynomial([0, 1], 2, 1)
    if w5 != 12 * kappa(1):
        return False, f"single 5-valent locus came out as {w5.text()}"
    want = 288 * kappa(1) ** 3 - 4176 * kappa(1) * kappa(2) + 20736 * kappa(3)
    triple = combclasses.kappa_polynomial([0, 3], 3, 1)
    if triple != want:
        return False, f"triple 5-valent locus came out as {triple.text()}"
    pairs = [(1, 1), (1, 2), (2, 2), (1, 3)]
    for a, b in pairs:
        chk = combclasses.two_vertex_check(a, b)
        if not chk.agree:
            return False, (
                f"two-vertex formula disagrees at {(a, b)}: "
                f"{chk.solved.text()} vs {chk.formula.text()}"
            )
    return True, (
        "12*k1 and the m1=3 polynomial reproduced; "
        f"two-vertex formula agrees at {pairs}"
    )


# --- 2. leading coefficients ------------------------------------------------------


def check_leading_coefficients():
    checked = 0
    for w in (2, 4, 6):
        n = 1 if w % 4 == 2 else 2
        g = (w + 4 - 2 * n) // 4
        for parts in enumeration._partitions(w):
            if any(p % 2 == 0 for p in parts):
                continue
            m = [0] * ((max(parts) + 1) // 2)
            for p in parts:
                m[(p - 1) // 2] += 1
            poly = combclasses.kappa_polynomial(m, g, n)
            lead = TautPoly.constant(1)
            expect = Fraction(1)
            for i, mi in enumerate(m):
                if i == 0 or mi == 0:
                    continue
                lead = lead * kappa(i) ** mi
                base = 2 ** (i + 1) * double_factorial(2 * i + 1)
                expect *= Fraction(base**mi, factorial(mi))
            ((key, _),) = lead.terms().items()
            actual = poly.terms().get(key, Fraction(0))
            if actual != expect:
                return False, (
                    f"profile {tuple(m)}: coefficient of the pure kappa "
                    f"monomial is {actual}, product rule says {expect}"
                )
            checked += 1
    return True, f"{checked} profiles of weight <= 6 obey the coefficient product rule"


# --- 3. relation expansion vs direct solve ----------------------------------------


def _lone_generator(poly):
    ((mono, _),) = poly.terms().items()
    ((gen, _),) = mono
    return gen


def check_relation_vs_solver():
    rho = {"q1": 1, "q2": 1}
    g = combclasses.ambient_genus(rho)
    rel = combclasses.merge_relation(g, ["p"], rho)
    w7 = _lone_generator(combclasses.valency_class([7]))
    rhs = map_generators(rel.rhs, {w7: combclasses.kappa_polynomial([0, 0, 1], g, 1)})
    key = ((_lone_generator(combclasses.valency_class([5, 5])), 1),)
    coeff = rhs.terms().get(key)
    if not coeff:
        return False, "the paired locus dropped out of the relation"
    rest = rhs - TautPoly({key: coeff})
    derived = (rel.lhs - rest) * (Fraction(1) / coeff)
    want = 72 * kappa(1) ** 2 - 348 * kappa(2)
    solved = combclasses.two_vertex_check(1, 1).solved
    ok = derived == want == solved
    return ok, (
        f"pair locus from the relation: {derived.text()}; "
        f"direct solve: {solved.text()}"
    )


# --- 4. admissible-cluster censuses -----------------------------------------------


def check_cluster_census():
    cases = 0
    for h in (1, 2, 3):
        for rho in product(range(4), repeat=h):
            s = sum(rho)
            if s > 3:
                continue
            brute = clusters.count_admissible(rho)
            rec = clusters.count_by_recurrence(rho)
            closed = clusters.closed_count(rho)
            if not brute == rec == closed:
                return False, (
                    f"rho={rho}: search {brute}, recurrence {rec}, closed {closed}"
                )
            printed = {1: 1, 2: 2 * s + 3, 3: (2 * s + 3) * (2 * s + 5)}[h]
            if brute != printed:
                return False, f"rho={rho}: census {brute} != printed value {printed}"
            cases += 1
    return True, f"3-way agreement on {cases} censuses (h <= 3, total excess <= 3)"


# --- 5. fiber integrals -----------------------------------------------------------


def check_fiber_integrals():
    for r in range(4):
        want = Fraction(factorial(r + 1), factorial(2 * r + 2))
        for eps in (Fraction(1, 3), Fraction(1), Fraction(7, 2)):
            got = plforms.fiber_integral_disk(r, eps)
            if got != want:
                return False, f"disk r={r}, eps={eps}: {got} != {want}"
    splits = 0
    for v1 in range(1, 8):
        for v2 in range(1, 8):
            if v1 + v2 > 8 or (v1 + v2) % 2:
                continue
            r = (v1 + v2) // 2
            want = (
                Fraction(v1 * v2 * factorial(r + 1), factorial(2 * r + 2))
                if v1 % 2
                else Fraction(0)
            )
            got = plforms.fiber_integral_cyl(v1, v2)
            if got != want:
                return False, f"cylinder ({v1},{v2}): {got} != {want}"
            splits += 1
    return True, (
        "disk law holds for r <= 3 at three scales; "
        f"cylinder law holds for {splits} splits with v1+v2 <= 8"
    )


# --- 6. Euler characteristics -----------------------------------------------------


def _bernoulli(m: int) -> Fraction:
    row = [Fraction(1)]
    for k in range(1, m + 1):
        acc = sum(comb(k + 1, j) * row[j] for j in range(k))
        row.append(Fraction(-acc, k + 1))
    return row[m]


def _harer_zagier(g: int, n: int) -> Fraction:
    """chi(M_{g,1}) = -B_2g/2g (chi(M_{0,3}) = 1), then chi(M_{g,n+1}) = (2-2g-n) chi(M_{g,n})."""
    if g == 0:
        value, start = Fraction(1), 3
    else:
        value, start = -_bernoulli(2 * g) / (2 * g), 1
    for m in range(start, n):
        value *= 2 - 2 * g - m
    return value


def check_euler_characteristics():
    limit = enumeration.DEFAULT_MAX_SIDES
    got = {
        (g, n): enumeration.orbifold_euler(g, n, max_sides=limit)
        for g in range(limit)
        for n in range(1, limit)
        if 2 * g - 2 + n > 0 and 3 * (4 * g - 4 + 2 * n) <= limit
    }
    for (g, n), value in got.items():
        want = _harer_zagier(g, n)
        if value != want:
            return False, (
                f"orbifold Euler ({g},{n}) = {value}, Bernoulli and Harer-Zagier give {want}"
            )
    return True, (
        f"all {len(got)} (g,n) with at most {limit} sides match -B_2g/2g and the "
        f"Harer-Zagier step; (2,1) = {got[2, 1]}, (3,1) = {got[3, 1]}"
    )


# --- 7. structural sweeps ---------------------------------------------------------


def _random_graph(rng):
    while True:
        n = 2 * rng.randint(1, _SWEEP_MAX_EDGES)
        line = list(range(1, n + 1))
        rng.shuffle(line)
        s0 = {i + 1: line[i] for i in range(n)}
        matched = list(range(1, n + 1))
        rng.shuffle(matched)
        s1 = {}
        for i in range(0, n, 2):
            a, b = matched[i], matched[i + 1]
            s1[a], s1[b] = b, a
        g = validate(s0, s1)
        if g.is_connected():
            return g


def _dual_involution_sweep():
    rng = random.Random(_SEED)
    for _ in range(_SWEEP_ROUNDS):
        g = _random_graph(rng)
        d = dual(g)
        if d.n_vertices() != g.n_holes() or d.n_holes() != g.n_vertices():
            raise _Failed("dual did not swap vertex and hole counts")
        if canonical_form(dual(d)) != canonical_form(g):
            raise _Failed("dual applied twice changed the graph")
    return f"dual involution x{_SWEEP_ROUNDS}"


def _euler_bookkeeping_sweep():
    families = [(0, ["p1", "p2", "p3"]), (1, ["p1"]), (1, ["p1", "p2"])]
    cells = 0
    for g, labels in families:
        for classes in enumeration.enumerate_all_cells(g, labels).values():
            for cell in classes:
                gph = cell.graph
                euler = gph.n_vertices() - gph.n_edges() + gph.n_holes()
                if euler != 2 - 2 * g or gph.n_holes() != len(labels):
                    raise _Failed(f"cell bookkeeping broke at genus {g}")
                cells += 1
    return f"V-E+H bookkeeping on {cells} cells"


def _contraction_closure_sweep():
    families = [(1, ["p1"]), (0, ["p1", "p2", "p3"])]
    contractions = 0
    for g, labels in families:
        cells = enumeration.enumerate_all_cells(g, labels)
        known = set()
        for classes in cells.values():
            for cell in classes:
                known.add(canonical_form(cell.graph, cell.marking)[0])
        for classes in cells.values():
            for cell in classes:
                gph, m = cell.graph, cell.marking
                for e in gph.edges():
                    a, b = e
                    if gph.vertex_of(a) == gph.vertex_of(b):
                        continue
                    smaller = contract_edge(gph, e)
                    targets = {
                        label: (HOLE, frozenset(m.orbit(label)) - {a, b})
                        for label in m.hole_labels()
                    }
                    code = canonical_form(smaller, Marking(smaller, targets))[0]
                    if code not in known:
                        raise _Failed("a contraction left the enumerated complex")
                    contractions += 1
    return f"contraction closure over {contractions} edges"


def _nondegeneracy_sweep(metrics=100):
    rng = random.Random(_SEED)
    families = [
        (0, ["p1", "p2", "p3"]),
        (0, ["p1", "p2", "p3", "p4"]),
        (1, ["p1"]),
        (1, ["p1", "p2"]),
    ]
    cells = 0
    for g, labels in families:
        tops = enumeration.enumerate_all_cells(g, labels, max_excess=0)
        for classes in tops.values():
            for cell in classes:
                cells += 1
                values = set()
                for _ in range(metrics):
                    lengths = {
                        e: Fraction(rng.randint(1, 48), rng.randint(1, 48))
                        for e in cell.graph.edges()
                    }
                    mmg = MarkedMetricGraph(cell.graph, cell.marking, lengths)
                    ok, pf = plforms.nondegeneracy_check(mmg)
                    if not ok or pf == 0:
                        raise _Failed(f"degenerate pairing on a genus-{g} top cell")
                    values.add(pf)
                if len(values) != 1:
                    raise _Failed("a cell's Pfaffian depended on the metric")
                if abs(pf) != Fraction(1, 2**g):
                    raise _Failed(
                        f"|Pfaffian| {abs(pf)} on a genus-{g} top cell, not 2^-{g}"
                    )
    return f"pairing nondegenerate on {cells} top cells x {metrics} metrics"


def _exceptional_bijection_sweep():
    rng = random.Random(_SEED + 1)
    for _ in range(_SWEEP_ROUNDS):
        g = _random_graph(rng)
        edges = g.edges()
        while len(edges) < 2:
            g = _random_graph(rng)
            edges = g.edges()
        z = rng.sample(edges, rng.randint(1, len(edges) - 1))
        sub, quo, pairs = stable.collapse(g, z)
        if len(sub.sides) + len(quo.sides) != len(g.sides):
            raise _Failed("subgraph and quotient sides do not partition the graph")
        exc_holes = sub.hole_orbits() - g.hole_orbits()
        exc_verts = quo.vertex_orbits() - g.vertex_orbits()
        if len(pairs) != len(exc_holes) or len(pairs) != len(exc_verts):
            raise _Failed("correspondence size mismatch")
        if {p[0] for p in pairs} != exc_holes:
            raise _Failed("correspondence misses a scar hole")
        if {p[1] for p in pairs} != exc_verts:
            raise _Failed("correspondence misses a collapsed vertex")
    return f"exceptional bijection x{_SWEEP_ROUNDS}"


def _quotient_contraction_sweep():
    rng = random.Random(_SEED + 2)
    done = 0
    while done < _SWEEP_ROUNDS:
        g = _random_graph(rng)
        non_loops = [
            e for e in g.edges() if g.vertex_of(e[0]) != g.vertex_of(e[1])
        ]
        if not non_loops or g.n_edges() < 2:
            continue
        e = rng.choice(non_loops)
        quo = stable.collapse(g, [e]).quo
        if canonical_form(quo) != canonical_form(contract_edge(g, e)):
            raise _Failed("quotient by one edge differs from its contraction")
        done += 1
    return f"quotient=contraction x{_SWEEP_ROUNDS}"


def _zone_metric(graph, marking, q):
    zone = {graph.edge_of(x) for x in marking.orbit(q)}
    eps = Fraction(1, 64 * graph.n_edges())
    lengths = {e: eps if e in zone else Fraction(1) for e in graph.edges()}
    return MarkedMetricGraph(graph, marking, lengths)


def _cone_reachable(graph, marking, q):
    zone = {graph.edge_of(x) for x in marking.orbit(q)}
    return not any(
        all(graph.edge_of(x) in zone for x in marking.orbit(p))
        for p in marking.hole_labels()
        if p != q
    )


def _shrink_trichotomy_sweep():
    families = [(1, ["p1"]), (0, ["p1", "p2", "p3", "p4"])]
    census = {DISK: 0, CYLINDER: 0, SURFACE: 0}
    for g, labels in families:
        for classes in enumeration.enumerate_all_cells(g, labels).values():
            for cell in classes:
                for q in labels:
                    topo = hole_topology((cell.graph, cell.marking), q)
                    if topo.kind not in census:
                        raise _Failed(f"unclassified zone kind {topo.kind!r}")
                    census[topo.kind] += 1
                    if not _cone_reachable(cell.graph, cell.marking, q):
                        continue
                    res = shrink(_zone_metric(cell.graph, cell.marking, q), q)
                    if res.topology != topo:
                        raise _Failed("shrink disagrees with the zone census")
    if min(census.values()) == 0:
        raise _Failed(f"a zone kind never showed up: {census}")
    body = ", ".join(f"{k} {v}" for k, v in sorted(census.items()))
    return f"shrink trichotomy census ({body})"


def check_structure_sweeps():
    try:
        parts = [
            _dual_involution_sweep(),
            _euler_bookkeeping_sweep(),
            _contraction_closure_sweep(),
            _nondegeneracy_sweep(),
            _exceptional_bijection_sweep(),
            _quotient_contraction_sweep(),
            _shrink_trichotomy_sweep(),
        ]
    except _Failed as err:
        return False, str(err)
    return True, "; ".join(parts)


# --- registry ---------------------------------------------------------------------

CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("polynomial-goldens", check_polynomial_goldens),
    ("leading-coefficients", check_leading_coefficients),
    ("relation-vs-solver", check_relation_vs_solver),
    ("cluster-census", check_cluster_census),
    ("fiber-integrals", check_fiber_integrals),
    ("euler-characteristics", check_euler_characteristics),
    ("structure-sweeps", check_structure_sweeps),
]


def run_all() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not a crash of the runner
            ok, detail = False, f"{type(err).__name__}: {err}"
        results.append(CheckResult(name, ok, detail))
    return results
