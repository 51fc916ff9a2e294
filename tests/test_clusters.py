import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribboncalc import enumeration
from ribboncalc.clusters import (
    ANCHOR_LABEL,
    ROOT_LABEL,
    _admissible_core,
    _case_counts,
    _compositions,
    _fresh_side_counts,
    _subdivide,
    closed_count,
    count_admissible,
    count_by_recurrence,
)
from ribboncalc.combclasses import merge_coefficient
from ribboncalc.errors import DomainMismatch, TooLarge
from ribboncalc.ribbon import HOLE, VERTEX, Marking, MarkedMetricGraph, canonical_form


class TestSpec:
    """A cluster is specified by its excess values rho; every census checks them."""

    CENSUSES = [count_admissible, count_by_recurrence, closed_count]

    def test_accepts_plain_values(self):
        assert [census([0, 2, 1]) for census in self.CENSUSES] == [99, 99, 99]

    def test_leading_loop_value_allowed(self):
        assert count_admissible([-1, 2]) == count_by_recurrence((-1, 2)) == 5

    def test_rejects_empty(self):
        for census in self.CENSUSES:
            with pytest.raises(DomainMismatch, match="^a cluster holds at least one hole$"):
                census([])

    @pytest.mark.parametrize("rho", [[-2, 1], [0, -1], [1, 0, -1]])
    def test_rejects_bad_excess(self, rho):
        for census in self.CENSUSES:
            with pytest.raises(DomainMismatch, match=r"^bad excess values \("):
                census(rho)

    def test_equality(self):
        # lists, tuples and integer strings name the same cluster
        for census in self.CENSUSES:
            assert census([1, 1]) == census((1, 1)) == census(["1", "1"])
            assert census([1, 1]) != census([1, 2])


class TestBruteForce:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_single_hole_is_unique(self, r):
        assert count_admissible([r]) == 1

    def test_two_holes_smallest(self):
        assert count_admissible([0, 0]) == 3

    @pytest.mark.parametrize("rho", [(0, 1), (1, 0), (1, 1), (0, 2)])
    def test_two_holes_formula(self, rho):
        assert count_admissible(rho) == 2 * sum(rho) + 3

    def test_three_holes_smallest(self):
        assert count_admissible([0, 0, 0]) == 15

    def test_loop_step_counts_too(self):
        # the definition keeps making sense with a -1 up front; these are
        # the recursion's intermediate configurations
        assert count_admissible([-1, 1]) == 3
        assert count_admissible([-1, 2, 1]) == 63

    @pytest.mark.parametrize(
        "rho, want", [((0,), 1), ((0, 0), 3), ((2, 1), 9), ((1, 1, 1), 99)]
    )
    def test_the_chain_collapses_zones_without_metrics(self, monkeypatch, rho, want):
        def refuse(*args, **kwargs):
            raise AssertionError("the shrink chain built a metric graph")

        monkeypatch.setattr(MarkedMetricGraph, "__init__", refuse)
        assert count_admissible(rho) == want

    def test_side_budget_enforced(self):
        with pytest.raises(TooLarge):
            count_admissible([3, 3], max_sides=20)
        with pytest.raises(TooLarge):
            count_admissible([2, 1, 1])  # 34 sides against the default 30


class TestRecurrence:
    @pytest.mark.parametrize("rho", [(0, 0), (3, 2), (0, 7), (4, 4)])
    def test_pair_formula(self, rho):
        assert count_by_recurrence(rho) == 2 * sum(rho) + 3

    @pytest.mark.parametrize("rho", [(0, 0, 0), (-1, 2, 1), (1, 0, 2), (0, 3, 0)])
    def test_triple_formula(self, rho):
        s = sum(rho)
        assert count_by_recurrence(rho) == (2 * s + 3) * (2 * s + 5)

    def test_single_hole(self):
        assert count_by_recurrence([0]) == 1
        assert count_by_recurrence([-1]) == 1

    def test_depends_only_on_first_pair_sum(self):
        for rest in [(), (0,), (1,), (0, 2)]:
            reference = count_by_recurrence((0, 2) + rest)
            assert count_by_recurrence((1, 1) + rest) == reference
            assert count_by_recurrence((2, 0) + rest) == reference

    def test_vertex_case_needs_excess_at_the_shared_slot(self):
        # a shared vertex must absorb excess, so a lone excess-0 third
        # hole kills the case
        for r1, r2 in [(0, 0), (1, 0), (1, 1), (0, 2)]:
            assert _case_counts((r1, r2, 0))[1] == 0
        assert _case_counts((0, 0, 1))[1] > 0

    def test_a_walk_past_the_bound_is_refused(self):
        # t = 9 slots for a first pair (1, 1): 9^5 = 59,049 assignments
        # for seven holes, 9^6 = 531,441 for eight
        assert count_by_recurrence((1,) * 7) == 105306075
        assert count_by_recurrence((-1,) + (1,) * 7) == 15 * 105306075
        for rho in [(1,) * 8, (-1,) + (1,) * 8]:
            with pytest.raises(TooLarge, match="531441 slot assignments"):
                count_by_recurrence(rho)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    def test_matches_closed_form(self, rho):
        expected = merge_coefficient(sum(rho), len(rho))
        assert count_by_recurrence(rho) == expected


class TestThreeWayAgreement:
    @pytest.mark.parametrize(
        "rho",
        [
            rho
            for h in (1, 2, 3)
            for rho in itertools.product(range(3), repeat=h)
            if sum(rho) <= 2
        ],
    )
    def test_small_grid(self, rho):
        brute = count_admissible(rho)
        assert brute == count_by_recurrence(rho)
        assert brute == merge_coefficient(sum(rho), len(rho))

    def test_brute_force_sum_dependence(self):
        # the proof's key symmetry, at the smallest sizes the search can
        # reach: only the sum of the first two excesses matters
        assert count_admissible((0, 2)) == count_admissible((1, 1))
        values = {
            count_admissible((0, 2, 0)),
            count_admissible((1, 1, 0)),
            count_admissible((2, 0, 0)),
        }
        assert len(values) == 1


class TestClosedForm:
    def test_matches_recurrence_on_a_grid(self):
        for h in (1, 2, 3):
            for rho in itertools.product(range(3), repeat=h):
                assert closed_count(rho) == count_by_recurrence(rho)

    def test_negative_total_is_out_of_range(self):
        with pytest.raises(DomainMismatch):
            closed_count([-1])


# --- the census one rho at a time, kept as an oracle for the cached cores ---------


def per_rho_subdivisions(core, orbits, q_labels, deficits, n_points, aut):
    """Subdivisions of one admissible core, its root-bordering slots rebuilt."""
    hole_of = {x: l for l, orbit in orbits.items() for x in orbit}
    slots = {l: [] for l in orbits}
    for e in sorted(core.edges()):
        lx, ly = hole_of[e[0]], hole_of[e[1]]
        if lx == ROOT_LABEL:
            slots[ly].append(e)
        elif ly == ROOT_LABEL:
            slots[lx].append(e)
    demand = dict(deficits)
    demand[ROOT_LABEL] = n_points - sum(deficits.values())
    per_label = [
        (slots[l], list(_compositions(demand[l], len(slots[l]))))
        for l in [ROOT_LABEL, *q_labels]
    ]
    if aut == 1 and all(len(v) > 2 for v in core.vertices()):
        count = 1
        for _, combos in per_label:
            count *= len(combos)
        return count * n_points
    codes = set()
    for picks in itertools.product(*(combos for _, combos in per_label)):
        points = {}
        for (edges, _), filling in zip(per_label, picks):
            for e, k in zip(edges, filling):
                if k:
                    points[e] = k
        g = _subdivide(core, points)
        marks = {
            l: (HOLE, next(frozenset(h) for h in g.holes() if min(orbit) in h))
            for l, orbit in orbits.items()
        }
        for vertex in g.vertices():
            if len(vertex) == 2:
                marking = Marking(g, {**marks, ANCHOR_LABEL: (VERTEX, frozenset(vertex))})
                codes.add(canonical_form(g, marking)[0])
    return len(codes)


def per_rho_count(rho):
    """The census with every core enumerated and filtered again for this rho.

    The side deficits are tested before the admissibility filters, as the
    census did before its cores were built once per cluster size.
    """
    h = len(rho)
    q_labels = [f"q{j}" for j in range(1, h + 1)]
    valencies = [2] if h == 1 else [3] * (2 * h - 2)
    n_points = 2 * sum(rho) + (2 if h == 1 else 3)
    total = 0
    for rep, marking, aut in enumeration._marked_classes(valencies, [ROOT_LABEL, *q_labels], {}):
        orbits = {l: orbit for l, (_, orbit) in marking.targets.items()}
        fresh = _fresh_side_counts(rep, orbits, q_labels)
        deficits = {q: 2 * r + 3 - fresh[q] for q, r in zip(q_labels, rho)}
        if any(d < 0 for d in deficits.values()):
            continue
        if not _admissible_core(rep, orbits, q_labels):
            continue
        total += per_rho_subdivisions(rep, orbits, q_labels, deficits, n_points, aut)
    return total


# every rho of checks.check_cluster_census, and four holes of total excess <= 1
CENSUS_RHOS = [
    rho
    for h in (1, 2, 3)
    for rho in itertools.product(range(4), repeat=h)
    if sum(rho) <= 3
] + [rho for rho in itertools.product(range(2), repeat=4) if sum(rho) <= 1]


class TestCachedCores:
    """The cores of a cluster size are built once; every count matches the oracle."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return {rho: per_rho_count(rho) for rho in CENSUS_RHOS}

    @pytest.mark.parametrize("cells_first", [False, True])
    def test_every_census_matches_the_per_rho_search(self, oracle, cells_first):
        rng = random.Random(23 + cells_first)
        labels = ["p1", "p2", "p3", "p4"]
        if cells_first:
            # the h = 3 cores then start from the classes this complex built
            enumeration.enumerate_all_cells(0, labels)
        for _ in range(2):
            order = list(CENSUS_RHOS)
            rng.shuffle(order)
            assert {rho: count_admissible(rho) for rho in order} == oracle
            enumeration.enumerate_all_cells(0, labels)

    def test_the_oracle_is_the_closed_form(self, oracle):
        assert all(count == closed_count(rho) for rho, count in oracle.items())
