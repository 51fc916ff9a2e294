import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from conftest import fresh_copy

from ribboncalc import enumeration as en
from ribboncalc import ribbon
from ribboncalc.clusters import count_admissible
from ribboncalc.errors import DomainMismatch, InconsistentProfile, TooLarge
from ribboncalc.ribbon import (
    HOLE,
    VERTEX,
    Marking,
    RibbonGraph,
    _bfs_code,
    canonical_form,
    contract_edge,
    from_code,
    genus,
    graph_to_json,
)


def bernoulli(m):
    """B_m by the Akiyama-Tanigawa scheme (independent arithmetic oracle)."""
    row = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        row[j] = Fraction(1, j + 1)
        for i in range(j, 0, -1):
            row[i - 1] = i * (row[i - 1] - row[i])
    return row[0]


def harer_zagier(g, n):
    """chi(M_{g,1}) = -B_2g/2g (chi(M_{0,3}) = 1), then the step to n+1 holes."""
    value, start = (Fraction(1), 3) if g == 0 else (-bernoulli(2 * g) / (2 * g), 1)
    for m in range(start, n):
        value *= 2 - 2 * g - m
    return value


def valency_lists_by_sides(sides, smallest):
    """Descending multisets of valencies >= smallest that sum to ``sides``."""
    return [p for p in en._partitions(sides) if p[-1] >= smallest]


def classes_per_dimension(cells):
    """Number of classes per cell dimension, the edge count."""
    out = Counter()
    for vals, classes in cells.items():
        out[sum(vals) // 2] += len(classes)
    return dict(sorted(out.items()))


def face_counts(valencies):
    """Face counts F >= 1 with 2 - V + E - F even and nonnegative."""
    v, e = len(valencies), sum(valencies) // 2
    return range(2 - v + e, 0, -2)


def rooted_map_count(valencies, faces):
    """C_g(mu) v c_v / |Z(sigma0)|: maps rooted on a vertex of valency v = mu[0]."""
    v = valencies[0]
    labelled = en._connected_pairings(valencies, faces) * v * Counter(valencies)[v]
    return Fraction(labelled, en._centralizer_size(valencies))


def pairings(n):
    """Every fixed-point-free involution of 1..n, as a partner list (slot 0 unused)."""
    partner = [0] * (n + 1)

    def go(x):
        while x <= n and partner[x]:
            x += 1
        if x > n:
            yield partner
            return
        for y in range(x + 1, n + 1):
            if not partner[y]:
                partner[x], partner[y] = y, x
                yield from go(x + 1)
                partner[x] = partner[y] = 0

    yield from go(1)


def classes_by_pairing_search(valencies, wanted):
    """{faces: [(code, aut), ...] sorted} for each face count in ``wanted``.

    The pipeline the rooted-map generator replaced, without its pruning:
    sigma0 is fixed as consecutive blocks, and every labelled pairing that
    gives a connected graph is canonicalized.  Pairings with the same
    traversal code from side 1 are isomorphic, so only the first of each
    goes to ``canonical_form``.
    """
    n = sum(valencies)
    sides = range(1, n + 1)
    sigma0, base = {}, 1
    for v in valencies:
        sigma0 |= {base + j: base + (j + 1) % v for j in range(v)}
        base += v
    rooted = {f: {} for f in wanted}
    for partner in pairings(n):
        graph = RibbonGraph(sigma0, {x: partner[x] for x in sides}, sides)
        faces = graph.n_holes()
        if faces in rooted and graph.is_connected():
            rooted[faces].setdefault(_bfs_code(graph, 1)[0], graph)
    return {
        f: sorted({canonical_form(g) for g in reps.values()}) for f, reps in rooted.items()
    }


def rooted_map_graphs(valencies, n_holes):
    """The generator's rooted maps, each built as a graph on sides 0 .. n-1.

    The generator yields its own lists; the rival roots it names must be
    the sides other than the root on vertices of valency ``valencies[0]``.
    """
    for sigma0, sigma1, rivals in en._rooted_map_graphs(valencies, n_holes):
        sides = range(len(sigma0))
        graph = RibbonGraph(dict(zip(sides, sigma0)), dict(zip(sides, sigma1)), sides)
        on_first = [x for v in graph.vertices() if len(v) == valencies[0] for x in v]
        assert rivals == [x for x in on_first if x != 0]
        yield graph


def unlabeled_classes_by_canonical_form(valencies, n_holes):
    """The dedupe canonical augmentation replaced, as sorted (code, |Aut|).

    Every rooted map is traversed from every root; its least code names
    its class, and the number of roots attaining it is |Aut|.
    """
    reps = {}
    for graph in rooted_map_graphs(valencies, n_holes):
        codes = [_bfs_code(graph, root)[0] for root in graph.sides]
        best = min(codes)
        reps.setdefault(best, codes.count(best))
    return sorted(reps.items())


def canonical_form_root_by_root(g, marking):
    """The marked canonical form without the least-roots step.

    Each root's full code (code0, code1, mark code) is compared, and the
    least one is returned with the number of roots attaining it.
    """
    best, count = None, 0
    for root in g.sides:
        (code0, code1), relabel = _bfs_code(g, root)
        code = (
            code0,
            code1,
            tuple(
                (label, kind, min(relabel[x] for x in orb))
                for label, (kind, orb) in sorted(marking.targets.items())
            ),
        )
        if best is None or code < best:
            best, count = code, 1
        elif code == best:
            count += 1
    return best, count


def marked_classes_by_labelling(valencies, hole_labels, vertex_marks):
    """The labelling loop ``_marked_classes`` replaced.

    Every labelling of every unlabelled class builds its ``Marking`` and
    runs a full marked canonical form, a traversal from every side.
    """
    out = {}
    for g in en._unlabeled_classes(valencies, len(hole_labels)):
        for assigned in permutations(g.holes()):
            base = {l: (HOLE, frozenset(h)) for l, h in zip(hole_labels, assigned)}
            for extra in en._vertex_assignments(vertex_marks, g.vertices()):
                code, aut = canonical_form_root_by_root(g, Marking(g, base | extra))
                if code not in out:
                    out[code] = en.CellClass(*from_code(code), aut)
    return [out[c] for c in sorted(out)]


def as_json(classes):
    return [(graph_to_json(c.graph, c.marking), c.aut) for c in classes]


class TestProfile:
    def test_basic(self):
        p = en.Profile([2, 0, 1])
        assert p.valencies() == [7, 3, 3]
        assert p.n_vertices() == 3
        assert p.n_sides() == 13
        assert p.weight() == 2 * 1 + 1 * 5

    def test_trailing_zeros_stripped(self):
        assert en.Profile([2, 0, 0]) == en.Profile([2])

    def test_negative_rejected(self):
        with pytest.raises(InconsistentProfile):
            en.Profile([1, -1])

    def test_from_valencies(self):
        assert en.Profile.from_valencies([3, 3, 5]) == en.Profile([2, 1])
        with pytest.raises(InconsistentProfile):
            en.Profile.from_valencies([4])
        with pytest.raises(InconsistentProfile):
            en.Profile.from_valencies([1])

    def test_consistency(self):
        assert en.Profile([2]).consistent_with(1, 1)
        assert en.Profile([2]).consistent_with(0, 3)
        assert not en.Profile([2]).consistent_with(0, 1)


class TestEnumerate:
    def test_torus_one_hole(self):
        classes = en.enumerate(1, ["p1"], en.Profile([2]))
        assert len(classes) == 1
        (cls,) = classes
        assert cls.aut == 6
        assert genus(cls.graph) == 1
        assert cls.graph.valencies() == [3, 3]
        assert cls.marking.hole_labels() == ["p1"]

    def test_inconsistent_profile_is_empty(self):
        assert en.enumerate(0, ["p1"], en.Profile([2])) == []

    def test_three_holes(self):
        # frozen by the standalone brute-force oracle: 4 labeled classes,
        # each rigid, coming from 2 unlabeled graphs with |Aut| 2 and 6
        classes = en.enumerate(0, ["p1", "p2", "p3"], en.Profile([2]))
        assert [c.aut for c in classes] == [1, 1, 1, 1]
        unlabeled = sorted(canonical_form(c.graph)[1] for c in classes)
        assert set(unlabeled) == {2, 6}

    def test_vertex_mark(self):
        classes = en.enumerate(1, ["p", "q"], en.Profile([2]), vertex_marks={"q": 3})
        assert len(classes) == 1
        (cls,) = classes
        assert cls.aut == 3
        assert cls.marking.kind("q") == VERTEX
        assert cls.marking.kind("p") == HOLE

    def test_vertex_mark_with_absent_valency(self):
        classes = en.enumerate(1, ["p", "q"], en.Profile([2]), vertex_marks={"q": 5})
        assert classes == []

    def test_vertex_mark_must_be_odd(self):
        with pytest.raises(InconsistentProfile):
            en.enumerate(1, ["p", "q"], en.Profile([2]), vertex_marks={"q": 4})

    def test_vertex_mark_label_must_exist(self):
        with pytest.raises(DomainMismatch):
            en.enumerate(1, ["p"], en.Profile([2]), vertex_marks={"q": 3})

    def test_duplicate_labels(self):
        with pytest.raises(DomainMismatch):
            en.enumerate(0, ["p", "p", "r"], en.Profile([2]))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            en.enumerate(8, ["p1"], en.Profile([30]))

    def test_max_sides_env(self):
        with pytest.raises(TooLarge):
            en.enumerate(1, ["p1"], en.Profile([2]), max_sides=4)
        assert len(en.enumerate(1, ["p1"], en.Profile([2]), max_sides=30)) == 1

    def test_classes_are_valid(self):
        # frozen aut multiset for the (1,2) trivalent cells
        classes = en.enumerate(1, ["p1", "p2"], en.Profile([4]))
        assert sorted(c.aut for c in classes) == [1, 1, 2, 2, 2, 3, 3, 4, 4]
        for cls in classes:
            assert cls.graph.is_connected()
            assert genus(cls.graph) == 1
            assert cls.graph.valencies() == [3, 3, 3, 3]
            assert set(cls.marking.hole_labels()) == {"p1", "p2"}


class TestLabellingsFromTheLeastRoots:
    """``_marked_classes`` against a full canonical form per labelling."""

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)])
    def test_every_cell(self, g, n):
        labels = [f"p{i}" for i in range(1, n + 1)]
        for vals in en.valency_lists(g, n):
            got = en._marked_classes(list(vals), labels, {})
            assert as_json(got) == as_json(marked_classes_by_labelling(list(vals), labels, {}))

    @pytest.mark.parametrize(
        "g,labels,profile,marks",
        [
            (2, ["p", "q"], [3, 1], {"q": 5}),
            (2, ["p", "q", "r"], [0, 2], {"q": 5, "r": 5}),
            (1, ["p", "q", "r"], [1, 1], {"r": 5}),
            (1, ["p", "q", "s"], [4], {"s": 3}),
            (0, ["p", "q", "r", "s", "t"], [2], {"s": 3, "t": 3}),
        ],
    )
    def test_vertex_marks(self, g, labels, profile, marks):
        got = en.enumerate(g, labels, profile, vertex_marks=marks)
        assert got
        holes = [l for l in labels if l not in marks]
        valencies = en.Profile(profile).valencies()
        assert as_json(got) == as_json(marked_classes_by_labelling(valencies, holes, marks))


class TestSharedClassGraph:
    """Every labelled class of one unlabelled class sits on its canonical graph."""

    @staticmethod
    def check(classes):
        shared = {}
        for cell in classes:
            code, aut = canonical_form(cell.graph, cell.marking)
            graph, marking = from_code(code)
            assert (cell.graph.sides, cell.graph.sigma0, cell.graph.sigma1) == (
                graph.sides,
                graph.sigma0,
                graph.sigma1,
            )
            assert (cell.marking, cell.aut) == (marking, aut)
            assert shared.setdefault(canonical_form(cell.graph)[0], cell.graph) is cell.graph
        return shared

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)])
    def test_every_cell(self, g, n):
        labels = [f"p{i}" for i in range(1, n + 1)]
        for vals in en.valency_lists(g, n):
            shared = self.check(en._marked_classes(list(vals), labels, {}))
            assert len(shared) == len(en._unlabeled_classes(list(vals), n))

    def test_vertex_marks(self):
        classes = en.enumerate(1, ["p", "q", "r"], [1, 1], vertex_marks={"r": 5})
        assert len(classes) > len(self.check(classes))


def digest_classes():
    """Every cell of six (g, n), then one marked profile, in output order."""
    for g, n in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (1, 3)]:
        for classes in en.enumerate_all_cells(g, [f"p{i}" for i in range(1, n + 1)]).values():
            yield from classes
    yield from en.enumerate(2, ["p", "q"], [3, 1], vertex_marks={"q": 5})


class TestEnumerationDigest:
    """The ``enumerate`` line form of every class, pinned byte for byte."""

    # captured before class generation compared rival roots on the
    # generator's own arrays; that change must not move a byte
    LINES = 4776
    DIGEST = "0f17f13a27c4ba6fa3ba295df6289ed4bc2e021e63a987f554aaeeb1afea3f53"

    def test_digest(self):
        lines = [
            json.dumps(graph_to_json(c.graph, c.marking) | {"aut": c.aut}, sort_keys=True)
            for c in digest_classes()
        ]
        assert len(lines) == self.LINES
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST

    def test_each_class_graph_holds_its_own_least_roots(self):
        # a class graph is handed the least roots of the rooted map it came
        # from; a sweep of a fresh copy must find the same code and roots
        graphs = {id(c.graph): c.graph for c in digest_classes()}
        assert len(graphs) == 955  # the marked profile reuses (2, 1)'s graphs
        for g in graphs.values():
            assert g._least is not None
            best, relabels = ribbon._least_roots(g)
            fresh_best, fresh_relabels = ribbon._least_roots(fresh_copy(g))
            assert best == fresh_best
            assert len(relabels) == len(fresh_relabels)
            assert {tuple(sorted(r.items())) for r in relabels} == {
                tuple(sorted(r.items())) for r in fresh_relabels
            }


class TestAllCells:
    def test_torus_one_hole_cells(self):
        cells = en.enumerate_all_cells(1, ["p1"])
        assert set(cells) == {(3, 3), (4,)}
        assert [c.aut for c in cells[(3, 3)]] == [6]
        assert [c.aut for c in cells[(4,)]] == [4]
        assert classes_per_dimension(cells) == {2: 1, 3: 1}

    def test_max_excess_zero_is_trivalent_only(self):
        cells = en.enumerate_all_cells(1, ["p1"], max_excess=0)
        assert set(cells) == {(3, 3)}

    def test_three_hole_sphere_cells(self):
        cells = en.enumerate_all_cells(0, ["p1", "p2", "p3"])
        assert classes_per_dimension(cells) == {2: 3, 3: 4}
        assert [c.aut for c in cells[(4,)]] == [1, 1, 1]

    def test_torus_two_hole_dimension_counts(self):
        cells = en.enumerate_all_cells(1, ["p1", "p2"])
        assert classes_per_dimension(cells) == {3: 5, 4: 14, 5: 15, 6: 9}

    def test_too_large(self):
        with pytest.raises(TooLarge):
            en.enumerate_all_cells(3, ["p1", "p2"])

    def test_warm_classes_are_the_cold_ones(self):
        def cells(g, n):
            return en.enumerate_all_cells(g, [f"p{i}" for i in range(1, n + 1)])

        def written(cells):
            return {
                vals: [(graph_to_json(c.graph, c.marking), c.aut) for c in classes]
                for vals, classes in cells.items()
            }

        # (3, 3) with one hole and with three: the cache tells them apart
        cases = [(1, 1), (0, 3), (1, 3)]
        cold = {}
        for case in cases:
            en._unlabeled_sorted.cache_clear()
            cold[case] = written(cells(*case))
        first = cells(1, 3)
        for case in cases * 2:
            assert written(cells(*case)) == cold[case]
        # a warm call labels the very graphs the first one built
        again = cells(1, 3)
        assert all(
            a.graph is b.graph for vals in first for a, b in zip(again[vals], first[vals])
        )

    def test_negative_genus_has_no_cells(self):
        with pytest.raises(InconsistentProfile, match="^no cells for negative genus -1$"):
            en.valency_lists(-1, 5)
        with pytest.raises(InconsistentProfile, match="negative genus"):
            en.enumerate(-1, ["a", "b", "c", "d", "e"], [2])
        with pytest.raises(InconsistentProfile, match="negative genus"):
            en.orbifold_euler(-1, 5)

    @pytest.mark.parametrize("g,labels", [(1, ["p1"]), (0, ["p1", "p2", "p3"])])
    def test_contraction_closure(self, g, labels):
        cells = en.enumerate_all_cells(g, labels)
        known = set()
        for classes in cells.values():
            for cls in classes:
                known.add(canonical_form(cls.graph, cls.marking)[0])
        for classes in cells.values():
            for cls in classes:
                gph, m = cls.graph, cls.marking
                for e in gph.edges():
                    a, b = e
                    if gph.vertex_of(a) == gph.vertex_of(b):
                        continue  # loops stay
                    smaller = contract_edge(gph, e)
                    targets = {
                        label: (HOLE, frozenset(m.orbit(label)) - {a, b})
                        for label in m.hole_labels()
                    }
                    from ribboncalc.ribbon import Marking

                    code = canonical_form(smaller, Marking(smaller, targets))[0]
                    assert code in known


class TestEuler:
    def test_golden_values(self):
        assert en.orbifold_euler(1, 1) == Fraction(-1, 12)
        assert en.orbifold_euler(0, 3) == 1
        assert en.orbifold_euler(0, 4) == -1
        assert en.orbifold_euler(1, 2) == Fraction(1, 12)

    def test_bernoulli_oracle_genus_one(self):
        g = 1
        assert en.orbifold_euler(g, 1) == -bernoulli(2 * g) / (2 * g)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)

    def test_agrees_with_class_enumeration(self):
        # recompute (1,2) from the actual classes, all valency lists
        total = Fraction(0)
        cells = en.enumerate_all_cells(1, ["p1", "p2"])
        for vals, classes in cells.items():
            edges = sum(vals) // 2
            sign = -1 if (edges - 2) % 2 else 1
            total += sum(Fraction(sign, c.aut) for c in classes)
        assert total == en.orbifold_euler(1, 2)

    # beyond the range the pairing search finished in: 18-side top cells
    @pytest.mark.parametrize(
        "g,labels,chi",
        [
            (2, ["p"], Fraction(1, 120)),
            (1, ["p", "q", "r"], Fraction(-1, 6)),
            (0, ["p1", "p2", "p3", "p4", "p5"], 2),
        ],
    )
    def test_cell_sum_is_the_harer_zagier_number(self, g, labels, chi):
        total = Fraction(0)
        for vals, classes in en.enumerate_all_cells(g, labels).items():
            sign = -1 if (sum(vals) // 2 - len(labels)) % 2 else 1
            total += sum(Fraction(sign, c.aut) for c in classes)
        assert total == chi == harer_zagier(g, len(labels))

    def test_labeled_unlabeled_identity(self):
        # sum of 1/|Aut| over labeled classes = n!/|Aut| summed unlabeled
        classes = en.enumerate(1, ["p1", "p2"], en.Profile([4]))
        labeled = sum(Fraction(1, c.aut) for c in classes)
        unlabeled = {}
        for c in classes:
            code, aut = canonical_form(c.graph)
            unlabeled[code] = aut
        assert labeled == 2 * sum(Fraction(1, a) for a in unlabeled.values())

    def test_infeasible_pairs(self):
        with pytest.raises(InconsistentProfile):
            en.orbifold_euler(0, 2)
        with pytest.raises(InconsistentProfile):
            en.orbifold_euler(1, 0)

    def test_too_large(self):
        with pytest.raises(TooLarge):
            en.orbifold_euler(3, 2)

    def test_parallel_matches_serial(self):
        assert en.orbifold_euler(1, 2, jobs=2) == Fraction(1, 12)

    # every (g, n) whose trivalent cells fit in the default 30 sides
    @pytest.mark.parametrize(
        "g,n",
        [(0, n) for n in range(3, 8)] + [(1, n) for n in range(1, 6)]
        + [(2, 1), (2, 2), (2, 3), (3, 1)],
    )
    def test_harer_zagier(self, g, n):
        assert 3 * (4 * g - 4 + 2 * n) <= en.DEFAULT_MAX_SIDES
        assert en.orbifold_euler(g, n) == harer_zagier(g, n)

    def test_harer_zagier_oracle(self):
        assert harer_zagier(3, 1) == Fraction(-1, 252)
        assert harer_zagier(0, 5) == 2
        assert harer_zagier(2, 2) == Fraction(-1, 40)


class TestRootedMapGenerator:
    @pytest.mark.parametrize("sides", [4, 6, 8, 10, 12, 14, 16, 18])
    def test_count_is_the_rooted_map_number(self, sides):
        # 18 sides hold 34,459,425 one-vertex rooted maps, so above 12 sides
        # only the shapes with at most 10,000 rooted maps are generated
        checked = 0
        for vals in valency_lists_by_sides(sides, 3):
            totals = {f: rooted_map_count(vals, f) for f in face_counts(vals)}
            if sides > 12 and sum(totals.values()) > 10_000:
                continue
            for faces, want in totals.items():
                got = 0
                for graph in rooted_map_graphs(list(vals), faces):
                    assert graph.is_connected() and graph.n_holes() == faces
                    assert sorted(graph.valencies()) == sorted(vals)
                    got += 1
                assert got == want, (vals, faces)
            checked += 1
        assert checked

    @pytest.mark.parametrize(
        "vals",
        [v for s in range(4, 13, 2) for v in valency_lists_by_sides(s, 3)] + [(5, 3, 3, 3)],
        ids=lambda vals: "-".join(map(str, vals)),
    )
    def test_classes_match_the_pairing_search(self, vals):
        wanted = [1] if vals == (5, 3, 3, 3) else face_counts(vals)
        for faces, expected in classes_by_pairing_search(vals, wanted).items():
            got = [canonical_form(g) for g in en._unlabeled_classes(list(vals), faces)]
            assert got == expected, (vals, faces)

    def test_trivalent_genus_two_one_face(self):
        # sum over unlabelled classes of 2E/|Aut| counts the rooted maps
        classes = en._unlabeled_classes([3] * 6, 1)
        assert sum(Fraction(18, canonical_form(g)[1]) for g in classes) == 105


class TestCanonicalAugmentation:
    """One rooted map per class survives: its root has the least code among
    the roots on vertices of valency ``valencies[0]``."""

    @pytest.mark.parametrize("g,n", [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (0, 5), (1, 3)])
    def test_matches_a_canonical_form_per_rooted_map(self, g, n):
        for vals in en.valency_lists(g, n):
            got = []
            for rep in en._unlabeled_classes(list(vals), n):
                (code0, code1, _), aut = canonical_form(rep)
                assert _bfs_code(rep, 1)[0] == (code0, code1)  # canonical sides
                got.append(((code0, code1), aut))
            assert got == unlabeled_classes_by_canonical_form(list(vals), n), vals

    @pytest.mark.parametrize(
        "rho,count",
        [((0, 0, 0), 15), ((1, 0, 0), 35), ((1, 1, 1), 99), ((2, 1, 0), 99), ((0, 0, 0, 0), 105)],
    )
    def test_cluster_census(self, rho, count):
        assert count_admissible(list(rho)) == count

    # eight trivalent vertices, the 1,726 one-face classes of (3, 1) on ten,
    # and every valency list of (1, 3): 745 classes with mixed valencies
    @pytest.mark.parametrize(
        "vals,faces,classes",
        [([3] * 8, 2, 368), ([3] * 8, 4, 669), ([3] * 8, 6, 191), ([3] * 10, 1, 1726)]
        + [
            (list(vals), 3, classes)
            for vals, classes in zip(
                en.valency_lists(1, 3), [11, 30, 27, 67, 15, 108, 102, 23, 154, 162, 46]
            )
        ],
        ids=lambda x: "-".join(map(str, x)) if isinstance(x, list) else str(x),
    )
    def test_orbit_stabilizer_sums_one_over_aut_per_class(self, vals, faces, classes):
        # sum over classes of 1/|Aut| = (#valid pairings) / |Z(sigma0)|
        reps = en._unlabeled_classes(vals, faces)
        assert len(reps) == classes
        assert sum(Fraction(1, canonical_form(g)[1]) for g in reps) == Fraction(
            en._connected_pairings(vals, faces), en._centralizer_size(vals)
        )

    @pytest.mark.parametrize(
        "vals,labels,marks",
        [([3, 3, 3, 3], ["p", "q", "r", "s"], {}), ([5, 3], ["p", "q", "r"], {"r": 5})],
    )
    def test_one_canonical_form_per_class(self, monkeypatch, vals, labels, marks):
        holes = [l for l in labels if l not in marks]
        built, canonical, full, swept = [], [], [], []

        def recording(calls, original, result=False):
            def recorded(*args):
                out = original(*args)
                calls.append(out if result else args[0])
                return out

            return recorded

        monkeypatch.setattr(en, "RibbonGraph", recording(built, en.RibbonGraph, result=True))
        monkeypatch.setattr(en, "canonical_form", recording(canonical, en.canonical_form))
        monkeypatch.setattr(ribbon, "_bfs_code", recording(full, ribbon._bfs_code))
        monkeypatch.setattr(ribbon, "_code_against", recording(swept, ribbon._code_against))
        classes = en._marked_classes(vals, holes, marks)
        graphs = en._unlabeled_classes(vals, len(holes))
        assert {id(c.graph) for c in classes} == {id(g) for g in graphs}
        # a rejected map is never built as a graph; each kept map is built
        # once, gets one canonical_form and one full traversal, and its
        # canonical graph, handed the least roots, is never swept
        assert len(built) == len(graphs)
        assert [id(g) for g in canonical] == [id(g) for g in full] == [id(g) for g in built]
        assert not {id(g.sigma0) for g in graphs} & {id(sigma0) for sigma0 in swept}
        # the classes are cached, so labelling them again builds nothing
        for calls in (built, canonical, full, swept):
            calls.clear()
        assert en._marked_classes(vals, holes, marks) == classes
        assert built == canonical == full == swept == []


class TestRootedMaps:
    @pytest.mark.parametrize("sides", [4, 6, 8, 10, 12, 14])
    def test_matches_search_on_cell_valencies(self, sides):
        for vals in valency_lists_by_sides(sides, 3):
            for faces in face_counts(vals):
                want = en._search(list(vals), faces)
                assert en._connected_pairings(vals, faces) == want, (vals, faces)

    def test_matches_search_with_low_valencies(self):
        # valencies 1 and 2 exercise the recursion's small-degree branches
        for sides in range(2, 11, 2):
            for vals in valency_lists_by_sides(sides, 1):
                for faces in face_counts(vals):
                    want = en._search(list(vals), faces)
                    assert en._connected_pairings(vals, faces) == want, (vals, faces)

    def test_infeasible_face_counts_are_zero(self):
        assert en._connected_pairings((3, 3), 2) == 0  # 2g odd
        assert en._connected_pairings((3, 3), 5) == 0  # 2g negative
        assert en._connected_pairings((3, 2), 1) == 0  # odd side count
        assert en._search([3, 3], 2) == 0

    def test_trivalent_genus_two_shape(self):
        # the 18-side shape; _search was checked to give these counts but
        # takes minutes, so the values are frozen here
        got = [en._connected_pairings([3] * 6, f) for f in (1, 3, 5)]
        assert got == [3061800, 19362240, 9797760]

    def test_base_cases_and_symmetry(self):
        assert en._rooted_maps(1, (5, 3, 4)) == en._rooted_maps(1, (3, 4, 5))
        assert en._rooted_maps(0, (0,)) == 1
        assert en._rooted_maps(0, (0, 2)) == 0
        assert en._rooted_maps(-1, (4,)) == 0
