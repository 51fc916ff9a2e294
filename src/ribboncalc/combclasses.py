"""Merging relations between valency loci and kappa/psi monomials.

A point label q with marking order rho(q) pins down a vertex of valency
2*rho(q)+3.  When several labels land on the same vertex the markings merge,
and the locus of graphs carrying the merged vertex enters a linear relation
against kappa/psi monomials: one term per partition of the label set, with
an integer coefficient counting the ways the merge can happen and a second
integer counting the fibers of the map that forgets unkept labels.

``merge_relation`` emits that relation with the loci kept as opaque ring
symbols.  ``kappa_polynomial`` solves the triangular system the relations
form, by induction on the number of non-trivalent vertices, and returns the
kappa-expression of any valency locus.  Everything is exact; coefficients
stay in ``Fraction`` land throughout.

Partitions whose blocks carry the same orders give the same term, so both
sum over them by value: ``_solve`` through ``permutations._partition_sums``,
and ``merge_relation`` through ``_sub_multisets`` (the unkept companions of
each kept label) and ``_partition_sums`` (the rest).  Only a relation that
keeps every label walks the labelled partitions one by one, because each of
them names its own bubble-tail locus.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Optional

from .enumeration import Profile
from .errors import BrokenInvariant, DomainMismatch, EvenInput, InconsistentProfile, TooLarge
from .permutations import _partition_sums, _sub_multisets
from .tautring import ONE, TautPoly, kappa, kappa_cycle_sum, psi, symbol

__all__ = [
    "Relation",
    "OneVertexRelation",
    "TwoVertexCheck",
    "ambient_genus",
    "ambient_surface",
    "delta_class",
    "double_factorial",
    "kappa_polynomial",
    "merge_coefficient",
    "merge_relation",
    "node_class",
    "one_vertex_relation",
    "tails_class",
    "two_vertex_check",
    "valency_class",
]

# a relation keeping every label has Bell(m) terms: 115,975 at 10, 678,570 at 11
MAX_KEPT_LABELS = 10


# --- small exact arithmetic ---------------------------------------------------

def double_factorial(n) -> int:
    """n!! for odd n >= -1, with the usual convention (-1)!! == 1."""
    n = int(n)
    if n % 2 == 0:
        raise EvenInput(f"double factorial of even {n}")
    if n < -1:
        raise DomainMismatch("double factorial needs n >= -1")
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out


def merge_coefficient(rho_sum, block_size) -> int:
    """Ways a block of ``block_size`` markings merges onto one vertex.

    Equals (2*rho_sum + 2h - 1)!! / (2*rho_sum + 1)!! for h = block_size,
    which telescopes to an integer product; a singleton block counts 1.
    """
    rho_sum, block_size = int(rho_sum), int(block_size)
    if block_size < 1:
        raise DomainMismatch("blocks are nonempty")
    if rho_sum < 0:
        raise DomainMismatch("marking orders are nonnegative")
    out = 1
    for t in range(rho_sum + 1, rho_sum + block_size):
        out *= 2 * t + 1
    return out


# --- marking orders and labelled partitions -------------------------------------

def _orders(rho) -> dict:
    """Marking orders q -> rho(q) as a dict on string labels, checked >= 0."""
    out = {}
    for q, v in dict(rho).items():
        v = int(v)
        if v < 0:
            raise DomainMismatch("negative marking orders are not supported")
        out[str(q)] = v
    return out


def _set_partitions(items):
    """Yield every partition of the list ``items`` as a list of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]


# --- opaque class symbols -------------------------------------------------------

def valency_class(valencies, tau=None, weight=None) -> TautPoly:
    """The locus of graphs with the given odd non-generic valencies.

    ``tau`` maps labels to marking orders and pins that many of the vertices
    (a label of order i sits on a vertex of valency 2i+3, which must be
    available).  The all-trivalent unmarked locus is the whole space, so it
    comes back as the constant 1.
    """
    prof = valencies if isinstance(valencies, Profile) else Profile.from_valencies(valencies)
    tau = {str(q): int(v) for q, v in dict(tau or {}).items()}
    if any(v < 0 for v in tau.values()):
        raise DomainMismatch("marking orders are nonnegative")
    need = Counter(tau.values())
    for i, cnt in need.items():
        have = prof.m[i] if i < len(prof.m) else 0
        if i >= 1 and have < cnt:
            raise DomainMismatch(f"profile has {have} vertices of valency {2 * i + 3}, {cnt} marked")
    high = [v for v in prof.valencies() if v > 3]
    if not high and not tau:
        return ONE
    name = "locus"
    if high:
        name += "_" + ",".join(str(v) for v in high)
    if tau:
        name += ";" + ",".join(f"{q}={tau[q]}" for q in sorted(tau))
    if weight is None:
        weight = sum(i * mi for i, mi in enumerate(prof.m)) + len(tau)
    return symbol(name, weight)


def tails_class(blocks, rho, weight=None) -> TautPoly:
    """Locus where each block's labels sit on a bubble at one merged vertex.

    ``blocks`` partition the marked labels; the name lists each block sorted,
    and the blocks sorted by their sorted label lists.
    """
    rho = _orders(rho)
    blocks = sorted(sorted(str(q) for q in b) for b in blocks)
    if not all(blocks) or sorted(q for b in blocks for q in b) != sorted(rho):
        raise DomainMismatch("blocks do not partition the marked labels")
    parts = [".".join(b) + "=" + str(sum(rho[q] for q in b)) for b in blocks]
    if weight is None:
        weight = sum(v + 1 for v in rho.values())
    return symbol("tails;" + "/".join(parts), weight)


def node_class(v1, v2, label=None, weight=None) -> TautPoly:
    """Nodal locus joining a valency-v1 vertex to a valency-v2 vertex.

    With ``label`` the node carries a labeled sphere component between the
    two vertices; this version is one weight heavier.
    """
    v1, v2 = sorted((int(v1), int(v2)))
    if v1 < 1 or v1 % 2 == 0 or v2 % 2 == 0:
        raise DomainMismatch("node valencies are odd and positive")
    r = (v1 + v2) // 2
    name = f"node_{v1},{v2}"
    if label is not None:
        name += f";{label}"
    if weight is None:
        weight = r + 1 if label is not None else r
    return symbol(name, weight)


def delta_class(tag, weight, label=None) -> TautPoly:
    """Opaque boundary-divisor symbol, e.g. delta_class("irr", 1)."""
    name = f"delta_{tag}"
    if label is not None:
        name += f";{label}"
    return symbol(name, weight)


# --- the relations ---------------------------------------------------------------

class Relation(NamedTuple):
    lhs: TautPoly
    rhs: TautPoly

    def difference(self) -> TautPoly:
        return self.lhs - self.rhs


class OneVertexRelation(NamedTuple):
    psi_form: Relation
    kappa_form: Optional[Relation]


def one_vertex_relation(r, label="q") -> OneVertexRelation:
    """Relation satisfied by the locus with a single marked (2r+3)-valent vertex.

    The psi form holds for r >= -1 and equates the locus plus its nodal
    correction terms with (2r+2)!/(r+1)! times psi^(r+1).  Pushing the label
    forward gives the kappa form with right side 2^(r+1)*(2r+1)!!*kappa_r,
    available for r >= 1.  Both coefficients agree; that identity is checked
    here rather than trusted.
    """
    r = int(r)
    if r < -1:
        raise DomainMismatch("marking order r >= -1 required")
    coeff = factorial(2 * r + 2) // factorial(r + 1)
    if coeff != 2 ** (r + 1) * double_factorial(2 * r + 1):
        raise BrokenInvariant("(2r+2)!/(r+1)! differs from 2^(r+1)*(2r+1)!!")
    if r == -1:
        # a univalent marked vertex imposes nothing at all
        return OneVertexRelation(Relation(ONE, ONE), None)

    corrections = Counter()
    for i in range(r):
        j = r - 1 - i
        key = tuple(sorted((2 * i + 1, 2 * j + 1)))
        corrections[key] += (2 * i + 1) * (2 * j + 1)

    lhs = valency_class([2 * r + 3], {label: r})
    for (v1, v2), c in sorted(corrections.items()):
        lhs = lhs + c * node_class(v1, v2, label=label)
    psi_form = Relation(lhs, coeff * psi(label) ** (r + 1))
    if r < 1:
        return OneVertexRelation(psi_form, None)

    klhs = valency_class([2 * r + 3])
    for (v1, v2), c in sorted(corrections.items()):
        klhs = klhs + c * node_class(v1, v2)
    kappa_form = Relation(klhs, coeff * kappa(r))
    return OneVertexRelation(psi_form, kappa_form)


def merge_relation(g, P, rho, kept=()) -> Relation:
    """The merging relation for marked vertices on genus-g graphs with holes P.

    Labels in ``kept`` stay as psi factors on the left and as markings of the
    right-hand loci; the rest are summed out into kappa cycle sums.  With
    every label kept nothing is forgotten and the right side runs over all
    partitions of the label set, the non-discrete ones as bubble-tail loci
    weighted by the merge coefficient alone; that walk is refused with
    ``TooLarge`` past ``MAX_KEPT_LABELS`` labels.  Otherwise the sum runs
    over partitions separating the kept labels and each term also picks up
    its forgetful fiber count.
    """
    rho = _orders(rho)
    holes = [str(p) for p in P]
    if not holes:
        raise InconsistentProfile("need at least one hole")
    if len(set(holes)) != len(holes):
        raise DomainMismatch("duplicate hole labels")
    labels = set(rho)
    if labels & set(holes):
        raise DomainMismatch("marking labels collide with hole labels")
    kept = {str(x) for x in kept}
    if not kept <= labels:
        raise DomainMismatch("kept labels must be marked")

    n = len(holes)
    total = 4 * g - 4 + 2 * n
    spent = sum(2 * v + 1 for v in rho.values())
    if total - spent < sum(1 for v in rho.values() if v == 0):
        raise InconsistentProfile(
            f"profile needs {spent} of 4g-4+2n = {total} plus a trivalent slot per order-0 label"
        )
    if kept == labels and len(labels) > MAX_KEPT_LABELS:
        raise TooLarge(f"keeping all {len(labels)} labels exceeds the limit {MAX_KEPT_LABELS}")

    scale = 1
    for v in rho.values():
        scale *= 2 ** (v + 1) * double_factorial(2 * v + 1)
    lhs = TautPoly.constant(scale)
    for q in sorted(kept):
        lhs = lhs * psi(q) ** (rho[q] + 1)
    unkept = [rho[q] for q in sorted(labels - kept)]
    lhs = lhs * kappa_cycle_sum(unkept)

    if kept == labels:
        # one tails symbol per labelled partition, so walk them all
        terms = Counter()
        for blocks in _set_partitions(sorted(labels)):
            if len(blocks) == len(labels):
                term = valency_class([2 * v + 3 for v in rho.values()], rho)
            else:
                coeff = 1
                for b in blocks:
                    coeff *= merge_coefficient(sum(rho[q] for q in b), len(b))
                term = coeff * tails_class(blocks, rho)
            terms.update(term.terms())
        return Relation(lhs, TautPoly(terms))

    # A term depends only on each kept label's merged order and on the block
    # sums of the blocks without a kept label, so both are summed by value:
    # each kept label picks its unkept companions as a sub-multiset, and
    # ``_partition_sums`` partitions what is left.
    picks = Counter({((), tuple(unkept)): 1})
    for q in sorted(kept):
        step = Counter()
        for (tau, rest), w in picks.items():
            for inside, outside, ways in _sub_multisets(rest):
                s = rho[q] + sum(inside)
                step[tau + ((q, s),), outside] += w * ways * merge_coefficient(s, 1 + len(inside))
        picks = step

    loci = Counter()  # (valencies, kept label -> merged order) -> coefficient
    for (tau, rest), w in picks.items():
        held = Counter(s for _, s in tau)
        for sums, weight in _partition_sums(rest, merge_coefficient).items():
            merged = held + Counter(sums)
            # trivalent vertices (marked ones included) soak up the leftover weight
            m0 = total - sum((2 * i + 1) * c for i, c in merged.items() if i >= 1)
            # fibers of forgetting the unkept labels: a falling factorial on the
            # free trivalent slots, a factorial per larger valency
            mult = 1
            for t in range(m0 - merged[0] + 1, m0 - held[0] + 1):
                mult *= t
            for i, c in merged.items():
                if i >= 1:
                    mult *= factorial(c - held[i])
            vals = [2 * i + 3 for i, c in sorted(merged.items()) if i >= 1 for _ in range(c)]
            loci[tuple(vals + [3] * held[0]), tau] += mult * w * weight
    rhs = TautPoly()
    for (vals, tau), c in loci.items():
        rhs = rhs + c * valency_class(vals, dict(tau))
    return Relation(lhs, rhs)


# --- the solver -------------------------------------------------------------------

_SOLVED: dict = {}


def _solve(tail) -> TautPoly:
    """Kappa polynomial for the profile with m_i = tail[i-1] big vertices.

    The all-forgotten merge relation of the profile's marked vertices reads
    scale * K(values) = sum over set partitions M of the vertices of
    mult(M) * coefficient(M) * [locus of the merged profile], and only the
    discrete partition leaves the profile itself.  Partitions with equal
    block sums name the same merged profile, so the others are summed by
    their block sums (``permutations._partition_sums``) and each merged
    profile is solved once, recursively.
    """
    hit = _SOLVED.get(tail)
    if hit is not None:
        return hit

    values = [i for i, mi in enumerate(tail, start=1) for _ in range(mi)]
    scale = 1
    for v in values:
        scale *= 2 ** (v + 1) * double_factorial(2 * v + 1)
    acc = {mono: scale * c for mono, c in kappa_cycle_sum(values).terms().items()}

    for sums, weight in _partition_sums(values, merge_coefficient).items():
        if len(sums) == len(values):
            continue  # the discrete partition: the unknown itself
        merged = Counter(sums)
        sub_tail = tuple(merged.get(i, 0) for i in range(1, max(merged) + 1))
        mult = 1
        for cnt in merged.values():
            mult *= factorial(cnt)
        for mono, c in _solve(sub_tail).terms().items():
            acc[mono] = acc.get(mono, 0) - mult * weight * c

    denom = 1
    for mi in tail:
        denom *= factorial(mi)
    result = TautPoly({mono: c / denom for mono, c in acc.items()})
    return _SOLVED.setdefault(tail, result)


def kappa_polynomial(m_star, g, n) -> TautPoly:
    """Exact kappa-expression of the valency locus with profile ``m_star``.

    The trivalent entry may be left at 0, in which case it is derived from
    (g, n); a nonzero entry must match the derived value.  The result never
    depends on which consistent (g, n) was supplied.
    """
    prof = m_star if isinstance(m_star, Profile) else Profile(m_star)
    if n < 1 or g < 0:
        raise InconsistentProfile("need g >= 0 and at least one hole")
    total = 4 * g - 4 + 2 * n
    if total <= 0:
        raise InconsistentProfile(f"no graphs for (g, n) = ({g}, {n})")
    spent = sum((2 * i + 1) * mi for i, mi in enumerate(prof.m) if i >= 1)
    derived = total - spent
    if derived < 0:
        raise InconsistentProfile(f"profile weight {spent} exceeds 4g-4+2n = {total}")
    declared = prof.m[0] if prof.m else 0
    if declared not in (0, derived):
        raise InconsistentProfile(f"trivalent count {declared} should be {derived}")
    return _solve(prof.m[1:])


def ambient_surface(m_star):
    """Smallest (g, n) whose cell complex realizes the profile.

    A nonzero trivalent entry pins the weight exactly; left at zero, it
    pads out whatever the bigger vertices leave over, so only those
    constrain the choice.  ``kappa_polynomial`` gives the same answer for
    every consistent pick, this is just a default.
    """
    prof = m_star if isinstance(m_star, Profile) else Profile(m_star)
    spent = sum((2 * i + 1) * mi for i, mi in enumerate(prof.m) if i >= 1)
    declared = prof.m[0] if prof.m else 0
    if declared:
        w = spent + declared
        if w % 2:
            raise InconsistentProfile(f"total weight {w} is odd; no surface fits")
        n = 1 if w % 4 == 2 else 2
        return (w + 4 - 2 * n) // 4, n
    return max(1, -(-(spent + 2) // 4)), 1


def ambient_genus(rho, n_holes=1) -> int:
    """Smallest genus whose complex with ``n_holes`` holes fits the markings.

    Each label of order r needs a (2r+3)-valent vertex, and order-0 labels
    additionally need a trivalent slot left over.
    """
    rho = _orders(rho)
    n = int(n_holes)
    if n < 1:
        raise DomainMismatch("need at least one hole")
    spent = sum(2 * v + 1 for v in rho.values())
    zeros = sum(1 for v in rho.values() if v == 0)
    g = max(0, -(-(spent + zeros + 4 - 2 * n) // 4))
    while 4 * g - 4 + 2 * n <= 0:
        g += 1
    return g


class TwoVertexCheck(NamedTuple):
    solved: TautPoly
    formula: TautPoly
    agree: bool


def two_vertex_check(a, b) -> TwoVertexCheck:
    """Cross-check the solver on the two-big-vertex profile {2a+3, 2b+3}.

    The closed formula is
        [2^(a+b+2) (2a+1)!! (2b+1)!! (k_a k_b + k_{a+b})
         - 2^(a+b+1) (2a+2b+3)!! k_{a+b}] / (2 if a == b else 1)
    and the halving accounts for the two vertices being interchangeable.
    """
    a, b = int(a), int(b)
    if a < 1 or b < 1:
        raise DomainMismatch("two-vertex check needs a, b >= 1")
    tail = [0] * max(a, b)
    tail[a - 1] += 1
    tail[b - 1] += 1
    prof = Profile([0] + tail)
    # any (g, n) wide enough to hold the profile will do
    g = (prof.weight() + 5) // 4
    solved = kappa_polynomial(prof, g, 1)
    formula = 2 ** (a + b + 2) * double_factorial(2 * a + 1) * double_factorial(2 * b + 1) * (
        kappa(a) * kappa(b) + kappa(a + b)
    ) - 2 ** (a + b + 1) * double_factorial(2 * a + 2 * b + 3) * kappa(a + b)
    formula = formula * Fraction(1, 2 if a == b else 1)
    return TwoVertexCheck(solved, formula, solved == formula)
