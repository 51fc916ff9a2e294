"""Formal graded commutative ring of kappa and psi classes over exact rationals.

Generators: kappa(i) of weight i (kappa(0) is kept formal, weight 0),
psi(label) of weight 1, and opaque weighted symbols for boundary classes.
A TautPoly maps monomials to nonzero Fractions; everything is immutable.

    >>> p = 2 * kappa(1) ** 2 - psi("q")
    >>> p.text()
    '2*k1^2 - psi(q)'
    >>> TautPoly.parse(p.text()) == p
    True

Forgetting marked points turns psi powers into the permutation sum

    K(b_1, ..., b_m) = sum over sigma in S_m of
                       product over cycles c of sigma of kappa(sum of b in c)

(Faber, A conjectural description of the tautological ring, 1999), and
the merge relations of combclasses multiply by it.  ``kappa_cycle_sum``
does not walk the m! permutations: choosing the other members S of the
cycle through b_1, in one of |S|! cyclic orders, leaves the same sum on
the rest,

    K(b_1, ..., b_m) = sum over subsets S of {2, ..., m} of
                       |S|! * kappa(b_1 + sum of b_j, j in S)
                            * K(b_j, j not in S and j != 1)

with K() = 1.  Subsets S that pick the same sub-multiset of values give the
same term, so ``kappa_cycle_sum`` groups them and weights them by products
of binomials (``permutations._partition_sums``).  The sums are integers
from the process-wide partition-sum table, shared with the kappa solver and
the merge relations, and each tuple of block sums becomes its monomial
directly.  A ``TautPoly`` keeps a ``Fraction`` coefficient as it is and
converts any other number once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

from .errors import DomainMismatch
from .permutations import _partition_sums
from .ribbon import rational_str

_KAPPA = "k"
_PSI = "psi"
_SYM = "sym"

_BAD_NAME = re.compile(r"[\^*+\-()\[\]|]")


def _gen_weight(gen) -> int:
    kind = gen[0]
    if kind == _KAPPA:
        return gen[1]
    if kind == _PSI:
        return 1
    return gen[2]


def _mono_weight(mono) -> int:
    return sum(_gen_weight(g) * e for g, e in mono)


def _normalize(pairs):
    acc = {}
    for g, e in pairs:
        acc[g] = acc.get(g, 0) + e
    if sum(e for g, e in acc.items() if g[0] == _SYM and e > 0) > 1:
        raise DomainMismatch("opaque class symbols only occur linearly")
    return tuple(sorted((g, e) for g, e in acc.items() if e != 0))


class TautPoly:
    """Finite map monomial -> nonzero Fraction, with ring operations."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        self._terms = clean

    # -- construction helpers ---------------------------------------------------

    @staticmethod
    def constant(c) -> "TautPoly":
        return TautPoly({(): Fraction(c)})

    def terms(self) -> dict:
        """Copy of the monomial -> coefficient map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- ring structure -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TautPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return TautPoly.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return TautPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return TautPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _normalize(m1 + m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return TautPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise DomainMismatch("negative powers are not in the ring")
        out = TautPoly.constant(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        return f"TautPoly({self.text()})"

    # -- grading -------------------------------------------------------------------

    def weights(self) -> set:
        return {_mono_weight(m) for m in self._terms}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def homogeneous_part(self, w) -> "TautPoly":
        return TautPoly(
            {m: c for m, c in self._terms.items() if _mono_weight(m) == w}
        )

    # -- text and JSON forms ---------------------------------------------------------

    def _sorted_monomials(self):
        # weight, then the exponent vector over the sorted generators, compared
        # sparsely: monomials list generators in that order with positive exponents
        gens = sorted({g for m in self._terms for g, _ in m})
        index = {g: i for i, g in enumerate(gens)}

        def key(mono):
            return _mono_weight(mono), tuple((-index[g], e) for g, e in mono)

        return sorted(self._terms, key=key, reverse=True)

    def text(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono in self._sorted_monomials():
            coeff = self._terms[mono]
            body = _render_monomial(mono, abs(coeff))
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    @staticmethod
    def parse(text: str) -> "TautPoly":
        return _parse_poly(text)

    def to_json(self) -> list:
        out = []
        for mono in self._sorted_monomials():
            coeff = self._terms[mono]
            out.append(
                {
                    "coeff": rational_str(coeff),
                    "monomial": [_gen_to_json(g) | {"exp": e} for g, e in mono],
                }
            )
        return out

    @staticmethod
    def from_json(data) -> "TautPoly":
        terms = {}
        for entry in data:
            mono = _normalize(
                (_gen_from_json(item), _exp_from_json(item))
                for item in entry["monomial"]
            )
            terms[mono] = terms.get(mono, Fraction(0)) + Fraction(entry["coeff"])
        return TautPoly(terms)


def kappa(i) -> TautPoly:
    if i < 0:
        raise DomainMismatch("kappa index must be >= 0")
    return TautPoly({(((_KAPPA, int(i)), 1),): Fraction(1)})


def psi(label) -> TautPoly:
    return TautPoly({(((_PSI, str(label)), 1),): Fraction(1)})


def symbol(name, weight) -> TautPoly:
    """An opaque graded generator.  Symbols never multiply each other."""
    name = str(name)
    if _BAD_NAME.search(name):
        raise DomainMismatch(f"symbol name {name!r} uses reserved characters")
    return TautPoly({(((_SYM, name, int(weight)), 1),): Fraction(1)})


ZERO = TautPoly()
ONE = TautPoly.constant(1)


# --- rendering / parsing ------------------------------------------------------------

def _render_gen(gen) -> str:
    kind = gen[0]
    if kind == _KAPPA:
        return f"k{gen[1]}"
    if kind == _PSI:
        return f"psi({gen[1]})"
    return f"[{gen[1]}|{gen[2]}]"


def _render_monomial(mono, coeff: Fraction) -> str:
    factors = []
    if coeff != 1 or not mono:
        factors.append(rational_str(coeff).removesuffix("/1"))
    for g, e in mono:
        base = _render_gen(g)
        factors.append(base if e == 1 else f"{base}^{e}")
    return "*".join(factors)


def _split_top(text, seps):
    """Split on separator characters at bracket depth 0."""
    parts = []
    buf = []
    depth = 0
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in seps:
            parts.append(("".join(buf), ch))
            buf = []
        else:
            buf.append(ch)
    parts.append(("".join(buf), ""))
    return parts

_FACTOR = re.compile(
    r"^(?:k(?P<k>\d+)|psi\((?P<psi>[^()]+)\)|\[(?P<sym>[^|\]]+)\|(?P<w>-?\d+)\])"
    r"(?:\^(?P<exp>\d+))?$"
)
_NUMBER = re.compile(r"^\d+(?:/\d+)?$")


def _parse_poly(text: str) -> TautPoly:
    s = text.strip()
    if not s:
        raise DomainMismatch("empty polynomial text")
    total = TautPoly()
    sign = 1
    for i, (chunk, sep) in enumerate(_split_top(s, "+-")):
        chunk = chunk.strip()
        if chunk:
            total = total + sign * _parse_term(chunk)
        elif i > 0 or not sep:
            # empty between operators, or a dangling trailing operator
            raise DomainMismatch(f"misplaced operator in {text!r}")
        sign = -1 if sep == "-" else 1
    return total


def _parse_term(chunk: str) -> TautPoly:
    coeff = Fraction(1)
    mono = []
    for part, _ in _split_top(chunk, "*"):
        part = part.strip()
        if not part:
            raise DomainMismatch(f"empty factor in {chunk!r}")
        if _NUMBER.match(part):
            coeff *= Fraction(part)
            continue
        m = _FACTOR.match(part)
        if not m:
            raise DomainMismatch(f"cannot parse factor {part!r}")
        exp = int(m.group("exp") or 1)
        if m.group("k") is not None:
            gen = (_KAPPA, int(m.group("k")))
        elif m.group("psi") is not None:
            gen = (_PSI, m.group("psi"))
        else:
            gen = (_SYM, m.group("sym"), int(m.group("w")))
        mono.append((gen, exp))
    return TautPoly({_normalize(mono): coeff})


def _gen_to_json(gen) -> dict:
    if gen[0] == _KAPPA:
        return {"kind": "kappa", "index": gen[1]}
    if gen[0] == _PSI:
        return {"kind": "psi", "label": gen[1]}
    return {"kind": "symbol", "name": gen[1], "weight": gen[2]}


def _gen_from_json(item):
    kind = item["kind"]
    if kind == "kappa":
        return (_KAPPA, int(item["index"]))
    if kind == "psi":
        return (_PSI, str(item["label"]))
    if kind == "symbol":
        return (_SYM, str(item["name"]), int(item["weight"]))
    raise DomainMismatch(f"unknown generator kind {kind!r}")


def _exp_from_json(item):
    exp = item["exp"]
    if type(exp) is not int or exp < 1:
        raise DomainMismatch(f"exponent {exp!r} is not a positive integer")
    return exp


# --- substitution --------------------------------------------------------------------

def map_generators(poly: TautPoly, mapping) -> TautPoly:
    """Simultaneously replace generators by polynomials (others untouched)."""
    out = TautPoly()
    for mono, coeff in poly.terms().items():
        term = TautPoly.constant(coeff)
        for g, e in mono:
            repl = mapping.get(g)
            if repl is None:
                repl = TautPoly({((g, 1),): Fraction(1)})
            term = term * repl**e
        out = out + term
    return out


# --- permutation cycle sums --------------------------------------------------------------

def kappa_cycle_sum(values) -> TautPoly:
    """Sum over permutations of kappa products, one factor per cycle.

    For values (b_1, ..., b_m) each sigma in S_m contributes the product
    over its cycles c of kappa(sum of b_j for j in c).  The cycles of sigma
    partition the values, and (|B|-1)! permutations cycle a block B, so the
    sum runs over set partitions by the recursion in the module docstring.
    Each ascending tuple of block sums is already the monomial's sorted
    kappa indices, so its runs give the exponents directly.
    """
    counts = _partition_sums(values, _cycle_orders)
    return TautPoly(
        {
            tuple(((_KAPPA, i), sums.count(i)) for i in dict.fromkeys(sums)): c
            for sums, c in counts.items()
        }
    )


def _cycle_orders(total, size) -> int:
    """Cyclic orders of a block of ``size`` values: the weight of ``kappa_cycle_sum``."""
    return factorial(size - 1)
