"""Exact rewrite engine for finitely presented graded-commutative rings over Q.

A ring is presented by generators (each with a positive integer degree) and a
set of directed quadratic rewrite rules: an ordered pair of generators on the
left, a linear combination of monomials of the same degree on the right.
Multiplication follows the Koszul sign convention: swapping two odd-degree
factors flips the sign, and the square of an odd-degree generator vanishes
(implicitly: coefficients are rational, so 2x^2 = 0 forces x^2 = 0).

Monomials are stored as tuples of generator names sorted in the presentation's
registration order; normalizing a factor sequence yields the sorting sign.
Normal forms are computed by exhaustive rewriting.  Termination is guaranteed
by construction: every generator carries an integer ``rank`` and every rule
must strictly decrease the multiset of ranks (Dershowitz-Manna order, checked
through its descending-lexicographic linearization).  Confluence is not
assumed; :func:`check_confluence` probes every degree-3 overlap and is run as
a gate on presentations loaded from JSON.

The rewrite kernel behind :func:`normal_form`, :func:`multiply` and
:func:`product` runs on integer codes; the public values keep name tuples and
``Fraction`` coefficients.

* Words.  A word is a sorted tuple of generator indices (registration
  order).  A rewrite step removes the two rewritten factors, which leaves the
  rest sorted, and merges each right-hand factor into it; the Koszul sign is
  the parity of the odd factors each moved factor passes, read off a bit set
  of the word's odd generators.
* Coefficients.  Rule coefficients are stored as ints when integral (every
  shipped ring); an input element is scaled to integer coefficients over a
  common denominator, and each input word is rewritten with coefficient 1
  and scales the normal words it reaches.  So the arithmetic stays in ints on
  integral rules and falls back to ``Fraction`` by itself on loaded rules
  that are not.
* Redex order.  :func:`normal_form` and :func:`multiply` rewrite the
  leftmost redex.  :func:`product` multiplies a partial product, already a
  normal form, by the next factor; a pair of factors from the partial
  product is no redex, so only pairs touching a factor of the new word, or
  one a rule brought in, are searched.  Rewriting in another order gives the
  same normal form on a terminating confluent presentation (diamond lemma,
  Bergman 1978): every shipped ring passes :func:`check_confluence`, and
  loaded rings are gated on it.

Example: one even generator ``a`` truncated above a^2, i.e. rules
a*a -> a2, a*a2 -> 0, a2*a2 -> 0:

    >>> P = RingPresentation(
    ...     generators=(Generator("a", 2), Generator("a2", 4)),
    ...     rules=(
    ...         RewriteRule(("a", "a"), element([(1, ("a2",))])),
    ...         RewriteRule(("a", "a2"), zero()),
    ...         RewriteRule(("a2", "a2"), zero()),
    ...     ),
    ...     name="truncated-example",
    ... )
    >>> normal_form(P, element([(1, ("a", "a", "a"))]))  # a^3 = a*a2 = 0
    GradedElement(terms={})
    >>> poincare_series(P, 8)
    [1, 0, 1, 0, 1, 0, 0, 0, 0]
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Generator",
    "Monomial",
    "GradedElement",
    "RewriteRule",
    "RingPresentation",
    "PresentationError",
    "element",
    "zero",
    "one",
    "gen",
    "add",
    "scale",
    "subtract",
    "multiply",
    "normal_form",
    "product",
    "is_zero",
    "element_degree",
    "poincare_series",
    "MAX_SERIES_DEGREE",
    "check_series_degree",
    "poly_mul",
    "check_confluence",
    "ConfluenceReport",
    "presentation_to_dict",
    "presentation_from_dict",
    "load_presentation_json",
]

Word = tuple[str, ...]
IWord = tuple[int, ...]  # a word as generator indices, the kernel's encoding

# Highest degree a Poincare series may be asked for.  Series lists hold one
# int per degree.  poly_mul visits nonzero coefficients only, so the fn
# dimension gate (one two-term component per copy) builds (2,2,1,510) in
# about 0.09 s (3.1 s with the dense loop) and (3,2,1,255) in 0.04 s;
# single runs on a shared 2-core host.  Test and benchmark cells gate below 60.
MAX_SERIES_DEGREE = 512

# Failed triples the confluence report lists before the probe stops.
MAX_CONFLUENCE_FAILURES = 20


class PresentationError(ValueError):
    """A presentation violates a structural invariant (degrees, rules, order)."""


@dataclass(frozen=True)
class Generator:
    """A ring generator: opaque name, degree >= 1, and a termination rank.

    ``rank`` orders generators for the rewrite termination argument only; it
    has no algebraic meaning.  Rules must strictly decrease the multiset of
    ranks of the factors they touch.
    """

    name: str
    degree: int
    rank: int = 0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise PresentationError(f"generator {self.name!r} has degree {self.degree} < 1")


@dataclass(frozen=True)
class Monomial:
    """A canonical product of generators: sorted factors plus the sorting sign.

    ``sign`` is +1 or -1 (Koszul sign of the sorting permutation restricted to
    odd-degree factors), or 0 when an odd-degree factor repeats and the
    product vanishes outright.
    """

    factors: Word
    sign: int


@dataclass(frozen=True)
class GradedElement:
    """A finite Q-linear combination of canonical monomials.

    ``terms`` maps canonical factor tuples to nonzero rational coefficients.
    Instances are treated as immutable values; all arithmetic returns fresh
    objects.
    """

    terms: Mapping[Word, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "terms",
            {w: Fraction(c) for w, c in self.terms.items() if c != 0},
        )

    def __bool__(self) -> bool:
        return bool(self.terms)


@dataclass(frozen=True)
class RewriteRule:
    """Directed rule: the product lhs[0]*lhs[1] rewrites to ``rhs``.

    The left side is stored in canonical (registration) order; the right side
    must be degree-homogeneous of the same degree and strictly smaller in the
    termination order.  Both are validated by RingPresentation.
    """

    lhs: tuple[str, str]
    rhs: GradedElement


def zero() -> GradedElement:
    return GradedElement({})


def one() -> GradedElement:
    return GradedElement({(): Fraction(1)})


def element(terms: Iterable[tuple[int | Fraction, Word]]) -> GradedElement:
    """Build an element from (coefficient, factor tuple) pairs, merging keys."""
    acc: dict[Word, Fraction] = {}
    for coeff, word in terms:
        acc[word] = acc.get(word, Fraction(0)) + Fraction(coeff)
    return GradedElement(acc)


class RingPresentation:
    """A finitely presented graded-commutative ring with directed rules.

    Besides the name-level view (``generators``, ``rules``) it holds the
    integer-coded tables the rewrite kernel runs on, built once here:
    generator indices (registration order), an odd flag per index, the rule
    table ``_rows[i][j]`` for the left side (i, j), i <= j, and per
    generator its rule partners in either position.  A table entry lists
    the right-hand terms as (index word, coefficient, bit set of its
    generators, bit set of its odd generators).
    """

    def __init__(
        self,
        generators: Sequence[Generator],
        rules: Sequence[RewriteRule],
        name: str = "",
    ) -> None:
        self.generators = tuple(generators)
        self.name = name
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise PresentationError(f"duplicate generator names in {name!r}")
        self._names = tuple(g.name for g in self.generators)
        self._degree = {g.name: g.degree for g in self.generators}
        self._rank = {g.name: g.rank for g in self.generators}
        self._odd = {g.name for g in self.generators if g.degree % 2 == 1}
        self._oddf = tuple(g.degree % 2 for g in self.generators)
        self._oddbit = tuple(odd << i for i, odd in enumerate(self._oddf))
        self.rules: dict[tuple[str, str], GradedElement] = {}
        for rule in rules:
            self._admit_rule(rule)
        self._build_tables()

    # -- structural checks -------------------------------------------------

    def _admit_rule(self, rule: RewriteRule) -> None:
        a, b = rule.lhs
        for g in (a, b):
            if g not in self._index:
                raise PresentationError(f"rule {rule.lhs} uses unknown generator {g!r}")
        if self._index[a] > self._index[b]:
            raise PresentationError(f"rule lhs {rule.lhs} not in canonical order")
        if rule.lhs in self.rules:
            raise PresentationError(f"duplicate rule for pair {rule.lhs}")
        lhs_degree = self._degree[a] + self._degree[b]
        lhs_key = self._termination_key((a, b))
        for word, _ in rule.rhs.terms.items():
            if self.word_degree(word) != lhs_degree:
                raise PresentationError(
                    f"rule {rule.lhs}: rhs term {word} has degree "
                    f"{self.word_degree(word)}, lhs has {lhs_degree}"
                )
            if self.canonical(word).factors != word:
                raise PresentationError(f"rule {rule.lhs}: rhs term {word} not canonical")
            if not self._termination_key(word) < lhs_key:
                raise PresentationError(
                    f"rule {rule.lhs}: rhs term {word} does not decrease the termination order"
                )
        self.rules[rule.lhs] = rule.rhs

    def _termination_key(self, word: Word) -> tuple[int, ...]:
        # Descending rank multiset; Python's tuple order (prefixes smaller)
        # linearizes the Dershowitz-Manna multiset order on these keys.
        return tuple(sorted((self._rank[g] for g in word), reverse=True))

    def _build_tables(self) -> None:
        # Right-hand words with a repeated odd factor vanish and are left
        # out; coefficients are ints when integral (every shipped ring).
        self._rows: list[dict[int, tuple]] = [{} for _ in self.generators]
        self._partners: list[dict[int, tuple]] = [{} for _ in self.generators]
        for (a, b), rhs in self.rules.items():
            i, j = self._index[a], self._index[b]
            entry = []
            for word, coeff in rhs.terms.items():
                iword, sign = _sort_word(self._oddf, [self._index[g] for g in word])
                if sign:
                    c = coeff.numerator if coeff.denominator == 1 else coeff
                    entry.append((iword, c, _mask(iword), _odd_mask(self, iword)))
            self._rows[i][j] = self._partners[i][j] = self._partners[j][i] = tuple(entry)

    # -- basic queries ------------------------------------------------------

    def degree(self, name: str) -> int:
        return self._degree[name]

    def word_degree(self, word: Word) -> int:
        return sum(self._degree[g] for g in word)

    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    # -- canonicalization ---------------------------------------------------

    def canonical(self, factors: Sequence[str]) -> Monomial:
        """Sort factors into registration order, tracking the Koszul sign.

        Returns sign 0 when an odd-degree generator repeats.
        """
        iword, sign = _sort_word(self._oddf, [self._index[g] for g in factors])
        return Monomial(self._word_names(iword), sign)

    def _word_names(self, iword: IWord) -> Word:
        names = self._names
        return tuple(names[i] for i in iword)


# -- element arithmetic ------------------------------------------------------


def add(a: GradedElement, b: GradedElement) -> GradedElement:
    acc = dict(a.terms)
    for word, coeff in b.terms.items():
        acc[word] = acc.get(word, Fraction(0)) + coeff
    return GradedElement(acc)


def scale(c: int | Fraction, a: GradedElement) -> GradedElement:
    c = Fraction(c)
    return GradedElement({w: c * v for w, v in a.terms.items()})


def subtract(a: GradedElement, b: GradedElement) -> GradedElement:
    return add(a, scale(-1, b))


def gen(name: str) -> GradedElement:
    """The element consisting of the single generator ``name``."""
    return GradedElement({(name,): Fraction(1)})


def is_zero(a: GradedElement) -> bool:
    return not a.terms


def element_degree(P: RingPresentation, a: GradedElement) -> int | None:
    """Common degree of the terms, None for 0, error if inhomogeneous."""
    degrees = {P.word_degree(w) for w in a.terms}
    if not degrees:
        return None
    if len(degrees) > 1:
        raise PresentationError(f"inhomogeneous element with degrees {sorted(degrees)}")
    return degrees.pop()


# -- integer-coded rewrite kernel ----------------------------------------------

# Dirty mask meaning "every factor may take part in a redex".
_ALL_DIRTY = -1


def _mask(iword: IWord) -> int:
    """Bit set of the generator indices in a word."""
    return sum(1 << g for g in set(iword))


def _sort_word(oddf: Sequence[int], seq: Sequence[int]) -> tuple[IWord, int]:
    """Sorted index word and the Koszul sign of sorting it: the parity of
    the inversions among its odd factors (0 when an odd factor repeats).
    Only raw input words and rule right sides come here, and they are short."""
    word = tuple(sorted(seq))
    odd = [g for g in seq if oddf[g]]
    if len(set(odd)) < len(odd):
        return word, 0
    inversions = sum(1 for i, g in enumerate(odd) for h in odd[:i] if h > g)
    return word, -1 if inversions % 2 else 1


def _odd_mask(P: RingPresentation, iword: IWord) -> int:
    """Bit set of the odd generators in a canonical word.  No odd factor
    repeats there, so the odd factors below index x number
    ``(odd_mask & ((1 << x) - 1)).bit_count()``."""
    return sum(map(P._oddbit.__getitem__, iword))


def _merge(oddf: Sequence[int], extra: IWord, base: IWord, base_odd: int) -> tuple[IWord, int]:
    """Canonical form of the word ``extra + base`` and its Koszul sign, 0
    when an odd factor of ``extra`` is already in ``base``.

    Both words are canonical and ``base_odd`` is the odd mask of ``base``.
    Sorting moves each odd factor x of ``extra`` past the odd factors of
    ``base`` below x, one sign each.  ``sorted`` finds the two sorted runs
    and merges them in linear time.
    """
    parity = 0
    for x in extra:
        if oddf[x]:
            bit = 1 << x
            if base_odd & bit:
                return (), 0
            parity += (base_odd & (bit - 1)).bit_count()
    return tuple(sorted(base + extra)), -1 if parity % 2 else 1


def _find_redex(
    P: RingPresentation, word: IWord, dirty: int
) -> tuple[int, int, tuple] | None:
    """A pair of positions p < q of a canonical index word whose generators
    form a rule left side, with the rule's table entry; None if there is none.

    ``dirty`` is a bit set of generator indices: every pair of factors whose
    generators are both outside it is known not to be a redex, so only pairs
    touching a dirty factor are scanned.  With every factor dirty the scan
    returns the leftmost redex, p first, then q.
    """
    n = len(word)
    if dirty == _ALL_DIRTY:
        rows = P._rows
        for p in range(n - 1):
            row = rows[word[p]]
            if row:
                for q in range(p + 1, n):
                    entry = row.get(word[q])
                    if entry is not None:
                        return p, q, entry
        return None
    # Each dirty generator in the word is looked up at its first position q;
    # the word is sorted, so its rule partners are found by bisection.
    partners = P._partners
    while dirty:
        low = dirty & -dirty
        dirty ^= low
        g = low.bit_length() - 1
        q = bisect_left(word, g)
        if q == n or word[q] != g:
            continue
        for h, entry in partners[g].items():
            p = bisect_left(word, h)
            if p == q:  # h == g: the rule needs a second factor g
                p += 1
            if p < n and word[p] == h:
                return (p, q, entry) if p < q else (q, p, entry)
    return None


def _rewrite_step(
    P: RingPresentation, word: IWord, odd: int, p: int, q: int, entry: tuple
) -> Iterator[tuple[IWord, int | Fraction, int, int]]:
    """Rewrite the factors p < q of a canonical index word (odd mask ``odd``)
    by the rule table ``entry``.  Yields each nonvanishing canonical word of
    the result with its coefficient, the bit set of the right-hand factors it
    gained, and its odd mask.

    This is the one rewrite step: normal_form and product take it, and
    check_confluence probes it.
    """
    oddf = P._oddf
    a, b = word[p], word[q]
    # Koszul sign of moving factors p and q to the front of the word: each
    # passes the odd factors before it, those of lower index.
    parity = 0
    if oddf[a]:
        parity += (odd & ((1 << a) - 1)).bit_count()
        odd ^= 1 << a
    if oddf[b]:
        parity += (odd & ((1 << b) - 1)).bit_count()
        odd ^= 1 << b
    rest = word[:p] + word[p + 1 : q] + word[q + 1 :]
    for rhs_word, rhs_coeff, mask, rhs_odd in entry:
        merged, sign = _merge(oddf, rhs_word, rest, odd)
        if sign:
            flip = parity % 2 ^ (sign < 0)
            yield merged, -rhs_coeff if flip else rhs_coeff, mask, odd | rhs_odd


def _reduce_into(
    out: dict[IWord, int | Fraction],
    P: RingPresentation,
    word: IWord,
    coeff: int | Fraction,
    dirty: int,
    odd: int,
) -> None:
    """Add coeff times the normal form of the canonical index word (odd mask
    ``odd``) to ``out``.

    By linearity the word is rewritten with coefficient 1, and ``coeff``
    scales each normal word it reaches; the rewriting itself multiplies only
    rule coefficients, ints whenever the rules are integral.  ``dirty`` is
    the bit set of :func:`_find_redex`: a rewritten word keeps its parent's
    dirty set plus the generators the rule brought in, since every pair of
    its other factors was a pair of the parent.
    """
    work = [(word, 1, dirty, odd)]
    while work:
        word, c, dirty, odd = work.pop()
        redex = _find_redex(P, word, dirty)
        if redex is None:
            out[word] = out.get(word, 0) + coeff * c
            continue
        p, q, entry = redex
        for stepped, rc, mask, stepped_odd in _rewrite_step(P, word, odd, p, q, entry):
            work.append((stepped, c * rc, dirty | mask, stepped_odd))


def _index_terms(
    P: RingPresentation, a: GradedElement
) -> tuple[list[tuple[IWord, int]], int]:
    """a's terms as canonical index words with integer coefficients, and
    their common denominator: a = sum(c * word) / den.

    Raw words (unsorted, or with a repeated odd factor) are canonicalized.
    """
    den = 1
    for coeff in a.terms.values():
        if coeff.denominator != 1:
            den = lcm(den, coeff.denominator)
    index, oddf = P._index, P._oddf
    terms = []
    for word, coeff in a.terms.items():
        iword, sign = _sort_word(oddf, [index[g] for g in word])
        if sign:
            c = coeff.numerator * (den // coeff.denominator)
            terms.append((iword, c if sign > 0 else -c))
    return terms, den


def _to_element(
    P: RingPresentation, acc: Mapping[IWord, int | Fraction], den: int
) -> GradedElement:
    """The element sum(c * word) / den over the nonzero c of ``acc``."""
    terms = {P._word_names(w): Fraction(c, den) for w, c in acc.items() if c}
    # The values are nonzero Fractions already, so GradedElement's own
    # conversion is skipped.
    result = object.__new__(GradedElement)
    object.__setattr__(result, "terms", terms)
    return result


def normal_form(P: RingPresentation, a: GradedElement) -> GradedElement:
    """Rewrite until no rule applies.  Terminates by the rank-multiset order."""
    terms, den = _index_terms(P, a)
    out: dict[IWord, int | Fraction] = {}
    for word, coeff in terms:
        _reduce_into(out, P, word, coeff, _ALL_DIRTY, _odd_mask(P, word))
    return _to_element(P, out, den)


def _times(
    P: RingPresentation,
    left: Iterable[tuple[IWord, int | Fraction]],
    right: Sequence[tuple[IWord, int | Fraction]],
    left_normal: bool,
) -> dict[IWord, int | Fraction]:
    """Normal form of the product of two lists of canonical index terms.

    When the left words are normal words, only pairs touching a factor of
    the right word can be redexes, and only those are scanned.
    """
    oddf = P._oddf
    right = [
        (wb, cb, _odd_mask(P, wb), _mask(wb) if left_normal else _ALL_DIRTY)
        for wb, cb in right
    ]
    merged: dict[IWord, list] = {}
    for wa, ca in left:
        odd_a = _odd_mask(P, wa)
        for wb, cb, odd_b, dirty in right:
            word, sign = _merge(oddf, wb, wa, odd_a)
            if sign:
                # wa wb = (-1)^(odd(wa) odd(wb)) wb wa, and _merge sorted wb wa.
                if odd_a.bit_count() * odd_b.bit_count() % 2:
                    sign = -sign
                slot = merged.get(word)
                if slot is None:
                    merged[word] = [ca * cb * sign, dirty, odd_a | odd_b]
                else:
                    slot[0] += ca * cb * sign
                    slot[1] |= dirty
    out: dict[IWord, int | Fraction] = {}
    for word, (coeff, dirty, odd) in merged.items():
        if coeff:
            _reduce_into(out, P, word, coeff, dirty, odd)
    return out


def multiply(P: RingPresentation, a: GradedElement, b: GradedElement) -> GradedElement:
    """Product in the presented ring, returned in normal form."""
    (left, den_a), (right, den_b) = _index_terms(P, a), _index_terms(P, b)
    return _to_element(P, _times(P, left, right, False), den_a * den_b)


def product(P: RingPresentation, factors: Iterable[GradedElement]) -> GradedElement:
    """Ordered product of the factors in normal form; 1 for no factors.

    Each partial product is a normal form, so multiplying it by the next
    factor only scans pairs that touch that factor or a right-hand factor.
    Stops at the first zero partial product and reads no further factor:

    >>> P = RingPresentation((Generator("x", 1),), ())
    >>> product(P, [])
    GradedElement(terms={(): Fraction(1, 1)})
    >>> factors = iter([gen("x"), gen("x"), gen("x")])
    >>> product(P, factors)  # x is odd, so x*x = 0
    GradedElement(terms={})
    >>> next(factors)  # the third factor was never read
    GradedElement(terms={('x',): Fraction(1, 1)})
    """
    result: dict[IWord, int | Fraction] = {(): 1}
    den = 1
    for f in factors:
        right, den_f = _index_terms(P, f)
        result = {w: c for w, c in _times(P, result.items(), right, True).items() if c}
        den *= den_f
        if not result:
            break
    return _to_element(P, result, den)


# -- admissible monomial enumeration ------------------------------------------


def _admissible_words(
    P: RingPresentation, max_degree: int, names: Sequence[str]
) -> Iterator[Word]:
    """Canonical monomials in ``names`` of degree <= max_degree avoiding every rule lhs.

    ``names`` must list generators in registration order (a component, or all
    of ``P.generator_names()``).  Words are built with nondecreasing position
    in that list, so any candidate pair is already in canonical order for the
    rule lookup.
    """

    def extend(word: list[str], degree: int, start: int) -> Iterator[Word]:
        yield tuple(word)
        for i in range(start, len(names)):
            g = names[i]
            d = degree + P.degree(g)
            if d > max_degree:
                continue
            if word and word[-1] == g and g in P._odd:
                continue
            if any((prev, g) in P.rules for prev in set(word)):
                continue
            word.append(g)
            yield from extend(word, d, i)
            word.pop()

    return extend([], 0, 0)


def _count_admissible(P: RingPresentation, max_degree: int, names: Sequence[str]) -> list[int]:
    """Admissible monomials in ``names``, counted by degree up to max_degree."""
    dims = [0] * (max_degree + 1)
    for word in _admissible_words(P, max_degree, names):
        dims[P.word_degree(word)] += 1
    return dims


def _rule_components(P: RingPresentation) -> list[list[str]]:
    """Generators joined whenever (a, b) with a != b is a rule left side.

    Union-find over the rule left sides; each component lists its
    generators in registration order.
    """
    parent = {g: g for g in P.generator_names()}

    def find(g: str) -> str:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for a, b in P.rules:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    components: dict[str, list[str]] = {}
    for g in P.generator_names():
        components.setdefault(find(g), []).append(g)
    return list(components.values())


def poly_mul(a: list[int], b: list[int], max_degree: int) -> list[int]:
    """Product of integer coefficient lists, truncated above max_degree.

    Only the nonzero coefficients of either factor are visited: the
    component series of the fn gate have two nonzero coefficients each.
    """
    out = [0] * (max_degree + 1)
    b_terms = [(j, cb) for j, cb in enumerate(b[: max_degree + 1]) if cb]
    for i, ca in enumerate(a[: max_degree + 1]):
        if ca:
            for j, cb in b_terms:
                if i + j > max_degree:
                    break
                out[i + j] += ca * cb
    return out


def check_series_degree(max_degree: int) -> None:
    """Raise ValueError unless 0 <= max_degree <= MAX_SERIES_DEGREE."""
    if not 0 <= max_degree <= MAX_SERIES_DEGREE:
        raise ValueError(
            f"series degree {max_degree} is outside 0..{MAX_SERIES_DEGREE} (MAX_SERIES_DEGREE)"
        )


def poincare_series(P: RingPresentation, max_degree: int) -> list[int]:
    """Dimension of each graded piece up to max_degree.

    Counts canonical monomials containing no rule left side; for a confluent
    terminating presentation these are exactly the normal forms (diamond
    lemma, Bergman 1978).  Admissibility is pairwise: a word is admissible
    iff no odd generator repeats and no pair of its factors (a repeated
    factor included) is a rule left side.  Join a and b whenever (a, b) is a
    left side with a != b; then no left side straddles two components, so
    the admissible words are exactly the products of one admissible word
    per component, and the series is the truncated product of the
    component series.  Each component is counted by direct enumeration;
    enumerating over all generators at once gives the same series and is
    kept as the test oracle.

    >>> P = RingPresentation((Generator("x", 1), Generator("y", 1)), ())
    >>> poincare_series(P, 3)  # components {x} and {y}: (1 + t)^2
    [1, 2, 1, 0]
    """
    check_series_degree(max_degree)
    dims = [1] + [0] * max_degree
    for names in _rule_components(P):
        dims = poly_mul(dims, _count_admissible(P, max_degree, names), max_degree)
    return dims


# -- confluence ---------------------------------------------------------------


@dataclass(frozen=True)
class ConfluenceReport:
    passed: bool
    triples_checked: int
    failures: tuple[tuple[Word, str], ...]  # (triple, description)


def check_confluence(P: RingPresentation) -> ConfluenceReport:
    """Probe every degree-3 overlap: all one-step rewrites of every generator
    triple must share one normal form.

    For quadratic rules all genuinely overlapping critical pairs live in
    products of three generators, so this is the standard local-confluence
    probe; together with termination it covers the shipped rule families.
    Each probe takes the rewrite step of :func:`normal_form` itself, which
    the diamond lemma needs.  Stops after MAX_CONFLUENCE_FAILURES failures.
    """
    failures: list[tuple[Word, str]] = []
    checked = 0
    for triple in combinations_with_replacement(range(len(P.generators)), 3):
        word, sign = _sort_word(P._oddf, triple)
        if sign == 0:
            continue
        redexes = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if word[q] in P._rows[word[p]]]
        if len(redexes) < 2:
            continue
        checked += 1
        results: dict[frozenset, tuple[int, int]] = {}
        for p, q in redexes:
            nf: dict[IWord, int | Fraction] = {}
            entry = P._rows[word[p]][word[q]]
            for stepped, c, _, odd in _rewrite_step(P, word, _odd_mask(P, word), p, q, entry):
                _reduce_into(nf, P, stepped, c, _ALL_DIRTY, odd)
            fingerprint = frozenset((w, c) for w, c in nf.items() if c)
            results.setdefault(fingerprint, (p, q))
        if len(results) > 1:
            failures.append(
                (P._word_names(word), f"{len(results)} distinct normal forms from {redexes}")
            )
            if len(failures) >= MAX_CONFLUENCE_FAILURES:
                break
    return ConfluenceReport(passed=not failures, triples_checked=checked, failures=tuple(failures))


# -- serialization -------------------------------------------------------------


def presentation_to_dict(P: RingPresentation) -> dict:
    return {
        "name": P.name,
        "parity": "koszul",
        "generators": [
            {"id": g.name, "degree": g.degree, "rank": g.rank} for g in P.generators
        ],
        "rules": [
            {
                "lhs": list(lhs),
                "rhs": [
                    {"coeff": str(c), "monomial": list(w)} for w, c in sorted(rhs.terms.items())
                ],
            }
            for lhs, rhs in sorted(P.rules.items())
        ],
    }


def _require(ok: bool, message: str) -> None:
    """Raise ValueError, a malformed request (CLI exit 2), unless ok."""
    if not ok:
        raise ValueError(message)


def _json_list(value: Any, item: type, what: str) -> list:
    kind = "objects" if item is dict else "generator names"
    _require(
        isinstance(value, list) and all(isinstance(v, item) for v in value),
        f"{what} must be a list of {kind}",
    )
    return value


def _json_coefficient(value: Any) -> Fraction:
    """A JSON number or "p/q" string as a Fraction; bools and the rest raise."""
    try:
        if type(value) in (int, float, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"coefficient {value!r} is not a finite rational")


def presentation_from_dict(data: Mapping) -> RingPresentation:
    """Inverse of presentation_to_dict.

    A document not in the shape it writes raises ValueError, and a missing
    key KeyError.  Only the Koszul sign rule exists, so any other ``parity``
    raises PresentationError.
    """
    _require(isinstance(data, Mapping), "a presentation must be a JSON object")
    parity = data.get("parity", "koszul")
    if parity != "koszul":
        raise PresentationError(f"unsupported parity {parity!r}: only 'koszul' is implemented")
    name = data.get("name", "")
    _require(isinstance(name, str), f"presentation name must be a string, got {name!r}")
    gens = []
    for g in _json_list(data["generators"], dict, '"generators"'):
        gid, degree, rank = g["id"], g["degree"], g.get("rank", 0)
        _require(
            isinstance(gid, str) and type(degree) is int and type(rank) is int,
            f"generator {g} needs a string id and an integer degree and rank",
        )
        gens.append(Generator(gid, degree, rank))
    rules = []
    for r in _json_list(data.get("rules", []), dict, '"rules"'):
        lhs = tuple(_json_list(r["lhs"], str, "a rule lhs"))
        _require(len(lhs) == 2, f"a rule lhs must name two generators, got {r['lhs']!r}")
        terms = [
            (_json_coefficient(t["coeff"]), tuple(_json_list(t["monomial"], str, "a monomial")))
            for t in _json_list(r["rhs"], dict, f"the rhs of rule {r['lhs']!r}")
        ]
        rules.append(RewriteRule(lhs, element(terms)))
    return RingPresentation(gens, rules, name=name)


def load_presentation_json(path: str) -> RingPresentation:
    """Load a presentation from JSON and gate it on the confluence check."""
    with open(path) as fh:
        P = presentation_from_dict(json.load(fh))
    report = check_confluence(P)
    if not report.passed:
        raise PresentationError(
            f"presentation {P.name or path!r} failed the confluence check: "
            f"{report.failures[0][1]} on {report.failures[0][0]}"
        )
    return P
