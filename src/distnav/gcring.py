"""Exact rewrite engine for finitely presented graded-commutative rings over Q.

A ring is presented by generators (each with a positive integer degree) and a
set of directed quadratic rewrite rules: an ordered pair of generators on the
left, a linear combination of monomials of the same degree on the right.
Multiplication follows the Koszul sign convention: swapping two odd-degree
factors flips the sign, and the square of an odd-degree generator vanishes
(implicitly: coefficients are rational, so 2x^2 = 0 forces x^2 = 0), so a
rule on the square of an odd generator must have an empty right side.
Termination is guaranteed by construction: every generator carries an integer
``rank`` and every rule must strictly decrease the multiset of ranks
(Dershowitz-Manna order, checked through its descending-lexicographic
linearization).  Public values are tuples of generator names sorted in
registration order, with ``Fraction`` coefficients; all the rest runs on
integer codes, and the coding stays in this module.

* Rule table.  Each rule is coded in the pass that admits it, under both
  generators of its left side: per generator its rule partners, each with
  the rule's right-hand index words and coefficients (ints when integral,
  as on every shipped ring).  The kernel and all checks read this table.
* Words.  A word is a sorted tuple of generator indices.  A rewrite step
  removes the two rewritten factors and merges each right-hand factor into
  the sorted rest; the Koszul sign is the parity of the odd factors each
  moved factor passes, read off a bit set of the word's odd generators.
* Codes.  An input element is scaled to integer coefficients over a common
  denominator, so integral rules keep the arithmetic in ints.  An element
  caches its code for the ring it was made for (identity, not equality), a
  kernel result the code it was decoded from when that is exactly the
  encoding; elements are never mutated.  An element naming a generator the
  ring lacks raises ValueError, such as ``unknown generator 'zz' in cp3``.
* Redex order.  :func:`normal_form` and :func:`multiply` rewrite the
  leftmost redex.  A :class:`Chain` keeps a running product coded, a normal
  form, so multiplying it by the next factor searches only pairs touching a
  factor of the new word or one a rule brought in; only its value decodes.
  :func:`product` and every chain of :mod:`distnav.bounds` run on it.  Every
  order gives the same normal form on a terminating confluent presentation
  (diamond lemma, Bergman 1978).
* Gates.  :func:`poincare_series` counts admissible words, the normal forms
  of a confluent presentation, per component of the rule-partner graph by a
  recursion on bit sets.  :func:`check_confluence` probes the triples of a
  generator and two of its rule partners; every shipped ring passes it, and
  loaded rings are gated on it.  The name-level enumerations of both gates
  stay in the tests as oracles.
* Ring maps.  A :class:`RingMap` runs on the same coding.  Generators with
  equal images share a class, and :func:`apply_ring_map` and
  :func:`validate_ring_map` share one memo of word images per tuple of
  classes, each a product of normal forms.  :func:`validate_ring_map`
  first tries to settle a rule by renaming: where the map sends each of
  its letters to one generator, the renamed rule must be, term for term
  and up to the Koszul sign, a rule of the ring whose right side is
  normal.  That settles every rule of a fiber-power diagonal; every other
  rule is compared on normal forms from the memo.

Example: one even generator ``a`` truncated above a^2, i.e. rules
a*a -> a2, a*a2 -> 0, a2*a2 -> 0:

    >>> P = RingPresentation(
    ...     generators=(Generator("a", 2), Generator("a2", 4)),
    ...     rules=(
    ...         (("a", "a"), element([(1, ("a2",))])),
    ...         (("a", "a2"), zero()),
    ...         (("a2", "a2"), zero()),
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
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, lcm
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Generator",
    "GradedElement",
    "Rule",
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
    "Chain",
    "RingMap",
    "apply_ring_map",
    "validate_ring_map",
    "is_zero",
    "element_degree",
    "poincare_series",
    "ring_top_degree",
    "MAX_SERIES_DEGREE",
    "MAX_SERIES_WORDS",
    "MAX_SERIES_PRODUCTS",
    "MAX_LITERAL_EXPONENT",
    "MAX_LITERAL_LENGTH",
    "MAX_REWRITE_STEPS",
    "parse_rational",
    "json_rational",
    "json_list",
    "check_series_degree",
    "MAX_RING_RULES",
    "check_rule_count",
    "poly_mul",
    "check_confluence",
    "MAX_CONFLUENCE_CANDIDATES",
    "ConfluenceReport",
    "element_to_json",
    "presentation_to_dict",
    "presentation_from_dict",
    "read_json_file",
    "MAX_JSON_BYTES",
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

# Words one Poincare series may enumerate, over all components: about 1 s at
# 1 us a word.  A loaded chain of 24 degree-2 generators (g_i * g_(i+1) -> 0)
# counted 43508106 to degree 24 in 40.8 s; shipped rings and gates count < 2000.
MAX_SERIES_WORDS = 2**20

# Coefficient products one Poincare series may form in poly_mul, counted as
# the nonzero coefficients of each pair of factors before their product.
# Loaded rule-free degree-2 generators to degree 512 (257 nonzero each) took
# 20.8 s for 4000 of them, under the word cap; 31, just under this cap, take
# 0.11 s (shared 2-core host).  The fn gates at the degree cap form the most:
# 261632 at (2,2,1,510) and 65792 at (3,2,1,255); every other shipped ring or
# gate forms at most 1560.
MAX_SERIES_PRODUCTS = 2**21

# Rules a ring may have, counted before any generator is built: in closed
# form by the catalog builders, in the document for a loaded one.  Building
# a ring, rule admission and dimension gate included, took 22 to 62 us per
# rule just under the cap (cp255, conf:d=2,k=59, fn:d=2,m=2,n=44,r=2: 0.7
# to 1.9 s; conf:d=2,k=120, 280840 rules, 23 s; shared 2-core host).
MAX_RING_RULES = 2**15

# Bytes read_json_file reads of a file before it refuses it.  The largest
# file a supported request reads is a presentation just under
# MAX_RING_RULES: conf:d=2,k=59 (32509 rules) is 4.8 MB as compact JSON and
# 11.4 MB indented by two spaces.
MAX_JSON_BYTES = 2**25

# Rewrite steps one word may take to its normal form, in normal_form,
# multiply, product and every chain on them.  The word w_1_k ... w_(k-1)_k
# of conf:d=3,k takes 2^(k-2) - 1 steps: 16383 at k=16 (0.42 s), and at
# k=20 10.3 s and 106 MB of printed terms.  The most any other supported
# request takes is 2047, the fn witness at d=2, m=2, n=11, r=2 (an even-d
# witness word takes 2^(m+n-2) - 1, an odd-d one 2^m - 1, both bounded by
# MAX_WITNESS_WORK); the Tier-1 tests take at most 63, the benchmark 23.
MAX_REWRITE_STEPS = 2**12

# Failed triples the confluence report lists before the probe stops.
MAX_CONFLUENCE_FAILURES = 20

# Candidate triples the confluence probe may visit, counted before any is
# built: the sum over generators of p (p + 1) / 2 for p rule partners.  One
# took 45 to 47 us on conf:d=2,k=25 (42550, 1.9 s) and conf:d=2,k=40 (293930,
# 13.9 s; single runs, shared 2-core host), so the cap is about 3 s of work.
MAX_CONFLUENCE_CANDIDATES = 2**16

# Largest size of the decimal exponent of a rational literal ("2.5e-3"),
# read off the text: Fraction builds the power of ten itself, 1e1000 in
# 40 us, 1e1000000 in 0.36 s and 1e4000000 in 2.8 s (shared 2-core host).
MAX_LITERAL_EXPONENT = 1000

# Longest text of a rational literal.  Within the exponent cap a literal of
# L characters has at most L + 1001 digits above and below the line, so it
# prints within Python's 4300-digit int-to-str limit, which 4000 nines then
# e1000, within the exponent cap, would not.
MAX_LITERAL_LENGTH = 3000


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
class GradedElement:
    """A finite Q-linear combination of canonical monomials.

    ``terms`` maps canonical factor tuples to nonzero rational coefficients.
    Instances are immutable values; all arithmetic returns fresh objects.
    An element caches its code in the rewrite kernel's coding, with the ring
    it was made for, in ``_code``, which is neither compared nor shown, so
    ``terms`` must never be mutated.
    """

    terms: Mapping[Word, Fraction] = field(default_factory=dict)
    _code: tuple[RingPresentation, list[tuple[IWord, int | Fraction]], int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "terms",
            {w: c if type(c) is Fraction else Fraction(c) for w, c in self.terms.items() if c != 0},
        )

    def __bool__(self) -> bool:
        return bool(self.terms)


Rule = tuple[tuple[str, str], GradedElement]  # (lhs, rhs), checked by RingPresentation

# The coefficient of gen and one; a Fraction is immutable, so one is shared.
_ONE = Fraction(1)


def zero() -> GradedElement:
    return GradedElement({})


def one() -> GradedElement:
    return GradedElement({(): _ONE})


def element(terms: Iterable[tuple[int | Fraction, Word]]) -> GradedElement:
    """Build an element from (coefficient, factor tuple) pairs, merging keys."""
    acc: dict[Word, Fraction] = {}
    for coeff, word in terms:
        coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
        acc[word] = acc[word] + coeff if word in acc else coeff
    return GradedElement(acc)


class RingPresentation:
    """A finitely presented graded-commutative ring with directed rules.

    Rules come as (lhs, rhs) pairs, a left side at most once.  Besides the
    name-level view (``generators``, ``rules`` from each lhs to its rhs) it
    holds the coded rule table, filled as each rule is admitted: the rule on
    the left side (i, j), i <= j, is the one entry ``_partners[i][j]`` and
    ``_partners[j][i]``.  An entry lists the right-hand terms as (index
    word, coefficient, bit set of its generators, bit set of its odd
    generators); a term with a repeated odd factor vanishes and is left out.
    """

    def __init__(
        self,
        generators: Sequence[Generator],
        rules: Iterable[Rule],
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
        self._oddf = tuple(g.degree % 2 for g in self.generators)
        self._oddbit = tuple(odd << i for i, odd in enumerate(self._oddf))
        self.rules: dict[tuple[str, str], GradedElement] = {}
        self._partners: list[dict[int, tuple]] = [{} for _ in self.generators]
        for lhs, rhs in rules:
            self._admit_rule(lhs, rhs)

    # -- structural checks -------------------------------------------------

    def _admit_rule(self, lhs: tuple[str, str], rhs: GradedElement) -> None:
        """Check one rule and enter it, coded, in the rule table."""
        a, b = lhs
        for g in (a, b):
            if g not in self._index:
                raise PresentationError(f"rule {lhs} uses unknown generator {g!r}")
        i, j = self._index[a], self._index[b]
        if i > j:
            raise PresentationError(f"rule lhs {lhs} not in canonical order")
        if lhs in self.rules:
            raise PresentationError(f"duplicate rule for pair {lhs}")
        if i == j and self._oddf[i] and rhs.terms:
            # x^2 = -x^2 over Q, so x^2 = 0: a nonzero right side would
            # force a relation the engine never applies, since it drops odd
            # squares before any rule can see them.
            raise PresentationError(f"rule {lhs} gives the square of odd generator {a!r} a nonzero right side")
        lhs_degree = self._degree[a] + self._degree[b]
        lhs_key = self._termination_key(lhs)
        entry = []
        for word, coeff in rhs.terms.items():
            try:
                degree = self.word_degree(word)
            except KeyError as exc:
                raise PresentationError(f"rule {lhs} uses unknown generator {exc.args[0]!r}") from None
            if degree != lhs_degree:
                raise PresentationError(f"rule {lhs}: rhs term {word} has degree {degree}, lhs has {lhs_degree}")
            iword = tuple(self._index[g] for g in word)
            if list(iword) != sorted(iword):
                raise PresentationError(f"rule {lhs}: rhs term {word} not canonical")
            if not self._termination_key(word) < lhs_key:
                raise PresentationError(
                    f"rule {lhs}: rhs term {word} does not decrease the termination order"
                )
            odd = [g for g in iword if self._oddf[g]]
            if len(set(odd)) == len(odd):
                c = coeff.numerator if coeff.denominator == 1 else coeff
                entry.append((iword, c, _mask(iword), _odd_mask(self, iword)))
        self.rules[lhs] = rhs
        self._partners[i][j] = self._partners[j][i] = tuple(entry)

    def _termination_key(self, word: Word) -> tuple[int, ...]:
        # Descending rank multiset; Python's tuple order (prefixes smaller)
        # linearizes the Dershowitz-Manna multiset order on these keys.
        return tuple(sorted((self._rank[g] for g in word), reverse=True))

    # -- basic queries ------------------------------------------------------

    def degree(self, name: str) -> int:
        return self._degree[name]

    def word_degree(self, word: Word) -> int:
        return sum(self._degree[g] for g in word)

    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def _word_names(self, iword: IWord) -> Word:
        return tuple(map(self._names.__getitem__, iword))


# -- element arithmetic ------------------------------------------------------


def add(a: GradedElement, b: GradedElement) -> GradedElement:
    acc = dict(a.terms)
    for word, coeff in b.terms.items():
        acc[word] = acc[word] + coeff if word in acc else coeff
    return GradedElement(acc)


def scale(c: int | Fraction, a: GradedElement) -> GradedElement:
    c = Fraction(c)
    return GradedElement({w: c * v for w, v in a.terms.items()})


def subtract(a: GradedElement, b: GradedElement) -> GradedElement:
    return add(a, scale(-1, b))


def gen(name: str) -> GradedElement:
    """The element consisting of the single generator ``name``."""
    return GradedElement({(name,): _ONE})


def is_zero(a: GradedElement) -> bool:
    return not a.terms


def element_degree(P: RingPresentation, a: GradedElement) -> int | None:
    """Common degree of the terms, None for 0, error if inhomogeneous."""
    _index_terms(P, a)  # names a generator P does not have
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
    Only raw input words come here."""
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
    partners = P._partners
    if dirty == _ALL_DIRTY:
        for p in range(n - 1):
            row = partners[word[p]]
            if row:
                for q in range(p + 1, n):
                    entry = row.get(word[q])
                    if entry is not None:
                        return p, q, entry
        return None
    # Each dirty generator in the word is looked up at its first position q;
    # the word is sorted, so its rule partners are found by bisection.
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
    its other factors was a pair of the parent.  Over MAX_REWRITE_STEPS
    rewrite steps raise ValueError.
    """
    work = [(word, 1, dirty, odd)]
    steps = MAX_REWRITE_STEPS
    while work:
        word, c, dirty, odd = work.pop()
        redex = _find_redex(P, word, dirty)
        if redex is None:
            out[word] = out.get(word, 0) + coeff * c
            continue
        if not steps:
            raise ValueError(
                f"rewriting a word in {P.name!r} takes over the cap of "
                f"{MAX_REWRITE_STEPS} steps (MAX_REWRITE_STEPS)"
            )
        steps -= 1
        p, q, entry = redex
        for stepped, rc, mask, stepped_odd in _rewrite_step(P, word, odd, p, q, entry):
            work.append((stepped, c * rc, dirty | mask, stepped_odd))


def _index_terms(
    P: RingPresentation, a: GradedElement
) -> tuple[list[tuple[IWord, int]], int]:
    """a's terms as canonical index words with integer coefficients, and
    their common denominator: a = sum(c * word) / den.

    Raw words (unsorted, or with a repeated odd factor) are canonicalized;
    a word naming no generator of P raises ValueError.  The code is cached
    on ``a`` for this very ring (identity, not equality) and shared: callers
    must not mutate it.
    """
    cached = a._code
    if cached is not None and cached[0] is P:
        return cached[1], cached[2]
    den = 1
    for coeff in a.terms.values():
        if coeff.denominator != 1:
            den = lcm(den, coeff.denominator)
    index, oddf = P._index, P._oddf
    terms = []
    for word, coeff in a.terms.items():
        try:
            iword, sign = _sort_word(oddf, [index[g] for g in word])
        except KeyError as exc:
            raise ValueError(f"unknown generator {exc.args[0]!r} in {P.name or 'an unnamed ring'}") from None
        if sign:
            c = coeff.numerator * (den // coeff.denominator)
            terms.append((iword, c if sign > 0 else -c))
    object.__setattr__(a, "_code", (P, terms, den))
    return terms, den


def _to_element(
    P: RingPresentation, acc: Mapping[IWord, int | Fraction], den: int
) -> GradedElement:
    """The element sum(c * word) / den over the nonzero c of ``acc``.

    The words of ``acc`` are canonical.  With int numerators over den = 1
    (every shipped ring on integral inputs) the nonzero terms of ``acc``, in
    order, are exactly what :func:`_index_terms` would compute, so the
    result keeps them as its code; otherwise it is encoded when first used.
    """
    code = [(w, c) for w, c in acc.items() if c]
    coded = den == 1 and all(type(c) is int for _, c in code)
    terms = {P._word_names(w): Fraction(c, den) for w, c in code}
    # The values are nonzero Fractions already, so GradedElement's own
    # conversion is skipped.
    result = object.__new__(GradedElement)
    object.__setattr__(result, "terms", terms)
    if coded:
        object.__setattr__(result, "_code", (P, code, 1))
    return result


def _normal_terms(P: RingPresentation, a: GradedElement) -> tuple[dict[IWord, int | Fraction], int]:
    """a's normal form in the kernel's coding: normal index words with
    numerators over a common denominator (a numerator may be 0)."""
    terms, den = _index_terms(P, a)
    out: dict[IWord, int | Fraction] = {}
    for word, coeff in terms:
        _reduce_into(out, P, word, coeff, _ALL_DIRTY, _odd_mask(P, word))
    return out, den


def normal_form(P: RingPresentation, a: GradedElement) -> GradedElement:
    """Rewrite until no rule applies.  Terminates by the rank-multiset order."""
    return _to_element(P, *_normal_terms(P, a))


def _times(
    P: RingPresentation,
    left: Iterable[tuple[IWord, int | Fraction]],
    right: Iterable[tuple[IWord, int | Fraction]],
    left_normal: bool,
) -> dict[IWord, int | Fraction]:
    """Normal form, nonzero terms only, of the product of two coded term lists.

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
    return {w: c for w, c in out.items() if c}


def multiply(P: RingPresentation, a: GradedElement, b: GradedElement) -> GradedElement:
    """Product in the presented ring, returned in normal form."""
    (left, den_a), (right, den_b) = _index_terms(P, a), _index_terms(P, b)
    return _to_element(P, _times(P, left, right, False), den_a * den_b)


class Chain:
    """A running product in P, held as a normal form in the kernel's coding.

    ``times(x)`` multiplies it by x: a nonzero product is kept (True), a zero
    one leaves the chain as it was (False).  ``length`` counts the factors
    kept, ``size`` the terms of the product; only :meth:`value` decodes.
    """

    def __init__(self, P: RingPresentation) -> None:
        self.ring, self.length, self._terms, self._den = P, 0, {(): 1}, 1

    @property
    def size(self) -> int:
        return len(self._terms)

    def times(self, x: GradedElement) -> bool:
        right, den = _index_terms(self.ring, x)
        terms = _times(self.ring, self._terms.items(), right, True)
        if terms:
            self._terms, self._den, self.length = terms, self._den * den, self.length + 1
        return bool(terms)

    def value(self) -> GradedElement:
        return _to_element(self.ring, self._terms, self._den)


def product(P: RingPresentation, factors: Iterable[GradedElement]) -> GradedElement:
    """Ordered product of the factors in normal form, a fold over one
    :class:`Chain`; 1 for none.  Stops at the first zero partial product:

    >>> P = RingPresentation((Generator("x", 1),), ())
    >>> product(P, [])
    GradedElement(terms={(): Fraction(1, 1)})
    >>> factors = iter([gen("x"), gen("x"), gen("x")])
    >>> product(P, factors)  # x is odd, so x*x = 0
    GradedElement(terms={})
    >>> next(factors)  # the third factor was never read
    GradedElement(terms={('x',): Fraction(1, 1)})
    """
    chain = Chain(P)
    return chain.value() if all(map(chain.times, factors)) else zero()


# -- ring maps -------------------------------------------------------------------


@dataclass(frozen=True)
class RingMap:
    """A ring endomorphism given on generators; monomials map multiplicatively.

    Its memo: class ids by generator index and by image code, and coded word
    images (normal words with nonzero numerators, and the denominator) by
    tuple of class ids, a one-letter key holding the class's own image.
    """

    ring: RingPresentation
    images: Mapping[str, GradedElement]
    _class_ids: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _class_keys: dict[tuple, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _words: dict[tuple[int, ...], tuple[dict[IWord, int | Fraction], int]] = field(
        default_factory=lambda: {(): ({(): 1}, 1)}, init=False, repr=False, compare=False
    )


def _class_of(f: RingMap, g: int) -> int:
    """The class id of generator index g; its image is encoded in normal
    form the first time the class is asked for."""
    cid = f._class_ids.get(g)
    if cid is None:
        terms, den = _normal_terms(f.ring, f.images[f.ring.generators[g].name])
        image = {w: c for w, c in terms.items() if c}
        cid = f._class_keys.setdefault((tuple(image.items()), den), len(f._class_keys))
        f._words.setdefault((cid,), (image, den))
        f._class_ids[g] = cid
    return cid


def _word_image(f: RingMap, word: IWord) -> tuple[dict[IWord, int | Fraction], int]:
    """The coded image of an index word, memoized per tuple of class ids.

    The word is folded left to right: each memoized prefix image, a normal
    form, is multiplied by the next class's image.  The fold stops at the
    first zero partial product and reads no further image.
    """
    words = f._words
    key: tuple[int, ...] = ()
    image, den = words[key]
    for g in word:
        if not image:
            break
        key += (_class_of(f, g),)
        found = words.get(key)
        if found is None:
            right, den_g = words[key[-1:]]
            found = words[key] = (_times(f.ring, image.items(), right.items(), True), den * den_g)
        image, den = found
    return image, den


def _image_sum(
    f: RingMap, terms: Iterable[tuple[IWord, int | Fraction]]
) -> dict[IWord, int | Fraction]:
    """f of the coded terms: normal words with coefficients (some may be 0).
    A sum of normal words is normal, so it needs no closing normal form."""
    total: dict[IWord, int | Fraction] = {}
    for word, coeff in terms:
        image, den = _word_image(f, word)
        for w, c in image.items():
            total[w] = total.get(w, 0) + (coeff * c if den == 1 else Fraction(coeff * c, den))
    return total


def apply_ring_map(f: RingMap, a: GradedElement) -> GradedElement:
    """Image of ``a``, in normal form.

    >>> P = RingPresentation((Generator("x", 2), Generator("y", 2)), ())
    >>> f = RingMap(P, {"x": gen("y"), "y": gen("y")})  # collapse x onto y
    >>> apply_ring_map(f, subtract(gen("x"), gen("y")))  # a kernel class
    GradedElement(terms={})
    >>> apply_ring_map(f, gen("y"))
    GradedElement(terms={('y',): Fraction(1, 1)})
    """
    terms, den = _index_terms(f.ring, a)
    return _to_element(f.ring, _image_sum(f, terms), den)


def _renaming(P: RingPresentation, images: Sequence[GradedElement]) -> list[int | None]:
    """Per generator index, the index of the generator its image is, read
    off the image's code: one generator with coefficient 1 over
    denominator 1; None for any other image."""
    rename: list[int | None] = []
    for image in images:
        terms, den = _index_terms(P, image)
        renamed = den == 1 and len(terms) == 1 and len(terms[0][0]) == 1 and terms[0][1] == 1
        rename.append(terms[0][0][0] if renamed else None)
    return rename


def _settled_by_renaming(P: RingPresentation, rename: Sequence[int | None], i: int, j: int) -> bool:
    """Whether the rule (i, j) -> R holds under a map that renames i, j and
    every letter of R, with no product formed.

    The renamed left side, sorted with its Koszul sign s, must be the left
    side of a rule whose right side R', times s, is the renamed R term for
    term; then f(i)f(j) = s R' = f(R) in the ring.  Every renamed word of R
    must be a word of R', and every word of R' a normal word, so the memo
    comparison of :func:`validate_ring_map` forms no product past the one
    rewrite step of the renamed left side and reaches the same verdict.
    """
    x, y = rename[i], rename[j]
    if x is None or y is None:
        return False
    oddf = P._oddf
    (x, y), sign = _sort_word(oddf, (x, y))
    target = P._partners[x].get(y) if sign else None
    if target is None:
        return False
    image = {w: sign * c for w, c, _, _ in target}
    renamed: dict[IWord, int | Fraction] = {}
    for word, coeff, _, _ in P._partners[i][j]:
        letters = [rename[g] for g in word]
        if None in letters:
            return False
        w, s = _sort_word(oddf, letters)
        if s:
            if w not in image:
                return False
            renamed[w] = renamed.get(w, 0) + s * coeff
    if {w: c for w, c in renamed.items() if c} != image:
        return False
    return all(_find_redex(P, w, _ALL_DIRTY) is None for w in image)


def validate_ring_map(f: RingMap) -> None:
    """Check that f kills every defining relation of the ring.

    For each rule lhs -> rhs the images of both sides must agree; otherwise
    f is not a ring map and certificates built from it would be meaningless.
    A rule that f renames onto a rule of the ring is settled with no product
    formed (:func:`_settled_by_renaming`), so it cannot reach
    MAX_REWRITE_STEPS.  Every other rule is compared on normal forms: the
    left side is the image of its two-letter word, the right the image of
    the rule's coded right-hand terms, scaled by the left's denominator.
    Both come from the map's memo, so a collapse map, which sends many
    generators to one image, multiplies each pair of classes once.  The
    shortcut passes only rules the comparison passes, so the rules are
    still judged in ``P.rules`` order, and the first rule whose sides
    differ is the one reported.
    """
    P = f.ring
    for name in P.generator_names():
        if name not in f.images:
            raise PresentationError(f"ring map misses generator {name!r}")
        img_deg = element_degree(P, f.images[name])
        if img_deg is not None and img_deg != P.degree(name):
            raise PresentationError(
                f"ring map image of {name!r} has degree {img_deg}, expected {P.degree(name)}"
            )
    rename = _renaming(P, [f.images[name] for name in P.generator_names()])
    for a, b in P.rules:
        i, j = P._index[a], P._index[b]
        if _settled_by_renaming(P, rename, i, j):
            continue
        lhs, den = _word_image(f, (i, j))
        rhs = _image_sum(f, ((w, c) for w, c, _, _ in P._partners[i][j]))
        if lhs != {w: c * den for w, c in rhs.items() if c}:
            raise PresentationError(f"ring map does not respect the rule on ({a}, {b})")


# -- admissible monomial counting ----------------------------------------------


def _exclusions(P: RingPresentation) -> list[int]:
    """Per generator index, the bit set of the generators it may not share
    a word with: its rule partners, and itself when it is odd."""
    return [sum(1 << h for h in row) | odd for row, odd in zip(P._partners, P._oddbit)]


def _rule_components(exclusions: Sequence[int]) -> list[list[int]]:
    """Generator indices joined whenever one excludes the other, by a flood
    fill over these bit sets; each component sorted."""
    components = []
    unseen = (1 << len(exclusions)) - 1
    while unseen:
        component = frontier = unseen & -unseen
        members = []
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            members.append(low.bit_length() - 1)
            grown = exclusions[members[-1]] & ~component
            component |= grown
            frontier |= grown
        unseen &= ~component
        components.append(sorted(members))
    return components


def _count_admissible(slots: Sequence[tuple[int, int, int]], max_degree: int, budget: int) -> tuple[list[int], bool]:
    """Admissible words over ``slots``, (degree, exclusions, own bit) per
    generator, counted by degree up to max_degree, and whether any passes
    max_degree: a word less a factor is admissible, so such a word extends
    a counted one.  Words grow with nondecreasing slot, carried as the bit
    set of their generators: g may join unless it excludes one of them,
    itself included.  Raises ValueError on enumerating word ``budget + 1``."""
    dims = [0] * (max_degree + 1)
    words, past = 0, False

    def extend(start: int, degree: int, used: int) -> None:
        nonlocal words, past
        words += 1
        if words > budget:
            cap = f"{MAX_SERIES_WORDS} admissible words (MAX_SERIES_WORDS)"
            raise ValueError(f"Poincare series to degree {max_degree} counts over {cap}")
        dims[degree] += 1
        for pos in range(start, len(slots)):
            step, excluded, bit = slots[pos]
            if degree + step <= max_degree:
                if not excluded & used:
                    extend(pos, degree + step, used | bit)
            elif not excluded & used:
                past = True

    extend(0, 0, 0)
    return dims, past


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


def check_rule_count(name: str, count: int) -> None:
    """Raise ValueError when the ring ``name`` would have over MAX_RING_RULES rules."""
    if count > MAX_RING_RULES:
        raise ValueError(f"{name} has {count} rules, over the cap of {MAX_RING_RULES} (MAX_RING_RULES)")


def _component_series(P: RingPresentation, max_degree: int) -> Iterator[tuple[list[int], bool]]:
    """Per component of the exclusion graph (:func:`_rule_components`), its
    series up to max_degree and whether one of its words passes it, counted
    under one budget of MAX_SERIES_WORDS words over all components."""
    exclusions, budget = _exclusions(P), MAX_SERIES_WORDS
    for members in _rule_components(exclusions):
        slots = [(P.generators[g].degree, exclusions[g], 1 << g) for g in members]
        series, past = _count_admissible(slots, max_degree, budget)
        budget -= sum(series)
        yield series, past


def poincare_series(P: RingPresentation, max_degree: int) -> list[int]:
    """Dimension of each graded piece up to max_degree.

    Counts canonical monomials containing no rule left side, the normal
    forms of a confluent terminating presentation (diamond lemma, Bergman
    1978).  Admissibility is pairwise: no generator shares a word with one
    it excludes (:func:`_exclusions`), so the series is the truncated product
    of the series of the components of the exclusion graph.  The name-level
    enumeration over all generators stays in the tests as the oracle.
    Raises ValueError past MAX_SERIES_WORDS words over all components, or
    past MAX_SERIES_PRODUCTS coefficient products, counted before each one.

    >>> P = RingPresentation((Generator("x", 1), Generator("y", 1)), ())
    >>> poincare_series(P, 3)  # components {x} and {y}: (1 + t)^2
    [1, 2, 1, 0]
    """
    check_series_degree(max_degree)
    dims, products = [1] + [0] * max_degree, 0
    for series, _ in _component_series(P, max_degree):
        products += (len(dims) - dims.count(0)) * (len(series) - series.count(0))
        if products > MAX_SERIES_PRODUCTS:
            cap = f"{MAX_SERIES_PRODUCTS} coefficient products (MAX_SERIES_PRODUCTS)"
            raise ValueError(f"Poincare series to degree {max_degree} forms over {cap}")
        dims = poly_mul(dims, series, max_degree)
    return dims


def ring_top_degree(P: RingPresentation) -> int:
    """Largest degree with a nonzero graded piece: the sum of the top degrees
    of the component series of :func:`poincare_series`, which have
    nonnegative coefficients and multiply.  Raises ValueError when a
    component has a word past MAX_SERIES_DEGREE, since the top degree is
    then not known, or past MAX_SERIES_WORDS words over all components.
    """
    top = 0
    for series, past in _component_series(P, MAX_SERIES_DEGREE):
        if past:
            raise ValueError(
                f"{P.name} has a nonzero piece past degree {MAX_SERIES_DEGREE} "
                f"(MAX_SERIES_DEGREE), so its top degree is not known"
            )
        top += max(deg for deg, dim in enumerate(series) if dim)
    return top


# -- confluence ---------------------------------------------------------------


@dataclass(frozen=True)
class ConfluenceReport:
    triples_checked: int
    failures: tuple[tuple[Word, str], ...]  # (triple, description)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_confluence(P: RingPresentation) -> ConfluenceReport:
    """Probe every degree-3 overlap: all one-step rewrites of a generator
    triple must share one normal form.

    For quadratic rules all genuinely overlapping critical pairs live in
    products of three generators, so this is the standard local-confluence
    probe; together with termination it covers the shipped rule families.
    Two redexes of a triple share a factor s, and the other two are rule
    partners of s, so only the triples sorted((s, a, b)) for partners a <= b
    of s are visited, in the order of the full enumeration of triples (the
    test oracle); over MAX_CONFLUENCE_CANDIDATES such (s, a, b) raise
    ValueError before any is built.  Each probe takes the rewrite step of
    :func:`normal_form` itself, which the diamond lemma needs.  Stops after
    MAX_CONFLUENCE_FAILURES failures.
    """
    size = sum(len(row) * (len(row) + 1) // 2 for row in P._partners)
    if size > MAX_CONFLUENCE_CANDIDATES:
        raise ValueError(
            f"confluence probe of {P.name!r} has {size} candidate triples, over the cap "
            f"of {MAX_CONFLUENCE_CANDIDATES} (MAX_CONFLUENCE_CANDIDATES)"
        )
    triples = set()
    for s, row in enumerate(P._partners):
        partners = sorted(row)
        for x, a in enumerate(partners):
            triples.update(tuple(sorted((s, a, b))) for b in partners[x:])
    oddf, table = P._oddf, P._partners
    failures: list[tuple[Word, str]] = []
    checked = 0
    for word in sorted(triples):
        if any(word[p] == word[p + 1] and oddf[word[p]] for p in (0, 1)):
            continue  # a repeated odd factor: the word vanishes
        redexes = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if word[q] in table[word[p]]]
        checked += 1
        results = set()
        for p, q in redexes:
            nf: dict[IWord, int | Fraction] = {}
            for stepped, c, _, odd in _rewrite_step(P, word, _odd_mask(P, word), p, q, table[word[p]][word[q]]):
                _reduce_into(nf, P, stepped, c, _ALL_DIRTY, odd)
            results.add(frozenset((w, c) for w, c in nf.items() if c))
        if len(results) > 1:
            failures.append(
                (P._word_names(word), f"{len(results)} distinct normal forms from {redexes}")
            )
            if len(failures) >= MAX_CONFLUENCE_FAILURES:
                break
    return ConfluenceReport(triples_checked=checked, failures=tuple(failures))


# -- serialization -------------------------------------------------------------


def element_to_json(a: GradedElement) -> list[dict]:
    """a's terms as {"coeff", "monomial"} objects sorted by monomial, as
    presentation files write rule right sides and certificates their factors."""
    return [{"coeff": str(c), "monomial": list(w)} for w, c in sorted(a.terms.items())]


def presentation_to_dict(P: RingPresentation) -> dict:
    return {
        "name": P.name,
        "parity": "koszul",
        "generators": [
            {"id": g.name, "degree": g.degree, "rank": g.rank} for g in P.generators
        ],
        "rules": [{"lhs": list(lhs), "rhs": element_to_json(rhs)} for lhs, rhs in sorted(P.rules.items())],
    }


def _require(ok: bool, message: str) -> None:
    """Raise ValueError, a malformed request (CLI exit 2), unless ok."""
    if not ok:
        raise ValueError(message)


def json_list(value: Any, item: type, what: str) -> list:
    """value if it is a list of ``item`` (dict or str), else ValueError."""
    kind = "objects" if item is dict else "generator names"
    _require(
        isinstance(value, list) and all(isinstance(v, item) for v in value),
        f"{what} must be a list of {kind}",
    )
    return value


def parse_rational(text: str, invalid: str) -> Fraction:
    """The rational literal ``text`` ("3/2", "-2.5e-3") as a Fraction, for
    every boundary that takes one.  Raises ValueError naming the cap, before
    Fraction reads the text, when its decimal exponent is over
    MAX_LITERAL_EXPONENT in size or the text over MAX_LITERAL_LENGTH long; a
    text Fraction cannot read, a zero denominator included, raises
    ValueError(invalid), the boundary's own message."""
    _, e, exponent = text.lower().rpartition("e")
    try:
        power = int(exponent) if e else 0
    except ValueError:  # not an exponent Fraction would read, or too long
        power = 0  # for int(): then the length cap below takes it
    if abs(power) > MAX_LITERAL_EXPONENT:
        raise ValueError(
            f"rational literal {text!r} has exponent {power}, outside "
            f"-{MAX_LITERAL_EXPONENT}..{MAX_LITERAL_EXPONENT} (MAX_LITERAL_EXPONENT)"
        )
    if len(text) > MAX_LITERAL_LENGTH:
        raise ValueError(
            f"rational literal of {len(text)} characters is over the cap of "
            f"{MAX_LITERAL_LENGTH} (MAX_LITERAL_LENGTH)"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(invalid) from None


def json_rational(value: Any, invalid: str) -> int | float | Fraction:
    """A rational in a JSON document: an int or a finite float as it is, a
    string through parse_rational as a Fraction.  Anything else, bools and
    non-finite floats included, raises ValueError(invalid), the caller's
    own message, which parse_rational gives too for a string it cannot read.
    """
    if type(value) is str:
        return parse_rational(value, invalid)
    if type(value) is int or (type(value) is float and isfinite(value)):
        return value
    raise ValueError(invalid)


def presentation_from_dict(data: Mapping) -> RingPresentation:
    """Inverse of presentation_to_dict.

    A document not in the shape it writes raises ValueError, and a missing
    key KeyError; read_json_file names the file in both.  Only the Koszul
    sign rule exists, so any other ``parity`` raises PresentationError.
    Over MAX_RING_RULES rules raise ValueError before anything is built.
    """
    _require(isinstance(data, Mapping), "a presentation must be a JSON object")
    parity = data.get("parity", "koszul")
    if parity != "koszul":
        raise PresentationError(f"unsupported parity {parity!r}: only 'koszul' is implemented")
    name = data.get("name", "")
    _require(isinstance(name, str), f"presentation name must be a string, got {name!r}")
    rule_data = json_list(data.get("rules", []), dict, '"rules"')
    check_rule_count(f"presentation {name!r}", len(rule_data))
    gens = []
    for g in json_list(data["generators"], dict, '"generators"'):
        gid, degree, rank = g["id"], g["degree"], g.get("rank", 0)
        _require(
            isinstance(gid, str) and type(degree) is int and type(rank) is int,
            f"generator {g} needs a string id and an integer degree and rank",
        )
        gens.append(Generator(gid, degree, rank))
    rules = []
    for r in rule_data:
        lhs = tuple(json_list(r["lhs"], str, "a rule lhs"))
        _require(len(lhs) == 2, f"a rule lhs must name two generators, got {r['lhs']!r}")
        terms = []
        for t in json_list(r["rhs"], dict, f"the rhs of rule {r['lhs']!r}"):
            coeff = json_rational(t["coeff"], f"coefficient {t['coeff']!r} is not a finite rational")
            terms.append((coeff, tuple(json_list(t["monomial"], str, "a monomial"))))
        rules.append((lhs, element(terms)))
    return RingPresentation(gens, rules, name=name)


def read_json_file(path: str, kind: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the JSON document in the ``kind`` file at ``path``, the
    one way a presentation or measure file enters the program.

    At most MAX_JSON_BYTES + 1 bytes are read.  Every error is a ValueError
    naming the file: one that cannot be opened, is over MAX_JSON_BYTES, is
    not UTF-8, is not JSON or nests too deeply; a KeyError of ``parse`` as
    ``{kind} file '...' is missing the key 'k'``; and any other ValueError,
    an integer over Python's digit limit included, as ``bad {kind} in
    '...': ...``, where a PresentationError keeps its type.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read(MAX_JSON_BYTES + 1)
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path!r}: {exc}") from None
    if len(raw) > MAX_JSON_BYTES:
        raise ValueError(f"{kind} file {path!r} is over the cap of {MAX_JSON_BYTES} bytes (MAX_JSON_BYTES)")
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {kind} file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} file {path!r} is not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{kind} file {path!r} nests too deeply to parse") from None
    except ValueError:  # the only other: an integer over Python's digit limit
        raise ValueError(f"bad {kind} in {path!r}: an integer has over {sys.get_int_max_str_digits()} digits") from None
    try:
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"{kind} file {path!r} is missing the key {exc.args[0]!r}") from None
    except ValueError as exc:
        error = PresentationError if isinstance(exc, PresentationError) else ValueError
        raise error(f"bad {kind} in {path!r}: {exc}") from None


def load_presentation_json(path: str) -> RingPresentation:
    """Load a presentation from JSON and gate it on the confluence check.

    read_json_file reads the file through presentation_from_dict, so every
    error of either names the file.  A presentation that fails the
    confluence check raises PresentationError.
    """
    P = read_json_file(path, "presentation", presentation_from_dict)
    report = check_confluence(P)
    if not report.passed:
        raise PresentationError(
            f"presentation {P.name or path!r} failed the confluence check: "
            f"{report.failures[0][1]} on {report.failures[0][0]}"
        )
    return P
