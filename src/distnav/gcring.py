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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Mapping, Sequence

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
    "power",
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

# Highest degree a Poincare series may be asked for.  Series lists hold one
# int per degree, and the fn dimension gate (one component per copy) takes
# about cubic time in its degree: (2,2,1,500) gates at 500 in about 5 s,
# (2,2,1,1000) at 1000 in about 47 s.  Test and benchmark cells gate below 60.
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
    """A finitely presented graded-commutative ring with directed rules."""

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
        self._degree = {g.name: g.degree for g in self.generators}
        self._rank = {g.name: g.rank for g in self.generators}
        self._odd = {g.name for g in self.generators if g.degree % 2 == 1}
        self.rules: dict[tuple[str, str], GradedElement] = {}
        for rule in rules:
            self._admit_rule(rule)

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

    # -- basic queries ------------------------------------------------------

    def degree(self, name: str) -> int:
        return self._degree[name]

    def is_odd(self, name: str) -> bool:
        return name in self._odd

    def word_degree(self, word: Word) -> int:
        return sum(self._degree[g] for g in word)

    def generator_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    # -- canonicalization ---------------------------------------------------

    def canonical(self, factors: Sequence[str]) -> Monomial:
        """Sort factors into registration order, tracking the Koszul sign.

        Returns sign 0 when an odd-degree generator repeats.
        """
        order = self._index
        items = list(factors)
        sign = 1
        # Insertion sort; degree-1-odd swaps flip the sign.  Words are short
        # (a handful of factors), so quadratic cost is irrelevant.
        for i in range(1, len(items)):
            j = i
            while j > 0 and order[items[j - 1]] > order[items[j]]:
                if items[j - 1] in self._odd and items[j] in self._odd:
                    sign = -sign
                items[j - 1], items[j] = items[j], items[j - 1]
                j -= 1
        for k in range(1, len(items)):
            if items[k] == items[k - 1] and items[k] in self._odd:
                return Monomial(tuple(items), 0)
        return Monomial(tuple(items), sign)


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


def _first_redex(P: RingPresentation, word: Word) -> tuple[int, int, GradedElement] | None:
    """Leftmost pair of positions whose generators form a rule left side."""
    n = len(word)
    for p in range(n):
        for q in range(p + 1, n):
            rhs = P.rules.get((word[p], word[q]))
            if rhs is not None:
                return p, q, rhs
    return None


def _rewrite_step(
    P: RingPresentation, word: Word, p: int, q: int, rhs: GradedElement
) -> Iterator[tuple[Word, Fraction]]:
    """Rewrite the factors p < q of a canonical word by ``rhs``, yielding the
    nonvanishing canonical words of the result with their coefficients.

    This is the one rewrite step: normal_form takes it, and check_confluence
    probes it.
    """
    # Koszul sign of moving factors p and q to the front of the word.
    sign = 1
    if word[p] in P._odd and sum(1 for k in range(p) if word[k] in P._odd) % 2:
        sign = -sign
    if word[q] in P._odd and sum(1 for k in range(q) if k != p and word[k] in P._odd) % 2:
        sign = -sign
    rest = tuple(g for k, g in enumerate(word) if k != p and k != q)
    for rhs_word, rhs_coeff in rhs.terms.items():
        merged = P.canonical(rhs_word + rest)
        if merged.sign != 0:
            yield merged.factors, rhs_coeff * sign * merged.sign


def normal_form(P: RingPresentation, a: GradedElement) -> GradedElement:
    """Rewrite until no rule applies.  Terminates by the rank-multiset order."""
    out: dict[Word, Fraction] = {}
    # Inputs may carry raw words (unsorted, or with a repeated odd factor):
    # canonicalize before looking for redexes, as rule keys assume sorted pairs.
    work: list[tuple[Word, Fraction]] = []
    for word, coeff in a.terms.items():
        m = P.canonical(word)
        if m.sign == 0:
            continue
        work.append((m.factors, coeff * m.sign))
    while work:
        word, coeff = work.pop()
        if coeff == 0:
            continue
        redex = _first_redex(P, word)
        if redex is None:
            new = out.get(word, Fraction(0)) + coeff
            if new == 0:
                out.pop(word, None)
            else:
                out[word] = new
            continue
        for stepped, c in _rewrite_step(P, word, *redex):
            work.append((stepped, coeff * c))
    return GradedElement(out)


def multiply(P: RingPresentation, a: GradedElement, b: GradedElement) -> GradedElement:
    """Product in the presented ring, returned in normal form."""
    acc: dict[Word, Fraction] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            m = P.canonical(wa + wb)
            if m.sign == 0:
                continue
            acc[m.factors] = acc.get(m.factors, Fraction(0)) + ca * cb * m.sign
    return normal_form(P, GradedElement(acc))


def product(P: RingPresentation, factors: Iterable[GradedElement]) -> GradedElement:
    """Ordered product of the factors in normal form; 1 for no factors.

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
    result = one()
    for f in factors:
        result = multiply(P, result, f)
        if is_zero(result):
            break
    return result


def power(P: RingPresentation, a: GradedElement, k: int) -> GradedElement:
    if k < 0:
        raise ValueError("negative power in a graded ring")
    return product(P, [a] * k)


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
    """Product of integer coefficient lists, truncated above max_degree."""
    out = [0] * (max_degree + 1)
    for i, ca in enumerate(a):
        if ca == 0 or i > max_degree:
            continue
        for j, cb in enumerate(b):
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
    names = P.generator_names()
    checked = 0
    for triple in combinations_with_replacement(names, 3):
        m = P.canonical(triple)
        if m.sign == 0:
            continue
        word = m.factors
        redexes = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if (word[p], word[q]) in P.rules]
        if len(redexes) < 2:
            continue
        checked += 1
        results: dict[tuple, tuple[int, int]] = {}
        for p, q in redexes:
            stepped = _rewrite_step(P, word, p, q, P.rules[(word[p], word[q])])
            nf = normal_form(P, element((c, w) for w, c in stepped))
            fingerprint = tuple(sorted(nf.terms.items()))
            results.setdefault(fingerprint, (p, q))
        if len(results) > 1:
            failures.append((word, f"{len(results)} distinct normal forms from {redexes}"))
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


def presentation_from_dict(data: Mapping) -> RingPresentation:
    """Inverse of presentation_to_dict.  Only the Koszul sign rule exists, so
    any other ``parity`` raises PresentationError."""
    parity = data.get("parity", "koszul")
    if parity != "koszul":
        raise PresentationError(f"unsupported parity {parity!r}: only 'koszul' is implemented")
    gens = [
        Generator(g["id"], int(g["degree"]), int(g.get("rank", 0)))
        for g in data["generators"]
    ]
    rules = [
        RewriteRule(
            (r["lhs"][0], r["lhs"][1]),
            element([(Fraction(t["coeff"]), tuple(t["monomial"])) for t in r["rhs"]]),
        )
        for r in data.get("rules", [])
    ]
    return RingPresentation(gens, rules, name=data.get("name", ""))


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
