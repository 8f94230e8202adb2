"""Rewrite engine unit tests: Koszul signs, rule admission, normal forms,
confluence probing, and JSON round-trips.

The fixtures are tiny hand-built rings where every normal form can be
checked by hand; the shipped geometric presentations get their own tests.
"""

import ast
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import distnav.gcring as gcring
from distnav.bounds import verify_witness_fn
from distnav.gcring import (
    MAX_SERIES_DEGREE,
    Generator,
    GradedElement,
    PresentationError,
    RingMap,
    RingPresentation,
    add,
    apply_ring_map,
    check_confluence,
    element,
    element_degree,
    gen,
    is_zero,
    multiply,
    normal_form,
    one,
    poincare_series,
    poly_mul,
    product,
    presentation_from_dict,
    presentation_to_dict,
    scale,
    subtract,
    zero,
)
from distnav.presentations import (
    catalog,
    config_space,
    cpn_sphere_bundle,
    fn_fiber_product,
    fn_witness_length,
    shipped_names,
)


def two_odd_ring():
    # free graded-commutative on two degree-1 classes: x^2 = y^2 = 0 implicitly
    return RingPresentation(
        [Generator("x", 1), Generator("y", 1)], [], name="odd-pair"
    )


def truncated_poly_ring():
    """Q[t]/(t^3) written with generators t1 = t, t2 = t^2 of rank 1, 0."""
    t1 = Generator("t1", 2, rank=1)
    t2 = Generator("t2", 4, rank=0)
    rules = [
        (("t1", "t1"), element([(1, ("t2",))])),
        (("t1", "t2"), zero()),
        (("t2", "t2"), zero()),
    ]
    return RingPresentation([t1, t2], rules, name="trunc")


# === canonicalization and signs ===


def test_koszul_sign_on_odd_swap():
    P = two_odd_ring()
    assert normal_form(P, element([(1, ("y", "x"))])) == element([(-1, ("x", "y"))])


def test_odd_square_vanishes():
    P = two_odd_ring()
    assert is_zero(normal_form(P, element([(1, ("x", "x"))])))
    assert is_zero(multiply(P, gen("x"), gen("x")))


def test_even_generators_commute_without_sign():
    # The truncated ring's generators with no rules: t2 t1 sorts to +t1 t2.
    P = RingPresentation(truncated_poly_ring().generators, [])
    assert normal_form(P, element([(1, ("t2", "t1"))])) == element([(1, ("t1", "t2"))])


def test_graded_commutativity_odd():
    P = two_odd_ring()
    xy = multiply(P, gen("x"), gen("y"))
    yx = multiply(P, gen("y"), gen("x"))
    assert xy == scale(-1, yx)


def test_mixed_parity_commutes():
    # odd * even = even * odd, no sign
    P = RingPresentation([Generator("a", 1), Generator("b", 2)], [])
    assert multiply(P, gen("a"), gen("b")) == multiply(P, gen("b"), gen("a"))


# === rule admission ===


def test_rule_must_be_canonically_ordered():
    t1 = Generator("t1", 2, rank=1)
    t2 = Generator("t2", 4, rank=0)
    with pytest.raises(PresentationError):
        RingPresentation(
            [t1, t2], [(("t2", "t1"), zero())]
        )


def test_rule_must_preserve_degree():
    t1 = Generator("t1", 2, rank=1)
    t2 = Generator("t2", 4, rank=0)
    bad = (("t1", "t1"), element([(1, ("t1",))]))  # degree 4 vs 2
    with pytest.raises(PresentationError):
        RingPresentation([t1, t2], [bad])


def test_rule_must_decrease_termination_order():
    # rhs reuses the lhs pair itself: no strict decrease
    t1 = Generator("t1", 2, rank=1)
    bad = (("t1", "t1"), element([(1, ("t1", "t1"))]))
    with pytest.raises(PresentationError):
        RingPresentation([t1], [bad])


def test_duplicate_rule_rejected():
    t1 = Generator("t1", 2, rank=1)
    t2 = Generator("t2", 4, rank=0)
    r = (("t1", "t1"), element([(1, ("t2",))]))
    with pytest.raises(PresentationError):
        RingPresentation([t1, t2], [r, r])


def test_unknown_generator_in_rule_rejected():
    with pytest.raises(PresentationError):
        RingPresentation([Generator("a", 2)], [(("a", "zz"), zero())])


# === normal forms ===


def test_truncated_polynomial_normal_forms():
    P = truncated_poly_ring()
    t = gen("t1")
    assert product(P, [t] * 2) == gen("t2")
    assert is_zero(product(P, [t] * 3))
    assert is_zero(product(P, [t] * 4))
    # (1 + t)^3 = 1 + 3t + 3t^2
    u = add(one(), t)
    cube = product(P, [u] * 3)
    assert cube == element([(1, ()), (3, ("t1",)), (3, ("t2",))])


def test_normal_form_is_idempotent():
    P = config_space(2, 4)
    rng = random.Random(7)
    names = P.generator_names()
    for _ in range(50):
        word = tuple(rng.choice(names) for _ in range(rng.randint(1, 4)))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        nf = normal_form(P, element([(coeff, word)]))
        assert normal_form(P, nf) == nf


def test_element_degree_homogeneous_only():
    P = truncated_poly_ring()
    assert element_degree(P, gen("t1")) == 2
    assert element_degree(P, zero()) is None
    mixed = add(gen("t1"), gen("t2"))
    with pytest.raises(PresentationError):
        element_degree(P, mixed)


def test_entry_points_name_an_unknown_generator():
    # Each raised a bare KeyError('zz'); now a ValueError (a bad request, not
    # a PresentationError) names the generator and the ring.
    P = catalog("cp3")
    bad, a1 = element([(1, ("a1", "zz"))]), gen("a1")
    collapse = RingMap(P, {name: gen(name) for name in P.generator_names()})
    calls = {
        "normal_form": lambda: normal_form(P, bad),
        "multiply-left": lambda: multiply(P, bad, a1),
        "multiply-right": lambda: multiply(P, a1, bad),
        "product": lambda: product(P, [a1, bad]),
        "apply_ring_map": lambda: apply_ring_map(collapse, bad),
        "element_degree": lambda: element_degree(P, bad),
    }
    for entry, call in calls.items():
        with pytest.raises(ValueError) as caught:
            call()
        assert type(caught.value) is ValueError, entry
        assert str(caught.value) == "unknown generator 'zz' in cp3", entry
    with pytest.raises(ValueError, match="^unknown generator 'zz' in an unnamed ring$"):
        normal_form(RingPresentation([Generator("x", 1)], []), gen("zz"))


def test_arithmetic_helpers():
    a = element([(1, ("x",)), (2, ("y",))])
    b = element([(Fraction(1, 2), ("x",))])
    assert subtract(a, a) == zero()
    assert add(a, scale(-1, a)) == zero()
    assert scale(2, b) == element([(1, ("x",))])
    assert scale(0, a) == zero()


# === the integer-coded kernel against the leftmost-redex engine ===
#
# The oracle is the name-level engine the kernel replaced: insertion-sort
# canonicalization, the leftmost redex, Fraction coefficients throughout.


def oracle_canonical(P, factors):
    items, sign = list(factors), 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and P._index[items[j - 1]] > P._index[items[j]]:
            if P.degree(items[j - 1]) % 2 and P.degree(items[j]) % 2:
                sign = -sign
            items[j - 1], items[j] = items[j], items[j - 1]
            j -= 1
    for k in range(1, len(items)):
        if items[k] == items[k - 1] and P.degree(items[k]) % 2:
            return tuple(items), 0
    return tuple(items), sign


def oracle_first_redex(P, word):
    for p in range(len(word)):
        for q in range(p + 1, len(word)):
            rhs = P.rules.get((word[p], word[q]))
            if rhs is not None:
                return p, q, rhs
    return None


def oracle_rewrite_step(P, word, p, q, rhs):
    sign = 1
    if P.degree(word[p]) % 2 and sum(1 for k in range(p) if P.degree(word[k]) % 2) % 2:
        sign = -sign
    if P.degree(word[q]) % 2 and sum(1 for k in range(q) if k != p and P.degree(word[k]) % 2) % 2:
        sign = -sign
    rest = tuple(g for k, g in enumerate(word) if k != p and k != q)
    for rhs_word, rhs_coeff in rhs.terms.items():
        merged, merged_sign = oracle_canonical(P, rhs_word + rest)
        if merged_sign:
            yield merged, rhs_coeff * sign * merged_sign


def oracle_normal_form(P, a):
    out = {}
    work = []
    for word, coeff in a.terms.items():
        canon, sign = oracle_canonical(P, word)
        if sign:
            work.append((canon, coeff * sign))
    while work:
        word, coeff = work.pop()
        redex = oracle_first_redex(P, word)
        if redex is None:
            out[word] = out.get(word, Fraction(0)) + coeff
            continue
        for stepped, c in oracle_rewrite_step(P, word, *redex):
            work.append((stepped, coeff * c))
    return GradedElement(out)


def oracle_multiply(P, a, b):
    acc = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            canon, sign = oracle_canonical(P, wa + wb)
            if sign:
                acc[canon] = acc.get(canon, Fraction(0)) + ca * cb * sign
    return oracle_normal_form(P, GradedElement(acc))


def oracle_product(P, factors):
    result = one()
    for f in factors:
        result = oracle_multiply(P, result, f)
    return result


def random_raw_element(P, rng, max_terms=3, max_length=4):
    """Raw words: unsorted, and now and then with a repeated odd factor."""
    names = P.generator_names()
    odd = [g for g in names if P.degree(g) % 2]
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        word = [rng.choice(names) for _ in range(rng.randint(0, max_length))]
        if odd and rng.random() < 0.15:
            g = rng.choice(odd)
            word[rng.randint(0, len(word)) : 0] = [g, g]
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 4]))
        terms.append((coeff, tuple(word)))
    return element(terms)


@pytest.mark.parametrize("name", [n for n in shipped_names() if n != "point"])
def test_kernel_matches_leftmost_redex_oracle_on_shipped_rings(name):
    P = catalog(name)
    rng = random.Random(f"kernel-{name}")
    repeated_odd = 0
    for _ in range(40):
        a, b = random_raw_element(P, rng), random_raw_element(P, rng, max_length=2)
        repeated_odd += any(
            P.degree(g) % 2 and w.count(g) > 1 for w in a.terms for g in w
        )
        assert normal_form(P, a) == oracle_normal_form(P, a), a
        assert multiply(P, a, b) == oracle_multiply(P, a, b), (a, b)
    if any(P.degree(g) % 2 for g in P.generator_names()):
        assert repeated_odd > 0


@pytest.mark.parametrize("name", [n for n in shipped_names() if n != "point"])
def test_product_matches_oracle_on_shipped_rings(name):
    # The partial products are normal forms, so product scans only the pairs
    # that touch the new factor or a right-hand factor.
    P = catalog(name)
    rng = random.Random(f"product-{name}")
    for _ in range(15):
        factors = [random_raw_element(P, rng, max_terms=2, max_length=2) for _ in range(4)]
        assert product(P, factors) == oracle_product(P, factors), factors


def fractional_ring():
    """conf:d=2,k=4 with every generator rescaled by a non-integer factor,
    loaded from JSON: an isomorphic (so confluent) ring whose straightening
    rules have non-integer coefficients.  a*b -> sum c w becomes
    a'*b' -> sum c (s_a s_b / s_w) w' for a' = s_a a."""
    data = presentation_to_dict(config_space(2, 4))
    factor = dict(
        zip(
            (g["id"] for g in data["generators"]),
            (Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(5), Fraction(2, 5), Fraction(7, 3)),
        )
    )
    for rule in data["rules"]:
        lhs_scale = factor[rule["lhs"][0]] * factor[rule["lhs"][1]]
        for term in rule["rhs"]:
            rhs_scale = 1
            for g in term["monomial"]:
                rhs_scale *= factor[g]
            term["coeff"] = str(Fraction(term["coeff"]) * lhs_scale / rhs_scale)
    data["name"] = "fractional"
    return presentation_from_dict(json.loads(json.dumps(data)))


def test_kernel_falls_back_to_fractions_on_loaded_rules():
    P = fractional_ring()
    assert check_confluence(P).passed
    # The rule table keeps the non-integer coefficients as Fractions.
    assert any(
        isinstance(c, Fraction) for row in P._partners for entry in row.values() for _, c, _, _ in entry
    )
    rng = random.Random(29)
    for _ in range(200):
        a, b = random_raw_element(P, rng), random_raw_element(P, rng, max_length=2)
        assert normal_form(P, a) == oracle_normal_form(P, a), a
        assert multiply(P, a, b) == oracle_multiply(P, a, b), (a, b)
        factors = [random_raw_element(P, rng, max_terms=2, max_length=2) for _ in range(3)]
        assert product(P, factors) == oracle_product(P, factors), factors
    # w_1_4 w_2_4 -> (s14 s24 / (s12 s24)) w_1_2 w_2_4 - (s14 s24 / (s12 s14)) w_1_2 w_1_4,
    # with s12 = 2, s14 = 5 and s24 = 2/5
    assert normal_form(P, element([(1, ("w_1_4", "w_2_4"))])) == element(
        [(Fraction(5, 2), ("w_1_2", "w_2_4")), (Fraction(-1, 5), ("w_1_2", "w_1_4"))]
    )


@pytest.mark.parametrize(
    "cell, monomial",
    [
        (
            (2, 2, 1, 8),
            ("w1_1_3", "w2_2_3", "w3_1_3", "w4_1_3", "w5_1_3", "w6_1_3", "w7_1_3", "w8_1_3"),
        ),
        (
            (2, 4, 1, 6),
            ("w_1_2", "w_1_3", "w1_1_5", "w2_4_5", "w3_1_5", "w4_1_5", "w5_1_5", "w6_1_5"),
        ),
    ],
)
def test_even_witness_product_matches_oracle(cell, monomial):
    fp = fn_fiber_product(*cell)
    factors = verify_witness_fn(fp).factors
    assert len(factors) == fn_witness_length(*cell)
    fast, slow = product(fp.ring, factors), oracle_product(fp.ring, factors)
    assert fast == slow
    word = min(fast.terms)
    assert (word, fast.terms[word]) == (min(slow.terms), slow.terms[min(slow.terms)])
    assert (word, fast.terms[word]) == (monomial, -1)


# The cached code.  An element keeps its code in the kernel's coding, for
# the ring it was made for; kernel outputs come back coded.

RINGS = [n for n in shipped_names() if n != "point"]


def integral(a):
    """a with every coefficient replaced by its numerator."""
    return element([(c.numerator, w) for w, c in a.terms.items()])


def fresh_code(P, a):
    """_index_terms of a with its cached code cleared, then restored."""
    cached = a._code
    object.__setattr__(a, "_code", None)
    try:
        return gcring._index_terms(P, a)
    finally:
        object.__setattr__(a, "_code", cached)


def typed(terms):
    return [(w, type(c), c) for w, c in terms]


@pytest.mark.parametrize("name", RINGS + ["fractional"])
def test_cached_code_equals_a_fresh_encoding(name):
    P = fractional_ring() if name == "fractional" else catalog(name)
    rng = random.Random(f"code-{name}")
    checked = 0
    for _ in range(20):
        a = random_raw_element(P, rng)
        b = integral(random_raw_element(P, rng, max_length=2))
        outputs = [
            normal_form(P, a),
            normal_form(P, b),
            multiply(P, a, b),
            multiply(P, b, b),
            product(P, [b, a, b]),
        ]
        # On integral rules, integral outputs come back coded before anything
        # encodes them.
        if name != "fractional":
            for e in (outputs[1], outputs[3]):
                assert e._code is not None and e._code[0] is P
        for e in [a, b] + outputs:
            multiply(P, e, one())  # encodes e unless it is coded already
            cached = e._code
            assert cached[0] is P
            terms, den = fresh_code(P, e)
            assert (typed(cached[1]), cached[2]) == (typed(terms), den), e
            checked += 1
    assert checked == 20 * 7


def test_an_element_gets_each_rings_own_code():
    # Two rings with one name and one generator set, registered in opposite
    # orders: x y is the index word (0, 1) in both, with opposite signs.
    P = RingPresentation([Generator("x", 1), Generator("y", 1)], [], name="pair")
    Q = RingPresentation([Generator("y", 1), Generator("x", 1)], [], name="pair")
    a = element([(1, ("x", "y"))])
    for ring, sign in ((P, 1), (Q, -1), (P, 1), (Q, -1)):
        assert gcring._index_terms(ring, a) == ([((0, 1), sign)], 1)
        assert a._code[0] is ring
        assert multiply(ring, a, one()) == oracle_multiply(ring, a, one())
        assert normal_form(ring, a) == oracle_normal_form(ring, a)
    xy = multiply(P, gen("x"), gen("y"))
    assert xy._code == (P, [((0, 1), 1)], 1)
    assert multiply(Q, xy, one()) == element([(-1, ("y", "x"))])
    assert xy._code == (Q, [((0, 1), -1)], 1)


@pytest.mark.parametrize("name", RINGS + ["fractional"])
def test_chains_of_kernel_outputs_match_the_oracle(name):
    # Each output goes back in as an input: coded when integral, encoded
    # afresh otherwise (fractional inputs, or the loaded ring whose rules
    # have non-integer coefficients).
    P = fractional_ring() if name == "fractional" else catalog(name)
    rng = random.Random(f"chain-{name}")
    for trial in range(6):
        factors = [random_raw_element(P, rng, max_terms=2, max_length=2) for _ in range(4)]
        if trial % 2:
            factors = [integral(f) for f in factors]
        fast = slow = factors[0]
        for f in factors[1:]:
            fast, slow = multiply(P, fast, f), oracle_multiply(P, slow, f)
            assert fast == slow
            assert normal_form(P, fast) == slow
            assert multiply(P, f, fast) == oracle_multiply(P, f, slow)
        assert product(P, [fast, factors[0], fast]) == oracle_product(P, [slow, factors[0], slow])


def test_multiply_does_not_encode_a_kernel_output(monkeypatch):
    P = catalog("conf:d=2,k=4")
    a = element([(1, ("w_1_2",)), (-2, ("w_2_3",))])
    b = element([(3, ("w_1_4",)), (1, ("w_3_4",))])
    ab, c = multiply(P, a, b), normal_form(P, element([(1, ("w_2_4",)), (1, ("w_1_3",))]))
    assert len(ab.terms) > 1 and c._code is not None
    calls = []
    sort_word = gcring._sort_word
    monkeypatch.setattr(gcring, "_sort_word", lambda oddf, seq: calls.append(seq) or sort_word(oddf, seq))
    abc = multiply(P, ab, c)
    assert calls == []
    assert abc == oracle_multiply(P, oracle_multiply(P, a, b), c) and not is_zero(abc)
    object.__setattr__(ab, "_code", None)
    assert multiply(P, ab, c) == abc
    assert len(calls) == len(ab.terms)  # the count sees each encoded word


def dense_poly_mul(a, b, max_degree):
    """The oracle: the loop over every coefficient, zeros included."""
    out = [0] * (max_degree + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= max_degree:
                out[i + j] += ca * cb
    return out


def test_sparse_poly_mul_matches_dense_loop():
    rng = random.Random(41)
    for _ in range(300):
        a = [rng.choice([0, 0, 0, 1, -2, 5]) for _ in range(rng.randint(0, 12))]
        b = [rng.choice([0, 0, 0, 1, 3, -7]) for _ in range(rng.randint(0, 12))]
        cap = rng.randint(0, 14)
        assert poly_mul(a, b, cap) == dense_poly_mul(a, b, cap), (a, b, cap)


# === confluence ===


def test_arnold_rules_confluent():
    report = check_confluence(config_space(2, 4))
    assert report.passed
    assert report.triples_checked > 0
    assert report.failures == ()


def test_corrupted_sign_breaks_confluence():
    """Negative control: flip one sign in a straightening rule and the
    overlap (w_1_4, w_2_4, w_3_4) resolves to two distinct normal forms."""
    data = presentation_to_dict(config_space(2, 4))
    flipped = 0
    for rule in data["rules"]:
        if rule["lhs"] == ["w_1_4", "w_2_4"]:
            for term in rule["rhs"]:
                if term["monomial"] == ["w_1_2", "w_1_4"]:
                    term["coeff"] = "1"  # true rule carries -1
                    flipped += 1
    assert flipped == 1
    bad = presentation_from_dict(data)
    report = check_confluence(bad)
    assert not report.passed
    assert any("w_1_4" in failure[0] for failure in report.failures)


# The oracle is the probe the partner-driven one replaced: every sorted
# generator triple, in lexicographic order, on the same rewrite step.


def enumerated_confluence(P):
    failures = []
    checked = 0
    for triple in itertools.combinations_with_replacement(range(len(P.generators)), 3):
        word, sign = gcring._sort_word(P._oddf, triple)
        if sign == 0:
            continue
        redexes = [(p, q) for p, q in ((0, 1), (0, 2), (1, 2)) if word[q] in P._partners[word[p]]]
        if len(redexes) < 2:
            continue
        checked += 1
        results = {}
        for p, q in redexes:
            nf = {}
            entry = P._partners[word[p]][word[q]]
            for stepped, c, _, odd in gcring._rewrite_step(P, word, gcring._odd_mask(P, word), p, q, entry):
                gcring._reduce_into(nf, P, stepped, c, gcring._ALL_DIRTY, odd)
            results.setdefault(frozenset((w, c) for w, c in nf.items() if c), (p, q))
        if len(results) > 1:
            failures.append((P._word_names(word), f"{len(results)} distinct normal forms from {redexes}"))
            if len(failures) >= gcring.MAX_CONFLUENCE_FAILURES:
                break
    return gcring.ConfluenceReport(triples_checked=checked, failures=tuple(failures))


def random_rewrite_ring(rng):
    """Random quadratic rules whose right sides are random canonical words of
    the left side's degree, below it in the termination order; many of these
    rings are not confluent."""
    gens = [Generator(f"g{i}", rng.randint(1, 2), rank=rng.randint(0, 3)) for i in range(rng.randint(2, 7))]
    free = RingPresentation(gens, [])
    names = free.generator_names()
    words = [(g,) for g in names] + list(itertools.combinations_with_replacement(names, 2))
    rules = []
    for lhs in itertools.combinations_with_replacement(names, 2):
        if rng.random() < 0.4:
            continue
        below = [
            w
            for w in words
            if free.word_degree(w) == free.word_degree(lhs)
            and free._termination_key(w) < free._termination_key(lhs)
        ]
        chosen = rng.sample(below, min(len(below), rng.randint(0, 2)))
        rules.append((lhs, element([(rng.choice([-2, -1, 1, 3]), w) for w in chosen])))
    return RingPresentation(gens, rules)


@pytest.mark.parametrize("name", shipped_names())
def test_confluence_matches_enumeration_on_shipped_rings(name):
    P = catalog(name)
    assert check_confluence(P) == enumerated_confluence(P)


@pytest.mark.parametrize("cell", list(itertools.product((2, 3), (2, 3), (1, 2), (2, 3))))
def test_confluence_matches_enumeration_on_grid(cell):
    P = fn_fiber_product(*cell).ring
    assert check_confluence(P) == enumerated_confluence(P)


def test_confluence_matches_enumeration_on_towers():
    for n in range(1, 7):
        for r in range(2, 5):
            P = cpn_sphere_bundle(n, r).ring
            assert check_confluence(P) == enumerated_confluence(P), (n, r)


def test_confluence_matches_enumeration_on_random_rings():
    rng = random.Random(23)
    failed = 0
    for _ in range(300):
        P = random_rewrite_ring(rng)
        report = check_confluence(P)
        assert report == enumerated_confluence(P), presentation_to_dict(P)
        failed += not report.passed
    assert 30 < failed < 270  # both outcomes are well represented


def test_confluence_failures_in_enumeration_order():
    # The corrupted straightening ring fails on several triples; the report
    # lists them, and stops, exactly as the full enumeration does.
    data = presentation_to_dict(config_space(2, 5))
    for rule in data["rules"]:
        for term in rule["rhs"]:
            term["coeff"] = str(-Fraction(term["coeff"]))
    bad = presentation_from_dict(data)
    report = check_confluence(bad)
    assert len(report.failures) > 1
    assert report == enumerated_confluence(bad)


def test_confluence_probe_skips_ruleless_generators(monkeypatch):
    # With no rules there is no overlap: no triple is even built.
    P = RingPresentation([Generator(f"g{i}", 1 + i % 2) for i in range(300)], [])
    calls = []
    real = gcring._sort_word
    monkeypatch.setattr(gcring, "_sort_word", lambda *args: calls.append(args) or real(*args))
    assert check_confluence(P) == gcring.ConfluenceReport(triples_checked=0, failures=())
    assert calls == []


def test_confluence_candidates_are_capped_before_any_is_built(monkeypatch):
    # A star: one hub with a zero rule against every other generator has
    # p (p + 1) / 2 candidates at the hub alone.
    count = 400
    gens = [Generator(f"g{i}", 2) for i in range(count)]
    P = RingPresentation(gens, [(("g0", g.name), zero()) for g in gens[1:]])
    size = (count - 1) * count // 2 + (count - 1)
    assert size > gcring.MAX_CONFLUENCE_CANDIDATES

    def built(*args):
        raise AssertionError("a candidate triple was built over the cap")

    monkeypatch.setattr(gcring, "sorted", built, raising=False)
    with pytest.raises(ValueError, match=rf"has {size} candidate .*\(MAX_CONFLUENCE_CANDIDATES\)$"):
        check_confluence(P)


def test_loaded_rule_count_is_capped_before_any_rule_is_built(monkeypatch):
    # Only the catalog builders counted rules: a loaded document of any
    # length was built in full before a later cap could refuse it.
    data = presentation_to_dict(config_space(2, 5))
    count = len(data["rules"])
    monkeypatch.setattr(gcring, "MAX_RING_RULES", count)
    assert len(presentation_from_dict(data).rules) == count

    def built(*args, **kwargs):
        raise AssertionError("a generator or rule was built over the cap")

    monkeypatch.setattr(gcring, "MAX_RING_RULES", count - 1)
    for name in ("Generator", "element", "RingPresentation"):
        monkeypatch.setattr(gcring, name, built)
    cap = rf"presentation 'conf:d=2,k=5' has {count} rules, over the cap of {count - 1} \(MAX_RING_RULES\)$"
    with pytest.raises(ValueError, match=cap):
        presentation_from_dict(data)


def test_json_file_one_byte_over_the_cap_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(gcring, "MAX_JSON_BYTES", 16)
    path = tmp_path / "doc.json"
    path.write_text("[" + " " * 14 + "]")
    assert gcring.read_json_file(str(path), "measure", list) == []
    path.write_text("[" + " " * 15 + "]")
    with pytest.raises(ValueError, match=r"^measure file '.*doc\.json' is over the cap of 16 bytes \(MAX_JSON_BYTES\)$"):
        gcring.read_json_file(str(path), "measure", list)


# === factorized Poincare series against the full enumeration ===


def admissible_words(P, max_degree, names):
    """Canonical monomials in ``names`` (registration order) of degree <=
    max_degree avoiding every rule lhs, built with nondecreasing position,
    so any candidate pair is already in canonical order for the rule lookup."""

    def extend(word, degree, start):
        yield tuple(word)
        for i in range(start, len(names)):
            g = names[i]
            d = degree + P.degree(g)
            if d > max_degree:
                continue
            if word and word[-1] == g and P.degree(g) % 2:
                continue
            if any((prev, g) in P.rules for prev in set(word)):
                continue
            word.append(g)
            yield from extend(word, d, i)
            word.pop()

    return extend([], 0, 0)


def enumerated_series(P, max_degree):
    """The oracle: admissible words over the whole generator tuple at once,
    enumerated on names."""
    dims = [0] * (max_degree + 1)
    for word in admissible_words(P, max_degree, P.generator_names()):
        dims[P.word_degree(word)] += 1
    return dims


def top_degree(P):
    return sum(g.degree for g in P.generators)


@pytest.mark.parametrize("name", shipped_names())
def test_factorized_series_matches_enumeration_on_shipped_rings(name):
    P = catalog(name)
    assert poincare_series(P, top_degree(P)) == enumerated_series(P, top_degree(P))


@pytest.mark.parametrize("cell", list(itertools.product((2, 3), (2, 3), (1, 2), (2, 3))))
def test_factorized_series_matches_enumeration_on_grid(cell):
    fp = fn_fiber_product(*cell)
    limit = fn_witness_length(*cell) * (cell[0] - 1) + 2
    assert poincare_series(fp.ring, limit) == enumerated_series(fp.ring, limit)


def test_factorized_series_matches_enumeration_on_towers():
    for n in range(1, 7):
        for r in range(2, 5):
            P = cpn_sphere_bundle(n, r).ring
            assert poincare_series(P, top_degree(P)) == enumerated_series(P, top_degree(P)), (n, r)


def random_zero_rule_ring(rng):
    count = rng.randint(1, 7)
    gens = [Generator(f"g{i}", rng.randint(1, 3)) for i in range(count)]
    pairs = [(a.name, b.name) for a, b in itertools.combinations_with_replacement(gens, 2)]
    chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
    return RingPresentation(gens, [(lhs, zero()) for lhs in chosen])


def test_factorized_series_matches_enumeration_on_random_rings():
    rng = random.Random(17)
    self_rules = 0
    for _ in range(50):
        P = random_zero_rule_ring(rng)
        self_rules += sum(1 for a, b in P.rules if a == b)
        assert poincare_series(P, 9) == enumerated_series(P, 9), presentation_to_dict(P)
    assert self_rules > 0
    for _ in range(100):
        P = random_rewrite_ring(rng)
        assert poincare_series(P, 9) == enumerated_series(P, 9), presentation_to_dict(P)


def test_rule_components_split_independent_generators():
    P = RingPresentation(
        [Generator("a", 2), Generator("b", 1), Generator("c", 2), Generator("d", 1)],
        [(("a", "c"), zero()), (("b", "b"), zero())],
    )
    assert gcring._rule_components(gcring._exclusions(P)) == [[0, 2], [1], [3]]
    # pure powers of a or of c (no a*c), times (1 + t)^2 from b and d
    assert poincare_series(P, 4) == enumerated_series(P, 4) == [1, 2, 3, 4, 4]


def test_poincare_series_rejects_negative_degree():
    with pytest.raises(ValueError):
        poincare_series(two_odd_ring(), -1)
    # the cap is checked before any list of MAX_SERIES_DEGREE ints is built
    with pytest.raises(ValueError, match="MAX_SERIES_DEGREE"):
        poincare_series(two_odd_ring(), MAX_SERIES_DEGREE + 1)


def chain_presentation(degrees):
    """Generators g0, g1, ... of the given degrees with g_i * g_(i+1) -> 0:
    one component of the exclusion graph, so its series enumerates every
    admissible word of the ring."""
    gens = [Generator(f"g{i}", degree) for i, degree in enumerate(degrees)]
    return RingPresentation(gens, [((a.name, b.name), zero()) for a, b in zip(gens, gens[1:])], name="chain")


def test_series_refuses_past_the_word_cap(monkeypatch):
    # A loaded chain of 24 degree-2 generators counted 43508106 words to
    # degree 24 in 40.8 s; the count now stops after MAX_SERIES_WORDS.
    rng = random.Random(29)
    for _ in range(30):
        P = chain_presentation([rng.randint(1, 3) for _ in range(rng.randint(2, 8))])
        top = rng.randint(2, 12)
        series = enumerated_series(P, top)
        words = sum(series)
        monkeypatch.setattr(gcring, "MAX_SERIES_WORDS", words)
        assert poincare_series(P, top) == series
        monkeypatch.setattr(gcring, "MAX_SERIES_WORDS", words - 1)
        cap = rf"^Poincare series to degree {top} counts over {words - 1} admissible words \(MAX_SERIES_WORDS\)$"
        with pytest.raises(ValueError, match=cap):
            poincare_series(P, top)


def test_series_word_cap_counts_over_all_components(monkeypatch):
    # Two copies of a chain: each alone fits the cap, both together do not.
    gens = [Generator(f"{c}{i}", 2) for c in "ab" for i in range(4)]
    chain = [((f"{c}{i}", f"{c}{i + 1}"), zero()) for c in "ab" for i in range(3)]
    P = RingPresentation(gens, chain)
    half = sum(enumerated_series(chain_presentation([2] * 4), 8))
    assert len(gcring._rule_components(gcring._exclusions(P))) == 2
    monkeypatch.setattr(gcring, "MAX_SERIES_WORDS", 2 * half)
    assert poincare_series(P, 8) == enumerated_series(P, 8)
    monkeypatch.setattr(gcring, "MAX_SERIES_WORDS", 2 * half - 1)
    with pytest.raises(ValueError, match="MAX_SERIES_WORDS"):
        poincare_series(P, 8)


def test_series_refuses_past_the_product_cap(monkeypatch):
    # Rule-free degree-2 generators: one component each, of 257 nonzero
    # coefficients to degree 512.  The k-th component's product forms
    # (nonzero coefficients so far) x 257, counted before it is formed, and
    # none of it goes to MAX_SERIES_WORDS.
    P = RingPresentation([Generator(f"g{i}", 2) for i in range(4)], ())
    calls, real_poly_mul = [], gcring.poly_mul
    monkeypatch.setattr(gcring, "poly_mul", lambda *args: calls.append(args) or real_poly_mul(*args))
    products = 1 * 257 + 3 * 257 * 257
    monkeypatch.setattr(gcring, "MAX_SERIES_WORDS", 4 * 257)
    monkeypatch.setattr(gcring, "MAX_SERIES_PRODUCTS", products)
    poincare_series(P, 512)
    assert len(calls) == 4
    calls.clear()
    monkeypatch.setattr(gcring, "MAX_SERIES_PRODUCTS", products - 1)
    cap = rf"^Poincare series to degree 512 forms over {products - 1} coefficient products \(MAX_SERIES_PRODUCTS\)$"
    with pytest.raises(ValueError, match=cap):
        poincare_series(P, 512)
    assert len(calls) == 3


def test_shipped_rings_and_gates_count_far_below_the_word_cap(monkeypatch):
    # The largest counts are a few thousand words (conf:d=2,k=59 to degree
    # 58 counts 1769, the fn:d=2,m=2,n=1,r=510 gate 1532), so every ring and
    # gate here passes at 1/256 of the cap.  The products cap holds the same
    # headroom over every ring and gate (conf:d=2,k=40 forms the most, 1560)
    # but the two fn gates at the degree cap, which pass at 1/4 of it
    # (261632 products at (2,2,1,510), 65792 at (3,2,1,255)).
    monkeypatch.setattr(gcring, "MAX_SERIES_WORDS", gcring.MAX_SERIES_WORDS // 256)
    products = gcring.MAX_SERIES_PRODUCTS
    monkeypatch.setattr(gcring, "MAX_SERIES_PRODUCTS", products // 256)
    for name in shipped_names() + ("cp255", "conf:d=2,k=40"):
        P = catalog(name)
        poincare_series(P, min(top_degree(P), MAX_SERIES_DEGREE))
    for cell in itertools.product((2, 3, 4), (2, 3, 4), (1, 2, 3), (2, 3, 4)):
        fn_fiber_product.__wrapped__(*cell)
    for n, r in itertools.product(range(1, 23), range(2, 5)):
        if n * (n + 1) + 2 * r <= MAX_SERIES_DEGREE:
            cpn_sphere_bundle.__wrapped__(n, r)
    monkeypatch.setattr(gcring, "MAX_SERIES_PRODUCTS", products // 4)
    for cell in (2, 2, 1, 510), (3, 2, 1, 255):
        fn_fiber_product.__wrapped__(*cell)


# === serialization ===


# sha256 of json.dumps(presentation_to_dict(catalog(name)), indent=2), as
# written before rules became plain (lhs, rhs) pairs and before the rule
# right sides shared certificate factors' term encoder.
PRESENTATION_DIGESTS = {
    "point": "b00aa7807f213cbe8f8cbb796e6ceaf8b55d843351f40d09dd4a7a6253af0fca",
    "s2": "63f2e91264d227bb5f140d101e520c5da568f3875f93e439ace1c3d93892e58b",
    "s3": "fd5243e6163616d129bee582b098253600688ac0be2eefac54dce78eb60dac33",
    "cp1": "9c52af4a1ba188d3ecd271b7f1be13425a9cfce1398ce3dae05cd87e932e5043",
    "cp2": "f581aae8feea56d9885046df73165424d404e6d303d69dd30337154cb694d6dd",
    "cp3": "5e4a24d6b97d6083c1710349d00647c9323998dba8f7ddfdc357f0834653e087",
    "cp4": "5b96e62b0e1f763711e8be8caecf22d369112a710450084613e433b9db62c4fb",
    "conf:d=2,k=3": "a1504dcff2ae4a8b6a2ec1197a9a51ee7981ead47b8a2d55a4365d1dc0b184fc",
    "conf:d=2,k=4": "cc9ba1f9451da7adc002aad367d4e3a668bb2b404cac5fba650b21d5deed7ed6",
    "conf:d=2,k=5": "ad23357f4410ff1d58da206cd745f54fc245848c789a61d294df2de894540b30",
    "conf:d=3,k=3": "238a9af380d8dc4b30b83cc498c257ee9bac60ff197fb1d0e73fae614860dfec",
    "conf:d=3,k=4": "31d9e12e782aafeb192fd7aa330fae133807f17009d67e09a03dcff601772d39",
    "fn:d=2,m=2,n=1,r=2": "565fa461199507f97cb789533aaf7b6754df7e6f4395bff3b62822a8575d13eb",
    "fn:d=3,m=2,n=1,r=2": "ba2253efd19903eda1f4eca801ff50a1015c08521f64277428136ceb08f906ba",
    "fn:d=2,m=3,n=2,r=3": "2207fe09304c356b27493cdec9f2bf26398631a13ee695c9a9824e74ede235d9",
    "fn:d=3,m=3,n=2,r=2": "9880733c67a7939f7872a991181e95dd98325b32cda0b33fe7784787ceb4d34a",
    "sb:base=cp2,q=3,r=2": "154d5ac45534e4ebdc29b31f113f289831da88a08524799cf0bec13b670e2ca9",
    "sb:base=cp3,q=3,r=3": "0aa5baea6d5158e296888c2f5d51954fdc4b1cff2cb9ddd1a2f0d2e8e9652365",
    "sb:base=point,q=2,r=2": "6c0cca9a9c14644eff23698f403295e5092cbfef9e4e4f19b516b342929a9e6c",
}


def test_shipped_presentations_serialize_byte_for_byte():
    assert tuple(PRESENTATION_DIGESTS) == shipped_names()
    for name, digest in PRESENTATION_DIGESTS.items():
        text = json.dumps(presentation_to_dict(catalog(name)), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_presentation_roundtrip():
    P = config_space(3, 4)
    data = presentation_to_dict(P)
    Q = presentation_from_dict(data)
    assert Q.generator_names() == P.generator_names()
    assert Q.rules.keys() == P.rules.keys()
    for lhs, rhs in P.rules.items():
        assert Q.rules[lhs] == rhs
    assert poincare_series(Q, 6) == poincare_series(P, 6)


def test_roundtrip_preserves_ranks_and_degrees():
    P = truncated_poly_ring()
    Q = presentation_from_dict(presentation_to_dict(P))
    for g in P.generators:
        assert Q.degree(g.name) == g.degree
    assert product(Q, [gen("t1")] * 3) == zero()


def test_non_koszul_parity_rejected():
    # No other sign rule is implemented: a "commutative" file used to load
    # and silently get Koszul signs.
    data = presentation_to_dict(two_odd_ring())
    assert data["parity"] == "koszul"
    data["parity"] = "commutative"
    with pytest.raises(PresentationError, match="parity"):
        presentation_from_dict(data)
    del data["parity"]
    assert presentation_from_dict(data).generator_names() == ("x", "y")


def test_zero_coefficients_dropped():
    e = GradedElement({("x",): Fraction(0), ("y",): Fraction(2)})
    assert ("x",) not in e.terms
    assert bool(e)
    assert not bool(zero())


def test_no_module_outside_gcring_knows_the_kernel_coding():
    # The integer coding is gcring's alone: no other module imports an
    # underscored name from it or reads its coded tables and caches.
    offences = []
    for path in sorted(Path(gcring.__file__).parent.glob("*.py")):
        if path.name == "gcring.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gcring"):
                offences += [f"{where} imports {a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute):
                of_gcring = isinstance(node.value, ast.Name) and node.value.id == "gcring"
                if node.attr in ("_partners", "_index", "_code") or (of_gcring and node.attr.startswith("_")):
                    offences.append(f"{where} reads .{node.attr}")
    assert offences == []


def test_rewrite_step_cap(monkeypatch):
    # The word w_1_k ... w_(k-1)_k of conf:d=3,k takes 2^(k-2) - 1 rewrite
    # steps to its 2^(k-2) terms; at k=20 normal_form ran 10.3 s unbounded.
    P = config_space(3, 8)
    word = tuple(f"w_{i}_8" for i in range(1, 8))
    monkeypatch.setattr(gcring, "MAX_REWRITE_STEPS", 63)
    assert len(normal_form(P, element([(1, word)])).terms) == 64
    monkeypatch.setattr(gcring, "MAX_REWRITE_STEPS", 62)
    cap = r"^rewriting a word in 'conf:d=3,k=8' takes over the cap of 62 steps \(MAX_REWRITE_STEPS\)$"
    with pytest.raises(ValueError, match=cap):
        normal_form(P, element([(1, word)]))
    with pytest.raises(ValueError, match=cap):
        multiply(P, element([(1, word[:-1])]), element([(1, word[-1:])]))


def test_literal_exponent_cap(monkeypatch):
    cap = gcring.MAX_LITERAL_EXPONENT
    assert gcring.parse_rational(f"1e{cap}", "bad literal") == 10**cap
    assert gcring.parse_rational(f"-2.5E-{cap}", "bad literal") == Fraction(-25, 10 ** (cap + 1))
    assert gcring.parse_rational(f"3e+{cap} ", "bad literal") == 3 * 10**cap
    assert gcring.parse_rational("3/2", "bad literal") == Fraction(3, 2)
    for text in ("1e", "x", "1/0"):  # the rest is Fraction's to judge
        with pytest.raises(ValueError, match="^bad literal$"):
            gcring.parse_rational(text, "bad literal")
    assert gcring.json_rational(f"1e-{cap}", "bad literal") == Fraction(1, 10**cap)

    def parsed(*args):
        raise AssertionError(f"Fraction{args} was called: the exponent cap let a literal through")

    monkeypatch.setattr(gcring, "Fraction", parsed)
    for text in (f"1e{cap + 1}", f"-2.5E-{cap + 1}", f"3e+{cap + 1} ", "1e1_001", "1e" + "9" * 4000):
        with pytest.raises(ValueError, match=r"\(MAX_LITERAL_EXPONENT\)$"):
            gcring.json_rational(text, "bad literal")


def test_literal_length_cap(monkeypatch):
    # The longest accepted literals print: their numerators and denominators
    # stay within Python's 4300-digit int-to-str limit.
    cap, exponent = gcring.MAX_LITERAL_LENGTH, gcring.MAX_LITERAL_EXPONENT
    widest = [
        "9" * (cap - len(f"e{exponent}")) + f"e{exponent}",
        "." + "9" * (cap - len(f".e-{exponent}")) + f"e-{exponent}",
        "9" * ((cap - 1) // 2) + "/" + "7" * ((cap - 1) // 2),
    ]
    for text in widest:
        assert len(text) <= cap
        value = gcring.parse_rational(text, "bad literal")
        assert str(value)  # no int-to-str limit error

    def parsed(*args):
        raise AssertionError(f"Fraction{args} was called: the length cap let a literal through")

    monkeypatch.setattr(gcring, "Fraction", parsed)
    for text in ("9" * 4000 + "e1000", "1" * (cap + 1), "1/" + "3" * cap):
        with pytest.raises(ValueError, match=rf"of {len(text)} characters .*\(MAX_LITERAL_LENGTH\)$"):
            gcring.parse_rational(text, "bad literal")
