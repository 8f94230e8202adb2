"""Rewrite engine unit tests: Koszul signs, rule admission, normal forms,
confluence probing, and JSON round-trips.

The fixtures are tiny hand-built rings where every normal form can be
checked by hand; the shipped geometric presentations get their own tests.
"""

import itertools
import random
from fractions import Fraction

import pytest

from distnav.gcring import (
    _count_admissible,
    _rule_components,
    MAX_SERIES_DEGREE,
    Generator,
    GradedElement,
    PresentationError,
    RewriteRule,
    RingPresentation,
    add,
    check_confluence,
    element,
    element_degree,
    gen,
    is_zero,
    multiply,
    normal_form,
    one,
    poincare_series,
    power,
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
        RewriteRule(("t1", "t1"), element([(1, ("t2",))])),
        RewriteRule(("t1", "t2"), zero()),
        RewriteRule(("t2", "t2"), zero()),
    ]
    return RingPresentation([t1, t2], rules, name="trunc")


# === canonicalization and signs ===


def test_koszul_sign_on_odd_swap():
    P = two_odd_ring()
    m = P.canonical(("y", "x"))
    assert m.factors == ("x", "y")
    assert m.sign == -1


def test_odd_square_vanishes():
    P = two_odd_ring()
    assert P.canonical(("x", "x")).sign == 0
    assert is_zero(multiply(P, gen("x"), gen("x")))


def test_even_generators_commute_without_sign():
    P = truncated_poly_ring()
    m = P.canonical(("t2", "t1"))
    assert m == (m.factors, m.sign) == (("t1", "t2"), 1) or m.sign == 1


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
            [t1, t2], [RewriteRule(("t2", "t1"), zero())]
        )


def test_rule_must_preserve_degree():
    t1 = Generator("t1", 2, rank=1)
    t2 = Generator("t2", 4, rank=0)
    bad = RewriteRule(("t1", "t1"), element([(1, ("t1",))]))  # degree 4 vs 2
    with pytest.raises(PresentationError):
        RingPresentation([t1, t2], [bad])


def test_rule_must_decrease_termination_order():
    # rhs reuses the lhs pair itself: no strict decrease
    t1 = Generator("t1", 2, rank=1)
    bad = RewriteRule(("t1", "t1"), element([(1, ("t1", "t1"))]))
    with pytest.raises(PresentationError):
        RingPresentation([t1], [bad])


def test_duplicate_rule_rejected():
    t1 = Generator("t1", 2, rank=1)
    t2 = Generator("t2", 4, rank=0)
    r = RewriteRule(("t1", "t1"), element([(1, ("t2",))]))
    with pytest.raises(PresentationError):
        RingPresentation([t1, t2], [r, r])


def test_unknown_generator_in_rule_rejected():
    with pytest.raises(PresentationError):
        RingPresentation([Generator("a", 2)], [RewriteRule(("a", "zz"), zero())])


# === normal forms ===


def test_truncated_polynomial_normal_forms():
    P = truncated_poly_ring()
    t = gen("t1")
    assert power(P, t, 2) == gen("t2")
    assert is_zero(power(P, t, 3))
    assert is_zero(power(P, t, 4))
    # (1 + t)^3 = 1 + 3t + 3t^2
    u = add(one(), t)
    cube = power(P, u, 3)
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


def test_arithmetic_helpers():
    a = element([(1, ("x",)), (2, ("y",))])
    b = element([(Fraction(1, 2), ("x",))])
    assert subtract(a, a) == zero()
    assert add(a, scale(-1, a)) == zero()
    assert scale(2, b) == element([(1, ("x",))])
    assert scale(0, a) == zero()


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


# === factorized Poincare series against the full enumeration ===


def enumerated_series(P, max_degree):
    """The oracle: admissible words over the whole generator tuple at once."""
    return _count_admissible(P, max_degree, P.generator_names())


def top_degree(P):
    return sum(g.degree for g in P.generators)


@pytest.mark.parametrize("name", shipped_names())
def test_factorized_series_matches_enumeration_on_shipped_rings(name):
    P = catalog(name)
    assert poincare_series(P, top_degree(P)) == enumerated_series(P, top_degree(P))


@pytest.mark.parametrize("cell", list(itertools.product((2, 3), (2, 3), (1, 2), (2, 3))))
def test_factorized_series_matches_enumeration_on_grid(cell):
    fp = fn_fiber_product(*cell)
    limit = fp.witness_degree() + 2
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
    return RingPresentation(gens, [RewriteRule(lhs, zero()) for lhs in chosen])


def test_factorized_series_matches_enumeration_on_random_rings():
    rng = random.Random(17)
    self_rules = 0
    for _ in range(50):
        P = random_zero_rule_ring(rng)
        self_rules += sum(1 for a, b in P.rules if a == b)
        assert poincare_series(P, 9) == enumerated_series(P, 9), presentation_to_dict(P)
    assert self_rules > 0


def test_rule_components_split_independent_generators():
    P = RingPresentation(
        [Generator("a", 2), Generator("b", 1), Generator("c", 2), Generator("d", 1)],
        [RewriteRule(("a", "c"), zero()), RewriteRule(("b", "b"), zero())],
    )
    assert sorted(_rule_components(P)) == [["a", "c"], ["b"], ["d"]]
    # pure powers of a or of c (no a*c), times (1 + t)^2 from b and d
    assert poincare_series(P, 4) == enumerated_series(P, 4) == [1, 2, 3, 4, 4]


def test_poincare_series_rejects_negative_degree():
    with pytest.raises(ValueError):
        poincare_series(two_odd_ring(), -1)
    # the cap is checked before any list of MAX_SERIES_DEGREE ints is built
    with pytest.raises(ValueError, match="MAX_SERIES_DEGREE"):
        poincare_series(two_odd_ring(), MAX_SERIES_DEGREE + 1)


# === serialization ===


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
    assert power(Q, gen("t1"), 3) == zero()


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
