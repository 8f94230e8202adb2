"""Certificate machinery: ring maps, diagonal kernels, witness products,
Euler heights, and the cup-length search.

Witness monomials and coefficients below were frozen from exact runs of the
product expansion; the acceptance suite re-verifies the full parameter grid.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import distnav.bounds as bounds
import distnav.gcring as gcring
from distnav.bounds import (
    MAX_WITNESS_WORK,
    CertificateError,
    RingMap,
    _witness_terms,
    apply_ring_map,
    certificate_to_dict,
    check_witness_work,
    copy_differences,
    cup_length_kernel,
    diagonal_fn,
    euler_height,
    ring_top_degree,
    sphere_bundle_lower_bound,
    tower_diagonal,
    validate_ring_map,
    verify_witness_fn,
    witness_is_live,
    witness_work,
)
from distnav.gcring import (
    Generator,
    GradedElement,
    PresentationError,
    RingPresentation,
    add,
    element,
    element_degree,
    gen,
    is_zero,
    multiply,
    normal_form,
    one,
    product,
    scale,
    subtract,
    zero,
)
from distnav.presentations import (
    catalog,
    complex_projective,
    config_space,
    cpn_sphere_bundle,
    fn_fiber_product,
    point,
    shipped_names,
    sphere_bundle_tower,
)


# === ring maps ===


def test_diagonal_collapses_copies():
    fp = fn_fiber_product(2, 2, 1, 2)
    f = diagonal_fn(fp)
    d = subtract(gen("w1_1_3"), gen("w2_1_3"))
    assert is_zero(apply_ring_map(f, d))
    assert apply_ring_map(f, gen("w_1_2")) == gen("w_1_2")


def name_parsing_diagonal_images(fp):
    """The collapse images as diagonal_fn built them by reading each
    generator name back: w{l}_i_j split at "_" into i and j."""
    images = {}
    for name in fp.ring.generator_names():
        _, i, j = name.split("_")
        images[name] = gen(fp.w(1, int(i), int(j)))
    return images


# The fn cells of the shipped catalog names and of the certify and rewrite
# benchmarks (grid, witness and cup-length cells).
SHIPPED_AND_BENCH_FN_CELLS = sorted(
    {(2, 2, 1, 2), (3, 2, 1, 2), (2, 3, 2, 3), (3, 3, 2, 2)}
    | set(itertools.product((2, 3), (2, 3), (1, 2), (2, 3)))
    | {(3, 2, 2, 4), (2, 2, 2, 4), (3, 3, 3, 2)}
    | {(2, 2, 1, 2), (3, 2, 1, 2), (2, 2, 1, 3), (3, 2, 1, 3), (2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 1, 3)}
)


def test_diagonal_fn_matches_the_name_parsing_map():
    # diagonal_fn keys its images by fp.w over fp.classes(), which list the
    # generators in registration order, instead of parsing names back.
    for cell in SHIPPED_AND_BENCH_FN_CELLS:
        fp = fn_fiber_product(*cell)
        assert [fp.w(l, i, j) for l, i, j in fp.classes()] == list(fp.ring.generator_names()), cell
        images = diagonal_fn(fp).images
        oracle = name_parsing_diagonal_images(fp)
        assert list(images) == list(oracle), cell
        assert images == oracle, cell


def test_ring_map_is_multiplicative():
    fp = fn_fiber_product(3, 2, 1, 2)
    f = diagonal_fn(fp)
    a = gen("w1_1_3")
    b = gen("w1_2_3")
    left = apply_ring_map(f, multiply(fp.ring, a, b))
    right = multiply(f.ring, apply_ring_map(f, a), apply_ring_map(f, b))
    assert left == right


def apply_ring_map_per_term(f, a):
    """The normal form after every term that apply_ring_map replaced (oracle)."""
    total = GradedElement({})
    for word, coeff in a.terms.items():
        term = GradedElement({(): Fraction(coeff)})
        for g in word:
            term = multiply(f.ring, term, f.images[g])
            if is_zero(term):
                break
        total = normal_form(f.ring, add(total, term))
    return total


def shipped_diagonals():
    """The diagonal maps of the shipped fn rings and sphere-bundle towers."""
    maps = []
    for name in shipped_names():
        kind, _, spec = name.partition(":")
        kv = dict(part.split("=") for part in spec.split(",")) if spec else {}
        if kind == "fn":
            maps.append(diagonal_fn(fn_fiber_product(*(int(kv[k]) for k in "dmnr"))))
        elif kind == "sb" and kv["base"].startswith("cp"):
            maps.append(tower_diagonal(cpn_sphere_bundle(int(kv["base"][2:]), int(kv["r"]))))
        elif kind == "sb":
            base = catalog(kv["base"])
            maps.append(tower_diagonal(sphere_bundle_tower(base, zero(), int(kv["q"]), int(kv["r"]))))
    return maps


def test_apply_ring_map_matches_per_term_normal_forms():
    rng = random.Random(31)
    maps = shipped_diagonals()
    assert len(maps) == 7
    for f in maps:
        gens = list(f.ring.generator_names())
        for _ in range(40):
            terms = [
                (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                 tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))))
                for _ in range(rng.randint(1, 5))
            ]
            a = element(terms)
            assert apply_ring_map(f, a) == apply_ring_map_per_term(f, a)
        # terms whose images cancel: copies of one class collapse together
        for g in gens:
            for h in gens:
                a = subtract(gen(g), gen(h))
                assert apply_ring_map(f, a) == apply_ring_map_per_term(f, a)


def validate_ring_map_by_names(f):
    """validate_ring_map on name tuples, both sides of a rule as GradedElements (oracle)."""
    for name in f.ring.generator_names():
        if name not in f.images:
            raise PresentationError(f"ring map misses generator {name!r}")
        img_deg = element_degree(f.ring, f.images[name])
        if img_deg is not None and img_deg != f.ring.degree(name):
            raise PresentationError(
                f"ring map image of {name!r} has degree {img_deg}, "
                f"expected {f.ring.degree(name)}"
            )
    for (a, b), rhs in f.ring.rules.items():
        lhs_img = multiply(f.ring, f.images[a], f.images[b])
        rhs_img = apply_ring_map_per_term(f, rhs)
        if lhs_img != rhs_img:
            raise PresentationError(f"ring map does not respect the rule on ({a}, {b})")


def validation_outcome(validate, ring, images):
    """The message validate raises on a fresh map, or None when it passes."""
    try:
        validate(RingMap(ring, images))
    except PresentationError as exc:
        return str(exc)
    return None


def truncated_ring():
    """a of degree 2 with a*a -> a2 and every longer product zero."""
    return RingPresentation(
        (Generator("a", 2), Generator("a2", 4)),
        (
            (("a", "a"), gen("a2")),
            (("a", "a2"), zero()),
            (("a2", "a2"), zero()),
        ),
        name="truncated",
    )


FN_CELLS = [(d, m, n, r) for d in (2, 3, 4) for m in (2, 3, 4) for n in (1, 2, 3) for r in (2, 3, 4)]


def test_validators_pass_on_shipped_and_fn_diagonals():
    maps = shipped_diagonals() + [diagonal_fn(fn_fiber_product(*cell)) for cell in FN_CELLS]
    assert len(maps) == 7 + 81
    for f in maps:
        validate_ring_map(RingMap(f.ring, f.images))
        validate_ring_map_by_names(f)


def test_validators_agree_on_seeded_mutants():
    # Each mutant sends one generator to another generator of the same degree.
    rng = random.Random(17)
    raised = 0
    for f in shipped_diagonals():
        names = f.ring.generator_names()
        for _ in range(8):
            g = rng.choice(names)
            others = [h for h in names if f.ring.degree(h) == f.ring.degree(g) and gen(h) != f.images[g]]
            if not others:
                continue
            images = {**f.images, g: gen(rng.choice(others))}
            message = validation_outcome(validate_ring_map_by_names, f.ring, images)
            assert validation_outcome(validate_ring_map, f.ring, images) == message
            if message is not None:
                assert message.startswith("ring map does not respect the rule on (")
                raised += 1
    assert raised >= 25


def test_validators_agree_when_a_repeated_image_pair_breaks():
    # The coded validator computes the image of a rule's left side once per
    # pair of generator images.  Each mutant perturbs one right-hand term of
    # a rule whose pair of images repeats an earlier rule's pair, so that
    # rule, and no earlier one, breaks.
    rng = random.Random(41)
    raised = maps = tried = 0
    for f in shipped_diagonals():
        P = f.ring
        rules = list(P.rules.items())
        pairs = [(normal_form(P, f.images[a]), normal_form(P, f.images[b])) for a, b in P.rules]
        repeats = [k for k, (_, rhs) in enumerate(rules) if rhs.terms and pairs[k] in pairs[:k]]
        maps += bool(repeats)
        for k in rng.sample(repeats, min(10, len(repeats))):
            (a, b), rhs = rules[k]
            word = rng.choice(sorted(rhs.terms))
            factor = rng.choice([0, -1, 2, Fraction(3, 2)])
            broken = element([(c * factor if w == word else c, w) for w, c in rhs.terms.items()])
            ring = RingPresentation(
                P.generators,
                [(lhs, broken if i == k else r) for i, (lhs, r) in enumerate(rules)],
                name=P.name,
            )
            message = validation_outcome(validate_ring_map_by_names, ring, f.images)
            assert validation_outcome(validate_ring_map, ring, f.images) == message
            tried += 1
            if message is not None:
                assert message == f"ring map does not respect the rule on ({a}, {b})"
                raised += 1
    assert maps == 5 and raised == tried >= 20


def test_validators_agree_on_images_sharing_a_leading_term():
    # Each mutant adds a generator to one image, which then shares its leading
    # term, not its code, with the images of the generator's other copies.
    rng = random.Random(43)
    raised = tried = 0
    for f in shipped_diagonals():
        names = f.ring.generator_names()
        for _ in range(6):
            g = rng.choice(names)
            others = [h for h in names if h != g and f.ring.degree(h) == f.ring.degree(g)]
            if not others:
                continue
            images = {**f.images, g: add(f.images[g], gen(rng.choice(others)))}
            message = validation_outcome(validate_ring_map_by_names, f.ring, images)
            assert validation_outcome(validate_ring_map, f.ring, images) == message
            tried += 1
            raised += message is not None
    assert tried >= 30 and raised >= 15


def test_validators_agree_on_fractional_images():
    # Images over different denominators: the rule comparison cross-multiplies.
    ring = truncated_ring()
    for a_scale in (Fraction(1, 2), Fraction(-2, 3), Fraction(3)):
        for a2_scale in (a_scale**2, a_scale, 2 * a_scale**2, Fraction(1, 5)):
            images = {"a": scale(a_scale, gen("a")), "a2": scale(a2_scale, gen("a2"))}
            message = validation_outcome(validate_ring_map_by_names, ring, images)
            assert (message is None) == (a2_scale == a_scale**2)
            assert validation_outcome(validate_ring_map, ring, images) == message
            f = RingMap(ring, images)
            for a in (gen("a"), gen("a2"), element([(Fraction(3, 7), ("a", "a")), (1, ("a2",))])):
                assert apply_ring_map(f, a) == apply_ring_map_per_term(f, a)


def test_ring_map_encodes_each_image_once(monkeypatch):
    fp = fn_fiber_product(2, 3, 2, 3)
    f = RingMap(fp.ring, diagonal_fn(fp).images)
    calls = []
    index_terms = gcring._index_terms
    monkeypatch.setattr(gcring, "_index_terms", lambda P, a: calls.append(a) or index_terms(P, a))
    a = element([(1, ("w1_1_4", "w2_2_4")), (-2, ("w_1_2", "w3_1_5")), (Fraction(1, 3), ("w2_2_4",))])
    first = apply_ring_map(f, a)
    assert calls[0] is a  # the argument's own encoding comes first
    images = [e for e in calls if e is not a]
    assert len(images) == 4  # one image per distinct generator of a
    for _ in range(5):
        assert apply_ring_map(f, a) == first
    assert [e for e in calls if e is not a] == images
    assert first == apply_ring_map_per_term(f, a) and not is_zero(first)


def test_ring_map_stops_at_a_zero_partial_product(monkeypatch):
    calls = []
    index_terms = gcring._index_terms
    monkeypatch.setattr(gcring, "_index_terms", lambda P, a: calls.append(a) or index_terms(P, a))
    ring = truncated_ring()
    f = RingMap(ring, {"a": zero(), "a2": gen("a2")})
    a = element([(1, ("a", "a2", "a2"))])
    assert is_zero(apply_ring_map(f, a))
    assert calls[0] is a  # the argument's own encoding comes first
    assert calls[1:] == [zero()]  # the image of a2 was never read


def test_ring_map_results_do_not_depend_on_call_order():
    # apply_ring_map and validate_ring_map fill one memo on the map; whichever
    # runs first, and however often, each answer is the oracle's.
    rng = random.Random(47)
    ring = truncated_ring()
    fractional = [
        (ring, {"a": scale(Fraction(1, 2), gen("a")), "a2": scale(s, gen("a2"))})
        for s in (Fraction(1, 4), Fraction(1, 5))  # 1/5 breaks the rule a*a -> a2
    ]
    cases = [(f.ring, f.images) for f in shipped_diagonals()] + fractional
    messages = []

    def outcome(f):
        try:
            validate_ring_map(f)
        except PresentationError as exc:
            return str(exc)
        return None

    for ring, images in cases:
        gens = ring.generator_names()
        args = [
            element([
                (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                 tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))))
                for _ in range(rng.randint(1, 4))
            ])
            for _ in range(6)
        ]
        oracle = RingMap(ring, images)
        images_of = [apply_ring_map_per_term(oracle, a) for a in args]
        message = validation_outcome(validate_ring_map_by_names, ring, images)
        messages.append(message)

        f = RingMap(ring, images)  # apply before validate
        assert [apply_ring_map(f, a) for a in args] == images_of
        assert outcome(f) == message
        f = RingMap(ring, images)  # validate before apply
        assert outcome(f) == message
        assert [apply_ring_map(f, a) for a in args] == images_of
        f = RingMap(ring, images)  # repeated applies, in reverse order the second time
        assert [apply_ring_map(f, a) for a in args] == images_of
        assert [apply_ring_map(f, a) for a in reversed(args)] == images_of[::-1]
    assert messages.count(None) == len(cases) - 1 and messages[-1] is not None


def test_validate_ring_map_catches_degree_mismatch():
    ring = config_space(2, 3)
    images = {name: gen(name) for name in ring.generator_names()}
    images["w_1_2"] = multiply(ring, gen("w_1_2"), gen("w_2_3"))  # degree 1 sent to 2
    with pytest.raises(PresentationError):
        validate_ring_map(RingMap(ring, images))


def test_validate_ring_map_catches_a_broken_rule():
    ring = config_space(2, 3)
    images = {name: gen(name) for name in ring.generator_names()}
    images["w_1_2"] = zero()  # kills the rhs of w_1_3 w_2_3 -> w_1_2 (w_2_3 - w_1_3)
    with pytest.raises(PresentationError, match="does not respect"):
        validate_ring_map(RingMap(ring, images))


def test_validate_ring_map_requires_all_generators():
    ring = config_space(2, 3)
    images = {"w_1_2": gen("w_1_2")}
    with pytest.raises(PresentationError):
        validate_ring_map(RingMap(ring, images))


def test_collapse_maps_stay_in_their_ring():
    fp = fn_fiber_product(2, 3, 2, 3)
    f = diagonal_fn(fp)
    assert f.ring is fp.ring
    assert f.images["w3_2_5"] == gen("w1_2_5")
    assert f.images["w_1_3"] == gen("w_1_3")
    tower = cpn_sphere_bundle(2, 3)
    g = tower_diagonal(tower)
    assert g.ring is tower.ring
    assert g.images["u2"] == tower.section_euler and g.images["u"] == gen("u")


# === fiber-product witnesses ===

# (d, m, n, r) -> certified bound; rn+m-1 for odd d, rn+m-2 for even d
FROZEN_BOUNDS = {
    (2, 2, 1, 2): 2,
    (3, 2, 1, 2): 3,
    (2, 3, 2, 3): 7,
    (3, 3, 2, 3): 8,
}


@pytest.mark.parametrize("cell,expected", sorted(FROZEN_BOUNDS.items()))
def test_witness_bounds(cell, expected):
    cert = verify_witness_fn(fn_fiber_product(*cell))
    assert cert.bound == expected
    assert cert.coefficient != 0
    assert cert.provenance == "fiber-product-diagonal-kernel-witness"


def test_witness_details_smallest_cells():
    c2 = verify_witness_fn(fn_fiber_product(2, 2, 1, 2))
    assert c2.witness_monomial == ("w1_1_3", "w2_2_3")
    assert c2.coefficient == Fraction(-1)
    c3 = verify_witness_fn(fn_fiber_product(3, 2, 1, 2))
    assert c3.witness_monomial == ("w_1_2", "w1_1_3", "w2_2_3")
    assert c3.coefficient == Fraction(2)


def test_witness_factors_lie_in_diagonal_kernel():
    fp = fn_fiber_product(3, 2, 2, 2)
    cert = verify_witness_fn(fp)
    f = diagonal_fn(fp)
    for factor in cert.factors:
        assert is_zero(apply_ring_map(f, factor))


def test_certificate_serialization():
    cert = verify_witness_fn(fn_fiber_product(2, 2, 1, 2))
    data = certificate_to_dict(cert)
    assert data["bound"] == 2
    assert data["witness_monomial"] == ["w1_1_3", "w2_2_3"]
    assert data["provenance"] == "fiber-product-diagonal-kernel-witness"


def old_factor_terms(f):
    """certificate_to_dict's own factor encoder before it shared
    gcring.element_to_json with presentation_to_dict (oracle)."""
    return sorted(
        ({"coeff": str(c), "monomial": list(w)} for w, c in f.terms.items()),
        key=lambda t: t["monomial"],
    )


def test_certificate_factors_keep_their_encoding():
    certs = [verify_witness_fn(fn_fiber_product(*cell)) for cell in FN_CELLS[:27]]
    certs += [sphere_bundle_lower_bound(cpn_sphere_bundle(n, r)) for n in (1, 2, 3) for r in (2, 3)]
    for cert in certs:
        factors = certificate_to_dict(cert)["factors"]
        assert factors == [old_factor_terms(f) for f in cert.factors]
        assert json.dumps(factors) == json.dumps([old_factor_terms(f) for f in cert.factors])
    # Factors with several terms and non-unit coefficients are covered.
    assert any(len(f.terms) > 2 for cert in certs for f in cert.factors)
    assert any(abs(c) != 1 for cert in certs for f in cert.factors for c in f.terms.values())


# === Euler heights ===


@pytest.mark.parametrize("n", range(1, 7))
def test_cpn_generator_height(n):
    P = complex_projective(n)
    assert euler_height(P, gen("a1"), max_power=n + 2) == n


def test_height_of_zero_class():
    assert euler_height(complex_projective(2), zero(), max_power=5) == 0


def test_tower_section_euler_heights():
    # h(2u - a) over cp_n: n+1 for even n, n for odd n, since (2u-a)^2 = a^2
    expected = {1: 1, 2: 3, 3: 3, 4: 5}
    for n, h in expected.items():
        tower = cpn_sphere_bundle(n, 2)
        top = sum(g.degree for g in tower.ring.generators)
        assert euler_height(tower.ring, tower.section_euler, max_power=top // 2 + 1) == h


# === sphere-bundle certificates ===


@pytest.mark.parametrize("n,r", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_tower_lower_bound_meets_target(n, r):
    cert = sphere_bundle_lower_bound(cpn_sphere_bundle(n, r))
    assert cert.bound >= n + r - 1
    assert cert.provenance == "sphere-bundle-tower-witness"


def test_tower_balanced_partition():
    tower = cpn_sphere_bundle(4, 3)
    default = sphere_bundle_lower_bound(tower)
    split = sphere_bundle_lower_bound(tower, partition=(3, 2))
    assert default.bound == split.bound == 7


def test_tower_bad_partition_rejected():
    # A bad request (ValueError, exit 2), not a failed certificate.
    tower = cpn_sphere_bundle(2, 2)  # height of the section class is 3
    with pytest.raises(ValueError, match=r"^partition \(2,\) is not a nonnegative composition"):
        sphere_bundle_lower_bound(tower, partition=(2,))  # wrong sum
    with pytest.raises(ValueError, match="into 1 parts$"):
        sphere_bundle_lower_bound(tower, partition=(2, 1))  # needs r-1 = 1 parts


def test_tower_needs_two_copies():
    tower = sphere_bundle_tower(complex_projective(1), gen("a1"), 3, 1)
    with pytest.raises(ValueError, match=r"^tower witness needs at least two factors \(r >= 2\), got r=1$"):
        sphere_bundle_lower_bound(tower)


def test_tower_diagonal_kills_witness_factors():
    tower = cpn_sphere_bundle(2, 2)
    f = tower_diagonal(tower)
    w = subtract(gen("u1"), tower.pullback_section_euler(1))
    assert is_zero(apply_ring_map(f, w))


# === cup-length search ===


def kernel_elements(fp):
    """The kernel classes that bound cup-length searches, in its order."""
    return list(copy_differences(fp).values())


def test_cup_length_fn_even_d():
    fp = fn_fiber_product(2, 2, 1, 2)
    assert cup_length_kernel(fp.ring, diagonal_fn(fp), kernel_elements(fp)) == 2


def test_cup_length_fn_odd_d():
    fp = fn_fiber_product(3, 2, 1, 2)
    assert cup_length_kernel(fp.ring, diagonal_fn(fp), kernel_elements(fp)) == 3


def test_cup_length_rejects_non_kernel_element():
    fp = fn_fiber_product(2, 2, 1, 2)
    with pytest.raises(CertificateError):
        cup_length_kernel(fp.ring, diagonal_fn(fp), [gen("w_1_2")])


@pytest.mark.parametrize(
    "elements, message",
    [
        (lambda ds: [zero()], "^kernel element 0 is zero$"),
        (lambda ds: [ds[0], zero()], "^kernel element 1 is zero$"),
    ],
    ids=["zero", "zero-second"],
)
def test_cup_length_rejects_zero_elements_and_budgets_out_of_range(elements, message):
    fp = fn_fiber_product(2, 2, 1, 2)
    with pytest.raises(CertificateError, match=message):
        cup_length_kernel(fp.ring, diagonal_fn(fp), elements(kernel_elements(fp)))


def test_cup_length_of_no_elements_is_zero():
    fp = fn_fiber_product(2, 2, 1, 2)
    length = cup_length_kernel(fp.ring, diagonal_fn(fp), [])
    assert (length, length.optimality) == (0, "ceiling")


def test_cup_length_rejects_inhomogeneous_element():
    fp = fn_fiber_product(2, 2, 1, 2)
    d = subtract(gen("w1_1_3"), gen("w2_1_3"))
    with pytest.raises(PresentationError):
        cup_length_kernel(fp.ring, diagonal_fn(fp), [add(d, one())])


def test_ring_top_degree(monkeypatch):
    assert ring_top_degree(complex_projective(3)) == 6
    assert ring_top_degree(point()) == 0
    # A rule-free even generator spans every even degree, up to
    # MAX_SERIES_DEGREE and past it: the top degree is unknown, and the cup
    # length refuses the ring before any chain product.
    P = RingPresentation((Generator("x", 2),), (), name="poly")
    message = r"^poly has a nonzero piece in degree 512 \(MAX_SERIES_DEGREE\), so its top degree is not known$"
    with pytest.raises(ValueError, match=message):
        ring_top_degree(P)
    calls = []
    monkeypatch.setattr(gcring.Chain, "times", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        cup_length_kernel(P, RingMap(P, {"x": zero()}), [gen("x")])
    assert calls == []


def multiset_cup_length_search(P, elements, pruned=False):
    """The depth-first search over multisets of the elements that
    cup_length_kernel replaced, up to MAX_CUP_LENGTH factors.  Unpruned,
    every multiset is explored; pruned, as the library searched, an odd
    element is never squared and the search stops once a chain reaches top
    degree // least element degree."""
    cap = bounds.MAX_CUP_LENGTH
    degrees = [element_degree(P, e) for e in elements]
    top = ring_top_degree(P)
    ceiling = top // min(degrees) if pruned else cap + 1
    best = 0

    def dfs(start, acc, acc_degree, length):
        nonlocal best
        for idx in range(start, len(elements)):
            ndeg = acc_degree + degrees[idx]
            if ndeg > top:
                continue
            nxt = multiply(P, acc, elements[idx])
            if is_zero(nxt):
                continue
            best = max(best, length + 1)
            if best >= ceiling:
                return True
            odd_step = degrees[idx] % 2 if pruned else 0
            if length + 1 < cap and dfs(idx + odd_step, nxt, ndeg, length + 1):
                return True
        return False

    dfs(0, one(), 0, 0)
    return best


def fn_closed_form(d, m, n, r):
    return r * n + m - 1 if d % 2 else r * n + m - 2


# The cup-length cells of the rewrite benchmark.
BENCH_CUP_CELLS = [
    (2, 2, 1, 2), (3, 2, 1, 2), (2, 2, 1, 3), (3, 2, 1, 3), (2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 1, 3)
]


@pytest.mark.parametrize("cell", BENCH_CUP_CELLS)
def test_cup_length_early_exit_matches_unpruned_search(cell):
    fp = fn_fiber_product(*cell)
    elements = kernel_elements(fp)
    got = cup_length_kernel(fp.ring, diagonal_fn(fp), elements)
    assert got == multiset_cup_length_search(fp.ring, elements)
    assert got == fn_closed_form(*cell)


@pytest.mark.parametrize("cell", BENCH_CUP_CELLS + [(2, 2, 1, 4), (2, 4, 1, 3), (2, 2, 3, 2)])
def test_cup_length_matches_pruned_search(cell):
    # The three extra cells are even-d cells the multiset search answered
    # within its old limit of 3000 products.
    fp = fn_fiber_product(*cell)
    elements = kernel_elements(fp)
    got = cup_length_kernel(fp.ring, diagonal_fn(fp), elements)
    assert got == multiset_cup_length_search(fp.ring, elements, pruned=True) == fn_closed_form(*cell)
    if cell[0] % 2:  # odd d reaches the degree ceiling
        assert (got.optimality, got.error_bound) == ("ceiling", None)
    else:
        assert (got.optimality, got.error_bound) == ("probabilistic", Fraction(got + 1, 2**61))


def test_cup_length_is_the_same_on_every_call():
    fp = fn_fiber_product(2, 2, 2, 2)
    collapse, elements = diagonal_fn(fp), kernel_elements(fp)
    first, second = (cup_length_kernel(fp.ring, collapse, elements) for _ in range(2))
    assert first == second == 4 and type(first) is bounds.CupLength and repr(first) == "4"
    assert (first.optimality, first.error_bound) == (second.optimality, second.error_bound)


@pytest.mark.parametrize("cell", [(2, 2, 2, 2), (2, 3, 1, 3), (2, 2, 1, 5)])
def test_generic_product_is_nonzero_at_the_returned_length(cell):
    # The coefficients are drawn in order, element by element, one chain
    # step at a time, as getrandbits(61) + 1 from random.Random(CUP_LENGTH_SEED).
    fp = fn_fiber_product(*cell)
    elements = kernel_elements(fp)
    k = cup_length_kernel(fp.ring, diagonal_fn(fp), elements)
    rng = random.Random(bounds.CUP_LENGTH_SEED)
    combinations = []
    for _ in range(k + 1):
        coeffs = [rng.getrandbits(61) + 1 for _ in elements]
        combo = zero()
        for a, e in zip(coeffs, elements):
            combo = add(combo, scale(a, e))
        combinations.append(combo)
    assert not is_zero(product(fp.ring, combinations[:k]))
    assert is_zero(product(fp.ring, combinations))


def test_cup_length_never_squares_an_odd_element(monkeypatch):
    # x x = -x x over Q for odd x, so that product is always zero.
    # (2,2,1,3) has odd elements only; the greedy chain multiplies the
    # elements themselves, the generic chain their combinations.
    fp = fn_fiber_product(2, 2, 1, 3)
    collapse = diagonal_fn(fp)
    elements = kernel_elements(fp)
    assert all(element_degree(fp.ring, e) % 2 for e in elements)
    kept = {}  # id of a chain -> indices of the elements it multiplied in
    steps = []  # keeps every chain alive, so no id is reused
    real_times = gcring.Chain.times

    def tracking(chain, e):
        idx = next((i for i, x in enumerate(elements) if x is e), None)
        if idx is None:  # a generic combination: the greedy chain is over
            return real_times(chain, e)
        factors = kept.get(id(chain), ())
        assert idx not in factors, f"odd element {idx} multiplied by itself"
        nonzero = real_times(chain, e)
        if nonzero:
            kept[id(chain)] = factors + (idx,)
        steps.append(chain)
        return nonzero

    monkeypatch.setattr(gcring.Chain, "times", tracking)
    assert cup_length_kernel(fp.ring, collapse, elements) == fn_closed_form(2, 2, 1, 3)
    assert steps


def test_cup_length_reaches_degree_ceiling_on_odd_cell():
    # The unpruned search runs for minutes here; the ceiling exit stops it.
    fp = fn_fiber_product(3, 3, 2, 3)
    got = cup_length_kernel(fp.ring, diagonal_fn(fp), kernel_elements(fp))
    assert got == 8 and got.optimality == "ceiling"


def test_cup_length_pairs_cap_names_the_ring(monkeypatch):
    # The generic chain of (2,2,1,3) multiplies 6, 36, 108 and 108 pairs of
    # terms; a cap of 40 stops it before its third product, after the
    # greedy chain (at most 16 pairs a product) found a length of 3.
    monkeypatch.setattr(bounds, "MAX_CHAIN_PAIRS", 40)
    fp = fn_fiber_product(2, 2, 1, 3)
    message = r"fn:d=2,m=2,n=1,r=3 would multiply 108 pairs .*best so far 3$"
    with pytest.raises(ValueError, match=message):
        cup_length_kernel(fp.ring, diagonal_fn(fp), kernel_elements(fp))


def test_cup_length_pairs_cap_stops_before_the_product(monkeypatch):
    monkeypatch.setattr(bounds, "MAX_CHAIN_PAIRS", 1)
    calls = []
    monkeypatch.setattr(gcring.Chain, "times", lambda *args: calls.append(args))
    fp = fn_fiber_product(2, 2, 1, 3)
    with pytest.raises(ValueError, match=r"MAX_CHAIN_PAIRS\); best so far 0$"):
        cup_length_kernel(fp.ring, diagonal_fn(fp), kernel_elements(fp))
    assert calls == []


def test_cup_length_refuses_a_collapse_of_another_ring(monkeypatch):
    # The products ran in one ring and the kernel check in the other, and
    # this pair answered 3.
    calls = []
    monkeypatch.setattr(gcring.Chain, "times", lambda *args: calls.append(args))
    fp, other = fn_fiber_product(3, 2, 1, 2), fn_fiber_product(2, 2, 1, 2)
    message = r"^cup length asked in fn:d=3,m=2,n=1,r=2 with a collapse map of fn:d=2,m=2,n=1,r=2$"
    with pytest.raises(ValueError, match=message):
        cup_length_kernel(fp.ring, diagonal_fn(other), kernel_elements(fp))
    assert calls == []


# === coded chains against the decoded ones they replaced ===


def decoded_euler_height(P, e, max_power):
    """euler_height as it ran before its chain stayed coded: every power
    decoded by multiply."""
    height, acc = 0, one()
    for k in range(1, max_power + 1):
        acc = multiply(P, acc, e)
        if is_zero(acc):
            break
        height = k
    return height


def decoded_cup_length(P, elements):
    """The greedy and generic chains of cup_length_kernel as they ran before
    they stayed coded, every partial product decoded by multiply: (length,
    error_bound), or the same ValueError at MAX_CUP_LENGTH or
    MAX_CHAIN_PAIRS."""
    degrees = [element_degree(P, e) for e in elements]
    top = ring_top_degree(P)
    ceiling = top // min(degrees)

    def step(acc, length, x, best):
        if length >= bounds.MAX_CUP_LENGTH:
            raise ValueError(
                f"cup-length chain on {P.name} would pass the length cap of "
                f"{bounds.MAX_CUP_LENGTH} (MAX_CUP_LENGTH); best so far {best}"
            )
        pairs = len(acc.terms) * len(x.terms)
        if pairs > bounds.MAX_CHAIN_PAIRS:
            raise ValueError(
                f"cup-length chain on {P.name} would multiply {pairs} pairs of terms, "
                f"over the cap of {bounds.MAX_CHAIN_PAIRS} (MAX_CHAIN_PAIRS); best so far {best}"
            )
        return multiply(P, acc, x)

    greedy, acc, acc_degree, start = 0, one(), 0, 0
    while greedy < ceiling:
        for idx in range(start, len(elements)):
            if acc_degree + degrees[idx] > top:
                continue
            nxt = step(acc, greedy, elements[idx], greedy)
            if not is_zero(nxt):
                greedy, acc, start = greedy + 1, nxt, idx + degrees[idx] % 2
                acc_degree += degrees[idx]
                break
        else:
            break
    if greedy == ceiling:
        return greedy, None
    rng = random.Random(bounds.CUP_LENGTH_SEED)
    generic, acc = 0, one()
    while generic < ceiling:
        coeffs = [rng.getrandbits(61) + 1 for _ in elements]
        x = element((a * c, w) for a, e in zip(coeffs, elements) for w, c in e.terms.items())
        acc = step(acc, generic, x, max(greedy, generic))
        if is_zero(acc):
            return max(greedy, generic), Fraction(generic + 1, 2**61)
        generic += 1
    return generic, None


@pytest.mark.parametrize("n", range(1, 10))
def test_euler_height_matches_the_decoded_powers_on_cpn(n):
    P = complex_projective(n)
    for e in (gen("a1"), scale(Fraction(-3, 2), gen("a1")), zero()):
        assert euler_height(P, e, n + 2) == decoded_euler_height(P, e, n + 2)


@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 7) for r in (2, 3, 4)])
def test_euler_height_matches_the_decoded_powers_on_towers(n, r):
    tower = cpn_sphere_bundle(n, r)
    top = sum(g.degree for g in tower.ring.generators)
    max_power = top // (tower.q - 1) + 1
    for e in (tower.section_euler, subtract(gen("u1"), tower.pullback_section_euler(1))):
        assert euler_height(tower.ring, e, max_power) == decoded_euler_height(tower.ring, e, max_power)


def cup_length_outcomes(fp):
    """cup_length_kernel and decoded_cup_length on the fiber power, each as
    (length, error_bound) or the message of its ValueError."""
    collapse, elements = diagonal_fn(fp), kernel_elements(fp)
    outcomes = []
    for run in (lambda: cup_length_kernel(fp.ring, collapse, elements), lambda: decoded_cup_length(fp.ring, elements)):
        try:
            got = run()
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(tuple(got) if isinstance(got, tuple) else (int(got), got.error_bound))
    return outcomes


@pytest.mark.parametrize("cell", BENCH_CUP_CELLS + [(2, 4, 1, 3), (2, 2, 3, 2)])
def test_cup_length_matches_the_decoded_chains(monkeypatch, cell):
    fp = fn_fiber_product(*cell)
    elements = kernel_elements(fp)
    got = cup_length_kernel(fp.ring, diagonal_fn(fp), elements)
    length, error_bound = decoded_cup_length(fp.ring, elements)
    assert (got, got.error_bound) == (length, error_bound)
    assert got.optimality == ("ceiling" if error_bound is None else "probabilistic")
    # Every length cap below the answer: both refuse before the same
    # product, with the same message.
    for cap in range(got):
        monkeypatch.setattr(bounds, "MAX_CUP_LENGTH", cap)
        refused, decoded = cup_length_outcomes(fp)
        assert refused == decoded and "(MAX_CUP_LENGTH); best so far" in refused, cap


@pytest.mark.parametrize("cell, largest", [((2, 2, 1, 3), 108), ((3, 2, 1, 3), 4), ((2, 2, 2, 2), 720)])
def test_cup_length_pairs_cap_messages_match_the_decoded_chains(monkeypatch, cell, largest):
    # Every cap up to the largest product of both chains: each stops at the
    # same product, with the same message, or answers the same.
    fp = fn_fiber_product(*cell)
    seen = set()
    for cap in range(1, largest + 1):
        monkeypatch.setattr(bounds, "MAX_CHAIN_PAIRS", cap)
        outcomes = cup_length_outcomes(fp)
        assert outcomes[0] == outcomes[1], cap
        seen.add(type(outcomes[0]))
    assert seen == {str, tuple}


def test_chains_decode_only_their_value(monkeypatch):
    fp = fn_fiber_product(2, 2, 1, 3)
    factors = verify_witness_fn(fp).factors
    decoded = []
    real_to_element = gcring._to_element

    def counting(*args):
        decoded.append(args)
        return real_to_element(*args)

    monkeypatch.setattr(gcring, "_to_element", counting)
    assert euler_height(complex_projective(6), gen("a1"), 8) == 6
    assert decoded == []
    assert not is_zero(product(fp.ring, factors))
    assert len(decoded) == 1


# === witness work bound ===


@pytest.mark.parametrize(
    "cell",
    [(d, m, n, r) for d in (2, 3) for m in (2, 3, 4) for n in (1, 2, 3) for r in (2, 3)]
    + [(4, 3, 2, 3), (5, 3, 2, 2), (2, 5, 2, 2), (3, 6, 1, 2)],
)
def test_witness_terms_closed_form_and_peak(cell):
    fp = fn_fiber_product(*cell)
    factors = verify_witness_fn(fp).factors
    peak = max(len(product(fp.ring, factors[:k]).terms) for k in range(1, len(factors) + 1))
    assert len(product(fp.ring, factors).terms) == _witness_terms(*cell)
    assert peak <= max(_witness_terms(*cell), 6 * 5 ** (cell[1] - 2))


def test_witness_work_checked_one_above_the_limit():
    # The check reads the parameters only: no ring is built here.
    r = 2
    while witness_work(2, 2, 1, r + 1) <= MAX_WITNESS_WORK:
        r += 1
    assert r == 291
    check_witness_work(2, 2, 1, r)
    with pytest.raises(ValueError, match="MAX_WITNESS_WORK") as info:
        check_witness_work(2, 2, 1, r + 1)
    assert "d=2, m=2, n=1, r=292 has 292 factors" in str(info.value)
    # Few factors, many base strands: the old factor-count view missed these.
    with pytest.raises(ValueError, match="MAX_WITNESS_WORK"):
        check_witness_work(2, 10, 1, 2)
    with pytest.raises(ValueError, match="MAX_WITNESS_WORK"):
        check_witness_work(3, 10, 1, 2)
    # Out of range is presentations.fn_witness_length's error, in every check.
    for check in (witness_work, check_witness_work, witness_is_live):
        for bad in ((1, 2, 1, 2), (2, 2, 0, 2), (-5, 2, 1, 2)):
            with pytest.raises(ValueError, match=r"^need d >= 2, m >= 2, n >= 1, r >= 2; got "):
                check(*bad)


def test_huge_cells_are_refused_before_the_work_estimate(monkeypatch):
    # witness_work(2, 10**9, 1, 2) forms 5^(10^9 - 2), a power of 2.3 Gbit;
    # the witness degree, read first, bounds m, n and r.
    monkeypatch.setattr(bounds, "witness_work", lambda *args: pytest.fail("the estimate was formed"))
    for cell in ((2, 10**9, 1, 2), (2, 2, 10**9, 2), (3, 2, 1, 10**9), (10**9, 2, 1, 2)):
        with pytest.raises(ValueError, match=r"\(MAX_SERIES_DEGREE\)$"):
            check_witness_work(*cell)
        assert not witness_is_live(*cell)


def test_verify_witness_fn_checks_work_before_any_factor(monkeypatch):
    monkeypatch.setattr(bounds, "MAX_WITNESS_WORK", witness_work(2, 2, 1, 3) - 1)

    def no_factors(*args):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(bounds, "_copy_difference", no_factors)
    with pytest.raises(ValueError, match="d=2, m=2, n=1, r=3"):
        verify_witness_fn(fn_fiber_product(2, 2, 1, 3))
