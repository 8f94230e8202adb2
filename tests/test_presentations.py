"""Shipped presentations: dimension tables, independent basis enumeration,
tower structure, and catalog resolution.

The cross-check oracle below counts admissible basis words directly with
itertools (per family: pick at most one class for each second index), so it
shares no code with the engine's normal-form enumeration.
"""

import itertools
import json

import pytest

import distnav.presentations as presentations
from distnav.gcring import (
    MAX_SERIES_DEGREE,
    Generator,
    PresentationError,
    RingPresentation,
    element,
    gen,
    is_zero,
    multiply,
    poincare_series,
    poly_mul,
    presentation_to_dict,
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
    fn_poincare_formula,
    fn_witness_length,
    point,
    shipped_names,
    sphere,
    sphere_bundle_tower,
)


def count_admissible(slots, step, max_degree):
    """Independent basis count: ``slots`` lists the number of generator
    choices per second-index slot; each slot contributes 0 or 1 factors of
    degree ``step``."""
    dims = [0] * (max_degree + 1)
    for picks in itertools.product(*[range(c + 1) for c in slots]):
        # picks[s] = 0 skips slot s, any other value is one concrete choice,
        # so each basis monomial shows up exactly once
        deg = sum(1 for p in picks if p > 0) * step
        if deg <= max_degree:
            dims[deg] += 1
    return dims


def config_poincare_formula(d, k, max_degree):
    """Closed-form oracle: coefficients of prod_{i=1}^{k-1} (1 + i t^{d-1})
    up to max_degree."""
    series = [1] + [0] * max_degree
    for i in range(1, k):
        for deg in range(max_degree, d - 2, -1):
            series[deg] += i * series[deg - (d - 1)]
    return series


def slot_counts_config(k):
    # second index j runs 2..k; j-1 choices of first index each
    return [j - 1 for j in range(2, k + 1)]


def slot_counts_fn(m, n, r):
    shared = [j - 1 for j in range(2, m + 1)]
    per_copy = [j - 1 for j in range(m + 1, m + n + 1)]
    return shared + per_copy * r


# === configuration spaces ===


def test_config_dims_d2():
    assert poincare_series(config_space(2, 4), 3) == [1, 6, 11, 6]


def test_config_dims_d3():
    assert poincare_series(config_space(3, 4), 6) == [1, 0, 6, 0, 11, 0, 6]


@pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_config_matches_formula_and_enumeration(d, k):
    top = (k - 1) * (d - 1)
    series = poincare_series(config_space(d, k), top)
    assert series == config_poincare_formula(d, k, top)
    assert series == count_admissible(slot_counts_config(k), d - 1, top)


def test_point_sphere_cpn():
    assert poincare_series(point(), 3) == [1, 0, 0, 0]
    assert poincare_series(sphere(2), 4) == [1, 0, 1, 0, 0]
    assert poincare_series(sphere(3), 4) == [1, 0, 0, 1, 0]
    assert poincare_series(complex_projective(3), 7) == [1, 0, 1, 0, 1, 0, 1, 0]


def test_cpn_truncation():
    P = complex_projective(2)
    a = gen("a1")
    assert product(P, [a] * 2) == gen("a2")
    assert is_zero(product(P, [a] * 3))


def test_even_sphere_square_vanishes_by_rule():
    P = sphere(2)
    assert is_zero(multiply(P, gen("s"), gen("s")))


# === fiber products ===


def test_fn_small_cell_generators_and_dims():
    fp = fn_fiber_product(2, 2, 1, 2)
    assert fp.ring.generator_names() == (
        "w_1_2",
        "w1_1_3",
        "w1_2_3",
        "w2_1_3",
        "w2_2_3",
    )
    assert poincare_series(fp.ring, 2) == [1, 5, 8]


@pytest.mark.parametrize(
    "d,m,n,r",
    [(2, 2, 1, 2), (3, 2, 1, 2), (2, 2, 2, 2), (3, 3, 1, 3)],
)
def test_fn_matches_formula_and_enumeration(d, m, n, r):
    fp = fn_fiber_product(d, m, n, r)
    top = fn_witness_length(d, m, n, r) * (d - 1)
    series = poincare_series(fp.ring, top)
    assert series == fn_poincare_formula(d, m, n, r, top)
    assert series == count_admissible(slot_counts_fn(m, n, r), d - 1, top)


def test_fn_shared_base_classes():
    fp = fn_fiber_product(2, 3, 1, 2)
    # base indices j <= m resolve to one shared class, higher j per copy
    assert fp.w(1, 1, 2) == fp.w(2, 1, 2) == "w_1_2"
    assert fp.w(1, 1, 4) == "w1_1_4"
    assert fp.w(2, 1, 4) == "w2_1_4"


def test_fn_witness_length_parity():
    assert fn_witness_length(3, 2, 1, 2) == 3  # rn+m-1
    assert fn_witness_length(2, 2, 1, 2) == 2  # rn+m-2


def test_fn_rejects_bad_parameters():
    # Parameters out of range are a bad request (ValueError), not a failed
    # gate (PresentationError), so the CLI exits 2 on them.
    for cell in [(1, 2, 1, 2), (2, 2, 0, 2), (2, 2, 1, 1)]:
        with pytest.raises(ValueError, match="need d >= 2") as info:
            fn_fiber_product(*cell)
        assert not isinstance(info.value, PresentationError)


def test_straightening_identity_in_fiber_product():
    # w{l}_ik * w{l}_jk = w_ij * (w{l}_jk - w{l}_ik) with shared base w_ij
    fp = fn_fiber_product(2, 2, 1, 2)
    P = fp.ring
    lhs = multiply(P, gen("w1_1_3"), gen("w1_2_3"))
    rhs = multiply(P, gen("w_1_2"), subtract(gen("w1_2_3"), gen("w1_1_3")))
    assert lhs == rhs


def drop_rule(monkeypatch, lhs):
    """Make the builders in ``presentations`` lose the rule with this lhs."""

    def build(generators, rules, name=""):
        kept = [rule for rule in rules if rule[0] != lhs]
        assert len(kept) == len(rules) - 1
        return RingPresentation(generators, kept, name=name)

    monkeypatch.setattr(presentations, "RingPresentation", build)


def test_fn_gate_rejects_a_missing_straightening_rule(monkeypatch):
    drop_rule(monkeypatch, ("w1_1_3", "w1_2_3"))
    with pytest.raises(PresentationError, match="product formula"):
        fn_fiber_product.__wrapped__(2, 2, 1, 2)


def test_tower_gate_rejects_a_missing_truncation_rule(monkeypatch):
    base = complex_projective(2)
    drop_rule(monkeypatch, ("u1", "u1"))
    with pytest.raises(PresentationError, match="Leray-Hirsch"):
        sphere_bundle_tower(base, gen("a1"), 3, 2)


def test_cpn_tower_refused_before_any_base_is_built(monkeypatch):
    # sb:base=cp255,q=3,r=0 built cp255 twice before the tower refused r=0
    # (0.79 s); r=2 built it once before the degree check (0.41 s).
    def built(n):
        raise AssertionError(f"cp{n} was built")

    monkeypatch.setattr(presentations, "complex_projective", built)
    with pytest.raises(ValueError, match=r"^need q >= 2 and r >= 1, got q=3, r=0$"):
        catalog("sb:base=cp255,q=3,r=0")
    with pytest.raises(ValueError, match=r"\(MAX_SERIES_DEGREE\)$"):
        catalog("sb:base=cp255,q=3,r=2")


def test_tower_rejects_q_below_2_and_an_euler_class_of_the_wrong_degree():
    with pytest.raises(ValueError, match=r"^need q >= 2 and r >= 1, got q=1, r=2$"):
        sphere_bundle_tower(point(), zero(), 1, 2)
    # q = 4 needs an Euler class of degree 3; a1 has degree 2.
    with pytest.raises(PresentationError, match=r"^Euler class term \('a1',\) has degree 2, expected 3$"):
        sphere_bundle_tower(complex_projective(2), gen("a1"), 4, 2)


class GeneratorBuilt(Exception):
    pass


def test_builders_check_series_degree_before_any_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise GeneratorBuilt

    monkeypatch.setattr(presentations, "Generator", refuse)
    # (2, 2, 1, r) gates at degree r; a tower over a point with q = 2 at r.
    builders = [
        lambda r: fn_fiber_product.__wrapped__(2, 2, 1, r),
        lambda r: sphere_bundle_tower(point(), zero(), 2, r),
    ]
    for build in builders:
        with pytest.raises(GeneratorBuilt):
            build(MAX_SERIES_DEGREE)
        with pytest.raises(ValueError, match="MAX_SERIES_DEGREE"):
            build(MAX_SERIES_DEGREE + 1)


def test_rule_count_formula_matches_the_built_rings(monkeypatch):
    # The closed-form counts the cap is checked on are the builders' own.
    counts = {}
    monkeypatch.setattr(presentations, "check_rule_count", counts.__setitem__)
    built = {}
    for d in (2, 3, 4):
        for size in range(2, 6):
            for P in (
                complex_projective(size),
                config_space.__wrapped__(d, size),
                fn_fiber_product.__wrapped__(d, size, 1, 2).ring,
                fn_fiber_product.__wrapped__(d, size, 2, 3).ring,
            ):
                built[P.name] = len(P.rules)
    assert counts == built


def test_builders_check_rule_count_before_any_generator(monkeypatch):
    # Just above MAX_RING_RULES: cp256 has 32896 rules, conf:d=2,k=60 and
    # conf:d=3,k=59 34220, fn:d=3,m=2,n=45,r=2 34591, fn:d=2,m=2,n=46,r=2 34592.
    def refuse(*args, **kwargs):
        raise GeneratorBuilt

    monkeypatch.setattr(presentations, "Generator", refuse)
    monkeypatch.setattr(presentations, "RingPresentation", refuse)
    cells = [
        ("cp256", lambda: complex_projective(256)),
        ("conf:d=2,k=60", lambda: config_space.__wrapped__(2, 60)),
        ("conf:d=3,k=59", lambda: config_space.__wrapped__(3, 59)),
        ("fn:d=3,m=2,n=45,r=2", lambda: fn_fiber_product.__wrapped__(3, 2, 45, 2)),
        ("fn:d=2,m=2,n=46,r=2", lambda: fn_fiber_product.__wrapped__(2, 2, 46, 2)),
    ]
    for name, build in cells:
        with pytest.raises(ValueError, match=r"rules, over the cap of 32768 \(MAX_RING_RULES\)$") as caught:
            build()
        assert str(caught.value).startswith(f"{name} has ")
    assert presentations.MAX_RING_RULES == 2**15
    # one step below, the builders go on to build generators
    for build in (lambda: complex_projective(255), lambda: config_space.__wrapped__(2, 59)):
        with pytest.raises(GeneratorBuilt):
            build()


def test_cpn_sphere_bundle_checks_series_degree_before_its_base(monkeypatch):
    # The tower over cp23 at r = 2 has top degree 23 * 24 + 4 = 556; cp255
    # built 32640 rules in 0.6 s before that degree was checked.
    def refuse(n):
        raise GeneratorBuilt

    monkeypatch.setattr(presentations, "complex_projective", refuse)
    for n, r in [(23, 2), (255, 2), (256, 2), (2, 300)]:
        message = rf"^series degree {n * (n + 1) + 2 * r} is outside 0\.\.512 \(MAX_SERIES_DEGREE\)$"
        with pytest.raises(ValueError, match=message):
            cpn_sphere_bundle.__wrapped__(n, r)
    with pytest.raises(GeneratorBuilt):  # degree 22 * 23 + 4 = 510 is within the cap
        cpn_sphere_bundle.__wrapped__(22, 2)


# === sphere-bundle towers ===


def test_cpn_tower_dims_match_doubled_base():
    tower = cpn_sphere_bundle(2, 2)
    # two circle-bundle-style extensions of degree 2 over cp2
    base = poincare_series(complex_projective(2), 4)
    doubled = poly_mul(poly_mul(base, [1, 0, 1], 8), [1, 0, 1], 8)
    assert poincare_series(tower.ring, 8) == doubled == [1, 0, 3, 0, 4, 0, 3, 0, 1]


def test_cpn_tower_section_euler():
    tower = cpn_sphere_bundle(2, 2)
    # q = 3 odd: e = 2u - a1
    expected = subtract(scale(2, gen("u")), gen("a1"))
    assert tower.section_euler == expected
    assert tower.pullback_section_euler(1) == subtract(scale(2, gen("u1")), tower.section_euler)


def test_even_step_tower_over_point():
    tower = sphere_bundle_tower(point(), zero(), 2, 2)
    assert poincare_series(tower.ring, 2) == [1, 2, 1]
    # q = 2 even: the section class is the base Euler class, here zero
    assert is_zero(tower.section_euler)


def test_tower_u_names():
    tower = cpn_sphere_bundle(3, 3)
    assert tower.u_names == ("u1", "u2")


# === catalog ===


def test_catalog_resolves_all_shipped_names():
    for name in shipped_names():
        P = catalog(name)
        assert P.generator_names() is not None


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("definitely-not-a-ring")


def test_catalog_fn_spec():
    P = catalog("fn:d=2,m=2,n=1,r=2")
    assert P.generator_names() == fn_fiber_product(2, 2, 1, 2).ring.generator_names()


@pytest.mark.parametrize(
    "name",
    [
        "cp²",
        "s٣",
        "conf:k=4,d=2",
        "conf:d=2,k=4,k=4",
        "conf:d=2,k=4,x=1",
        "conf:d= 2,k=4",
        "conf:d=2,k=4 ",
        "conf:d=-2,k=4",
        "conf:d=+2,k=4",
        "fn:d=2,m=2,n=1",
        "fn:r=2,d=2,m=2,n=1",
        "sb:base=cp²,q=3,r=2",
        "sb:base=cp2,r=2,q=3",
        "sb:base=,q=2,r=2",
        "cp2\n",
        pytest.param("s" + "9" * 5000, id="s-5000-digits"),
    ],
)
def test_catalog_refuses_names_outside_the_grammar(name):
    # One ASCII pattern per family, matched whole: cp² raised int()'s
    # ValueError, while s٣ and the reordered conf:k=4,d=2 resolved.
    with pytest.raises(KeyError, match="unknown presentation name"):
        catalog(name)


def test_catalog_reads_canonical_names_and_leading_zeros_as_before():
    assert catalog("conf:d=02,k=3") is config_space(2, 3)
    assert catalog("fn:d=2,m=2,n=01,r=2") is fn_fiber_product(2, 2, 1, 2).ring
    assert catalog("sb:base=cp2,q=03,r=2") is cpn_sphere_bundle(2, 2).ring
    assert catalog("s02").name == "s2"
    tower = catalog("sb:base=cp2,q=4,r=2")  # q != 3: zero Euler class
    assert tower.name == "sb:base=cp2,q=4,r=2" and tower.rules == complex_projective(2).rules
    for name in shipped_names():
        assert catalog(name).name == name


def test_tower_names_read_back_through_the_catalog():
    # sphere_bundle_tower names a tower sb:base=<base>,q=..,r=..; the
    # catalog anchors the base on the trailing ",q=..,r=..", so a base whose
    # name holds commas, such as conf:d=2,k=3, reads back (KeyError before).
    # Over every shipped base that is not a tower, at even and odd q, the
    # tower with the Euler class the catalog builds (a1 over cpN at q = 3,
    # else zero) reads back as the same ring.  Any other class, zero over
    # cpN at q = 3 included, which was named as cpn_sphere_bundle's ring,
    # gets an ",e=<class>" suffix that the catalog refuses.  A tower over a
    # tower cannot be built, since both levels adjoin a generator u, and its
    # name is unknown.
    for base in shipped_names():
        if base.startswith("sb:"):
            with pytest.raises(PresentationError, match="duplicate generator names"):
                sphere_bundle_tower(catalog(base), zero(), 2, 1)
            with pytest.raises(KeyError, match="unknown presentation name"):
                catalog(f"sb:base={base},q=2,r=1")
            continue
        ring = catalog(base)
        for q, r in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 1), (5, 2)):
            if base.startswith("cp") and q == 3:
                built, others = gen("a1"), [(zero(), "0"), (scale(2, gen("a1")), "2*a1")]
            else:
                built, others = zero(), [(gen(g.name), g.name) for g in ring.generators if g.degree == q - 1][:1]
            tower = sphere_bundle_tower(ring, built, q, r).ring
            assert tower.name == f"sb:base={base},q={q},r={r}"
            read = catalog(tower.name)
            assert (read.name, read.generators, read.rules) == (tower.name, tower.generators, tower.rules)
            for e, text in others:
                tower = sphere_bundle_tower(ring, e, q, r).ring
                assert tower.name == f"sb:base={base},q={q},r={r},e={text}"
                with pytest.raises(KeyError, match="unknown presentation name"):
                    catalog(tower.name)


def config_space_oracle(d, k):
    """config_space as its own builder made it, with its own generator loop
    and rule list, before it became the fiber power's base case."""
    def w(i, j):
        return f"w_{i}_{j}"

    gens = tuple(Generator(w(i, j), d - 1, rank=j) for j in range(2, k + 1) for i in range(1, j))
    squares = [((g.name, g.name), zero()) for g in gens if g.degree % 2 == 0]
    straightening = [
        ((w(i, c), w(j, c)), element([(1, (w(i, j), w(j, c))), (-1, (w(i, j), w(i, c)))]))
        for c in range(3, k + 1)
        for j in range(2, c)
        for i in range(1, j)
    ]
    return RingPresentation(gens, squares + straightening, name=f"conf:d={d},k={k}")


def test_config_space_is_the_fiber_power_base_case(monkeypatch):
    for d in range(2, 6):
        for k in range(1, 13):
            got = json.dumps(presentation_to_dict(config_space.__wrapped__(d, k)), indent=2)
            assert got == json.dumps(presentation_to_dict(config_space_oracle(d, k)), indent=2), (d, k)
    # conf and fn rings come from one builder; only fn is gated after it.
    calls = []
    build = presentations._fiber_power
    monkeypatch.setattr(presentations, "_fiber_power", lambda *cell: calls.append(cell) or build(*cell))
    config_space.__wrapped__(3, 4)
    fn_fiber_product.__wrapped__(3, 2, 1, 2)
    assert calls == [("conf:d=3,k=4", 3, 4, 0, 1), ("fn:d=3,m=2,n=1,r=2", 3, 2, 1, 2)]
