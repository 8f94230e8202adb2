"""Shipped presentations: dimension tables, independent basis enumeration,
tower structure, and catalog resolution.

The cross-check oracle below counts admissible basis words directly with
itertools (per family: pick at most one class for each second index), so it
shares no code with the engine's normal-form enumeration.
"""

import itertools

import pytest

import distnav.presentations as presentations
from distnav.gcring import (
    MAX_SERIES_DEGREE,
    PresentationError,
    RingPresentation,
    gen,
    is_zero,
    multiply,
    poincare_series,
    product,
    scale,
    subtract,
    zero,
)
from distnav.presentations import (
    catalog,
    complex_projective,
    config_poincare_formula,
    config_space,
    cpn_sphere_bundle,
    fn_fiber_product,
    fn_poincare_formula,
    point,
    poly_mul,
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
    top = fp.witness_degree()
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
    assert fn_fiber_product(3, 2, 1, 2).witness_length() == 3  # rn+m-1
    assert fn_fiber_product(2, 2, 1, 2).witness_length() == 2  # rn+m-2


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
        kept = [rule for rule in rules if rule.lhs != lhs]
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
