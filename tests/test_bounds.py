"""Certificate machinery: ring maps, diagonal kernels, witness products,
Euler heights, and the cup-length search.

Witness monomials and coefficients below were frozen from exact runs of the
product expansion; the acceptance suite re-verifies the full parameter grid.
"""

import random
from fractions import Fraction

import pytest

import distnav.bounds as bounds
from distnav.bounds import (
    MAX_WITNESS_WORK,
    CertificateError,
    RingMap,
    _cup_length_search,
    _witness_terms,
    apply_ring_map,
    certificate_to_dict,
    check_witness_work,
    cup_length_kernel,
    diagonal_fn,
    euler_height,
    ring_top_degree,
    sphere_bundle_lower_bound,
    tower_diagonal,
    validate_ring_map,
    verify_witness_fn,
    witness_work,
)
from distnav.gcring import (
    GradedElement,
    PresentationError,
    add,
    element,
    element_degree,
    gen,
    is_zero,
    multiply,
    normal_form,
    one,
    product,
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


def test_ring_map_is_multiplicative():
    fp = fn_fiber_product(3, 2, 1, 2)
    f = diagonal_fn(fp)
    a = gen("w1_1_3")
    b = gen("w1_2_3")
    left = apply_ring_map(f, multiply(fp.ring, a, b))
    right = multiply(f.target, apply_ring_map(f, a), apply_ring_map(f, b))
    assert left == right


def apply_ring_map_per_term(f, a):
    """The normal form after every term that apply_ring_map replaced (oracle)."""
    total = GradedElement({})
    for word, coeff in a.terms.items():
        term = GradedElement({(): Fraction(coeff)})
        for g in word:
            term = multiply(f.target, term, f.images[g])
            if is_zero(term):
                break
        total = normal_form(f.target, add(total, term))
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
        gens = list(f.source.generator_names())
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


def test_validate_ring_map_catches_degree_mismatch():
    src = config_space(2, 3)
    tgt = config_space(3, 3)
    images = {name: gen(name) for name in src.generator_names()}
    bad = RingMap(src, tgt, images)  # degree 1 classes sent to degree 2
    with pytest.raises(PresentationError):
        validate_ring_map(bad)


def test_validate_ring_map_requires_all_generators():
    src = config_space(2, 3)
    images = {"w_1_2": gen("w_1_2")}
    with pytest.raises(PresentationError):
        validate_ring_map(RingMap(src, src, images))


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
    tower = cpn_sphere_bundle(2, 2)  # height of the section class is 3
    with pytest.raises(CertificateError):
        sphere_bundle_lower_bound(tower, partition=(2,))  # wrong sum
    with pytest.raises(CertificateError):
        sphere_bundle_lower_bound(tower, partition=(2, 1))  # needs r-1 = 1 parts


def test_tower_needs_two_copies():
    tower = sphere_bundle_tower(complex_projective(1), gen("a1"), 3, 1)
    with pytest.raises(CertificateError):
        sphere_bundle_lower_bound(tower)


def test_tower_diagonal_kills_witness_factors():
    tower = cpn_sphere_bundle(2, 2)
    f = tower_diagonal(tower)
    w = subtract(gen("u1"), tower.pullback_section_euler(1))
    assert is_zero(apply_ring_map(f, w))


# === cup-length search ===


def copy_differences(fp):
    out = []
    for j in range(fp.m + 1, fp.m + fp.n + 1):
        for i in range(1, j):
            for l1 in range(1, fp.r + 1):
                for l2 in range(l1 + 1, fp.r + 1):
                    out.append(subtract(gen(fp.w(l1, i, j)), gen(fp.w(l2, i, j))))
    return out


def test_cup_length_fn_even_d():
    fp = fn_fiber_product(2, 2, 1, 2)
    assert cup_length_kernel(fp.ring, diagonal_fn(fp), copy_differences(fp)) == 2


def test_cup_length_fn_odd_d():
    fp = fn_fiber_product(3, 2, 1, 2)
    assert cup_length_kernel(fp.ring, diagonal_fn(fp), copy_differences(fp)) == 3


def test_cup_length_rejects_non_kernel_element():
    fp = fn_fiber_product(2, 2, 1, 2)
    with pytest.raises(CertificateError):
        cup_length_kernel(fp.ring, diagonal_fn(fp), [gen("w_1_2")])


def test_cup_length_rejects_inhomogeneous_element():
    fp = fn_fiber_product(2, 2, 1, 2)
    d = subtract(gen("w1_1_3"), gen("w2_1_3"))
    with pytest.raises(PresentationError):
        cup_length_kernel(fp.ring, diagonal_fn(fp), [add(d, one())])


def test_ring_top_degree():
    P = complex_projective(3)
    assert ring_top_degree(P, ceiling=10) == 6
    assert ring_top_degree(point(), ceiling=4) == 0


def unpruned_cup_length_search(P, elements, budget=12):
    """The search without its ceiling exit: every branch is explored."""
    degrees = [element_degree(P, e) for e in elements]
    top = ring_top_degree(P, ceiling=budget * max(degrees))
    best, best_indices = 0, ()

    def dfs(start, acc, acc_degree, chosen):
        nonlocal best, best_indices
        for idx in range(start, len(elements)):
            ndeg = acc_degree + degrees[idx]
            if ndeg > top:
                continue
            nxt = multiply(P, acc, elements[idx])
            if is_zero(nxt):
                continue
            chosen.append(idx)
            if len(chosen) > best:
                best, best_indices = len(chosen), tuple(chosen)
            if len(chosen) < budget:
                dfs(idx, nxt, ndeg, chosen)
            chosen.pop()

    dfs(0, one(), 0, [])
    return best, best_indices


def fn_closed_form(d, m, n, r):
    return r * n + m - 1 if d % 2 else r * n + m - 2


@pytest.mark.parametrize(
    "cell",
    [(2, 2, 1, 2), (3, 2, 1, 2), (2, 2, 1, 3), (3, 2, 1, 3), (2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 1, 3)],
)
def test_cup_length_early_exit_matches_unpruned_search(cell):
    fp = fn_fiber_product(*cell)
    elements = copy_differences(fp)
    got = _cup_length_search(fp.ring, diagonal_fn(fp), elements, budget=12)
    assert got == unpruned_cup_length_search(fp.ring, elements)
    assert got[0] == fn_closed_form(*cell)  # within CUP_LENGTH_NODE_LIMIT


def test_cup_length_reaches_degree_ceiling_on_odd_cell():
    # The unpruned search runs for minutes here; the ceiling exit stops it.
    fp = fn_fiber_product(3, 3, 2, 3)
    assert cup_length_kernel(fp.ring, diagonal_fn(fp), copy_differences(fp)) == 8


def test_cup_length_node_limit_names_the_ring(monkeypatch):
    # (2,2,1,3) needs 104 products; a limit of 20 stops the search.
    monkeypatch.setattr(bounds, "CUP_LENGTH_NODE_LIMIT", 20)
    fp = fn_fiber_product(2, 2, 1, 3)
    with pytest.raises(ValueError, match="fn:d=2,m=2,n=1,r=3"):
        cup_length_kernel(fp.ring, diagonal_fn(fp), copy_differences(fp))


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
    assert witness_work(1, 2, 1, 2) == witness_work(2, 2, 0, 2) == 0


def test_verify_witness_fn_checks_work_before_any_factor(monkeypatch):
    monkeypatch.setattr(bounds, "MAX_WITNESS_WORK", witness_work(2, 2, 1, 3) - 1)

    def no_factors(*args):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(bounds, "_copy_difference", no_factors)
    with pytest.raises(ValueError, match="d=2, m=2, n=1, r=3"):
        verify_witness_fn(fn_fiber_product(2, 2, 1, 3))
