"""Finite measures and the Levy-Prokhorov bisection.

The oracle below re-derives feasibility from the textbook definition, with
both inequality families quantified over subsets of the union of supports,
in pure Python. The shipped engine only enumerates subsets of one support
per inequality family; agreement here confirms that reduction.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from distnav.measures import (
    MAX_SUPPORT,
    FiniteMeasure,
    euclidean_metric,
    lp_distance,
    measure_from_jsonable,
    measure_to_jsonable,
    product_measure,
    pushforward,
)

SPACE = euclidean_metric()


def dirac(point):
    return FiniteMeasure([(np.asarray(point, float), 1)])


def lp_oracle(mu, nu, space, precision=1e-7):
    pts = mu.points() + nu.points()
    n = len(pts)
    dist = [[space.distance(pts[i], pts[j]) for j in range(n)] for i in range(n)]
    w_mu = [float(w) for w in mu.weights()] + [0.0] * len(nu)
    w_nu = [0.0] * len(mu) + [float(w) for w in nu.weights()]

    def ok(eps):
        for bits in range(1 << n):
            inside = [i for i in range(n) if bits >> i & 1]
            fat = [j for j in range(n) if any(dist[i][j] <= eps for i in inside)]
            mass_mu = sum(w_mu[i] for i in inside)
            mass_nu = sum(w_nu[i] for i in inside)
            fat_mu = sum(w_mu[j] for j in fat)
            fat_nu = sum(w_nu[j] for j in fat)
            if mass_mu > fat_nu + eps + 1e-15 or mass_nu > fat_mu + eps + 1e-15:
                return False
        return True

    lo, hi = 0.0, 1.0
    while hi - lo > precision * 0.5:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def random_measure(rng, max_atoms=3, dim=2):
    count = rng.randint(1, max_atoms)
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    return FiniteMeasure(
        [
            (np.array([rng.uniform(-1, 1) for _ in range(dim)]), Fraction(w, total))
            for w in raw
        ]
    )


# === construction ===


def test_atoms_merge_and_zero_weights_drop():
    p = np.array([1.0, 0.0])
    mu = FiniteMeasure([(p, Fraction(1, 3)), (p, Fraction(2, 3)), (np.array([2.0, 0.0]), 0)])
    assert len(mu) == 1
    assert mu.mode == "exact"
    assert mu.weights() == [Fraction(1)]


def test_mode_inference():
    assert FiniteMeasure([("a", Fraction(1, 2)), ("b", Fraction(1, 2))]).mode == "exact"
    assert FiniteMeasure([("a", 0.5), ("b", 0.5)]).mode == "float"
    assert FiniteMeasure([("a", 1)]).mode == "exact"


def test_bad_weights_rejected():
    with pytest.raises(ValueError):
        FiniteMeasure([("a", Fraction(9, 10))])
    with pytest.raises(ValueError):
        FiniteMeasure([("a", Fraction(3, 2)), ("b", Fraction(-1, 2))])
    with pytest.raises(ValueError):
        FiniteMeasure([("a", 0.5), ("b", 0.5 + 1e-9)])
    with pytest.raises(ValueError):
        FiniteMeasure([("a", 0.5), ("b", 0.5)], mode="rational")
    with pytest.raises(TypeError):
        FiniteMeasure([("a", "0.5")])


def test_non_finite_weights_and_points_rejected():
    # The sum check alone lets a NaN weight through: abs(nan - 1) > 1e-12 is False.
    rng = random.Random(2025)
    for _ in range(20):
        count = rng.randint(1, 5)
        bad_at = rng.randrange(count)
        bad = rng.choice([math.nan, math.inf, -math.inf])
        weights = [1.0 / count] * count
        points = [np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in range(count)]
        with pytest.raises(ValueError):
            FiniteMeasure(list(zip(points, weights[:bad_at] + [bad] + weights[bad_at + 1 :])))
        points[bad_at] = points[bad_at].copy()
        points[bad_at][rng.randrange(2)] = bad
        with pytest.raises(ValueError):
            FiniteMeasure(list(zip(points, weights)))
        with pytest.raises(ValueError):
            measure_from_jsonable([{"point": list(points[bad_at]), "weight": "1"}])


def test_float_sum_tolerance():
    mu = FiniteMeasure([("a", 0.1)] * 10)  # merges to one atom, sum ~ 1.0
    assert len(mu) == 1
    assert abs(mu.total_mass() - 1.0) <= 1e-12


# === Dirac distances ===


@pytest.mark.parametrize("d", [0.3, 0.75, 2.5])
def test_dirac_pair_distance(d):
    got = lp_distance(dirac([0.0, 0.0]), dirac([d, 0.0]), SPACE)
    assert abs(got - min(d, 1.0)) <= 1e-6


def test_dirac_tight_precision():
    got = lp_distance(dirac([0.0]), dirac([0.3]), SPACE, precision=1e-12)
    assert abs(got - 0.3) <= 2e-12


def test_mixture_against_dirac():
    # half the mass sits far away: distance is pinned at 1/2
    nu = FiniteMeasure([(np.array([0.0, 0.0]), Fraction(1, 2)), (np.array([9.0, 0.0]), Fraction(1, 2))])
    got = lp_distance(dirac([0.0, 0.0]), nu, SPACE)
    assert abs(got - 0.5) <= 1e-6


def test_equal_measures_give_exact_zero():
    a = np.array([0.2, 0.4])
    b = np.array([-1.0, 0.5])
    mu = FiniteMeasure([(a, 0.25), (b, 0.75)])
    nu = FiniteMeasure([(b, 0.75), (a, 0.25)])
    assert lp_distance(mu, nu, SPACE) == 0.0


def test_support_cap_and_precision_guard():
    big = FiniteMeasure([(np.array([float(i)]), Fraction(1, 13)) for i in range(13)])
    small = dirac([0.0])
    assert len(big) == MAX_SUPPORT + 1
    with pytest.raises(ValueError):
        lp_distance(big, small, SPACE)
    with pytest.raises(ValueError):
        lp_distance(small, small, SPACE, precision=0.0)


# === oracle cross-check and metric axioms ===


def test_bisection_matches_union_subset_oracle():
    rng = random.Random(20260818)
    for _ in range(25):
        mu = random_measure(rng)
        nu = random_measure(rng)
        fast = lp_distance(mu, nu, SPACE, precision=1e-7)
        slow = lp_oracle(mu, nu, SPACE, precision=1e-7)
        assert abs(fast - slow) <= 3e-7, (fast, slow)


def test_metric_axioms():
    rng = random.Random(7)
    for _ in range(40):
        mu = random_measure(rng, max_atoms=4)
        nu = random_measure(rng, max_atoms=4)
        rho = random_measure(rng, max_atoms=4)
        d_mn = lp_distance(mu, nu, SPACE)
        d_nm = lp_distance(nu, mu, SPACE)
        assert d_mn == d_nm  # the feasibility test is symmetric, bit for bit
        assert d_mn >= 0.0
        assert lp_distance(mu, mu, SPACE) == 0.0
        d_mr = lp_distance(mu, rho, SPACE)
        d_nr = lp_distance(nu, rho, SPACE)
        assert d_mr <= d_mn + d_nr + 3e-6


# === pushforward ===


def test_pushforward_identity():
    mu = random_measure(random.Random(3), max_atoms=3)
    out = pushforward(lambda p: p, mu, SPACE)
    assert len(out) == len(mu)
    assert out.mode == "exact"
    assert out.total_mass() == 1


def test_pushforward_constant_collapses():
    mu = random_measure(random.Random(4), max_atoms=3)
    out = pushforward(lambda p: np.zeros(2), mu, SPACE)
    assert len(out) == 1
    assert out.weights() == [Fraction(1)]


def test_pushforward_merges_near_collisions():
    mu = FiniteMeasure(
        [
            (np.array([0.0, 0.0]), Fraction(1, 2)),
            (np.array([1e-13, 0.0]), Fraction(1, 4)),
            (np.array([5.0, 0.0]), Fraction(1, 4)),
        ]
    )
    out = pushforward(lambda p: p, mu, SPACE)
    assert len(out) == 2
    assert sorted(out.weights()) == [Fraction(1, 4), Fraction(3, 4)]
    # without a metric only literal duplicates merge
    assert len(pushforward(tuple, mu)) == 3


def test_pushforward_float_mass():
    mu = FiniteMeasure([(np.array([float(i), 0.0]), 0.2) for i in range(5)])
    out = pushforward(lambda p: p * 2.0, mu, SPACE)
    assert out.mode == "float"
    assert abs(out.total_mass() - 1.0) <= 1e-12


# === products ===


def test_product_measure_exact():
    mu = FiniteMeasure([("a", Fraction(1, 3)), ("b", Fraction(2, 3))])
    nu = FiniteMeasure([("x", 1)])
    prod = product_measure(mu, nu)
    assert prod.mode == "exact"
    assert sorted(prod.weights()) == [Fraction(1, 3), Fraction(2, 3)]
    assert set(prod.points()) == {("a", "x"), ("b", "x")}


def test_product_measure_mixed_mode():
    mu = FiniteMeasure([("a", Fraction(1, 2)), ("b", Fraction(1, 2))])
    nu = FiniteMeasure([("x", 0.5), ("y", 0.5)])
    prod = product_measure(mu, nu)
    assert prod.mode == "float"
    assert len(prod) == 4
    assert abs(prod.total_mass() - 1.0) <= 1e-12


# === JSON interchange ===


def test_json_roundtrip_exact():
    mu = FiniteMeasure(
        [(np.array([0.5, -1.0]), Fraction(1, 3)), (np.array([2.0, 0.0]), Fraction(2, 3))]
    )
    data = measure_to_jsonable(mu)
    assert data[0]["weight"] in ("1/3", "2/3")
    back = measure_from_jsonable(data)
    assert back.mode == "exact"
    assert sorted(back.weights()) == [Fraction(1, 3), Fraction(2, 3)]
    assert lp_distance(mu, back, SPACE) == 0.0


def test_json_float_weights():
    data = [{"point": [0.0], "weight": 0.25}, {"point": [1.0], "weight": 0.75}]
    mu = measure_from_jsonable(data)
    assert mu.mode == "float"
    assert measure_to_jsonable(mu)[0]["weight"] == 0.25
