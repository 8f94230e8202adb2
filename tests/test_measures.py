"""Finite measures and the exact Levy-Prokhorov breakpoint search.

Two oracles check the shipped search. ``lp_oracle`` re-derives feasibility
from the textbook definition, with both inequality families quantified over
subsets of the union of supports, in pure Python. ``lp_bisection`` is the
bisection that ``lp_distance`` ran before: it tests both one-sided defects,
each over subsets of its own support, and certifies an upper value within
``precision``. The shipped search enumerates subsets of the smaller support
only; agreement here confirms both reductions. ``oracle_matrix_space`` builds
the distance matrix one pair at a time, and the one-call matrix of
``lp_distance`` must give the same distance bit for bit.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from distnav.measures import (
    MAX_SUPPORT,
    FiniteMeasure,
    MetricSpace,
    _one_sided_defect,
    _subset_matrix,
    euclidean_metric,
    lp_distance,
    measure_from_jsonable,
    measure_to_jsonable,
    product_measure,
    to_jsonable,
)
from distnav.navplan import (
    ProjectivePoint,
    circle_navigate,
    path_metric,
    projective_metric,
    rpn_navigate,
    sphere_metric,
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


def pair_distance(space, p, q):
    """One distance, by one ``distance`` call on one pair (oracle)."""
    return float(space.distance(space.coordinates(p), space.coordinates(q)))


def weights_and_distances(mu, nu, space):
    wm = np.array([float(w) for w in mu.weights()])
    wn = np.array([float(w) for w in nu.weights()])
    dist = np.array([[pair_distance(space, p, q) for q in nu.points()] for p in mu.points()])
    return wm, wn, dist


def oracle_matrix_space(mu, nu, space):
    """The metric of ``space`` on these supports, looked up in a matrix built
    one pair at a time: a point's coordinates are its index."""
    points = mu.points() + nu.points()
    matrix = np.array([[pair_distance(space, p, q) for q in points] for p in points])
    index = {id(p): i for i, p in enumerate(points)}
    return MetricSpace(distance=lambda i, j: matrix[i, j], coordinates=lambda p: np.array(index[id(p)]))


def counting(space):
    """``space`` with a count of its distance and coordinates calls."""
    calls = {"distance": 0, "coordinates": 0}

    def distance(p, q):
        calls["distance"] += 1
        return space.distance(p, q)

    def coordinates(p):
        calls["coordinates"] += 1
        return space.coordinates(p)

    return MetricSpace(distance=distance, coordinates=coordinates), calls


def plan_pairs(rng):
    """Pairs of plans from one planner, compared in the path metric."""
    pairs = []
    for n in (1, 2, 3):
        x, y, z = (random_unit(rng, n + 1) for _ in range(3))
        pairs.append((rpn_navigate(x, y).measure, rpn_navigate(x, z).measure, projective_metric()))
    for r in (2, 3, 4):
        a, b = ([random_unit(rng, 2) for _ in range(r)] for _ in range(2))
        pairs.append((circle_navigate(r, a).measure, circle_navigate(r, b).measure, sphere_metric()))
    return [(mu, nu, path_metric(point_space, grid=16)) for mu, nu, point_space in pairs]


def random_unit(rng, dim):
    v = np.array([rng.gauss(0, 1) for _ in range(dim)])
    return v / np.linalg.norm(v)


def subset_defect(eps, w_a, w_b, dist_ab):
    """max_A [a(A) - b(A^eps)] over all subsets A of supp(a)."""
    n = len(w_a)
    subsets = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1 > 0
    covered = subsets @ (dist_ab <= eps).astype(np.float64) > 0.0
    return float(np.max(subsets @ w_a - covered @ w_b))


def lp_bisection(mu, nu, space, precision):
    """The bisection lp_distance ran before its breakpoint search.

    Each step tests both one-sided defects; the result is the feasible end
    of the final bracket, at most ``precision`` above the distance.
    """
    wm, wn, dist = weights_and_distances(mu, nu, space)

    def ok(eps):
        return max(subset_defect(eps, wm, wn, dist), subset_defect(eps, wn, wm, dist.T)) <= eps

    if ok(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    if not ok(hi):
        return 1.0
    iters = max(1, math.ceil(math.log2(1.0 / precision))) + 2
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= precision * 0.5:
            break
    return hi


def random_atoms(rng, count, dim=2):
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    return [(np.array([rng.uniform(-1, 1) for _ in range(dim)]), Fraction(w, total)) for w in raw]


def random_measure(rng, max_atoms=3, dim=2):
    return FiniteMeasure(random_atoms(rng, rng.randint(1, max_atoms), dim))


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
    with pytest.raises(TypeError):
        FiniteMeasure([("a", "0.5")])
    with pytest.raises(TypeError):  # bool is an int, but not a weight
        FiniteMeasure([("a", True)])


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


@pytest.mark.parametrize("precision", [math.nan, math.inf, 0.0, -1.0])
def test_precision_must_be_positive_and_finite(precision):
    # nan and inf were refused only because the old bisection's log2 raised.
    with pytest.raises(ValueError, match="precision"):
        lp_distance(dirac([0.0]), dirac([0.5]), SPACE, precision=precision)


def test_precision_does_not_change_the_exact_distance():
    rng = random.Random(11)
    mu, nu = random_measure(rng, max_atoms=6), random_measure(rng, max_atoms=6)
    values = {lp_distance(mu, nu, SPACE, precision=p) for p in (0.5, 1e-6, 1e-300)}
    assert len(values) == 1


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
        # the oracle's upper value sits at most 1e-7 above the exact distance
        assert slow - 1e-7 <= fast <= slow + 1e-12, (fast, slow)


def test_exact_distance_within_bisection_bracket():
    rng = random.Random(20261018)
    for _ in range(40):
        mu = random_measure(rng, max_atoms=MAX_SUPPORT, dim=3)
        nu = random_measure(rng, max_atoms=MAX_SUPPORT, dim=3)
        for precision in (1e-9, 1e-12):
            exact = lp_distance(mu, nu, SPACE, precision=precision)
            hi = lp_bisection(mu, nu, SPACE, precision)
            assert hi - precision <= exact <= hi, (exact, hi, precision)


def test_one_sided_defects_agree_at_every_breakpoint():
    # Strassen (1965): max_A [mu(A) - nu(A^eps)] = min over couplings of
    # P(d(X, Y) > eps) is the same from either side, so one side suffices.
    rng = random.Random(1965)
    for _ in range(12):
        mu = random_measure(rng, max_atoms=MAX_SUPPORT, dim=3)
        nu = random_measure(rng, max_atoms=MAX_SUPPORT, dim=3)
        wm, wn, dist = weights_and_distances(mu, nu, SPACE)
        subs_m, subs_n = _subset_matrix(len(mu)), _subset_matrix(len(nu))
        for eps in np.concatenate(([0.0], np.sort(dist, axis=None), [1.0])):
            from_mu = _one_sided_defect(eps, subs_m @ wm, wn, dist, subs_m)
            from_nu = _one_sided_defect(eps, subs_n @ wn, wm, dist.T, subs_n)
            assert abs(from_mu - from_nu) <= 1e-12, (eps, from_mu, from_nu)
            assert from_mu == subset_defect(eps, wm, wn, dist)


@pytest.mark.parametrize("size", [8, MAX_SUPPORT])
def test_reordered_self_pairs_are_near_zero(size):
    # Equal measures whose atoms come in another order: subset sums round
    # differently, so the exact-zero answer may be off by an ulp or two.
    rng = random.Random(size)
    for _ in range(4):
        atoms = random_atoms(rng, size, dim=3)
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        mu, nu = FiniteMeasure(atoms), FiniteMeasure(shuffled)
        assert lp_distance(mu, nu, SPACE) <= 1e-15
        assert lp_distance(nu, mu, SPACE) <= 1e-15


def test_one_distance_call_per_comparison_and_one_coordinates_call_per_atom():
    rng = random.Random(8)
    cases = [(random_measure(rng, 12, dim=3), random_measure(rng, 12, dim=3), SPACE)]
    cases += plan_pairs(rng)
    for mu, nu, space in cases:
        counted, calls = counting(space)
        assert lp_distance(mu, nu, counted) == lp_distance(mu, nu, space)
        assert calls == {"distance": 1, "coordinates": len(mu) + len(nu)}


def test_matrix_distance_equals_the_per_pair_oracle_matrix():
    # One broadcast distance call gives, bit for bit, the LP distance of the
    # matrix built one pair at a time.
    rng = random.Random(1212)
    cases = [
        (FiniteMeasure(random_atoms(rng, 12, dim=3)), FiniteMeasure(random_atoms(rng, size, dim=3)), SPACE)
        for size in (1, 5, 12)
    ]
    cases += plan_pairs(rng)
    for mu, nu, space in cases:
        assert lp_distance(mu, nu, space) == lp_distance(mu, nu, oracle_matrix_space(mu, nu, space))


def test_points_of_different_coordinate_shapes_are_rejected():
    # numpy broadcasting used to compare them and return a number.
    with pytest.raises(ValueError, match=r"\(3,\) and \(2,\)"):
        lp_distance(dirac([0.0, 0.0, 1.0]), dirac([0.0, 1.0]), SPACE)
    mixed = FiniteMeasure([((0.0, 0.0), Fraction(1, 2)), (0.5, Fraction(1, 2))])
    with pytest.raises(ValueError, match=r"\(2,\) and \(1,\)"):
        lp_distance(mixed, mixed, SPACE)


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


def test_euclidean_metric_broadcasts_and_takes_numbers():
    points = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    batch = SPACE.distance(points, [0.0, 0.0])
    assert batch.tolist() == [SPACE.distance(p, [0.0, 0.0]) for p in points]
    assert batch.tolist() == [0.0, 5.0, math.sqrt(2.0)]
    # numbers are points of the line, as measure files may give them
    assert SPACE.distance(0.5, 3) == 2.5
    mu, nu = FiniteMeasure([(0.5, 1)]), FiniteMeasure([(0.25, 1)])
    assert lp_distance(mu, nu, SPACE) == 0.25


def test_to_jsonable_covers_points_weights_and_payload_values():
    assert to_jsonable(Fraction(2, 6)) == "1/3"
    assert to_jsonable(np.int64(5)) == 5.0 and to_jsonable(True) == 1.0
    assert to_jsonable((np.float32(0.5), [1, np.array([[2.0], [3.0]])])) == [0.5, [1.0, [2.0, 3.0]]]
    assert to_jsonable(ProjectivePoint.from_vector([0.0, -2.0])) == [0.0, 1.0]
    assert to_jsonable("a") == "a"


def test_json_float_weights():
    data = [{"point": [0.0], "weight": 0.25}, {"point": [1.0], "weight": 0.75}]
    mu = measure_from_jsonable(data)
    assert mu.mode == "float"
    assert measure_to_jsonable(mu)[0]["weight"] == 0.25
