"""Finite measures and the exact Levy-Prokhorov breakpoint search.

Five oracles check the shipped search. ``lp_oracle`` re-derives feasibility
from the textbook definition, with both inequality families quantified over
subsets of the union of supports, in pure Python. ``lp_bisection`` is the
bisection that ``lp_distance`` ran before: it tests both one-sided defects,
each over subsets of its own support, and certifies an upper value within
``precision``. ``lp_float_oracle`` is the breakpoint search as it ran on
float64 weights, searching both sides when the support sizes tie; the
shipped search, on exact integer masses, must stay within 1e-12 of it.
``lp_fraction_oracle`` is the two-sided definition on ``Fraction`` masses in
pure Python, each side over subsets of its own support, and the shipped
search must equal it bit for bit, at common denominators below 2^53, up to
2^63 and beyond. The shipped search grows one flow from the smaller
support only and adds the other side's surplus mass; agreement here
confirms both reductions. ``oracle_matrix_space`` builds the distance matrix
one pair at a time, and the one-call matrix of ``lp_distance`` must give
the same distance bit for bit. ``lp_binary_search`` is the search that
``lp_distance`` ran before it grew one flow across the breakpoints: a
binary search with ``max_flow`` built from scratch at each step. The shipped
search must equal it bit for bit at every support size up to MAX_SUPPORT,
and at the breakpoint it returns, its flow and cut certify the result.
``subset_table_defect``, the subset table the search once used below 11
atoms, checks ``max_flow``'s defect on both sides at every breakpoint up to
ORACLE_ATOMS; past those the flow and its residual cut certify each other.
``per_point_stack`` is the coordinate stack ``lp_distance`` built before
metrics mapped whole supports, one call of a one-point map per point; a
support's coordinates, and the distances built from them, must equal it
bit for bit; so must the distances of measures that keep their stacks
from earlier comparisons, against cold copies that keep none.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import distnav.measures as measures
from distnav.gcring import MAX_LITERAL_EXPONENT
from distnav.measures import (
    MAX_SUPPORT,
    FiniteMeasure,
    MetricSpace,
    _grown_flow,
    euclidean_metric,
    lp_distance,
    measure_from_jsonable,
    measure_to_jsonable,
    product_measure,
    to_jsonable,
)
from distnav.navplan import (
    circle_navigate,
    path_metric,
    projective_metric,
    rpn_navigate,
    sphere_metric,
    _canonical_line,
    _unit,
)

SPACE = euclidean_metric()
# The largest support any subset oracle here enumerates: 2^12 subsets.
ORACLE_ATOMS = 12


def dirac(point):
    return FiniteMeasure([(np.asarray(point, float), 1)])


def uniform(points):
    return FiniteMeasure([(p, Fraction(1, len(points))) for p in points])


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
    return float(space.distance(space.coordinates([p])[0], space.coordinates([q])[0]))


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
    return MetricSpace(
        distance=lambda i, j: matrix[i, j], coordinates=lambda support: np.array([index[id(p)] for p in support])
    )


def vector_oracle(point):
    """A point as a float vector, as the chord metric mapped one point at a
    time before it mapped whole supports (oracle)."""
    return np.atleast_1d(np.asarray(point, dtype=float))


def per_point_stack(coordinates, points):
    """The stack ``lp_distance`` built before: one call of the one-point map
    per point, stacked (oracle)."""
    return np.array([coordinates(p) for p in points])


def per_point_space(space, coordinates=vector_oracle):
    """``space`` with its coordinates stacked point by point (oracle)."""
    return MetricSpace(distance=space.distance, coordinates=lambda points: per_point_stack(coordinates, points))


def counting(space):
    """``space`` with a count of its distance and coordinates calls."""
    calls = {"distance": 0, "coordinates": 0}

    def distance(p, q):
        calls["distance"] += 1
        return space.distance(p, q)

    def coordinates(points):
        calls["coordinates"] += 1
        return space.coordinates(points)

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


def lp_float_oracle(mu, nu, space):
    """The breakpoint search lp_distance ran on float64 weights.

    On a tie of support sizes it searches both sides and takes the larger
    defect, since rounding lets the two one-sided defects differ by an ulp.
    """
    wm, wn, dist = weights_and_distances(mu, nu, space)
    sides = []
    if len(wm) <= len(wn):
        sides.append((wm, wn, dist))
    if len(wn) <= len(wm):
        sides.append((wn, wm, dist.T))
    inner = np.sort(dist, axis=None)
    breaks = np.concatenate(([0.0], inner[(inner > 0.0) & (inner < 1.0)], [1.0]))
    lo, hi, below = 0, len(breaks) - 1, 1.0
    while lo < hi:
        mid = (lo + hi) // 2
        eps = float(breaks[mid])
        defect = max(subset_defect(eps, *side) for side in sides)
        if defect <= eps:
            hi = mid
        else:
            lo, below = mid + 1, defect
    return 0.0 if lo == 0 else min(float(breaks[lo]), below)


def fraction_defect(eps, w_a, w_b, dist_ab):
    """max_A [a(A) - b(A^eps)] over subsets A of supp(a), in exact rationals."""
    best = Fraction(0)
    for bits in range(1 << len(w_a)):
        inside = [i for i in range(len(w_a)) if bits >> i & 1]
        fat = [j for j in range(len(w_b)) if any(dist_ab[i][j] <= eps for i in inside)]
        best = max(best, sum(w_a[i] for i in inside) - sum(w_b[j] for j in fat))
    return best


def lp_fraction_oracle(mu, nu, space):
    """The two-sided LP distance on Fraction masses, by a linear scan of the
    breakpoints.

    Both one-sided defects, each over subsets of its own support: the first
    breakpoint D_k whose larger defect is <= D_k gives
    min(D_k, defect(D_(k-1))), the defect rounded once to a float.  The
    last breakpoint, 1, counts as feasible, since the distance is at most 1.
    """
    wm = [Fraction(w) for w in mu.weights()]
    wn = [Fraction(w) for w in nu.weights()]
    pm, pn = space.coordinates(mu.points()), space.coordinates(nu.points())
    dist = np.asarray(space.distance(pm[:, None], pn[None, :]), dtype=float).tolist()
    sides = [(wm, wn, dist), (wn, wm, [list(col) for col in zip(*dist)])]
    breaks = sorted({0.0, 1.0, *(d for row in dist for d in row if 0.0 < d < 1.0)})
    below = None
    for eps in breaks[:-1]:
        defect = max(fraction_defect(eps, *side) for side in sides)
        if defect <= Fraction(eps):
            return 0.0 if below is None else min(eps, float(below))
        below = defect
    return min(1.0, float(below))


def max_flow(eps, w_a, w_b, dist_ab, order):
    """max_A [a(A) - b(A^eps)] over subsets A of supp(a), as a's total minus
    a maximum flow from a to b along pairs at most eps apart, built from
    scratch at this one eps: the flow lp_distance ran at each step of its
    binary search before it grew one flow across the breakpoints.

    ``order`` lists each row's columns by increasing distance, so a row's
    neighbours within eps are a prefix of it.  A greedy start fills each
    row's nearest columns; then shortest augmenting paths, found by a
    breadth-first search from every row with mass left.  Masses are Python
    ints, so the flow is exact.  Returns the defect, the rows A reachable in
    the final residual graph and the flow, ``flow[j][i]`` from row i into
    column j: the flow leaves the defect unsent and a(A) - b(A^eps) equals
    it, so each certifies the other.
    """
    counts = (dist_ab <= eps).sum(1).tolist()
    near = [row[:k] for row, k in zip(order, counts)]
    left, room = list(w_a), list(w_b)
    flow = [{} for _ in room]
    for i, cols in enumerate(near):
        x = left[i]
        for j in cols:
            if not x:
                break
            y = room[j]
            if y:
                sent = x if x < y else y
                flow[j][i] = sent
                room[j] = y - sent
                x -= sent
        left[i] = x
    while True:
        # came[j]: the row a column was reached from; back[i]: the column a
        # row was reached from along a flow edge, None at the sources.
        back = {i: None for i, x in enumerate(left) if x}
        came = {}
        frontier, end = list(back), None
        while frontier and end is None:
            reached = []
            for i in frontier:
                for j in near[i]:
                    if j in came:
                        continue
                    came[j] = i
                    if room[j]:
                        end = j
                        break
                    for k in flow[j]:
                        if k not in back:
                            back[k] = j
                            reached.append(k)
                if end is not None:
                    break
            frontier = reached
        if end is None:
            return sum(left), list(back), flow
        # Walk the path back from `end` to its source row twice: once for
        # the mass it can carry, once to carry it.
        sent, i = room[end], came[end]
        while (j := back[i]) is not None:
            sent = min(sent, flow[j][i])
            i = came[j]
        sent = min(sent, left[i])
        left[i] -= sent
        room[end] -= sent
        j, i = end, came[end]
        while True:
            flow[j][i] = flow[j].get(i, 0) + sent
            j = back[i]
            if j is None:
                break
            if flow[j][i] == sent:
                del flow[j][i]
            else:
                flow[j][i] -= sent
            i = came[j]


def lp_binary_search(mu, nu, space):
    """The search lp_distance ran before it grew one flow: a binary search
    over the breakpoints, with one max_flow from scratch at each step, on
    the smaller support (mu's on a tie) plus the other side's surplus."""
    a, b, den, dist, surplus = smaller_side(mu, nu, space)
    order = np.argsort(dist, axis=1).tolist()
    inner = np.sort(dist, axis=None)
    breaks = np.concatenate(([0.0], inner[(inner > 0.0) & (inner < 1.0)], [1.0]))
    lo, hi, below = 0, len(breaks) - 1, 1.0
    while lo < hi:
        mid = (lo + hi) // 2
        eps = float(breaks[mid])
        p, q = eps.as_integer_ratio()
        defect = max_flow(eps, a, b, dist, order)[0] + surplus
        if defect * q <= p * den:
            hi = mid
        else:
            lo, below = mid + 1, defect / den
    return 0.0 if lo == 0 else min(float(breaks[lo]), below)


def integer_masses(mu, nu):
    """Both measures' weights as integer masses over one common denominator."""
    weights = [Fraction(w) for w in mu.weights() + nu.weights()]
    den = math.lcm(*(w.denominator for w in weights))
    masses = [w.numerator * (den // w.denominator) for w in weights]
    return masses[: len(mu)], masses[len(mu) :], den


def random_atoms(rng, count, dim=2):
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    return [(np.array([rng.uniform(-1, 1) for _ in range(dim)]), Fraction(w, total)) for w in raw]


def random_measure(rng, max_atoms=3, dim=2):
    return FiniteMeasure(random_atoms(rng, rng.randint(1, max_atoms), dim))


def random_float_measure(rng, count, dim=3, tiny=False):
    """Float weights, whose denominators are 2^53 or more.  With ``tiny`` and
    two atoms or more, the last weighs 2^-100, which takes the common
    denominator past 2^63."""
    heavy = count - 1 if tiny and count > 1 else count
    raw = [rng.uniform(0.1, 1.0) for _ in range(heavy)]
    weights = [w / sum(raw) for w in raw] + [2.0**-100] * (count - heavy)
    return FiniteMeasure([(np.array([rng.uniform(-1, 1) for _ in range(dim)]), w) for w in weights])


def mixed_pairs(rng, sizes):
    """Exact and float-weight pairs of the given support sizes in R^3, with
    the Euclidean metric."""
    pairs = []
    for a, b in sizes:
        exact_a, exact_b = (FiniteMeasure(random_atoms(rng, size, dim=3)) for size in (a, b))
        pairs.append((exact_a, exact_b, SPACE))
        pairs.append((random_float_measure(rng, a), random_float_measure(rng, b), SPACE))
        pairs.append((random_float_measure(rng, a, tiny=True), exact_b, SPACE))
    return pairs


def shape_pairs(rng, size=MAX_SUPPORT):
    """The slowest shapes of the old binary search at ``size`` atoms: two
    float-weight measures within 0.05 of one center in each coordinate,
    whose pairs all lie below 1, and 2^-100 weights against uniform ones;
    with uniform and reordered self pairs, whose masses all tie."""
    center = np.array([rng.uniform(-1, 1) for _ in range(3)])

    def clustered():
        raw = [rng.uniform(0.1, 1.0) for _ in range(size)]
        return FiniteMeasure([(center + 0.05 * np.array([rng.uniform(-1, 1) for _ in range(3)]), w / sum(raw)) for w in raw])

    def uniform():
        return FiniteMeasure([(np.array([rng.uniform(-1, 1) for _ in range(3)]), Fraction(1, size)) for _ in range(size)])

    atoms = random_atoms(rng, size, dim=3)
    shuffled = atoms[:]
    rng.shuffle(shuffled)
    return [
        (clustered(), clustered(), SPACE),
        (random_float_measure(rng, size, tiny=True), uniform(), SPACE),
        (uniform(), uniform(), SPACE),
        (FiniteMeasure(atoms), FiniteMeasure(shuffled), SPACE),
    ]


def smaller_side(mu, nu, space):
    """The masses, denominator, matrix and surplus of the side lp_distance
    grows its flow from: the smaller support, mu's on a tie."""
    pm, pn = space.coordinates(mu.points()), space.coordinates(nu.points())
    dist = np.asarray(space.distance(pm[:, None], pn[None, :]), dtype=float)
    a, b, den = integer_masses(mu, nu)
    if len(nu) < len(mu):
        a, b, dist = b, a, dist.T
    return a, b, den, dist, max(0, sum(b) - sum(a))


def random_sizes(rng, count, largest):
    return [(rng.randint(1, largest), rng.randint(1, largest)) for _ in range(count)]


def flow_calls(monkeypatch):
    """Record the row and column counts of each grown flow lp_distance runs."""
    calls = []
    shipped = measures._grown_flow

    def recorded(a, b, dist, den, surplus):
        calls.append((len(a), len(b)))
        return shipped(a, b, dist, den, surplus)

    monkeypatch.setattr(measures, "_grown_flow", recorded)
    return calls


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


def test_weight_over_the_exponent_cap_rejected_before_parsing(monkeypatch):
    cap = MAX_LITERAL_EXPONENT
    at_cap = [{"point": 0.0, "weight": f"1e-{cap}"}, {"point": 1.0, "weight": f"{10**cap - 1}e-{cap}"}]
    assert measure_from_jsonable(at_cap).weights() == [Fraction(1, 10**cap), Fraction(10**cap - 1, 10**cap)]

    def parsed(*args):
        raise AssertionError(f"Fraction{args} was called: the exponent cap let a weight through")

    monkeypatch.setattr(measures, "Fraction", parsed)
    for text in (f"1e-{cap + 1}", f"5E{cap + 1}"):
        with pytest.raises(ValueError, match=r"\(MAX_LITERAL_EXPONENT\)"):
            measure_from_jsonable([{"point": 0.0, "weight": text}])


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
    big = FiniteMeasure([(np.array([float(i)]), Fraction(1, 65)) for i in range(65)])
    small = dirac([0.0])
    assert len(big) == MAX_SUPPORT + 1
    with pytest.raises(ValueError, match=r"65 atoms is over the cap of 64 \(MAX_SUPPORT\)"):
        lp_distance(big, small, SPACE)
    with pytest.raises(ValueError, match=r"\(MAX_SUPPORT\)"):
        lp_distance(small, big, SPACE)
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
        mu = random_measure(rng, max_atoms=ORACLE_ATOMS, dim=3)
        nu = random_measure(rng, max_atoms=ORACLE_ATOMS, dim=3)
        for precision in (1e-9, 1e-12):
            exact = lp_distance(mu, nu, SPACE, precision=precision)
            hi = lp_bisection(mu, nu, SPACE, precision)
            assert hi - precision <= exact <= hi, (exact, hi, precision)


def subset_table_defect(w_a, w_b, dist_ab):
    """The subset table that lp_distance once used below 11 atoms, as a
    function of eps: max_A [a(A) - b(A^eps)] over all 2^n subsets A of
    supp(a).

    Masses are Python ints in object arrays, so the defect is exact at any
    common denominator, 2^-100 weights included.  ``mass_b[c]`` is b's mass
    on the columns whose bits are set in c, and A^eps is coded by those bits.
    """

    def bits(k):
        return (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1

    n, m = dist_ab.shape
    subsets = bits(n)
    mass_a = subsets @ np.array(w_a, dtype=object)
    mass_b = bits(m) @ np.array(w_b, dtype=object)
    powers = 1 << np.arange(m)

    def defect(eps):
        covered = subsets @ (dist_ab <= eps) > 0
        return int((mass_a - mass_b[covered @ powers]).max())

    return defect


def test_one_sided_defects_agree_at_every_breakpoint():
    # Strassen (1965), or max-flow/min-cut: max_A [mu(A) - nu(A^eps)] is mu's
    # total minus the maximum flow along pairs at most eps apart, so the
    # nu-side defect is the mu-side one plus nu's total minus mu's, exactly,
    # at every eps.  The max flow gives the subset table's defect on both
    # sides, at every smaller-side size up to ORACLE_ATOMS.  Exact, float and
    # 2^-100 weights, on integer masses.
    rng = random.Random(1965)
    sizes = random_sizes(rng, 10, ORACLE_ATOMS) + [(1, 1), (7, 7), (ORACLE_ATOMS, 3), (3, ORACLE_ATOMS)]
    sizes += [(10, 12), (11, 11), (12, 11), (12, 12), (8, 10), (9, 9)]
    assert {min(size) for size in sizes} == set(range(1, ORACLE_ATOMS + 1))
    for mu, nu, _ in mixed_pairs(rng, sizes):
        dist = weights_and_distances(mu, nu, SPACE)[2]
        masses_m, masses_n, den = integer_masses(mu, nu)
        surplus = sum(masses_n) - sum(masses_m)
        table_m = subset_table_defect(masses_m, masses_n, dist)
        table_n = subset_table_defect(masses_n, masses_m, dist.T)
        order_m, order_n = np.argsort(dist, axis=1).tolist(), np.argsort(dist.T, axis=1).tolist()
        for eps in np.concatenate(([0.0], np.sort(dist, axis=None), [1.0])):
            from_mu, from_nu = table_m(eps), table_n(eps)
            assert from_nu == from_mu + surplus, (eps, from_mu, from_nu)
            assert max_flow(eps, masses_m, masses_n, dist, order_m)[0] == from_mu, (len(mu), len(nu), eps)
            assert max_flow(eps, masses_n, masses_m, dist.T, order_n)[0] == from_nu, (len(mu), len(nu), eps)
            if den < 1 << 53:
                wm, wn = np.array(masses_m, dtype=float), np.array(masses_n, dtype=float)
                assert from_mu == subset_defect(eps, wm, wn, dist)


def test_max_flow_and_residual_cut_certify_the_defect_past_the_table():
    # Past ORACLE_ATOMS no subset oracle runs.  A feasible flow that leaves
    # d of a unsent bounds the defect by d from above; the rows A reachable
    # in its residual graph give a(A) - b(A^eps), a lower bound.  Both equal
    # the returned defect, so it is the maximum over all 2^n subsets.
    rng = random.Random(6413)
    sizes = [(rng.randint(13, MAX_SUPPORT), rng.randint(13, MAX_SUPPORT)) for _ in range(6)]
    sizes += [(13, MAX_SUPPORT), (MAX_SUPPORT, 13), (MAX_SUPPORT, MAX_SUPPORT)]
    for mu, nu, _ in mixed_pairs(rng, sizes):
        dist = weights_and_distances(mu, nu, SPACE)[2]
        masses_m, masses_n, _ = integer_masses(mu, nu)
        sides = [(masses_m, masses_n, dist), (masses_n, masses_m, dist.T)]
        for eps in np.concatenate(([0.0], np.quantile(dist, np.linspace(0.0, 1.0, 9), method="lower"), [1.0])):
            defects = []
            for w_a, w_b, dist_ab in sides:
                defect, reachable, flow = max_flow(eps, w_a, w_b, dist_ab, np.argsort(dist_ab, axis=1).tolist())
                near = dist_ab <= eps
                sent = [0] * len(w_a)
                for j, into in enumerate(flow):
                    assert sum(into.values()) <= w_b[j]
                    for i, amount in into.items():
                        assert amount > 0 and near[i, j], (i, j, amount)
                        sent[i] += amount
                assert all(s <= w for s, w in zip(sent, w_a))
                assert sum(w_a) - sum(sent) == defect
                fat = near[reachable].any(axis=0)
                assert sum(w_a[i] for i in reachable) - sum(w for w, f in zip(w_b, fat) if f) == defect
                defects.append(defect)
            assert defects[1] - defects[0] == sum(masses_n) - sum(masses_m), (len(mu), len(nu), eps)


@pytest.mark.parametrize("size", [5, 8, ORACLE_ATOMS, MAX_SUPPORT])
def test_reordered_self_pairs_are_near_zero(size):
    # Equal measures whose atoms come in another order: their integer
    # masses give equal subset sums in any order, so the distance is
    # exactly zero (float weights rounded these sums by an ulp or two).
    rng = random.Random(size)
    for _ in range(4):
        atoms = random_atoms(rng, size, dim=3)
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        mu, nu = FiniteMeasure(atoms), FiniteMeasure(shuffled)
        assert lp_distance(mu, nu, SPACE) == 0.0
        assert lp_distance(nu, mu, SPACE) == 0.0


def test_agrees_with_the_float_oracle_on_one_to_twelve_atoms():
    # The old float64 search rounds its defects by an ulp or so; exact
    # masses may move the distance in its last bits, never further.
    rng = random.Random(20261019)
    pairs = mixed_pairs(rng, random_sizes(rng, 50, ORACLE_ATOMS))
    pairs += mixed_pairs(rng, [(size, size) for size in range(1, ORACLE_ATOMS + 1)])
    pairs += plan_pairs(rng)
    for mu, nu, space in pairs:
        got, old = lp_distance(mu, nu, space), lp_float_oracle(mu, nu, space)
        assert abs(got - old) <= 1e-12, (len(mu), len(nu), mu.mode, nu.mode, got, old)


def test_equals_the_fraction_oracle_bit_for_bit_at_every_denominator():
    # Common denominators below 2^53 (exact weights), from 2^53 to 2^63
    # (float weights) and beyond (a weight of 2^-100): the masses exceed
    # float64's exact integers and then int64, and each must still give the
    # exact defect.
    rng = random.Random(53)
    pairs = mixed_pairs(rng, random_sizes(rng, 12, 5) + [(ORACLE_ATOMS, 1), (2, 9)]) + plan_pairs(rng)
    for mu, nu, space in pairs:
        assert lp_distance(mu, nu, space) == lp_fraction_oracle(mu, nu, space), (len(mu), len(nu))
    dens = [integer_masses(mu, nu)[2] for mu, nu, _ in pairs]
    assert {0 if den < 1 << 53 else 1 if den < 1 << 63 else 2 for den in dens} == {0, 1, 2}


def test_distance_is_symmetric_bit_for_bit():
    rng = random.Random(1214)
    pairs = mixed_pairs(rng, random_sizes(rng, 20, MAX_SUPPORT))
    pairs += mixed_pairs(rng, [(size, size) for size in (1, 5, 6, ORACLE_ATOMS, MAX_SUPPORT)])
    pairs += plan_pairs(rng) + shape_pairs(rng)
    for mu, nu, space in pairs:
        start = time.perf_counter()
        assert lp_distance(mu, nu, space) == lp_distance(nu, mu, space)
        assert time.perf_counter() - start < 20, (len(mu), len(nu))  # 10 s each way


def test_equal_totals_search_one_side(monkeypatch):
    # One grown flow per pair, from the smaller support or from mu's on a
    # size tie: equal and unequal sizes, with equal exact totals and with
    # float totals apart (the float search took both sides of those on a
    # tie).
    calls = flow_calls(monkeypatch)
    rng = random.Random(12)
    pairs = mixed_pairs(rng, random_sizes(rng, 8, MAX_SUPPORT) + [(1, 1), (5, 5), (MAX_SUPPORT, MAX_SUPPORT)])
    pairs += plan_pairs(rng)
    for mu, nu, space in pairs:
        calls.clear()
        lp_distance(mu, nu, space)
        assert calls == [(min(len(mu), len(nu)), max(len(mu), len(nu)))], (len(mu), len(nu), mu.mode, nu.mode)
    totals = [(len(mu) == len(nu), *(sum(map(Fraction, m.weights())) for m in (mu, nu))) for mu, nu, _ in pairs]
    assert {tied for tied, total_mu, total_nu in totals if total_mu != total_nu} == {True, False}


def test_grown_flow_equals_the_binary_search_bit_for_bit():
    # Every support size from 1 to MAX_SUPPORT against a random one, with
    # exact, float and 2^-100 weights, the old search's slowest 64-atom
    # shapes, a staggered line, whose augmenting paths are long chains, and
    # plan pairs, in both orders.
    rng = random.Random(1989)
    sizes = [(size, rng.randint(1, MAX_SUPPORT)) for size in range(1, MAX_SUPPORT + 1)]
    pairs = mixed_pairs(rng, sizes) + shape_pairs(rng) + shape_pairs(rng, 12) + plan_pairs(rng)
    line = [np.array([k / MAX_SUPPORT]) for k in range(MAX_SUPPORT)]
    total = MAX_SUPPORT * (MAX_SUPPORT + 1) // 2
    pairs.append((
        FiniteMeasure([(p, Fraction(1, MAX_SUPPORT)) for p in line]),
        FiniteMeasure([(p + 0.003, Fraction(k + 1, total)) for k, p in enumerate(line)]),
        SPACE,
    ))
    for mu, nu, space in pairs:
        for first, second in ((mu, nu), (nu, mu)):
            got, old = lp_distance(first, second, space), lp_binary_search(first, second, space)
            assert got == old, (len(first), len(second), first.mode, second.mode, got, old)


def test_grown_flow_certifies_its_breakpoint():
    # At the breakpoint eps it returns, the grown flow is feasible along
    # pairs within eps and maximal: the rows A its residual search reaches
    # give a(A) - b(A^eps) equal to its unsent mass, so that is the defect,
    # and it passes at eps.  The defect it reports at the breakpoint before
    # is the max flow's there, built from scratch, and fails there.
    rng = random.Random(2401)
    pairs = mixed_pairs(rng, random_sizes(rng, 10, MAX_SUPPORT) + [(1, 1), (MAX_SUPPORT, MAX_SUPPORT)])
    pairs += shape_pairs(rng) + plan_pairs(rng)
    for mu, nu, space in pairs:
        a, b, den, dist, surplus = smaller_side(mu, nu, space)
        eps, below, flow, reached = _grown_flow(a, b, dist, den, surplus)
        arcs = dist <= eps if eps < 1.0 else dist < 1.0
        sent = [0] * len(a)
        for j, into in enumerate(flow):
            assert sum(into.values()) <= b[j]
            for i, amount in into.items():
                assert amount > 0 and arcs[i, j], (i, j, amount)
                sent[i] += amount
        assert all(s <= w for s, w in zip(sent, a))
        unsent = sum(a) - sum(sent)
        fat = arcs[reached].any(axis=0)
        assert sum(a[i] for i in reached) - sum(w for w, f in zip(b, fat) if f) == unsent
        if eps < 1.0:
            p, q = eps.as_integer_ratio()
            assert (unsent + surplus) * q <= p * den, (len(a), len(b), eps)
        if below is None:
            assert eps == 0.0
            continue
        prev = max([0.0] + [d for d in dist.ravel().tolist() if 0.0 < d < eps])
        defect = max_flow(prev, a, b, dist, np.argsort(dist, axis=1).tolist())[0] + surplus
        p, q = prev.as_integer_ratio()
        assert below == defect and defect * q > p * den, (len(a), len(b), prev, below, defect)


def test_one_distance_call_per_comparison_and_one_coordinates_call_per_support():
    # The first comparison maps each support once; a repeat, and the swapped
    # comparison, under the same space read the kept stacks.
    rng = random.Random(8)
    cases = [(random_measure(rng, 12, dim=3), random_measure(rng, 12, dim=3), SPACE)]
    cases += plan_pairs(rng)
    for mu, nu, space in cases:
        counted, calls = counting(space)
        d = lp_distance(mu, nu, counted)
        assert calls == {"distance": 1, "coordinates": 2}
        for a, b in ((mu, nu), (nu, mu)):
            calls.update(distance=0, coordinates=0)
            assert lp_distance(a, b, counted) == d
            assert calls == {"distance": 1, "coordinates": 0}
        assert lp_distance(mu, nu, space) == d


def cold(mu):
    """A copy of mu that has kept no coordinates."""
    return FiniteMeasure(mu.atoms)


def test_kept_stacks_give_the_cold_distance_under_interleaved_metrics():
    # Measures compared under metrics in a seeded random order, each metric
    # replacing the stack the one before kept, give bit for bit the distance
    # of cold copies and of the per-point stack, in both orders; the kept
    # stack is read-only.  The chord and line metrics share one coordinates
    # function, so they share the kept stack.
    rng = random.Random(1309)
    vectors = [random_measure(rng, 12, dim=3) for _ in range(6)]
    counted, _ = counting(SPACE)
    vector_spaces = [
        (SPACE, per_point_space(SPACE)),
        (projective_metric(), per_point_space(projective_metric())),
        (counted, per_point_space(SPACE)),
    ]
    lines = [rpn_navigate(random_unit(rng, 3), random_unit(rng, 3)).measure for _ in range(6)]
    path_spaces = []
    for grid in (9, 16):
        times = np.arange(grid) / (grid - 1)
        for point_space in (sphere_metric(), projective_metric()):
            space = path_metric(point_space, grid)
            path_spaces.append((space, per_point_space(space, lambda path, times=times: path.sample(times))))
    counted_paths, _ = counting(path_spaces[0][0])
    path_spaces.append((counted_paths, path_spaces[0][1]))
    warm = 0
    for _ in range(300):
        measures, spaces = rng.choice([(vectors, vector_spaces), (lines, path_spaces)])
        space, oracle = rng.choice(spaces)
        mu, nu = rng.choice(measures), rng.choice(measures)
        warm += all(m._coordinates is not None and m._coordinates[0] is space.coordinates for m in (mu, nu))
        d = lp_distance(mu, nu, space)
        assert d == lp_distance(cold(mu), cold(nu), space) == lp_distance(mu, nu, oracle)
        assert lp_distance(nu, mu, space) == d
        for measure in (mu, nu):
            coordinates, stack = measure._coordinates
            assert coordinates is space.coordinates and not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0] = 0
    assert warm >= 50
    mu = vectors[0]
    lp_distance(mu, mu, SPACE)
    kept = mu._coordinates[1]
    lp_distance(mu, mu, projective_metric())
    assert mu._coordinates[1] is kept
    # The measure keeps a copy: an array the metric holds stays writable.
    held = SPACE.coordinates(mu.points())
    assert lp_distance(mu, mu, MetricSpace(distance=SPACE.distance, coordinates=lambda points: held)) == 0.0
    assert held.flags.writeable and mu._coordinates[1] is not held


def test_ndarray_points_are_kept_as_read_only_copies():
    # Changing the caller's array, before or after a comparison, changes no
    # distance: the measure holds its own read-only copy, so the stack it
    # keeps cannot go stale.
    p, q = np.zeros(2), np.array([0.25, 0.0])
    mu, nu, fresh = FiniteMeasure([(p, 1)]), FiniteMeasure([(q, 1)]), FiniteMeasure([(p, 1)])
    assert lp_distance(mu, nu, SPACE) == 0.25
    p[0] = q[0] = 0.5
    assert lp_distance(mu, nu, SPACE) == lp_distance(fresh, nu, SPACE) == 0.25
    for point in mu.points() + nu.points():
        assert not point.flags.writeable
        with pytest.raises(ValueError):
            point[0] = 1.0


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


def assert_same_array(a, b):
    assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def random_support(rng, kind, size, matrices=True):
    """``size`` points of one kind: numbers, tuples, ndarrays, 0-length
    points, projective points or pairs of a product measure.  Unless
    ``matrices``, no point is a matrix: ndarrays are vectors, and pairs
    pair numbers."""
    dim = rng.randint(1, 4)

    def vector():
        return tuple(rng.uniform(-2, 2) for _ in range(dim))

    if kind == "number":
        return [rng.choice([rng.uniform(-2, 2), rng.randint(-3, 3), Fraction(rng.randint(-9, 9), 7),
                            np.float64(rng.uniform(-1, 1)), np.array(rng.uniform(-1, 1))]) for _ in range(size)]
    if kind == "tuple":
        return [vector() for _ in range(size)]
    if kind == "ndarray":
        shape = rng.choice([(dim,), (2, dim)] if matrices else [(dim,)])
        return [np.array([rng.uniform(-2, 2) for _ in range(math.prod(shape))]).reshape(shape) for _ in range(size)]
    if kind == "empty":
        return [rng.choice([(), np.empty(0)]) for _ in range(size)]
    if kind == "line":
        return [_canonical_line(_unit(random_unit(rng, dim + 1), dim + 1)) for _ in range(size)]
    # pairs of a product measure of one point and ``size`` points of one kind
    first, *rest = random_support(rng, rng.choice(["number", "tuple"] if matrices else ["number"]), size + 1)
    right = FiniteMeasure([(p, Fraction(1, size)) for p in rest])
    return product_measure(FiniteMeasure([(first, 1)]), right).points()


def test_stacked_coordinates_equal_the_per_point_oracle():
    # One numpy conversion per support gives the per-point stack bit for bit:
    # shape, dtype and every byte, also on supports of signed zeros.
    rng = random.Random(1307)
    for kind in ("number", "tuple", "ndarray", "empty", "line", "pair"):
        for _ in range(40):
            points = random_support(rng, kind, rng.randint(1, MAX_SUPPORT))
            if rng.random() < 0.1:
                points = [-0.0 * np.asarray(p, dtype=float) if kind != "line" else p for p in points]
            for space in (SPACE, projective_metric()):
                assert_same_array(space.coordinates(points), per_point_stack(vector_oracle, points))
    for grid in (2, 9, 64):
        plans = [mu for pair in plan_pairs(rng) for mu in pair[:2]]
        for point_space in (sphere_metric(), projective_metric()):
            space, times = path_metric(point_space, grid), np.arange(grid) / (grid - 1)
            for plan in plans:
                paths = plan.points()
                assert_same_array(space.coordinates(paths), per_point_stack(lambda path: path.sample(times), paths))


def test_lp_distance_equals_the_per_point_stack_on_seeded_pairs():
    # 1000 seeded pairs, exact and float weights, 1 to 64 atoms, points of
    # every kind but matrices, whose chord distance is no number: the
    # distance from stacked coordinates equals, bit for bit and in both
    # orders, the one from the per-point stack.
    rng = random.Random(1308)
    count = 0
    while count < 1000:
        kind = rng.choice(["number", "tuple", "ndarray", "line", "pair"])
        size_a, size_b = (rng.choice([rng.randint(1, 12), rng.randint(1, MAX_SUPPORT)]) for _ in range(2))
        points = random_support(rng, kind, size_a + size_b, matrices=False)
        space = projective_metric() if kind == "line" else SPACE
        exact = rng.random() < 0.5

        def measure(support):
            raw = [rng.randint(1, 9) for _ in support]
            weights = [Fraction(w, sum(raw)) if exact else w / sum(raw) for w in raw]
            return FiniteMeasure(list(zip(support, weights)))

        # A product's pairs of equal numbers merge, so it may have fewer.
        cut = min(size_a, len(points) - 1)
        if cut < 1:
            continue
        mu, nu = measure(points[:cut]), measure(points[cut:])
        oracle = per_point_space(space)
        for a, b in ((mu, nu), (nu, mu)):
            assert lp_distance(a, b, space) == lp_distance(a, b, oracle), (kind, len(a), len(b))
        count += 1
    times = np.arange(16) / 15  # the grid of plan_pairs
    for mu, nu, space in plan_pairs(rng):
        oracle = per_point_space(space, lambda path: path.sample(times))
        assert lp_distance(mu, nu, space) == lp_distance(mu, nu, oracle) == lp_distance(nu, mu, oracle)


def test_matrix_points_are_rejected_before_the_flow():
    # The chord distance of matrix points, such as 2 x d ndarrays or the
    # pairs of a product of measures on R^d, is one number per row, not per
    # pair: lp_distance names the array's shape, in both orders, where the
    # flow read it as more pairs than there were and raised IndexError, or
    # found no pair below 1 and returned 1.0.
    a = FiniteMeasure([((0.0, 0.0), Fraction(1, 2)), ((0.1, 0.0), Fraction(1, 2))])
    b = FiniteMeasure([((0.0, 0.1), 1)])
    origin = dirac(np.zeros((2, 2)))
    cases = [(product_measure(a, b), product_measure(b, a))]
    cases += [(origin, dirac(np.full((2, 2), apart))) for apart in (0.1, 5.0)]
    rng = random.Random(1310)
    while len(cases) < 60:
        kind = rng.choice(["ndarray", "pair"])
        size_a, size_b = rng.randint(1, 12), rng.randint(1, 12)
        points = random_support(rng, kind, size_a + size_b)
        cut = min(size_a, len(points) - 1)
        if cut < 1 or SPACE.coordinates(points).ndim < 3:
            continue
        cases.append((uniform(points[:cut]), uniform(points[cut:])))
    for mu, nu in cases:
        for a, b in ((mu, nu), (nu, mu)):
            rows = SPACE.coordinates(a.points()).shape[1]
            with pytest.raises(ValueError) as error:
                lp_distance(a, b, SPACE)
            assert str(error.value) == (
                f"the distance array has shape {(len(a), len(b), rows)}, expected {len(a)} x {len(b)}: "
                "one distance per pair of points"
            )


def test_points_of_different_coordinate_shapes_are_rejected():
    # numpy broadcasting used to compare them and return a number.  The
    # message names the first point's shape and the first that differs, over
    # mu's points and then nu's, in every order.
    three, two = dirac([0.0, 0.0, 1.0]), dirac([0.0, 1.0])
    mixed = FiniteMeasure([((0.0, 0.0), Fraction(1, 2)), ((1.0, 0.0, 0.0), Fraction(1, 2))])
    line = FiniteMeasure([((0.0, 0.0), Fraction(1, 2)), (0.5, Fraction(1, 2))])
    rng = random.Random(820)
    circle = circle_navigate(3, [random_unit(rng, 2) for _ in range(3)]).measure
    sphere = rpn_navigate(random_unit(rng, 3), random_unit(rng, 3)).measure
    cases = [
        (three, two, SPACE, "(3,) and (2,)"),
        (two, three, SPACE, "(2,) and (3,)"),
        (mixed, three, SPACE, "(2,) and (3,)"),
        (two, mixed, SPACE, "(2,) and (3,)"),
        (three, mixed, SPACE, "(3,) and (2,)"),
        (line, line, SPACE, "(2,) and (1,)"),
        (circle, sphere, path_metric(sphere_metric(), 9), "(9, 2) and (9, 3)"),
        (sphere, circle, path_metric(sphere_metric(), 9), "(9, 3) and (9, 2)"),
    ]
    for mu, nu, space, shapes in cases:
        with pytest.raises(ValueError) as error:
            lp_distance(mu, nu, space)
        assert str(error.value) == f"points of coordinate shapes {shapes} cannot be compared"


def test_numbers_and_one_element_points_compare():
    # A number is a point of the line, the same as a one-element tuple, also
    # next to one in the same measure.
    mixed = FiniteMeasure([(0.5, Fraction(1, 2)), ((0.25,), Fraction(1, 2))])
    one = dirac([0.75])
    assert lp_distance(mixed, one, SPACE) == lp_distance(one, mixed, SPACE) == 0.5
    assert lp_distance(mixed, mixed, SPACE) == 0.0
    assert lp_distance(mixed, FiniteMeasure([((0.5,), Fraction(1, 2)), (0.25, Fraction(1, 2))]), SPACE) == 0.0


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


class UnreadAtoms(tuple):
    """Atoms whose count may be read but which fail the test when iterated."""

    def __iter__(self):
        pytest.fail("an atom was read")


def test_product_measure_refuses_over_atom_cap_before_any_atom(monkeypatch):
    # 257 x 256 atoms is one row over 2^16; the check reads only the counts.
    def uniform(size):
        return FiniteMeasure([(float(k), Fraction(1, size)) for k in range(size)])

    def unread(measure):
        measure.atoms = UnreadAtoms(measure.atoms)
        return measure

    message = r"^the product of 257 and 256 atoms has 65792, over the cap of 65536 \(MAX_PRODUCT_ATOMS\)$"
    with pytest.raises(ValueError, match=message):
        product_measure(unread(uniform(257)), unread(uniform(256)))
    monkeypatch.setattr(measures, "MAX_PRODUCT_ATOMS", 5)
    with pytest.raises(ValueError, match=r"^the product of 2 and 3 atoms has 6, over the cap of 5"):
        product_measure(unread(uniform(2)), unread(uniform(3)))
    monkeypatch.setattr(measures, "MAX_PRODUCT_ATOMS", 6)
    assert len(product_measure(uniform(2), uniform(3))) == 6


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


def test_euclidean_metric_overflows_to_inf_without_a_warning():
    # inf is the correctly rounded distance; it printed a RuntimeWarning.
    assert SPACE.distance([1e308, 1e308], [-1e308, -1e308]) == math.inf
    assert SPACE.distance(1e308, -1e308) == math.inf
    mu, nu = FiniteMeasure([([1e308, 1e308], 1)]), FiniteMeasure([([-1e308, -1e308], 1)])
    assert lp_distance(mu, nu, SPACE) == 1.0


def test_to_jsonable_covers_points_weights_and_payload_values():
    assert to_jsonable(Fraction(2, 6)) == "1/3"
    assert to_jsonable(np.int64(5)) == 5.0 and to_jsonable(True) == 1.0
    assert to_jsonable((np.float32(0.5), [1, np.array([[2.0], [3.0]])])) == [0.5, [1.0, [2.0, 3.0]]]
    assert to_jsonable(_canonical_line(_unit([0.0, -2.0], 2))) == [0.0, 1.0]
    assert to_jsonable("a") == "a"


def test_json_float_weights():
    data = [{"point": [0.0], "weight": 0.25}, {"point": [1.0], "weight": 0.75}]
    mu = measure_from_jsonable(data)
    assert mu.mode == "float"
    assert measure_to_jsonable(mu)[0]["weight"] == 0.25
