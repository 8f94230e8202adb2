"""Distributional navigation plans: projective space, circle, Hopf fiber,
the tail-freezing deformation, and the two empirical verifiers."""

import math
import random

import numpy as np
import pytest

import distnav.navplan as navplan
from distnav.measures import euclidean_metric, lp_distance
from distnav.navplan import (
    FIBER_TOLERANCE,
    MAX_PLAN_ATOMS,
    ArcPath,
    ProjectivePoint,
    check_equivariance,
    check_lp_continuity,
    circle_navigate,
    hopf_map,
    hopf_parametrized_navigate,
    path_metric,
    plan_checkpoint_deviation,
    projective_metric,
    quat_conj,
    quat_mul,
    rpn_navigate,
    sphere_metric,
)

PROJ = projective_metric()


def random_unit(rng, dim):
    v = np.array([rng.gauss(0, 1) for _ in range(dim)])
    return v / np.linalg.norm(v)


def random_rotation(rng, k):
    m = np.array([[rng.gauss(0, 1) for _ in range(k)] for _ in range(k)])
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# === projective points ===


def test_projective_canonical_representative():
    p = ProjectivePoint.from_vector([-3.0, 4.0, 0.0])
    assert p.vec[0] > 0  # sign fixed by the first large coordinate
    assert abs(np.linalg.norm(np.array(p)) - 1.0) < 1e-15
    assert p == ProjectivePoint.from_vector([3.0, -4.0, 0.0])


def test_projective_rejects_zero_and_non_unit():
    with pytest.raises(ValueError):
        ProjectivePoint.from_vector([0.0, 0.0])
    with pytest.raises(ValueError):
        rpn_navigate([2.0, 0.0, 0.0], [0.0, 1.0, 0.0])


NON_FINITE = (math.nan, math.inf, -math.inf)


def spoiled(rng, point, bad):
    """A copy of point with one coordinate, chosen by rng, set to bad."""
    out = np.array(point, dtype=float)
    out[rng.randrange(len(out))] = bad
    return out


def test_projective_rejects_non_finite_representative():
    # A NaN coordinate used to pass the unit-norm check (abs(nan - 1) > 1e-9
    # is False) and fail only as "weight nan at GreatArcPath(...)".
    rng = random.Random(41)
    for bad in NON_FINITE:
        x, y = random_unit(rng, 3), random_unit(rng, 3)
        with pytest.raises(ValueError, match="representative .* has norm"):
            rpn_navigate(spoiled(rng, x, bad), y)
        with pytest.raises(ValueError, match="representative .* has norm"):
            rpn_navigate(x, spoiled(rng, y, bad))
        with pytest.raises(ValueError, match="not a finite nonzero length"):
            ProjectivePoint.from_vector(spoiled(rng, x, bad))


# === projective planner ===


def test_rpn_weights_at_one_third_turn():
    alpha = math.pi / 3
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([math.cos(alpha), math.sin(alpha), 0.0])
    plan = rpn_navigate(x, y)
    weights = {}
    for path, w in plan.measure.atoms:
        (angle,) = path.angles
        weights[round(abs(angle), 12)] = w
    assert abs(weights[round(alpha, 12)] - 2 / 3) < 1e-12  # short arc
    assert abs(weights[round(math.pi - alpha, 12)] - 1 / 3) < 1e-12
    # the long-arc weight times pi recovers the angle between the lines
    assert abs(weights[round(math.pi - alpha, 12)] * math.pi - alpha) < 1e-12


def test_rpn_perpendicular_splits_evenly():
    plan = rpn_navigate([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert sorted(w for _, w in plan.measure.atoms) == [0.5, 0.5]


def test_rpn_equal_lines_give_constant_plan():
    plan = rpn_navigate([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])  # same line
    assert len(plan.measure) == 1
    path, w = plan.measure.atoms[0]
    assert w == 1.0
    assert PROJ.distance(path(0.0), path(1.0)) == 0.0


@pytest.mark.parametrize("x, y", [([1.0], [1.0]), ([1.0], [-1.0]), ([], [])])
def test_rpn_rejects_vectors_of_length_below_two(x, y):
    # The constant plan's completion divided by zero and gave NaN paths.
    with pytest.raises(ValueError, match="length at least 2"):
        rpn_navigate(x, y)


def test_rpn_interpolates_and_sums_to_one():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            x, y = random_unit(rng, n + 1), random_unit(rng, n + 1)
            plan = rpn_navigate(x, y)
            assert len(plan.measure) <= 2
            assert abs(plan.measure.total_mass() - 1.0) <= 1e-12
            assert plan_checkpoint_deviation(plan, PROJ) <= 1e-9


def test_rpn_flips_negative_dot():
    # representatives on opposite hemispheres still give the acute angle
    x = np.array([1.0, 0.0, 0.0])
    y = ProjectivePoint.from_vector([-math.cos(0.3), math.sin(0.3), 0.0])
    plan = rpn_navigate(x, y)
    short = max(plan.measure.atoms, key=lambda a: a[1])[0]
    assert abs(abs(short.angles[0]) - 0.3) < 1e-12


# === circle planner ===


def test_circle_antipodal_split():
    plan = circle_navigate(2, [[1.0, 0.0], [-1.0, 0.0]])
    assert sorted(w for _, w in plan.measure.atoms) == [0.5, 0.5]


def test_circle_quarter_turn():
    plan = circle_navigate(2, [[1.0, 0.0], [0.0, 1.0]])
    assert sorted(w for _, w in plan.measure.atoms) == [0.25, 0.75]
    assert plan_checkpoint_deviation(plan, euclidean_metric()) <= 1e-9


def test_circle_three_checkpoints():
    plan = circle_navigate(3, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    weights = sorted(w for _, w in plan.measure.atoms)
    assert len(weights) == 4  # at most 2^(r-1)
    assert weights == [0.0625, 0.1875, 0.1875, 0.5625]
    assert plan_checkpoint_deviation(plan, euclidean_metric()) <= 1e-9


def test_circle_coincident_checkpoints_stay_put():
    plan = circle_navigate(2, [[0.0, 1.0], [0.0, 1.0]])
    assert len(plan.measure) == 1
    assert plan.measure.atoms[0][1] == 1.0


def test_circle_input_radius_ignored():
    a = circle_navigate(2, [[1.0, 0.0], [0.0, 1.0]])
    b = circle_navigate(2, [[7.0, 0.0], [0.0, 0.2]])
    assert sorted(w for _, w in a.measure.atoms) == sorted(w for _, w in b.measure.atoms)


def test_circle_argument_errors():
    with pytest.raises(ValueError):
        circle_navigate(1, [[1.0, 0.0]])
    with pytest.raises(ValueError):
        circle_navigate(3, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        circle_navigate(2, [[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        circle_navigate(2, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_circle_rejects_non_finite_checkpoint():
    # NaN and inf checkpoints used to fail only as "weights sum to 0.0"; a
    # vector whose squared norm overflows scaled to the zero vector.
    rng = random.Random(42)
    for bad in NON_FINITE:
        r = rng.randint(2, 4)
        pts = [random_unit(rng, 2) for _ in range(r)]
        k = rng.randrange(r)
        pts[k] = spoiled(rng, pts[k], bad)
        with pytest.raises(ValueError, match=r"checkpoint \[.*\] has norm .* not a finite nonzero"):
            circle_navigate(r, pts)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="has norm inf"):
        circle_navigate(2, [[1e200, 1e200], [0.0, 1.0]])


def test_circle_support_bound_random():
    rng = random.Random(5)
    for r in (2, 3, 4):
        pts = [random_unit(rng, 2) for _ in range(r)]
        plan = circle_navigate(r, pts)
        assert len(plan.measure) <= 2 ** (r - 1)
        assert abs(plan.measure.total_mass() - 1.0) <= 1e-12
        assert plan_checkpoint_deviation(plan, euclidean_metric()) <= 1e-9


def test_circle_plan_at_atom_cap():
    rng = random.Random(13)
    r = int(math.log2(MAX_PLAN_ATOMS)) + 1
    plan = circle_navigate(r, [random_unit(rng, 2) for _ in range(r)])
    assert len(plan.measure) == MAX_PLAN_ATOMS
    assert abs(plan.measure.total_mass() - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "planner, point",
    [(circle_navigate, [1.0, 0.0]), (hopf_parametrized_navigate, [1.0, 0.0, 0.0, 0.0])],
)
def test_plan_over_atom_cap_rejected_before_any_atom(monkeypatch, planner, point):
    # 2^(r-1) atoms without a cap: 8192 at r = 14, out of memory long before r = 30.
    def refuse(*args, **kwargs):
        raise AssertionError("an atom was built past the cap")

    for name in ("ArcPath", "FiniteMeasure"):
        monkeypatch.setattr(navplan, name, refuse)
    r = int(math.log2(MAX_PLAN_ATOMS)) + 2
    with pytest.raises(ValueError, match="cap"):
        planner(r, [point] * r)


# === Hopf fiber planner ===


def fiber_partner(e1, theta):
    return quat_mul(e1, np.array([math.cos(theta), math.sin(theta), 0.0, 0.0]))


def test_quaternion_identities():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    k = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.allclose(quat_mul(i, j), k)
    assert np.allclose(quat_mul(j, i), -k)
    assert np.allclose(quat_conj(quat_mul(i, j)), -k)


def test_hopf_map_lands_on_unit_sphere():
    rng = random.Random(2)
    for _ in range(20):
        q = random_unit(rng, 4)
        assert abs(np.linalg.norm(hopf_map(q)) - 1.0) < 1e-12


def test_hopf_plan_weights():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    quarter = hopf_parametrized_navigate(2, [e1, fiber_partner(e1, math.pi / 2)])
    assert sorted(w for _, w in quarter.measure.atoms) == [0.25, 0.75]
    anti = hopf_parametrized_navigate(2, [e1, fiber_partner(e1, math.pi)])
    assert sorted(w for _, w in anti.measure.atoms) == [0.5, 0.5]


def test_hopf_paths_stay_in_fiber():
    rng = random.Random(9)
    grid = [k / 63 for k in range(64)]
    for _ in range(20):
        e1 = random_unit(rng, 4)
        e2 = fiber_partner(e1, rng.uniform(0, 2 * math.pi))
        plan = hopf_parametrized_navigate(2, [e1, e2])
        base = hopf_map(e1)
        assert len(plan.measure) <= 2
        for path, _ in plan.measure.atoms:
            for t in grid:
                assert np.linalg.norm(hopf_map(path(t)) - base) <= 1e-9
        assert plan_checkpoint_deviation(plan, sphere_metric()) <= 1e-9
        assert abs(plan.measure.total_mass() - 1.0) <= 1e-12


def test_hopf_rejects_distinct_fibers():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="discrepancy"):
        hopf_parametrized_navigate(2, [e1, j])
    with pytest.raises(ValueError):
        hopf_parametrized_navigate(2, [e1, np.zeros(4)])
    with pytest.raises(ValueError):
        hopf_parametrized_navigate(2, [e1, np.array([1.0, 0.0, 0.0])])
    with pytest.raises(ValueError):
        hopf_parametrized_navigate(1, [e1])


def test_hopf_rejects_non_finite_checkpoint():
    # A NaN quaternion passed the fiber gate (nan > FIBER_TOLERANCE is False)
    # and failed only as "weights sum to 0.0".
    rng = random.Random(43)
    for bad in NON_FINITE:
        e1 = random_unit(rng, 4)
        pts = [e1, fiber_partner(e1, rng.uniform(0, 2 * math.pi))]
        k = rng.randrange(2)
        pts[k] = spoiled(rng, pts[k], bad)
        with pytest.raises(ValueError, match="not a finite nonzero length"):
            hopf_parametrized_navigate(2, pts)


def test_hopf_three_checkpoints():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    pts = [e1, fiber_partner(e1, math.pi / 2), fiber_partner(e1, math.pi)]
    plan = hopf_parametrized_navigate(3, pts)
    assert len(plan.measure) <= 4
    assert plan_checkpoint_deviation(plan, sphere_metric()) <= 1e-9


# === verifiers ===


def sample_pairs(rng, dim, count):
    return [(random_unit(rng, dim), random_unit(rng, dim)) for _ in range(count)]


def test_equivariance_identity_is_exact():
    rng = random.Random(1)
    report = check_equivariance(rpn_navigate, [np.eye(2)], sample_pairs(rng, 3, 5))
    assert report["samples"] == 5
    assert report["max_discrepancy"] == 0.0
    assert report["failures"] == []


def test_equivariance_random_rotations():
    rng = random.Random(12)
    mats = [random_rotation(rng, 3) for _ in range(3)]
    report = check_equivariance(rpn_navigate, mats, sample_pairs(rng, 4, 5))
    assert report["samples"] == 15
    assert report["max_discrepancy"] <= 1e-9
    assert report["failures"] == []


def test_equivariance_rejects_bad_group_elements():
    rng = random.Random(3)
    pairs = sample_pairs(rng, 3, 1)
    with pytest.raises(ValueError):  # reflection
        check_equivariance(rpn_navigate, [np.diag([1.0, -1.0])], pairs)
    with pytest.raises(ValueError):  # not orthogonal
        check_equivariance(rpn_navigate, [np.diag([2.0, 1.0])], pairs)
    with pytest.raises(ValueError):  # moves the last axis
        g = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        check_equivariance(rpn_navigate, [g], pairs)
    with pytest.raises(ValueError):  # wrong shape
        check_equivariance(rpn_navigate, [np.eye(5)], pairs)


def test_equivariance_flags_broken_planner():
    # a planner that ignores its inputs on one side cannot be equivariant
    def broken(x, y):
        return rpn_navigate(np.eye(len(x))[0], y)

    rng = random.Random(8)
    report = check_equivariance(broken, [random_rotation(rng, 2)], sample_pairs(rng, 3, 4))
    assert report["failures"]
    assert report["max_discrepancy"] > 1e-3


def test_continuity_probe_near_crossover():
    base = [
        (np.array([1.0, 0.0, 0.0]), np.array([math.cos(1.57), math.sin(1.57), 0.0])),
        (np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])),
    ]
    report = check_lp_continuity(rpn_navigate, base, perturbation_scale=1e-4, seed=4)
    assert report["samples"] == 16
    assert report["max_discrepancy"] <= 1e-2
    assert report["failures"] == []


def test_continuity_reports_samples_and_scale():
    base = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    report = check_lp_continuity(
        rpn_navigate, base, perturbation_scale=1e-5, samples_per_pair=3, seed=0
    )
    assert report["samples"] == 3
    assert report["max_discrepancy"] <= 1e-3


def test_plan_measures_compare_in_path_metric():
    # two plans between the same pair are LP-close to themselves and far
    # from a plan between a genuinely different pair
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    z = np.array([math.sqrt(0.5), math.sqrt(0.5), 0.0])
    space = path_metric(PROJ, grid=16)
    a = rpn_navigate(x, y).measure
    b = rpn_navigate(x, z).measure
    assert lp_distance(a, a, space) == 0.0
    assert lp_distance(a, b, space) > 0.05


@pytest.mark.parametrize("grid", [1, 0])
def test_path_metric_needs_two_grid_times(grid):
    # grid 1 divided by zero; grid 0 left no sample time to take the sup over.
    with pytest.raises(ValueError, match="grid"):
        path_metric(PROJ, grid=grid)


# === the path model ===

TIMES = [k / 63 for k in range(64)]


def sample_plans(rng):
    """Plans from all three planners, with at least two atoms each."""
    plans = []
    for n in (1, 2, 3):
        plans.append(rpn_navigate(random_unit(rng, n + 1), random_unit(rng, n + 1)))
    for r in (2, 3, 4):
        plans.append(circle_navigate(r, [random_unit(rng, 2) for _ in range(r)]))
        e1 = random_unit(rng, 4)
        pts = [e1] + [fiber_partner(e1, rng.uniform(0, 2 * math.pi)) for _ in range(r - 1)]
        plans.append(hopf_parametrized_navigate(r, pts))
    return plans


def test_sample_matches_pointwise_calls():
    rng = random.Random(21)
    ts = np.array([0.0, 1.0] + [rng.uniform(0, 1) for _ in range(62)])
    for plan in sample_plans(rng):
        for path, _ in plan.measure.atoms:
            batch = path.sample(ts)
            assert batch.shape == (len(ts), len(path.u[0]))
            for i, t in enumerate(ts):
                np.testing.assert_array_equal(batch[i], path(t))


def path_metric_per_time(point_space, grid):
    """The scalar per-time loop the batched path metric replaced (oracle)."""
    times = [k / (grid - 1) for k in range(grid)]
    return lambda p, q: max(float(point_space.distance(p(t), q(t))) for t in times)


@pytest.mark.parametrize("grid", [2, 9, 64])
def test_path_metric_matches_per_time_oracle(grid):
    rng = random.Random(22 + grid)
    plans = sample_plans(rng)
    for plan in plans:
        point_space = PROJ if isinstance(plan.checkpoints[0], ProjectivePoint) else sphere_metric()
        space, slow = path_metric(point_space, grid), path_metric_per_time(point_space, grid)
        # every pair within a plan, and each path against a plan of the same kind
        paths = [p for p, _ in plan.measure.atoms]
        others = [p for other in plans for p, _ in other.measure.atoms
                  if len(p.u[0]) == len(paths[0].u[0])]
        for p in paths:
            for q in paths + others[:6]:
                fast = space.distance(space.coordinates(p), space.coordinates(q))
                assert abs(fast - slow(p, q)) <= 1e-12


def test_rpn_paths_match_closed_form():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            x, y = random_unit(rng, n + 1), random_unit(rng, n + 1)
            plan = rpn_navigate(x, y)
            px, py = np.array(ProjectivePoint.from_vector(x)), np.array(ProjectivePoint.from_vector(y))
            if np.dot(px, py) < 0:
                py = -py
            alpha = math.acos(min(float(np.dot(px, py)), 1.0))
            e2 = py - math.cos(alpha) * px
            e2 /= np.linalg.norm(e2)
            for path, w in plan.measure.atoms:
                angle = alpha if abs(w - (1 - alpha / math.pi)) < 1e-12 else alpha - math.pi
                for t in TIMES:
                    expected = math.cos(angle * t) * px + math.sin(angle * t) * e2
                    np.testing.assert_allclose(path(t), expected, rtol=0, atol=1e-12)
            g = random_rotation(rng, n + 1)
            for path, _ in plan.measure.atoms:
                pushed = path.mapped(g)
                for t in TIMES:
                    np.testing.assert_allclose(pushed(t), g @ path(t), rtol=0, atol=1e-12)


def circle_closed_form(path, t, starts):
    """cos/sin of start_k + angle_k s on the k-th piece, as the removed arcs were."""
    n = len(path.angles)
    k = min(int(t * n), n - 1)
    a = starts[k] + path.angles[k] * (t * n - k)
    return np.array([math.cos(a), math.sin(a)])


def test_circle_and_hopf_paths_match_closed_form():
    rng = random.Random(24)
    for r in (2, 3, 4, 5):
        pts = [random_unit(rng, 2) for _ in range(r)]
        plan = circle_navigate(r, pts)
        starts = [math.atan2(p[1], p[0]) for p in pts]
        for path, _ in plan.measure.atoms:
            for k, (a, b) in enumerate(zip(pts, pts[1:])):
                delta = math.atan2(a[0] * b[1] - a[1] * b[0], float(np.dot(a, b)))
                other = delta - math.copysign(2 * math.pi, delta)
                assert path.angles[k] in (delta, other)
            for t in TIMES:
                np.testing.assert_allclose(path(t), circle_closed_form(path, t, starts), rtol=0, atol=1e-12)
        anchor = random_unit(rng, 4)
        quats = [quat_mul(anchor, [p[0], p[1], 0.0, 0.0]) for p in pts]
        hopf = hopf_parametrized_navigate(r, quats)
        circle = circle_navigate(r, [quat_mul(quat_conj(anchor), q)[:2] for q in quats])
        assert len(hopf.measure) == len(circle.measure)
        for (h, wh), (c, wc) in zip(hopf.measure.atoms, circle.measure.atoms):
            assert abs(wh - wc) <= 1e-12
            for t in TIMES:
                z = c(t)
                expected = quat_mul(anchor, np.array([z[0], z[1], 0.0, 0.0]))
                np.testing.assert_allclose(h(t), expected, rtol=0, atol=1e-12)


def test_arc_paths_merge_as_measure_points():
    a = ArcPath(((1.0, 0.0),), ((0.0, 1.0),), (0.5,))
    b = ArcPath(((1.0, 0.0),), ((0.0, 1.0),), (0.5,))
    assert hash(a) == hash(b)
    assert len(navplan.FiniteMeasure([(a, 0.5), (b, 0.5)])) == 1
