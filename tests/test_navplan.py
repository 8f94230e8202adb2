"""Distributional navigation plans: projective space, circle, Hopf fiber,
the tail-freezing deformation, and the two empirical verifiers."""

import dataclasses
import decimal
import json
import math
import random
import re
import warnings
from decimal import Decimal

import numpy as np
import pytest

import distnav.navplan as navplan
from distnav.measures import MAX_SUPPORT, FiniteMeasure, euclidean_metric, lp_distance, to_jsonable
from distnav.navplan import (
    FIBER_TOLERANCE,
    MAX_CHECKPOINTS,
    MAX_GRID,
    RATIO_CEILING,
    ArcPath,
    PathPlan,
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
    _canonical_line,
    _unit,
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
    p = _canonical_line(_unit([-3.0, 4.0, 0.0], 3))
    assert p.vec[0] > 0  # sign fixed by the first large coordinate
    assert abs(np.linalg.norm(np.array(p)) - 1.0) < 1e-15
    assert p == _canonical_line(_unit([3.0, -4.0, 0.0], 3))


def test_projective_rejects_zero_and_scales_non_unit():
    with pytest.raises(ValueError):
        _canonical_line(_unit([0.0, 0.0], 2))
    with pytest.raises(ValueError, match=r"^checkpoint \[0.0, 0.0, 0.0\] has norm 0.0, not a finite nonzero length$"):
        rpn_navigate([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    # A non-unit vector was refused; it now gives the line it spans.
    scaled, unit = rpn_navigate([2.0, 0.0, 0.0], [0.0, 1.0, 0.0]), rpn_navigate([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert (scaled.measure.atoms, scaled.checkpoints) == (unit.measure.atoms, unit.checkpoints)


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
        with pytest.raises(ValueError, match="checkpoint .* has norm .*, not a finite nonzero length"):
            rpn_navigate(spoiled(rng, x, bad), y)
        with pytest.raises(ValueError, match="checkpoint .* has norm .*, not a finite nonzero length"):
            rpn_navigate(x, spoiled(rng, y, bad))
        with pytest.raises(ValueError, match="not a finite nonzero length"):
            _canonical_line(_unit(spoiled(rng, x, bad), 3))


def scaled_norm(arr):
    """(s, n) with |arr / s| = n, as _unit computed it before it took one
    power-of-two scaling path (oracle): s = 1, with np.linalg.norm's bits,
    while the largest magnitude b in arr lies in (1e-150, 1e150), and s = b
    for other finite nonzero arr."""
    flat = arr.ravel()
    big = max(map(abs, flat.tolist()), default=0.0)
    if 1e-150 < big < 1e150:
        return 1.0, math.sqrt(flat.dot(flat))
    if 0.0 < big < math.inf:
        return big, float(np.linalg.norm(flat / big))
    with np.errstate(over="ignore"):  # NaN or inf: the norm says which
        return 1.0, float(np.linalg.norm(flat))


def as_projective(p):
    """The deleted reader of rpn_navigate's lines, which took ProjectivePoints
    as they are and other vectors only within 1e-9 of unit length (oracle)."""
    if isinstance(p, ProjectivePoint):
        return p
    arr = np.asarray(p, dtype=float)
    scale, norm = scaled_norm(arr)
    if not abs(scale * norm - 1.0) <= 1e-9:  # also false for NaN and inf
        raise ValueError(f"representative {arr.tolist()} has norm {scale * norm}, expected a unit vector")
    if arr.ndim != 1:
        raise ValueError(f"checkpoint {arr.tolist()} is not a vector of length {arr.size}")
    return _canonical_line(arr / norm)


def as_projective_two_step(p):
    """The route as_projective took before it shared one norm: check the
    norm, then normalize again, as the deleted from_vector did, and find the
    sign by a loop over numpy scalars (oracle)."""
    arr = np.asarray(p, dtype=float)
    scale, norm = scaled_norm(arr)
    if not abs(scale * norm - 1.0) <= 1e-9:
        raise ValueError(f"representative {arr.tolist()} has norm {scale * norm}, expected a unit vector")
    unit = navplan._unit(arr, np.size(arr))
    for x in unit:
        if abs(x) > navplan.COORDINATE_ZERO:
            if x < 0:
                unit = -unit
            break
    return ProjectivePoint(tuple(unit.tolist()))


def outcome(fn, p):
    """The representative's bytes, or the error message."""
    try:
        return np.array(fn(p).vec).tobytes()
    except ValueError as err:
        return str(err)


def test_as_projective_matches_two_step_oracle():
    rng = random.Random(43)
    inputs = []
    for _ in range(400):
        v = random_unit(rng, rng.randint(2, 6))
        k = rng.randrange(len(v))
        kind = rng.randrange(5)
        if kind == 1:  # off unit length by up to about the tolerance
            v = v * (1.0 + rng.uniform(-2e-9, 2e-9))
        elif kind == 2:  # leading coordinates at or below COORDINATE_ZERO, signed
            v[:k] = [rng.choice((-1.0, 1.0)) * rng.choice((0.0, 1e-13, 1e-12)) for _ in range(k)]
        elif kind == 3:
            v[k] = rng.choice((-0.0, 0.0, math.nan, math.inf, -math.inf))
        elif kind == 4:
            v = v * rng.choice((1e200, 1e150, 1e-150, 1e-320, 2.0, 0.5, 0.0))
        inputs.append(v)
    inputs += [[1e200, 0.0], [0.0, -1e-320], [-0.0, -1.0], [[0.6], [0.8]], [[0.6, 0.8]], 1.0, -1.0]
    inputs += [[-1e-12, 1.0], [1e-12, -0.0, -1.0], [-1.0000000000000002e-12, 1.0]]  # at the threshold
    # rpn_navigate now reads a line as _canonical_line(_unit(v, np.size(v))):
    # on every vector the oracles take it gives their bits.
    for p in inputs:
        expected = outcome(as_projective_two_step, p)
        assert outcome(as_projective, p) == expected, p
        if isinstance(expected, bytes):
            assert outcome(lambda v: _canonical_line(_unit(v, np.size(v))), p) == expected, p
            assert outcome(lambda v: rpn_navigate(v, v).checkpoints[0], p) == expected, p
    line = _canonical_line(_unit([0.6, -0.8], 2))
    assert rpn_navigate(line, line).checkpoints == (line, line)  # as it is, not scaled again


def test_rpn_scaled_inputs_give_the_lines_and_weights_of_unit_ones():
    # Scaling by -1 or a power of two is exact, so the plan is the same bit
    # for bit; any other scale moves the unit representatives by rounding.
    rng = random.Random(44)
    exact = [(-1.0, 1.0), (2.0, -0.5), (-8.0, -1024.0)]
    rounded = [(3.0, -0.1), (-1e200, 7.5), (1e-200, -1e-5)]
    for _ in range(50):
        dim = rng.randint(2, 6)
        x, y = random_unit(rng, dim), random_unit(rng, dim)
        unit_plan = rpn_navigate(x, y)
        for c, d in exact:
            plan = rpn_navigate(c * x, d * y)
            assert (plan.measure.atoms, plan.checkpoints) == (unit_plan.measure.atoms, unit_plan.checkpoints), (c, d)
        for c, d in rounded:
            plan = rpn_navigate(c * x, d * y)
            assert np.allclose(plan.checkpoints, unit_plan.checkpoints, rtol=0, atol=1e-15)
            assert np.allclose(plan.measure.weights(), unit_plan.measure.weights(), rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("x, y", [([1.0, 0.0], [0.0, 1.0, 0.0]), ([1.0], [0.0, 1.0])])
def test_rpn_rejects_vectors_of_different_dimensions(x, y):
    # The check ran only in the CLI; the library call failed inside numpy,
    # and a length-1 x met the length check first.
    with pytest.raises(ValueError, match="^x and y must have the same dimension$"):
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


def test_rpn_meets_its_checkpoints_on_nearly_coincident_lines():
    # alpha = acos(dot) lost half the digits of a small angle, so the long
    # arc ended away from y: 1e-8 off for (1, 0, 0) and (1, 1e-8, 0), and up
    # to 2.4e-8 here at eps = 1e-8, over the 1e-9 plans are checked to.
    assert plan_checkpoint_deviation(rpn_navigate([1.0, 0.0, 0.0], [1.0, 1e-8, 0.0]), PROJ) <= 1e-15
    rng = np.random.default_rng(46)
    for eps in (1e-5, 1e-7, 1e-8):
        for _ in range(100):
            x = _unit(rng.normal(size=4), 4)
            y = _unit(x + eps * rng.normal(size=4), 4) * rng.choice([-1.0, 1.0])
            assert plan_checkpoint_deviation(rpn_navigate(x, y), PROJ) <= 2e-15, (eps, x, y)


def test_rpn_flips_negative_dot():
    # representatives on opposite hemispheres still give the acute angle
    x = np.array([1.0, 0.0, 0.0])
    y = _canonical_line(_unit([-math.cos(0.3), math.sin(0.3), 0.0], 3))
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
    # Both pairs are quarter turns, s = 1/4: the quantile takes both clockwise
    # arcs below 1/4 and both counter-clockwise arcs above, two paths where
    # the independent product had four (1/16, 3/16, 3/16, 9/16).
    plan = circle_navigate(3, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    weights = sorted(w for _, w in plan.measure.atoms)
    assert weights == [0.25, 0.75]
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
    # A finite vector is scaled to unit length even when its squared norm
    # overflows.
    plan = circle_navigate(2, [[1e200, 1e200], [0.0, 1.0]])
    assert plan.checkpoints == circle_navigate(2, [[1.0, 1.0], [0.0, 1.0]]).checkpoints


def test_checkpoints_scale_to_unit_length_at_every_finite_magnitude():
    # A squared norm that overflows or underflows used to give norm inf or 0.
    rng = random.Random(17)
    for _ in range(300):
        v = np.array([rng.uniform(-1, 1) for _ in range(rng.randint(2, 4))]) * 10.0 ** rng.randint(-140, 140)
        assert navplan._unit(v, len(v)).tolist() == (v / np.linalg.norm(v)).tolist()  # same bits
    # _unit scaled only vectors whose largest magnitude left (1e-150, 1e150),
    # dividing them by that magnitude (scaled_norm); it now divides every
    # vector by a power of two, which is exact here: the same bits on mixed
    # magnitudes and zeros too.
    gen = np.random.default_rng(45)
    for k in range(3000):
        n = int(gen.integers(2, 66))
        v = gen.normal(size=n) * 10.0 ** gen.uniform(-20, 20, size=n) * 10.0 ** gen.uniform(-120, 120)
        v[1:][gen.random(n - 1) < k % 3 / 4] = 0.0  # none, a quarter or half, first kept
        scale, norm = scaled_norm(v)
        assert scale == 1.0
        assert navplan._unit(v, n).tobytes() == (v / norm).tobytes()
    for v in ([1e200, -1e200], [1.7e308, 1.7e308], [1e-170, 1e-170], [5e-324, 0.0], [0.0, -1e-320]):
        u = navplan._unit(v, 2)
        assert abs(math.hypot(*u) - 1.0) <= 1e-15, v
        assert np.sign(u).tolist() == np.sign(v).tolist(), v
    # Outside the window, within 2^-52 of the exact quotient; the windowed
    # route divided twice and gave 0.7071067811865475 here.
    assert navplan._unit([1.7e308, 1.7e308], 2).tolist() == [math.sqrt(0.5)] * 2
    context = decimal.Context(prec=40)
    for k in range(1000):
        v = gen.normal(size=int(gen.integers(2, 8))) * 10.0 ** (gen.uniform(150, 308) * (-1) ** k)
        length = context.sqrt(sum(context.multiply(Decimal(x), Decimal(x)) for x in v))
        for got, x in zip(navplan._unit(v, v.size).tolist(), v.tolist()):
            assert abs(Decimal(got) - context.divide(Decimal(x), length)) <= Decimal(2.0**-52), v
    for v in ([0.0, 0.0], [math.inf, 1.0], [math.nan, 1e308]):
        with pytest.raises(ValueError, match="not a finite nonzero length"):
            navplan._unit(v, 2)


@pytest.mark.parametrize(
    "v",
    [[0.0, 0.0], [-0.0, 0.0, -0.0], [math.inf, 0.0], [-math.inf, 1e308], [math.inf, -math.inf], [math.nan, 1.0],
     [1.0, math.nan], [1e200, math.nan], [math.inf, math.nan], [math.nan, math.inf], [0.0, math.nan]],
)
def test_unit_refuses_as_the_windowed_oracle_did(v):
    # max skips a NaN after the first coordinate; the norm it prints is the
    # oracle's all the same.
    _, norm = scaled_norm(np.array(v))
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {v} has norm {norm}, not a finite nonzero length")):
        _unit(v, len(v))


def test_circle_support_bound_random():
    rng = random.Random(5)
    for r in (2, 3, 4):
        pts = [random_unit(rng, 2) for _ in range(r)]
        plan = circle_navigate(r, pts)
        assert len(plan.measure) <= r
        assert abs(plan.measure.total_mass() - 1.0) <= 1e-12
        assert plan_checkpoint_deviation(plan, euclidean_metric()) <= 1e-9


def test_circle_plan_at_atom_cap():
    # A plan has at most one path per checkpoint, so the cap is lp_distance's.
    assert MAX_CHECKPOINTS == MAX_SUPPORT == 64
    rng = random.Random(13)
    r = MAX_CHECKPOINTS
    plan = circle_navigate(r, [random_unit(rng, 2) for _ in range(r)])
    assert len(plan.measure) <= r
    assert lp_distance(plan.measure, plan.measure, path_metric(euclidean_metric())) == 0.0
    assert abs(plan.measure.total_mass() - 1.0) <= 1e-12
    assert plan_checkpoint_deviation(plan, euclidean_metric()) <= 1e-9


@pytest.mark.parametrize(
    "planner, point",
    [(circle_navigate, [1.0, 0.0]), (hopf_parametrized_navigate, [1.0, 0.0, 0.0, 0.0])],
)
def test_plan_over_atom_cap_rejected_before_any_atom(monkeypatch, planner, point):
    # The checkpoint count is checked before any path is built.
    def refuse(*args, **kwargs):
        raise AssertionError("an atom was built past the cap")

    for name in ("ArcPath", "FiniteMeasure"):
        monkeypatch.setattr(navplan, name, refuse)
    r = MAX_CHECKPOINTS + 1
    with pytest.raises(ValueError, match="cap of 64"):
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


def quat_mul_numpy_scalars(a, b):
    """The Hamilton product on numpy scalars, as it was computed (oracle)."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def hopf_map_two_products(q):
    """q i q^-1 by two Hamilton products, the replaced hopf_map (oracle)."""
    return quat_mul_numpy_scalars(quat_mul_numpy_scalars(q, [0.0, 1.0, 0.0, 0.0]), quat_conj(q))[1:]


def test_quat_mul_matches_numpy_scalar_oracle_on_lists_and_arrays():
    rng = random.Random(31)
    for _ in range(200):
        a, b = random_unit(rng, 4), np.array([rng.gauss(0, 3) for _ in range(4)])
        expected = quat_mul_numpy_scalars(a, b)
        for x, y in ((a, b), (a.tolist(), b.tolist()), (a, b.tolist()), (tuple(a), b)):
            got = quat_mul(x, y)
            assert isinstance(got, np.ndarray) and got.dtype == float
            np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(quat_mul([0, 1, 0, 0], [0, 0, 1, 0]), [0.0, 0.0, 0.0, 1.0])


def test_hopf_map_closed_form_matches_two_products():
    rng = random.Random(32)
    for _ in range(2000):
        q = random_unit(rng, 4)
        assert np.max(np.abs(hopf_map(q) - hopf_map_two_products(q))) <= 1e-15
        np.testing.assert_array_equal(hopf_map(q.tolist()), hopf_map(q))


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
    assert len(plan.measure) <= 3
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
    with pytest.raises(ValueError, match="^rotation must be 2x2$"):  # a full 3x3 matrix, no longer taken
        check_equivariance(rpn_navigate, [np.eye(3)], pairs)
    with pytest.raises(ValueError):  # wrong shape
        check_equivariance(rpn_navigate, [np.eye(5)], pairs)
    # NaN passed the orthogonality test and warned in det; inf warned in the
    # product (errors under this suite's warning filter).
    for bad in ([[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 0.0], [0.0, 1.0]], [[1e200, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="^matrix is not orthogonal$"):
            check_equivariance(rpn_navigate, [bad], pairs)


def test_equivariance_flags_broken_planner():
    # a planner that ignores its inputs on one side cannot be equivariant
    def broken(x, y):
        return rpn_navigate(np.eye(len(x))[0], y)

    rng = random.Random(8)
    report = check_equivariance(broken, [random_rotation(rng, 2)], sample_pairs(rng, 3, 4))
    assert report["failures"]
    assert report["max_discrepancy"] > 1e-3


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_equivariance_refuses_a_tol_no_discrepancy_exceeds(tol):
    # No LP distance exceeds NaN or inf: a planner that ignores y, 0.615 away
    # at seed 0, reported no failure at either.
    def ignores_y(x, y):
        return rpn_navigate(x, [1.0, 0.0, 0.0])

    rng = random.Random(0)
    mats, pairs = [random_rotation(rng, 2)], sample_pairs(rng, 3, 1)
    report = check_equivariance(ignores_y, mats, pairs)
    assert len(report["failures"]) == 1 and report["max_discrepancy"] > 0.6
    with pytest.raises(ValueError, match=f"^tol must be at least 0 and finite, got {tol}$"):
        check_equivariance(lambda x, y: pytest.fail("a plan was built"), mats, pairs, tol=tol)


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


def test_line_chord_at_float_extremes_without_warnings():
    # min(|p - q|, |p + q|): a chord that overflows is inf, silently, and
    # the other chord still decides.
    cases = [
        ([1e308, 1e308], [1e308, -1e308], math.inf),
        ([1e308, -1e308], [-1e308, 1e308], 0.0),
        ([1.0, -0.0], [-1.0, 0.0], 0.0),
        (1e308, -1e308, 0.0),
        (0.25, -0.5, 0.25),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, q, expected in cases:
            assert PROJ.distance(p, q) == expected, (p, q)
        big = np.random.default_rng(44).uniform(-1.7, 1.7, size=(6, 3)) * 1e308
        assert np.all(PROJ.distance(big, big[0]) >= 0.0)


def line_chord_two_calls(p, q):
    """The line chord as it was: two chord distances, one per sign of q (oracle)."""
    chord = euclidean_metric().distance
    return np.minimum(chord(p, q), chord(p, np.negative(q)))


def test_line_chord_matches_two_chord_calls_byte_for_byte():
    rng = np.random.default_rng(45)
    extremes = np.array([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 1.0, -1.0])
    cases = [
        (rng.normal(size=(2, 1, 64, 3)), rng.normal(size=(1, 2, 64, 3))),
        (rng.normal(size=(5, 4)), rng.normal(size=4)),
        (rng.choice(extremes, size=(40, 3)), rng.choice(extremes, size=(40, 3))),
        (rng.uniform(-1.7, 1.7, size=(6, 3)) * 1e308, rng.uniform(-1.7, 1.7, size=3) * 1e308),
        ([1.0, -0.0], [-1.0, 0.0]),
        (1e308, -1e308),
        (0.25, -0.5),
        (-0.0, 0.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, q in cases:
            got, expected = PROJ.distance(p, q), line_chord_two_calls(p, q)
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


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


@pytest.mark.parametrize(
    "grid, message",
    [
        pytest.param(1, "^grid must have at least 2 times, got 1$", id="1"),
        pytest.param(0, "^grid must have at least 2 times, got 0$", id="0"),
        pytest.param(
            navplan.MAX_GRID + 1,
            rf"^a grid of {navplan.MAX_GRID + 1} times is over the cap of {navplan.MAX_GRID} \(MAX_GRID\)$",
            id="over-cap",
        ),
    ],
)
def test_path_metric_needs_two_grid_times(grid, message):
    # grid 1 divided by zero; grid 0 left no sample time to take the sup
    # over; grid 10^9 allocated 8 GB of times in np.arange.  The ends of the
    # range, 2 and MAX_GRID, are admitted.
    with pytest.raises(ValueError, match=message):
        path_metric(PROJ, grid=grid)
    path_metric(PROJ, grid=2)
    path_metric(PROJ, grid=navplan.MAX_GRID)


def test_equivariance_builds_each_base_plan_once():
    calls = []

    def counting(x, y):
        calls.append(1)
        return rpn_navigate(x, y)

    def broken(x, y):  # fails on some samples, so the failure order shows
        return rpn_navigate(np.eye(len(x))[0], y)

    rng = random.Random(14)
    mats = [random_rotation(rng, 2) for _ in range(3)]
    pairs = sample_pairs(rng, 3, 20)
    report = check_equivariance(counting, mats, pairs)
    assert len(calls) == 20 + 3 * 20  # one base plan per pair, one moved plan per sample
    assert report["samples"] == 60 and report["failures"] == []
    # One run over all elements reports what one run per element reports, in order.
    whole = check_equivariance(broken, mats, pairs)
    parts = [check_equivariance(broken, [g], pairs) for g in mats]
    assert whole["failures"] == [f for part in parts for f in part["failures"]]
    assert whole["max_discrepancy"] == max(part["max_discrepancy"] for part in parts)
    assert whole["samples"] == 60 and whole["failures"]


def two_point_continuity(plan_fn, base_pairs, perturbation_scale, samples_per_pair, seed, grid=64):
    """check_lp_continuity as it was, for two-point planners only (oracle)."""
    point_space = projective_metric()
    rng = np.random.default_rng(seed)
    space = path_metric(point_space, grid=grid)
    values, flagged = [], []
    for x, y in base_pairs:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        base_plan = plan_fn(x, y)
        for _ in range(samples_per_pair):
            dx = rng.normal(size=x.shape) * perturbation_scale
            dy = rng.normal(size=y.shape) * perturbation_scale
            x2 = x + dx
            x2 = x2 / float(np.linalg.norm(x2))
            y2 = y + dy
            y2 = y2 / float(np.linalg.norm(y2))
            input_delta = max(point_space.distance(x, x2), point_space.distance(y, y2))
            d = lp_distance(base_plan.measure, plan_fn(x2, y2).measure, space)
            values.append(d)
            if d > RATIO_CEILING * input_delta:
                flagged.append(([x2.tolist(), y2.tolist()], d))
    return values, flagged


def test_continuity_on_pairs_matches_two_point_oracle():
    # The generic probe perturbs the points in order, so on pairs it draws
    # the same numbers and flags the same samples as the two-point probe.
    def broken(x, y):  # jumps with the sign of a coordinate: not continuous
        return rpn_navigate(x, y if x[0] > 0 else np.eye(len(y))[0])

    rng = random.Random(15)
    pairs = sample_pairs(rng, 3, 6) + [(np.array([1e-6, 1.0, 0.0]), np.array([0.0, 0.6, 0.8]))]
    for planner in (rpn_navigate, broken):
        for scale in (1e-4, 1e-5):
            report = check_lp_continuity(planner, pairs, scale, 3, 9)
            values, flagged = two_point_continuity(planner, pairs, scale, 3, 9)
            assert report["samples"] == len(values)
            assert report["max_discrepancy"] == max(values)
            assert [(f["input"]["points"], f["value"]) for f in report["failures"]] == flagged
    assert check_lp_continuity(broken, pairs[-1:], 1e-4, 8, 9)["failures"]


def equivariance_loop(plan_fn, group_elements, sample_pairs, tol=1e-9, grid=64):
    """check_equivariance with its own report loop, as it was before the
    verifiers shared one (oracle)."""
    pairs = [(np.asarray(x, float), np.asarray(y, float)) for x, y in sample_pairs]
    if not pairs:
        return {"samples": 0, "max_discrepancy": 0.0, "failures": []}
    dim = len(pairs[0][0])
    mats = [navplan._check_rotation(g, dim) for g in group_elements]
    bases = [plan_fn(x, y).measure.atoms for x, y in pairs]
    space = path_metric(projective_metric(), grid=grid)
    samples = 0
    worst = 0.0
    failures = []
    for g in mats:
        for (x, y), base in zip(pairs, bases):
            samples += 1
            moved = plan_fn(g @ x, g @ y)
            pushed = FiniteMeasure([(p.mapped(g), w) for p, w in base])
            d = lp_distance(moved.measure, pushed, space)
            worst = max(worst, d)
            if d > tol:
                failures.append(
                    {
                        "input": {"g": to_jsonable(g), "x": to_jsonable(x), "y": to_jsonable(y)},
                        "value": d,
                    }
                )
    return {"samples": samples, "max_discrepancy": worst, "failures": failures}


def continuity_loop(plan_fn, base_inputs, perturbation_scale=1e-4, samples_per_pair=8, seed=0, grid=64):
    """check_lp_continuity with its own report loop and numpy's norm, as it
    was before the verifiers shared one loop (oracle)."""
    rng = np.random.default_rng(seed)
    samples = 0
    worst = 0.0
    failures = []
    for inputs in base_inputs:
        inputs = [np.asarray(p, dtype=float) for p in inputs]
        base_plan = plan_fn(*inputs)
        lines = isinstance(base_plan.checkpoints[0], ProjectivePoint)
        point_space = projective_metric() if lines else sphere_metric()
        space = path_metric(point_space, grid=grid)
        for _ in range(samples_per_pair):
            samples += 1
            moved_inputs = []
            for p in inputs:
                p2 = p + rng.normal(size=p.shape) * perturbation_scale
                moved_inputs.append(p2 / float(np.linalg.norm(p2)))
            input_delta = max(point_space.distance(p, p2) for p, p2 in zip(inputs, moved_inputs))
            moved = plan_fn(*moved_inputs)
            d = lp_distance(base_plan.measure, moved.measure, space)
            worst = max(worst, d)
            if d > RATIO_CEILING * input_delta:
                failures.append({"input": {"points": to_jsonable(moved_inputs)}, "value": d})
    return {"samples": samples, "max_discrepancy": worst, "failures": failures}


def test_verifiers_share_one_report_loop_with_the_same_bytes():
    # Both verifiers now feed _lp_report; their JSON reports keep every byte
    # of the loops they had, failing planners and empty input included.
    def ignores_x(x, y):
        return rpn_navigate(np.eye(len(x))[0], y)

    def jumps(x, y):
        return rpn_navigate(x, y if x[0] > 0 else np.eye(len(y))[0])

    def circle(*points):
        return circle_navigate(len(points), points)

    rng = random.Random(16)
    for n in (1, 2, 3):
        pairs = sample_pairs(rng, n + 1, 4) + [(np.r_[1e-6, 1.0, np.zeros(n - 1)], random_unit(rng, n + 1))]
        mats = [random_rotation(rng, n) for _ in range(2)]
        for planner in (rpn_navigate, ignores_x):
            args = (planner, mats, pairs, 1e-9, 16)
            assert json.dumps(check_equivariance(*args)) == json.dumps(equivariance_loop(*args))
        for planner in (rpn_navigate, jumps):
            args = (planner, pairs, 1e-3, 2, n, 16)
            assert json.dumps(check_lp_continuity(*args)) == json.dumps(continuity_loop(*args))
    tuples = [[random_unit(rng, 2) for _ in range(3)] for _ in range(4)]
    args = (circle, tuples, 1e-2, 2, 5, 16)
    assert json.dumps(check_lp_continuity(*args)) == json.dumps(continuity_loop(*args))
    assert check_equivariance(rpn_navigate, [np.eye(5)], []) == equivariance_loop(rpn_navigate, [np.eye(5)], [])
    assert check_lp_continuity(rpn_navigate, []) == continuity_loop(rpn_navigate, [])


def test_continuity_samples_each_base_plan_once_per_base_input(monkeypatch):
    # The base plan's measure keeps its samples across the perturbations of
    # its input: every path of every plan, base or perturbed, is sampled
    # once, not the base plan's once per perturbation.
    # Every sample of a path is made in ArcPath._at, so that is where they
    # are counted.
    sampled = []
    at = ArcPath._at

    def counted(path, k, s):
        sampled.append(id(path))
        return at(path, k, s)

    monkeypatch.setattr(ArcPath, "_at", counted)

    def recorded(planner):
        def plan_fn(*points):
            plans.append(planner(*points))
            return plans[-1]

        return plan_fn

    def circle(*points):
        return circle_navigate(len(points), points)

    rng = random.Random(17)
    cases = [
        (rpn_navigate, sample_pairs(rng, 3, 3)),
        (circle, [[random_unit(rng, 2) for _ in range(3)] for _ in range(2)]),
    ]
    for planner, base_inputs in cases:
        plans, sampled[:] = [], []
        report = check_lp_continuity(recorded(planner), base_inputs, samples_per_pair=5, seed=3, grid=16)
        assert report["samples"] == 5 * len(base_inputs) and len(plans) == 6 * len(base_inputs)
        paths = [id(path) for plan in plans for path in plan.measure.points()]
        assert sorted(sampled) == sorted(paths)


# === the quantile coupling of circle and Hopf plans ===


def circle_navigate_product(r, points):
    """The independent product of the pair measures, the replaced planner (oracle)."""
    pts = [navplan._unit(p, 2) for p in points]
    segment_options = []
    for a, b in zip(pts, pts[1:]):
        u, v = tuple(a.tolist()), (-float(a[1]), float(a[0]))
        delta = math.atan2(a[0] * b[1] - a[1] * b[0], float(np.dot(a, b)))
        theta = abs(delta)
        if theta == 0.0:
            segment_options.append([((u, v, 0.0), 1.0)])
            continue
        other = delta - math.copysign(2 * math.pi, delta)
        w_long = theta / (2 * math.pi)
        options = [((u, v, delta), 1.0 - w_long), ((u, v, other), w_long)]
        segment_options.append([(p, w) for p, w in options if w > 0.0])
    atoms = []
    stack = [(0, (), 1.0)]
    while stack:
        k, pieces, weight = stack.pop()
        if k == len(segment_options):
            atoms.append((ArcPath(*zip(*pieces)), weight))
            continue
        for piece, w in segment_options[k]:
            stack.append((k + 1, pieces + (piece,), weight * w))
    return PathPlan(FiniteMeasure(atoms), tuple(tuple(p.tolist()) for p in pts))


def checkpoint_tuple(rng, r, kind):
    """r circle points: random, or each near the last ("coincident") or
    near its antipode ("antipodal"), 1e-6 off in angle."""
    pts = [random_unit(rng, 2)]
    for _ in range(r - 1):
        if kind == "random":
            pts.append(random_unit(rng, 2))
            continue
        a = math.atan2(pts[-1][1], pts[-1][0]) + rng.uniform(-1e-6, 1e-6)
        a += math.pi if kind == "antipodal" else 0.0
        pts.append(np.array([math.cos(a), math.sin(a)]))
    return pts


KINDS = ("random", "random", "coincident", "antipodal")


def pair_marginal(plan, k):
    """The weights of the angles of piece k over the plan's paths."""
    marginal = {}
    for path, w in plan.measure.atoms:
        marginal[path.angles[k]] = marginal.get(path.angles[k], 0.0) + w
    return marginal


def test_circle_pair_marginals_match_product_oracle():
    rng = random.Random(51)
    for r in range(2, 13):
        for kind in KINDS:
            pts = checkpoint_tuple(rng, r, kind)
            plan, oracle = circle_navigate(r, pts), circle_navigate_product(r, pts)
            assert len(plan.measure) <= r
            for k in range(r - 1):
                got, expected = pair_marginal(plan, k), pair_marginal(oracle, k)
                assert set(got) <= set(expected)  # the same arcs, bit for bit
                for angle, w in expected.items():
                    assert abs(got.get(angle, 0.0) - w) <= 1e-12


def test_two_checkpoint_circle_plan_is_the_product_oracle():
    rng = random.Random(52)
    tuples = [checkpoint_tuple(rng, 2, KINDS[i % 4]) for i in range(40)]
    tuples += [[[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0]] * 2]
    for pts in tuples:
        got = dict(circle_navigate(2, pts).measure.atoms)
        expected = dict(circle_navigate_product(2, pts).measure.atoms)
        assert set(got) == set(expected)  # paths, angles included, bit for bit
        for path, w in expected.items():
            assert abs(got[path] - w) <= 1e-15


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
                fast = space.distance(space.coordinates([p])[0], space.coordinates([q])[0])
                assert abs(fast - slow(p, q)) <= 1e-12


def test_rpn_paths_match_closed_form():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            x, y = random_unit(rng, n + 1), random_unit(rng, n + 1)
            plan = rpn_navigate(x, y)
            px, py = np.array(_canonical_line(_unit(x, len(x)))), np.array(_canonical_line(_unit(y, len(y))))
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


def sample_per_call(path, ts):
    """ArcPath.sample as it was: convert the tuples on every call (oracle)."""
    n = len(path.angles)
    scaled = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0) * n
    k = np.minimum(scaled.astype(int), n - 1)
    a = np.asarray(path.angles)[k] * (scaled - k)
    u, v = np.asarray(path.u)[k], np.asarray(path.v)[k]
    return np.cos(a)[:, None] * u + np.sin(a)[:, None] * v


def mapped_per_call(path, matrix):
    """ArcPath.mapped as it was, on tuples converted per call (oracle)."""
    m = np.asarray(matrix, dtype=float)
    u, v = np.asarray(path.u) @ m.T, np.asarray(path.v) @ m.T
    return ArcPath(navplan._rows(u), navplan._rows(v), path.angles)


def oracle_plans(rng):
    """Seeded rpn, circle (r <= 5) and Hopf plans."""
    plans = sample_plans(rng)
    for r in (2, 5):
        plans.append(circle_navigate(r, [random_unit(rng, 2) for _ in range(r)]))
        e1 = random_unit(rng, 4)
        pts = [e1] + [fiber_partner(e1, rng.uniform(0, 2 * math.pi)) for _ in range(r - 1)]
        plans.append(hopf_parametrized_navigate(r, pts))
    return plans


def assert_bit_identical(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()  # the sign of a zero too


def test_cached_arrays_sample_and_map_bit_identically():
    rng = random.Random(25)
    ts = np.array(
        [0.0, -0.0, 1.0, 0.25, 0.5, 0.75, -0.5, 1.5, -math.inf, math.inf]
        + [rng.uniform(0, 1) for _ in range(54)]
    )
    # A -0.0 coordinate keeps its sign only where the time -0.0 does.
    signed_zero = ArcPath(((-0.0, 1.0), (1.0, -0.0)), ((1.0, 0.0), (0.0, -1.0)), (0.5, -0.5))
    paths = [path for plan in oracle_plans(rng) for path, _ in plan.measure.atoms]
    for path in paths + [signed_zero]:
        assert_bit_identical(path.sample(ts), sample_per_call(path, ts))
        for t in ts[:12]:
            assert_bit_identical(path(t), sample_per_call(path, [t])[0])
        dim = len(path.u[0])
        g = random_rotation(rng, dim)
        pushed, expected = path.mapped(g), mapped_per_call(path, g)
        assert pushed == expected
        assert_bit_identical(pushed.sample(ts), sample_per_call(expected, ts))


def test_cached_arrays_are_read_only_and_samples_fresh():
    path = circle_navigate(3, [[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]).measure.atoms[0][0]
    for cached in path._arrays:
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 5.0
    first = path.sample([0.0, 0.5, 1.0])
    first[:] = 7.0  # a sample is a new, writable array
    assert_bit_identical(path.sample([0.0, 0.5, 1.0]), sample_per_call(path, [0.0, 0.5, 1.0]))
    assert "_arrays" not in repr(path)
    assert list(dataclasses.asdict(path)) == ["u", "v", "angles"]


def sample_per_path(path, ts):
    """ArcPath.sample as it was: every path clamps its times and finds their
    pieces itself, on arrays built from its tuples (oracle)."""
    angles = np.array(path.angles, dtype=float)
    u, v = np.array(path.u, dtype=float), np.array(path.v, dtype=float)
    n = len(angles)
    clamped = np.minimum(np.maximum(0.0, np.asarray(ts, dtype=float)), 1.0)
    nan = np.isnan(clamped)
    if nan.any():
        raise ValueError(f"sample time {int(np.argmax(nan))} is nan, not a time in [0, 1]")
    scaled = clamped * n
    k = np.minimum(scaled.astype(int), n - 1)
    a = (angles.take(k) * (scaled - k))[:, None]
    return np.cos(a) * u.take(k, axis=0) + np.sin(a) * v.take(k, axis=0)


def grid_oracle(count):
    """count times k / (count - 1), the grid of the path metric."""
    return np.arange(count) / max(count - 1, 1)


def table_route_plans(rng):
    """rpn plans, circle plans through 2 to 64 checkpoints (1 to 63 pieces),
    Hopf plans, and plans of mapped paths."""
    plans = [rpn_navigate(random_unit(rng, n + 1), random_unit(rng, n + 1)) for n in (1, 2, 3, 4)]
    for r in range(2, MAX_CHECKPOINTS + 1):
        plans.append(circle_navigate(r, [random_unit(rng, 2) for _ in range(r)]))
    for r in (2, 3, 7, MAX_CHECKPOINTS):
        e1 = random_unit(rng, 4)
        pts = [e1] + [fiber_partner(e1, rng.uniform(0, 2 * math.pi)) for _ in range(r - 1)]
        plans.append(hopf_parametrized_navigate(r, pts))
    for plan in plans[:4] + plans[-2:]:
        g = random_rotation(rng, len(plan.measure.points()[0].u[0]))
        atoms = [(path.mapped(g), w) for path, w in plan.measure.atoms]
        moved = [g @ np.array(c) for c in plan.checkpoints]
        if isinstance(plan.checkpoints[0], ProjectivePoint):
            moved = [_canonical_line(c) for c in moved]
        plans.append(PathPlan(FiniteMeasure(atoms), tuple(moved)))
    return plans


def test_table_route_matches_per_path_sampler_byte_for_byte():
    rng = random.Random(27)
    plans = table_route_plans(rng)
    pieces = {len(path.angles) for plan in plans for path in plan.measure.points()}
    assert pieces == set(range(1, MAX_CHECKPOINTS))
    ts = [-0.0, 0.0, -0.25, -math.inf, 1.0, 1.5, math.inf, 5e-324] + [rng.uniform(-0.5, 1.5) for _ in range(24)]
    for plan in plans:
        paths = plan.measure.points()
        point_space = PROJ if isinstance(plan.checkpoints[0], ProjectivePoint) else sphere_metric()
        for grid in (2, 9, 64, 1024):
            expected = np.array([sample_per_path(path, grid_oracle(grid)) for path in paths])
            assert_bit_identical(path_metric(point_space, grid).coordinates(paths), expected)
        samples = np.array([sample_per_path(path, grid_oracle(plan.r)) for path in paths])
        checkpoints = np.asarray(plan.checkpoints, dtype=float)
        deviation = np.max(point_space.distance(samples, checkpoints))
        assert_bit_identical(np.float64(plan_checkpoint_deviation(plan, point_space)), deviation)
        for path in paths:
            assert_bit_identical(path.sample(ts), sample_per_path(path, ts))
            for t in ts[:8]:
                assert_bit_identical(path(t), sample_per_path(path, [t])[0])


def test_grid_tables_are_bounded_read_only_and_never_shared_across_keys():
    # Each table is 16 bytes a time: at most _GRID_TABLES x 16 KB at MAX_GRID.
    navplan._grid_table.cache_clear()
    keys = [(count, pieces) for count in (2, 9, 64, MAX_GRID, 3) for pieces in (1, 2, 3, 5, 8, 13, 63)]
    assert len(keys) > navplan._GRID_TABLES
    owners = {}  # id of a table's arrays -> its key; the tables stay alive, so no id is reused
    kept = []
    for key in keys + keys[::-1] + keys[::3]:
        count, pieces = key
        table = navplan._grid_table(count, pieces)
        assert navplan._grid_table.cache_info().currsize <= navplan._GRID_TABLES
        kept.append(table)
        for a in table:
            assert owners.setdefault(id(a), key) == key
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        scaled = grid_oracle(count) * pieces
        k = np.minimum(scaled.astype(int), pieces - 1)
        assert_bit_identical(table[0], k)
        assert_bit_identical(table[1], scaled - k)
    assert navplan._grid_table.cache_info().currsize == navplan._GRID_TABLES
    # A grid past MAX_GRID, which only a hand-built plan has, stays out of the cache.
    path = circle_navigate(3, [[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]).measure.atoms[0][0]
    before = navplan._grid_table.cache_info()
    assert_bit_identical(navplan._grid_samples(path, MAX_GRID + 1), sample_per_path(path, grid_oracle(MAX_GRID + 1)))
    assert navplan._grid_table.cache_info() == before


def test_mapped_path_keeps_its_products_as_its_arrays():
    rng = random.Random(28)
    path = circle_navigate(4, [random_unit(rng, 2) for _ in range(4)]).measure.atoms[0][0]
    g = np.column_stack([random_unit(rng, 4), random_unit(rng, 4)])
    image = path.mapped(g)
    assert "_arrays" in vars(image)  # kept, not rebuilt from the tuples on first use
    for kept, rebuilt in zip(image._arrays, (image.angles, image.u, image.v)):
        assert not kept.flags.writeable
        assert_bit_identical(kept, np.array(rebuilt, dtype=float))
    assert image == mapped_per_call(path, g)
    assert "_arrays" not in repr(image)
    assert list(dataclasses.asdict(image)) == ["u", "v", "angles"]


def test_nan_time_raises_value_error():
    # A NaN time cast to the int minimum, warned, and indexed out of bounds.
    path = ArcPath(((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (-1.0, 0.0)), (0.5, 0.5))
    for ts, index in (([math.nan], 0), ([0.25, math.nan, 0.75], 1)):
        with pytest.raises(ValueError, match=f"sample time {index} is nan"):
            path.sample(ts)
    with pytest.raises(ValueError, match="is nan"):
        path(math.nan)
    np.testing.assert_array_equal(path.sample([-math.inf, math.inf]), path.sample([0.0, 1.0]))


def test_scalar_call_matches_one_time_sample_byte_for_byte():
    rng = random.Random(26)
    plans = [rpn_navigate(random_unit(rng, n + 1), random_unit(rng, n + 1)) for n in (1, 2, 3)]
    for r in (2, 5, MAX_CHECKPOINTS):
        plans.append(circle_navigate(r, [random_unit(rng, 2) for _ in range(r)]))
        e1 = random_unit(rng, 4)
        pts = [e1] + [fiber_partner(e1, rng.uniform(0, 2 * math.pi)) for _ in range(r - 1)]
        plans.append(hopf_parametrized_navigate(r, pts))
    assert max(len(path.angles) for plan in plans for path, _ in plan.measure.atoms) == MAX_CHECKPOINTS - 1
    signed_zero = ArcPath(((-0.0, 1.0), (1.0, -0.0)), ((1.0, 0.0), (0.0, -1.0)), (0.5, -0.5))
    special = [0.0, -0.0, math.inf, -math.inf, 1.0, 1.0 - 2.0**-53, 5e-324]
    for path in [path for plan in plans for path, _ in plan.measure.atoms] + [signed_zero]:
        n = len(path.angles)
        times = special + [k / n for k in range(n + 1)] + [rng.uniform(-0.5, 1.5) for _ in range(8)]
        given = [f(t) for t in times for f in (float, np.float64, np.float32, np.array)] + [-1, 0, 1, 2]
        for t in given:
            assert_bit_identical(path(t), path.sample([t])[0])
        with pytest.raises(ValueError, match="is nan"):
            path(math.nan)
        with pytest.raises(ValueError, match="is nan"):
            path(np.float32(math.nan))
    # A new, writable array: writing to it leaves the path as it was.
    path = plans[-1].measure.atoms[0][0]
    before = [a.copy() for a in path._arrays]
    point = path(0.3)
    assert point.flags.writeable and not np.shares_memory(point, path._arrays[1])
    point[:] = 7.0
    for cached, kept in zip(path._arrays, before):
        assert_bit_identical(cached, kept)
    assert_bit_identical(path(0.3), path.sample([0.3])[0])


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
