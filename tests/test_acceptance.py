"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Each criterion is a separate test so the -v report shows one pass/fail line
per guarantee. Randomized criteria use fixed seeds; exact criteria use
rational arithmetic end to end.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from distnav.bounds import euler_height, sphere_bundle_lower_bound, verify_witness_fn
from distnav.gcring import check_confluence, element, gen, multiply, normal_form
from distnav.knowledge import value_fadell_neuwirth, value_so3_bundle
from distnav.measures import FiniteMeasure, euclidean_metric, lp_distance
from distnav.navplan import (
    MAX_CHECKPOINTS,
    check_equivariance,
    check_lp_continuity,
    circle_navigate,
    hopf_map,
    hopf_parametrized_navigate,
    plan_checkpoint_deviation,
    projective_metric,
    quat_mul,
    rpn_navigate,
    sphere_metric,
)
from distnav.presentations import (
    catalog,
    complex_projective,
    cpn_sphere_bundle,
    fn_fiber_product,
    poincare_series,
    shipped_names,
)

GRID_CELLS = list(itertools.product((2, 3), (2, 3), (1, 2), (2, 3)))  # d, m, n, r


def expected_fn_bound(d, m, n, r):
    return r * n + m - 1 if d % 2 == 1 else r * n + m - 2


def poly_mul(a, b, cap):
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j <= cap:
                    out[i + j] += ai * bj
    return out


def fiber_power_series(d, m, n, r, cap):
    """prod(1 + i t^(d-1), i<m) * prod(1 + (m+i) t^(d-1), i<n)^r."""
    step = d - 1
    series = [1] + [0] * cap
    for i in range(1, m):
        series = poly_mul(series, [1] + [0] * (step - 1) + [i], cap)
    for _ in range(r):
        for i in range(n):
            series = poly_mul(series, [1] + [0] * (step - 1) + [m + i], cap)
    return series


def random_unit(rng, dim):
    v = np.array([rng.gauss(0, 1) for _ in range(dim)])
    return v / np.linalg.norm(v)


def random_rotation(rng, k):
    m = np.array([[rng.gauss(0, 1) for _ in range(k)] for _ in range(k)])
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_criterion_01_witness_certificates_on_the_full_grid():
    start = time.monotonic()
    for d, m, n, r in GRID_CELLS:
        cert = verify_witness_fn(fn_fiber_product(d, m, n, r))
        expected = expected_fn_bound(d, m, n, r)
        assert cert.bound == expected, (d, m, n, r, cert.bound, expected)
        assert cert.coefficient != 0
        assert isinstance(cert.coefficient, Fraction)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"certificate sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 16 certificates in {elapsed:.1f}s")


def test_large_fiber_power_cells_certify():
    # Too large for a dimension gate that enumerates the whole ring at once:
    # these cells build only because the series factorizes over components.
    for cell, bound in (((2, 3, 2, 4), 9), ((2, 4, 3, 3), 11)):
        start = time.monotonic()
        fp = fn_fiber_product.__wrapped__(*cell)
        built = time.monotonic() - start
        assert built < 1.0, f"{cell} took {built:.2f}s to build"
        witness_degree = expected_fn_bound(*cell) * (cell[0] - 1)
        got = poincare_series(fp.ring, witness_degree)
        assert got == fiber_power_series(*cell, witness_degree), cell
        cert = verify_witness_fn(fp)
        assert cert.bound == bound == expected_fn_bound(*cell), (cell, cert.bound)
        assert cert.coefficient != 0


def test_criterion_02_fiber_power_dimensions_match_closed_form():
    for d, m, n, r in GRID_CELLS:
        fp = fn_fiber_product(d, m, n, r)
        witness_degree = expected_fn_bound(d, m, n, r) * (d - 1)
        got = poincare_series(fp.ring, witness_degree)
        want = fiber_power_series(d, m, n, r, witness_degree)
        assert got == want, (d, m, n, r)
    print("criterion 2 PASS: 16 series checked coefficientwise")


def test_criterion_03_sphere_bundle_towers_certify_height_plus_copies():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        for r in (2, 3):
            cert = sphere_bundle_lower_bound(cpn_sphere_bundle(n, r))
            assert cert.bound >= n + r - 1, (n, r, cert.bound)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"tower sweep took {elapsed:.1f}s"
    print(f"criterion 3 PASS: 8 towers in {elapsed:.1f}s")


def test_criterion_04_generator_height_on_complex_projective_spaces():
    for n in range(1, 7):
        h = euler_height(complex_projective(n), gen("a1"), max_power=n + 2)
        assert h == n, (n, h)
    print("criterion 4 PASS: heights 1..6 exact")


def test_criterion_05_ring_engine_soundness():
    for name in shipped_names():
        ring = catalog(name)
        report = check_confluence(ring)
        assert report.passed, (name, report.failures)
        gens = list(ring.generator_names())
        if not gens:
            continue
        rng = random.Random(hash(name) & 0xFFFF)

        def monomial():
            word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
            coeff = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
            return element([(coeff, word)]), word

        for _ in range(1000):
            a, wa = monomial()
            b, wb = monomial()
            c, _ = monomial()
            # idempotence on a raw two-term combination
            e = normal_form(ring, element([(1, wa), (-2, wb)]))
            assert normal_form(ring, e) == e
            # associativity
            assert multiply(ring, multiply(ring, a, b), c) == multiply(
                ring, a, multiply(ring, b, c)
            )
            # graded commutativity of homogeneous monomials
            sign = -1 if (ring.word_degree(wa) * ring.word_degree(wb)) % 2 else 1
            forward = multiply(ring, a, b)
            backward = multiply(ring, b, a)
            assert forward.terms == {
                w: sign * cf for w, cf in backward.terms.items()
            }
    print(f"criterion 5 PASS: {len(shipped_names())} presentations, 1000 samples each")


def test_criterion_06_projective_planner_on_random_pairs():
    proj = projective_metric()
    for n in (2, 3, 4, 5):
        rng = random.Random(100 + n)
        pairs = [(random_unit(rng, n + 1), random_unit(rng, n + 1)) for _ in range(200)]
        for x, y in pairs:
            plan = rpn_navigate(x, y)
            assert len(plan.measure) <= 2
            assert abs(plan.measure.total_mass() - 1.0) <= 1e-12
            assert plan_checkpoint_deviation(plan, proj) <= 1e-9
        rotations = [random_rotation(rng, n) for _ in range(2)]
        report = check_equivariance(rpn_navigate, rotations, pairs, tol=1e-9, grid=64)
        assert report["samples"] == 400
        assert report["max_discrepancy"] <= 1e-9, (n, report["max_discrepancy"])
        assert report["failures"] == []
    print("criterion 6 PASS: 200 pairs per dimension, equivariant within 1e-9")


def test_criterion_07_hopf_fiber_planner_on_random_pairs():
    rng = random.Random(77)
    grid = [k / 63 for k in range(64)]
    for _ in range(100):
        e1 = random_unit(rng, 4)
        theta = rng.uniform(0, 2 * math.pi)
        e2 = quat_mul(e1, np.array([math.cos(theta), math.sin(theta), 0.0, 0.0]))
        plan = hopf_parametrized_navigate(2, [e1, e2])
        assert len(plan.measure) <= 2
        base = hopf_map(e1)
        for path, _ in plan.measure.atoms:
            deviation = max(float(np.linalg.norm(hopf_map(path(t)) - base)) for t in grid)
            assert deviation <= 1e-9
        assert plan_checkpoint_deviation(plan, sphere_metric()) <= 1e-9
    print("criterion 7 PASS: 100 same-fiber pairs, deviation within 1e-9")


def test_criterion_08_levy_prokhorov_diracs_and_metric_axioms():
    space = euclidean_metric()
    rng = random.Random(55)
    for _ in range(50):
        p = np.array([rng.uniform(-1, 1) for _ in range(3)])
        q = np.array([rng.uniform(-1, 1) for _ in range(3)])
        scale = rng.uniform(0.1, 2.0)
        mu = FiniteMeasure([(scale * p, 1)])
        nu = FiniteMeasure([(scale * q, 1)])
        d = float(np.linalg.norm(scale * (p - q)))
        assert abs(lp_distance(mu, nu, space) - min(d, 1.0)) <= 1e-6

    def measure():
        count = rng.randint(1, 4)
        raw = [rng.randint(1, 9) for _ in range(count)]
        total = sum(raw)
        return FiniteMeasure(
            [
                (np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]), Fraction(w, total))
                for w in raw
            ]
        )

    for _ in range(100):
        mu, nu, rho = measure(), measure(), measure()
        d_mn = lp_distance(mu, nu, space)
        assert abs(d_mn - lp_distance(nu, mu, space)) <= 3e-6
        assert lp_distance(mu, mu, space) <= 3e-6
        assert d_mn <= lp_distance(mu, rho, space) + lp_distance(rho, nu, space) + 3e-6
    print("criterion 8 PASS: 50 Dirac pairs within 1e-6, 100 triples within 3e-6")


def test_criterion_09_closed_forms_agree_with_certificates():
    for d, m, n, r in GRID_CELLS:
        record = value_fadell_neuwirth(d, m, n, r)
        cert = verify_witness_fn(fn_fiber_product(d, m, n, r))
        assert record.exact == cert.bound, (d, m, n, r)
    for r in range(2, 11):
        rec = value_so3_bundle(r)
        assert min(2 ** (r - 1) - 1, 2 * r + 1) == rec.upper
        assert rec.upper < 3 * (r - 1), r
    print("criterion 9 PASS: grid values match certificates; distributional < classical")


def circle_tuple(rng, r, kind):
    """r circle points: random, or each 1e-6 in angle off the last one
    ("coincident") or off its antipode ("antipodal")."""
    angles = [rng.uniform(0, 2 * math.pi)]
    for _ in range(r - 1):
        step = {"random": rng.uniform(0, 2 * math.pi), "coincident": 0.0, "antipodal": math.pi}[kind]
        angles.append(angles[-1] + step + rng.uniform(-1e-6, 1e-6))
    return [np.array([math.cos(a), math.sin(a)]) for a in angles]


def test_criterion_10_circle_and_hopf_plans_at_the_cited_value():
    # r - 1 for the circle and every circle-fibered Hopf projection: at most
    # r paths, each through its checkpoints, and continuous in the inputs:
    # 20 tuples at each r up to 12, and a tuple of each kind at r = 16, 32
    # and 64, where lp_distance compares plans by max flow.
    rng = random.Random(110)
    kinds = ("random", "random", "coincident", "antipodal")

    def circle(*zs):
        return circle_navigate(len(zs), zs)

    for r, count in [(r, 20) for r in range(2, 13)] + [(16, 4), (32, 4), (MAX_CHECKPOINTS, 4)]:
        tuples = [circle_tuple(rng, r, kinds[i % 4]) for i in range(count)]
        anchor = random_unit(rng, 4)

        def hopf(*zs):  # the Hopf plan through the lifts anchor * (z_0 + z_1 i)
            return hopf_parametrized_navigate(len(zs), [quat_mul(anchor, [z[0], z[1], 0.0, 0.0]) for z in zs])

        for planner in (circle, hopf):
            for pts in tuples:
                plan = planner(*pts)
                assert len(plan.measure) <= r
                assert abs(plan.measure.total_mass() - 1.0) <= 1e-12
                assert plan_checkpoint_deviation(plan, sphere_metric()) <= 1e-9
            report = check_lp_continuity(planner, tuples, 1e-5, 1, r)
            assert report["samples"] == len(tuples)
            assert report["failures"] == [], (r, report["failures"])
    print("criterion 10 PASS: circle and Hopf plans, r = 2..12, 16, 32, 64, at most r paths, continuous")
