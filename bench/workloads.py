"""The four closed-loop workloads.

Each workload is built from the seed and a freshly imported ``distnav``
(``dn``: one attribute per module, plus ``caches``, the original
``lru_cache`` objects).  Building it is the workload's set-up: input
generation and prebuilds.  The result is one cycle of ops; the run loop
repeats whole cycles, so every run measures the same op mix.

An op is one call sequence into the public library API followed by its
correctness check.  It returns an outcome (plain values, compared between
the traced and the untraced pass) or raises.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from checks import (
    EQUIVARIANCE_TOL,
    DEVIATION_TOL,
    CheckFailed,
    check_at_most,
    check_equal,
    check_fn_certificate,
    check_lp_dirac,
    check_lp_self,
    check_lp_symmetric,
    check_lp_triangle,
    check_tower,
    check_weight_sum,
    fn_closed_form,
)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]


# -- certify ---------------------------------------------------------------------

GRID_CELLS = tuple(itertools.product((2, 3), (2, 3), (1, 2), (2, 3)))  # d, m, n, r
# Beyond the desk-scale grid, certified by witness alone.
WITNESS_CELLS = ((3, 2, 2, 4), (2, 2, 2, 4), (3, 3, 3, 2))
TOWERS = tuple((n, r) for n in range(1, 7) for r in range(2, 5))


def _composition(total: int, parts: int, rng: random.Random) -> tuple[int, ...]:
    """A uniformly drawn composition of ``total`` into ``parts`` nonnegative parts."""
    cuts = sorted(rng.sample(range(total + parts - 1), parts - 1))
    bounds = [-1] + cuts + [total + parts - 1]
    return tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def certify(dn, rng: random.Random) -> list[Op]:
    """One op per certificate request, caches cold as in a fresh CLI process."""
    pr, bd, kn = dn.presentations, dn.bounds, dn.knowledge
    caches = dn.caches
    fn_cache = caches[0]

    def clear() -> None:
        for cache in caches:
            cache.cache_clear()

    def fn_op(cell):
        value_fadell_neuwirth = kn.value_fadell_neuwirth
        fn_fiber_product, verify_witness_fn = pr.fn_fiber_product, bd.verify_witness_fn

        def run():
            clear()
            misses = fn_cache.cache_info().misses
            if cell in GRID_CELLS:
                record = value_fadell_neuwirth(*cell)
                check_equal(f"fn{cell} exact value", record.exact, fn_closed_form(*cell))
                certs = [e.certificate for e in record.provenance if e.certificate is not None]
                if not certs:
                    raise CheckFailed(f"fn{cell}: record carries no certificate")
                cert = certs[0]
            else:
                cert = verify_witness_fn(fn_fiber_product(*cell))
            check_fn_certificate(cell, cert.bound, cert.coefficient)
            if fn_cache.cache_info().misses <= misses:
                raise CheckFailed(f"fn{cell}: fn_fiber_product cache was warm")
            return cert.bound, cert.coefficient, cert.witness_monomial

        return run

    def tower_op(n, r, split_seed):
        cpn_sphere_bundle, euler_height = pr.cpn_sphere_bundle, bd.euler_height
        sphere_bundle_lower_bound = bd.sphere_bundle_lower_bound

        def run():
            clear()
            tower = cpn_sphere_bundle(n, r)
            top = sum(g.degree for g in tower.ring.generators)
            height = euler_height(tower.ring, tower.section_euler, top // (tower.q - 1) + 1)
            partition = _composition(height, r - 1, random.Random(split_seed))
            cert = sphere_bundle_lower_bound(tower, partition)
            check_tower(n, r, height, cert.bound)
            return height, cert.bound, cert.coefficient

        return run

    ops = [Op("fn", fn_op(cell)) for cell in GRID_CELLS + WITNESS_CELLS]
    ops += [Op("tower", tower_op(n, r, rng.getrandbits(32))) for n, r in TOWERS]
    rng.shuffle(ops)
    return ops


# -- rewrite ---------------------------------------------------------------------

SOUNDNESS_BATCHES = 8  # per ring with generators
SAMPLES_PER_BATCH = 10
CUP_CELLS = ((2, 2, 1, 2), (3, 2, 1, 2), (2, 2, 1, 3), (3, 2, 1, 3), (2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 1, 3))
HEIGHT_SPACES = tuple(range(1, 10))  # CP^1 .. CP^9


def _copy_differences(gc, fp) -> list:
    """All differences of two copies of one fiber class: the kernel elements
    the CLI's ``bound cup-length`` searches over."""
    out = []
    for j in range(fp.m + 1, fp.m + fp.n + 1):
        for i in range(1, j):
            for l1 in range(1, fp.r + 1):
                for l2 in range(l1 + 1, fp.r + 1):
                    out.append(gc.subtract(gc.gen(fp.w(l1, i, j)), gc.gen(fp.w(l2, i, j))))
    return out


def _fn_cell(name: str) -> tuple[int, ...]:
    kv = dict(part.split("=") for part in name.partition(":")[2].split(","))
    return tuple(int(kv[key]) for key in "dmnr")


def rewrite(dn, rng: random.Random) -> list[Op]:
    """The rewrite engine on prebuilt rings: soundness, confluence, cup length,
    witnesses and generator heights."""
    gc, pr, bd = dn.gcring, dn.presentations, dn.bounds
    rings = {name: pr.catalog(name) for name in pr.shipped_names()}
    fn_cells = [_fn_cell(name) for name in rings if name.startswith("fn:")]
    fibers = {cell: pr.fn_fiber_product(*cell) for cell in dict.fromkeys(fn_cells + list(CUP_CELLS))}
    collapses = {cell: bd.diagonal_fn(fibers[cell]) for cell in CUP_CELLS}
    spaces = {n: pr.complex_projective(n) for n in HEIGHT_SPACES}
    normal_form, multiply, element = gc.normal_form, gc.multiply, gc.element

    def soundness_op(ring, samples):
        def run():
            out = []
            for a, wa, b, wb, c in samples:
                e = normal_form(ring, element([(1, wa), (-2, wb)]))
                check_equal("normal form idempotence", normal_form(ring, e), e)
                ab = multiply(ring, a, b)
                check_equal(
                    "associativity", multiply(ring, ab, c), multiply(ring, a, multiply(ring, b, c))
                )
                sign = -1 if ring.word_degree(wa) * ring.word_degree(wb) % 2 else 1
                ba = multiply(ring, b, a)
                check_equal("graded commutativity", ab.terms, {w: sign * x for w, x in ba.terms.items()})
                out.append(tuple(sorted(ab.terms.items())))
            return tuple(out)

        return run

    def confluence_op(ring):
        check_confluence = gc.check_confluence

        def run():
            report = check_confluence(ring)
            check_equal(f"{ring.name} confluence", report.passed, True)
            return report.triples_checked

        return run

    def cup_op(cell):
        fp, collapse = fibers[cell], collapses[cell]
        elements = _copy_differences(gc, fp)
        cup_length_kernel = bd.cup_length_kernel

        def run():
            length = cup_length_kernel(fp.ring, collapse, elements)
            check_equal(f"cup length at {cell}", length, fn_closed_form(*cell))
            return length

        return run

    def witness_op(cell):
        fp, verify_witness_fn = fibers[cell], bd.verify_witness_fn

        def run():
            cert = verify_witness_fn(fp)
            check_fn_certificate(cell, cert.bound, cert.coefficient)
            return cert.bound, cert.coefficient, cert.witness_monomial

        return run

    def height_op(n):
        space, a1, euler_height = spaces[n], gc.gen("a1"), bd.euler_height

        def run():
            height = euler_height(space, a1, n + 2)
            check_equal(f"height of a1 on cp{n}", height, n)
            return height

        return run

    def sample(gens):
        def monomial():
            word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))
            coeff = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3))
            return element([(coeff, word)]), word

        (a, wa), (b, wb), (c, _) = monomial(), monomial(), monomial()
        return a, wa, b, wb, c

    ops = []
    for ring in rings.values():
        ops.append(Op("confluence", confluence_op(ring)))
        gens = ring.generator_names()
        if gens:
            for _ in range(SOUNDNESS_BATCHES):
                batch = [sample(gens) for _ in range(SAMPLES_PER_BATCH)]
                ops.append(Op("soundness", soundness_op(ring, batch)))
    ops += [Op("cup_length", cup_op(cell)) for cell in CUP_CELLS]
    ops += [Op("witness", witness_op(cell)) for cell in fibers]
    ops += [Op("height", height_op(n)) for n in HEIGHT_SPACES]
    rng.shuffle(ops)
    return ops


# -- navigate --------------------------------------------------------------------

PROJECTIVE_DIMS = (2, 3, 4, 5)
EQUIVARIANCE_PER_DIM = 8
CHECKPOINT_PER_DIM = 2
CONTINUITY_PER_DIM = 3
CONTINUITY_SAMPLES = 2
# The probe flags a sample when the plan moves more than 10x its input.  Near
# coinciding lines the long arc of rpn_navigate (mass alpha/pi) turns by
# about delta/alpha, so the ratio reaches pi/alpha: pairs of lines closer than
# pi/10 are flagged by design (the CLI reports such samples as data).  The
# continuity ops therefore draw lines at least this far apart.
CONTINUITY_MIN_ANGLE = 0.5
HOPF_PLANS = 8
CIRCLE_PER_R = 3
GRID = 64
LP_PRECISION = 1e-12


def _unit(rng: random.Random, dim: int) -> np.ndarray:
    v = np.array([rng.gauss(0, 1) for _ in range(dim)])
    return v / np.linalg.norm(v)


def _rotation(rng: random.Random, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(k)] for _ in range(k)]))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def navigate(dn, rng: random.Random) -> list[Op]:
    """Planners and their verifiers; the LP checks run on path measures."""
    nv, ms = dn.navplan, dn.measures
    projective, sphere = nv.projective_metric(), nv.sphere_metric()
    rpn_navigate, plan_checkpoint_deviation = nv.rpn_navigate, nv.plan_checkpoint_deviation
    times = [k / (GRID - 1) for k in range(GRID)]

    def equivariance_op(g, x, y):
        check_equivariance = nv.check_equivariance

        def run():
            report = check_equivariance(rpn_navigate, [g], [(x, y)], tol=EQUIVARIANCE_TOL, grid=GRID)
            check_equal("equivariance samples", report["samples"], 1)
            check_at_most("equivariance discrepancy", report["max_discrepancy"], EQUIVARIANCE_TOL)
            check_equal("equivariance failures", report["failures"], [])
            return report["max_discrepancy"]

        return run

    def checkpoint_op(x, y):
        def run():
            plan = rpn_navigate(x, y)
            check_at_most("rpn support", len(plan.measure), 2)
            check_weight_sum("rpn plan", plan.measure.total_mass())
            deviation = plan_checkpoint_deviation(plan, projective)
            check_at_most("rpn checkpoint deviation", deviation, DEVIATION_TOL)
            return deviation

        return run

    def continuity_op(x, y, seed):
        check_lp_continuity = nv.check_lp_continuity

        def run():
            report = check_lp_continuity(
                rpn_navigate, [(x, y)], samples_per_pair=CONTINUITY_SAMPLES, seed=seed, grid=GRID
            )
            check_equal("continuity samples", report["samples"], CONTINUITY_SAMPLES)
            check_equal("flagged continuity samples", report["failures"], [])
            return report["max_discrepancy"]

        return run

    def hopf_op(e1, e2):
        hopf_parametrized_navigate, hopf_map = nv.hopf_parametrized_navigate, nv.hopf_map

        def run():
            plan = hopf_parametrized_navigate(2, [e1, e2])
            check_weight_sum("hopf plan", plan.measure.total_mass())
            base = hopf_map(e1)
            fiber = max(
                float(np.linalg.norm(hopf_map(path(t)) - base))
                for path, _ in plan.measure.atoms
                for t in times
            )
            check_at_most("hopf fiber deviation", fiber, DEVIATION_TOL)
            deviation = plan_checkpoint_deviation(plan, sphere)
            check_at_most("hopf checkpoint deviation", deviation, DEVIATION_TOL)
            return fiber, deviation

        return run

    def circle_op(r, points):
        circle_navigate = nv.circle_navigate

        def run():
            plan = circle_navigate(r, points)
            check_at_most("circle support", len(plan.measure), 2 ** (r - 1))
            check_weight_sum("circle plan", plan.measure.total_mass())
            deviation = plan_checkpoint_deviation(plan, sphere)
            check_at_most("circle checkpoint deviation", deviation, DEVIATION_TOL)
            return len(plan.measure), deviation

        return run

    ops = []
    for n in PROJECTIVE_DIMS:
        for _ in range(EQUIVARIANCE_PER_DIM):
            g = _rotation(rng, n)
            ops.append(Op("equivariance", equivariance_op(g, _unit(rng, n + 1), _unit(rng, n + 1))))
        for _ in range(CHECKPOINT_PER_DIM):
            ops.append(Op("checkpoint", checkpoint_op(_unit(rng, n + 1), _unit(rng, n + 1))))
        for _ in range(CONTINUITY_PER_DIM):
            x, y = _unit(rng, n + 1), _unit(rng, n + 1)
            while math.acos(min(1.0, abs(float(np.dot(x, y))))) < CONTINUITY_MIN_ANGLE:
                y = _unit(rng, n + 1)
            ops.append(Op("continuity", continuity_op(x, y, rng.getrandbits(32))))
    for _ in range(HOPF_PLANS):
        e1 = _unit(rng, 4)
        theta = rng.uniform(0, 2 * math.pi)
        e2 = nv.quat_mul(e1, np.array([math.cos(theta), math.sin(theta), 0.0, 0.0]))
        ops.append(Op("hopf", hopf_op(e1, e2)))
    for r in (2, 3, 4):
        for _ in range(CIRCLE_PER_R):
            ops.append(Op("circle", circle_op(r, [_unit(rng, 2) for _ in range(r)])))

    # LP warm-up: the 1- and 2-atom subset tables the plans need.
    space = ms.euclidean_metric()
    for size in (1, 2):
        mu = ms.FiniteMeasure([((float(k),), Fraction(1, size)) for k in range(size)])
        ms.lp_distance(mu, mu, space, precision=LP_PRECISION)
    rng.shuffle(ops)
    return ops


# -- lp_wide ---------------------------------------------------------------------

# Support sizes of the triangle triples (mu, nu, rho); every size 4..12 occurs,
# and the (12, 12, 4) triple has one 12 x 12 side.  A 12 x 12 side costs
# about 5x an 11-atom side, and 12-atom supports occur only in the
# (12, 12, 4) triple: the 90th percentile then falls among the 11-atom
# sides, not on the step up to the few heaviest ops.
#
# A cycle is LP_ROUNDS rounds of the same op mix, each with measures drawn
# afresh, so that the costs of the drawn measures, which vary with the seed,
# average over more draws and the quantiles move less from seed to seed.
TRIPLE_SIZES = (
    (4, 6, 8), (5, 7, 9), (6, 8, 10), (7, 9, 11), (12, 12, 4),
    (5, 10, 11), (4, 5, 6), (7, 8, 9), (9, 10, 11), (6, 9, 11),
)
LP_ROUNDS = 4
SELF_SIZES = (4, 8, 12)
# A measure against a copy of itself with its first two atoms swapped: equal
# as measures, but the copy's subset sums round differently, so lp_distance
# misses the exact-zero shortcut that (mu, mu) takes and bisects to the
# precision.  At 12 atoms that costs 20 to 270 ms per call, depending on the
# measure, instead of about 2 ms.  The measures come from their own fixed seed,
# so every run pays the same cost.
REORDERED_SIZES = (8, 12)
REORDERED_SEED = 20250817
DIRAC_PAIRS = 6
LP_WIDE_PRECISION = 1e-9


def lp_wide(dn, rng: random.Random) -> list[Op]:
    """Pairs of LP calls on Euclidean measures in R^3 with exact weights."""
    ms = dn.measures
    space = ms.euclidean_metric()
    lp_distance = ms.lp_distance

    def point(rng, scale=1.0):
        return scale * np.array([rng.uniform(-1, 1) for _ in range(3)])

    def measure(rng, size):
        raw = [rng.randint(1, 9) for _ in range(size)]
        return [(point(rng), Fraction(w, sum(raw))) for w in raw]

    def pair(mu, nu):
        d_mn = lp_distance(mu, nu, space, precision=LP_WIDE_PRECISION)
        d_nm = lp_distance(nu, mu, space, precision=LP_WIDE_PRECISION)
        check_lp_symmetric(d_mn, d_nm)
        return d_mn, d_nm

    def triple_ops(mu, nu, rho):
        sides: dict[str, float] = {}

        def side(key, a, b, last=False):
            def run():
                sides[key] = pair(a, b)[0]
                if last:
                    check_lp_triangle(sides["ab"], sides["bc"], sides["ac"])
                return sides[key]

            return run

        return [
            Op("triangle", side("ab", mu, nu)),
            Op("triangle", side("bc", nu, rho)),
            Op("triangle", side("ac", mu, rho, last=True)),
        ]

    def self_op(mu, nu):
        def run():
            d_mn, d_nm = pair(mu, nu)
            check_lp_self(d_mn)
            check_lp_self(d_nm)
            return d_mn, d_nm

        return run

    def dirac_op(p, q):
        mu, nu = ms.FiniteMeasure([(p, 1)]), ms.FiniteMeasure([(q, 1)])
        euclidean = float(np.linalg.norm(p - q))

        def run():
            d_mn, _ = pair(mu, nu)
            check_lp_dirac(d_mn, euclidean)
            return d_mn

        return run

    ops = []
    for _ in range(LP_ROUNDS):
        for sizes in TRIPLE_SIZES:
            mu, nu, rho = (ms.FiniteMeasure(measure(rng, size)) for size in sizes)
            ops += triple_ops(mu, nu, rho)
        for size in SELF_SIZES:
            mu = ms.FiniteMeasure(measure(rng, size))
            ops.append(Op("self", self_op(mu, mu)))
        fixed = random.Random(REORDERED_SEED)
        for size in REORDERED_SIZES:
            atoms = measure(fixed, size)
            swapped = [atoms[1], atoms[0], *atoms[2:]]
            ops.append(Op("self_reordered", self_op(ms.FiniteMeasure(atoms), ms.FiniteMeasure(swapped))))
        for _ in range(DIRAC_PAIRS):
            scale = rng.uniform(0.1, 2.0)
            ops.append(Op("dirac", dirac_op(point(rng, scale), point(rng, scale))))

    # LP warm-up: build the subset tables of every support size used.
    for size in sorted({1, *SELF_SIZES, *REORDERED_SIZES, *itertools.chain(*TRIPLE_SIZES)}):
        mu = ms.FiniteMeasure([((float(k),), Fraction(1, size)) for k in range(size)])
        lp_distance(mu, mu, space, precision=LP_WIDE_PRECISION)
    return ops


WORKLOADS: dict[str, Callable] = {
    "certify": certify,
    "rewrite": rewrite,
    "navigate": navigate,
    "lp_wide": lp_wide,
}
