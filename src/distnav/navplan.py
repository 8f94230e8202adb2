"""Distributional navigation planners for projective spaces, the circle,
and the quaternion Hopf fibration, with verifiers for their advertised
properties.

A plan for r checkpoints is a finitely supported probability measure on
paths together with the checkpoint tuple; every supported path visits
checkpoint i at time (i-1)/(r-1).  Plans here are continuous and, for the
projective planner, equivariant under rotations: both claims are checked
empirically by the verifiers at the bottom of the module, which compare
plans in the Levy-Prokhorov metric over a uniform time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .measures import FiniteMeasure, MetricSpace, lp_distance

__all__ = [
    "ProjectivePoint",
    "GreatArcPath",
    "CircleArcPath",
    "ConcatPath",
    "SuffixReparametrizedPath",
    "LinearImagePath",
    "TransportedCirclePath",
    "PathPlan",
    "projective_metric",
    "sphere_metric",
    "path_metric",
    "plan_checkpoint_deviation",
    "rpn_navigate",
    "circle_navigate",
    "hopf_parametrized_navigate",
    "reparametrize_suffix",
    "check_equivariance",
    "check_lp_continuity",
    "quat_mul",
    "quat_conj",
    "hopf_map",
    "MAX_PLAN_ATOMS",
]

COORDINATE_ZERO = 1e-12
# Sequential circle and Hopf plans through r checkpoints have up to 2^(r-1)
# paths; the cap allows r <= 13.
MAX_PLAN_ATOMS = 4096


# -- points ---------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectivePoint:
    """A line through the origin, stored by its canonical unit representative.

    The representative has norm 1 and its first coordinate of magnitude
    above 1e-12 is positive, so equal lines compare equal as tuples.
    """

    vec: tuple[float, ...]

    @staticmethod
    def from_vector(v: Sequence[float]) -> "ProjectivePoint":
        arr = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("zero vector represents no projective point")
        arr = arr / norm
        for x in arr:
            if abs(x) > COORDINATE_ZERO:
                if x < 0:
                    arr = -arr
                break
        return ProjectivePoint(tuple(float(x) for x in arr))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.vec)


def _as_projective(p) -> ProjectivePoint:
    if isinstance(p, ProjectivePoint):
        return p
    arr = np.asarray(p, dtype=float)
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"representative has norm {norm}, expected a unit vector")
    return ProjectivePoint.from_vector(arr)


# -- paths ----------------------------------------------------------------------


@dataclass(frozen=True)
class GreatArcPath:
    """t -> cos(t*angle) e1 + sin(t*angle) e2 with e1, e2 orthonormal.

    angle may be negative (the arc runs the other way around the great
    circle) or zero (constant path at e1).
    """

    e1: tuple[float, ...]
    e2: tuple[float, ...]
    angle: float

    def __call__(self, t: float) -> np.ndarray:
        a = self.angle * t
        return math.cos(a) * np.array(self.e1) + math.sin(a) * np.array(self.e2)


@dataclass(frozen=True)
class CircleArcPath:
    """Arc on the unit circle from angle ``start`` sweeping ``delta``."""

    start: float
    delta: float

    def __call__(self, t: float) -> np.ndarray:
        a = self.start + self.delta * t
        return np.array([math.cos(a), math.sin(a)])


@dataclass(frozen=True)
class ConcatPath:
    """Segments glued on a uniform subdivision of [0, 1]."""

    segments: tuple[Any, ...]

    def __call__(self, t: float) -> np.ndarray:
        n = len(self.segments)
        if t >= 1.0:
            return self.segments[-1](1.0)
        if t <= 0.0:
            return self.segments[0](0.0)
        scaled = t * n
        k = min(int(scaled), n - 1)
        return self.segments[k](scaled - k)


@dataclass(frozen=True)
class SuffixReparametrizedPath:
    """Stage j of the deformation freezing a plan's tail.

    Precomposes with t -> (t(r-j) + j-1)/(r-1): stage 1 is the path itself,
    stage r is constant at the endpoint.
    """

    base: Any
    j: int
    r: int

    def __call__(self, t: float) -> np.ndarray:
        s = (t * (self.r - self.j) + self.j - 1) / (self.r - 1)
        return self.base(s)


@dataclass(frozen=True)
class LinearImagePath:
    """A path composed with a fixed linear map."""

    matrix: tuple[tuple[float, ...], ...]
    base: Any

    def __call__(self, t: float) -> np.ndarray:
        return np.array(self.matrix) @ self.base(t)


@dataclass(frozen=True)
class TransportedCirclePath:
    """Left translate of a circle path into the 3-sphere.

    The circle path z(t) lands in the stabilizer circle {cos a + i sin a};
    the result is quat_mul(anchor, z(t)), which stays inside one Hopf
    fiber when anchor does.
    """

    anchor: tuple[float, float, float, float]
    circle_path: Any

    def __call__(self, t: float) -> np.ndarray:
        z = self.circle_path(t)
        q = np.array([z[0], z[1], 0.0, 0.0])
        return quat_mul(np.array(self.anchor), q)


# -- metrics ---------------------------------------------------------------------


def sphere_metric(name: str = "sphere-chord") -> MetricSpace:
    return MetricSpace(
        distance=lambda p, q: float(np.linalg.norm(np.asarray(p, float) - np.asarray(q, float))),
        name=name,
    )


def projective_metric(name: str = "projective-chord") -> MetricSpace:
    """min(|a-b|, |a+b|) over unit representatives: metric on lines."""

    def dist(p, q) -> float:
        a = p.array if isinstance(p, ProjectivePoint) else np.asarray(p, float)
        b = q.array if isinstance(q, ProjectivePoint) else np.asarray(q, float)
        return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))

    return MetricSpace(distance=dist, name=name)


def path_metric(point_space: MetricSpace, grid: int = 64) -> MetricSpace:
    """Sup distance between paths sampled on a uniform grid of times.

    The grid holds both endpoints, so it needs at least two times.
    """
    if grid < 2:
        raise ValueError(f"grid must have at least 2 times, got {grid}")
    times = [k / (grid - 1) for k in range(grid)]

    def dist(p, q) -> float:
        return max(point_space.distance(p(t), q(t)) for t in times)

    return MetricSpace(distance=dist, name=f"sup[{point_space.name}]")


# -- plans -----------------------------------------------------------------------


@dataclass(frozen=True)
class PathPlan:
    """A measure on paths plus the checkpoints its paths interpolate."""

    measure: FiniteMeasure
    checkpoints: tuple[Any, ...]

    @property
    def r(self) -> int:
        return len(self.checkpoints)


def plan_checkpoint_deviation(plan: PathPlan, point_space: MetricSpace) -> float:
    """Worst distance from path(t_i) to checkpoint i over the support."""
    r = plan.r
    worst = 0.0
    for path, _ in plan.measure.atoms:
        for i, cp in enumerate(plan.checkpoints):
            t = i / (r - 1) if r > 1 else 0.0
            worst = max(worst, point_space.distance(path(t), cp))
    return worst


# -- real projective planner ------------------------------------------------------


def _orthonormal_completion(x: np.ndarray) -> np.ndarray:
    """Some unit vector orthogonal to x, chosen deterministically."""
    k = int(np.argmin(np.abs(x)))
    e = np.zeros_like(x)
    e[k] = 1.0
    w = e - float(np.dot(e, x)) * x
    return w / float(np.linalg.norm(w))


def rpn_navigate(x, y) -> PathPlan:
    """Two-point distributional plan on real projective space.

    Between lines at angle alpha in [0, pi/2], mass (pi - alpha)/pi rides
    the short geodesic (length alpha) and mass alpha/pi the long one
    (length pi - alpha), each weight proportional to pi minus the length
    of the arc it rides.  Antipodal inputs to the sphere picture do not
    occur: alpha = pi/2 is the diameter of the quotient and gets an even
    split.  Identical lines give the constant plan.
    """
    px, py = _as_projective(x), _as_projective(y)
    xv, yv = px.array, py.array
    if px.vec == py.vec:
        arc = GreatArcPath(px.vec, tuple(_orthonormal_completion(xv)), 0.0)
        return PathPlan(FiniteMeasure([(arc, 1.0)], mode="float"), (px, px))
    dot = float(np.dot(xv, yv))
    if dot < 0:
        yv = -yv
        dot = -dot
    c = min(dot, 1.0)
    w = yv - c * xv
    wn = float(np.linalg.norm(w))
    if wn == 0.0:
        arc = GreatArcPath(px.vec, tuple(_orthonormal_completion(xv)), 0.0)
        return PathPlan(FiniteMeasure([(arc, 1.0)], mode="float"), (px, py))
    e2 = tuple(float(v) for v in w / wn)
    alpha = math.acos(c)
    short = GreatArcPath(px.vec, e2, alpha)
    long_ = GreatArcPath(px.vec, e2, alpha - math.pi)
    w_long = alpha / math.pi
    atoms = [(short, 1.0 - w_long), (long_, w_long)]
    return PathPlan(FiniteMeasure(atoms, mode="float"), (px, py))


# -- circle planner ----------------------------------------------------------------


def _unit2(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise ValueError("circle points are unit vectors in the plane")
    n = float(np.linalg.norm(arr))
    if n == 0.0:
        raise ValueError("zero vector is not a circle point")
    return arr / n


def _check_checkpoint_count(r: int, points: Sequence) -> None:
    """Reject r < 2, a plan over MAX_PLAN_ATOMS paths, or len(points) != r."""
    if r < 2:
        raise ValueError("need at least two checkpoints")
    if r - 1 > math.log2(MAX_PLAN_ATOMS):
        raise ValueError(
            f"{r} checkpoints allow up to 2^{r - 1} paths, over the cap of "
            f"{MAX_PLAN_ATOMS}; use at most {int(math.log2(MAX_PLAN_ATOMS)) + 1}"
        )
    if len(points) != r:
        raise ValueError(f"expected {r} checkpoints, got {len(points)}")


def circle_navigate(r: int, points: Sequence) -> PathPlan:
    """Sequential plan on the unit circle through r checkpoints.

    Each consecutive pair contributes the two arcs joining it; an arc of
    length L carries weight 1 - L/(2 pi), so the short arc is favoured, a
    half turn splits evenly, and coincident checkpoints stay put.  The
    composite measure multiplies segment weights over all choices, giving
    at most 2^(r-1) supported paths; ValueError when that exceeds
    MAX_PLAN_ATOMS (r > 13).
    """
    _check_checkpoint_count(r, points)
    pts = [_unit2(p) for p in points]
    segment_options: list[list[tuple[CircleArcPath, float]]] = []
    for a, b in zip(pts, pts[1:]):
        start = math.atan2(a[1], a[0])
        delta = math.atan2(
            a[0] * b[1] - a[1] * b[0],  # cross
            float(np.dot(a, b)),
        )
        theta = abs(delta)
        if theta == 0.0:
            segment_options.append([(CircleArcPath(start, 0.0), 1.0)])
            continue
        other = delta - math.copysign(2 * math.pi, delta)
        w_long = theta / (2 * math.pi)
        options = [
            (CircleArcPath(start, delta), 1.0 - w_long),
            (CircleArcPath(start, other), w_long),
        ]
        segment_options.append([(p, w) for p, w in options if w > 0.0])
    atoms: list[tuple[Any, float]] = []
    stack: list[tuple[int, tuple, float]] = [(0, (), 1.0)]
    while stack:
        k, segs, weight = stack.pop()
        if k == len(segment_options):
            atoms.append((ConcatPath(segs), weight))
            continue
        for seg, w in segment_options[k]:
            stack.append((k + 1, segs + (seg,), weight * w))
    checkpoints = tuple(tuple(float(v) for v in p) for p in pts)
    return PathPlan(FiniteMeasure(atoms, mode="float"), checkpoints)


# -- Hopf fibration planner ---------------------------------------------------------


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product of quaternions [w, x, y, z]."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(a) -> np.ndarray:
    return np.array([a[0], -a[1], -a[2], -a[3]])


def hopf_map(q) -> np.ndarray:
    """q i q^-1 for unit q: the fiber projection onto the 2-sphere."""
    out = quat_mul(quat_mul(q, np.array([0.0, 1.0, 0.0, 0.0])), quat_conj(q))
    return out[1:]


FIBER_TOLERANCE = 1e-9


def hopf_parametrized_navigate(r: int, points: Sequence) -> PathPlan:
    """Sequential plan inside a single Hopf fiber of the 3-sphere.

    The checkpoints must be unit quaternions over one base point (their
    fiber projections must agree within 1e-9; otherwise ValueError).  The
    fiber is the coset e1 * C of the stabilizer circle C = {cos a + i sin a},
    so the plan is the circle plan through the factors e1^-1 e_i, left
    translated by e1.  Left translation is an isometry, hence weights and
    support size carry over unchanged, and so does the MAX_PLAN_ATOMS cap.
    """
    _check_checkpoint_count(r, points)
    quats = []
    for p in points:
        arr = np.asarray(p, dtype=float)
        if arr.shape != (4,):
            raise ValueError("checkpoints must be unit quaternions [w, x, y, z]")
        n = float(np.linalg.norm(arr))
        if n == 0.0:
            raise ValueError("zero quaternion")
        quats.append(arr / n)
    base = hopf_map(quats[0])
    spread = max(float(np.linalg.norm(hopf_map(q) - base)) for q in quats[1:])
    if spread > FIBER_TOLERANCE:
        raise ValueError(
            f"checkpoints do not lie in a single fiber: max projection "
            f"discrepancy {spread:.3e} exceeds {FIBER_TOLERANCE:.0e}"
        )
    anchor = quats[0]
    inv = quat_conj(anchor)
    circle_pts = []
    for q in quats:
        a = quat_mul(inv, q)
        # exact fiber membership makes the j, k parts vanish; renormalize
        # the float residue away
        circle_pts.append(_unit2([a[0], a[1]]))
    circle_plan = circle_navigate(r, circle_pts)
    anchor_t = tuple(float(v) for v in anchor)
    atoms = [
        (TransportedCirclePath(anchor_t, seg), w)
        for seg, w in circle_plan.measure.atoms
    ]
    checkpoints = tuple(tuple(float(v) for v in q) for q in quats)
    return PathPlan(FiniteMeasure(atoms, mode="float"), checkpoints)


# -- deformation --------------------------------------------------------------------


def reparametrize_suffix(path, j: int, r: int):
    """Stage j in the tail-freezing homotopy of an r-checkpoint path."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if not 1 <= j <= r:
        raise ValueError(f"stage {j} outside 1..{r}")
    return SuffixReparametrizedPath(path, j, r)


# -- verifiers ----------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.ravel()]
    if isinstance(value, ProjectivePoint):
        return list(value.vec)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _check_rotation(g: np.ndarray, dim: int, tol: float = 1e-9) -> np.ndarray:
    """Validate and embed a rotation acting on the first ``dim - 1`` axes.

    Accepts a (dim x dim) matrix fixing the last coordinate axis or a
    ((dim-1) x (dim-1)) block, which is embedded.  Reflections (negative
    determinant) and non-orthogonal matrices raise ValueError.
    """
    g = np.asarray(g, dtype=float)
    if g.shape == (dim - 1, dim - 1):
        full = np.eye(dim)
        full[: dim - 1, : dim - 1] = g
        g = full
    if g.shape != (dim, dim):
        raise ValueError(f"rotation must be {dim - 1}x{dim - 1} or {dim}x{dim}")
    if float(np.max(np.abs(g.T @ g - np.eye(dim)))) > tol:
        raise ValueError("matrix is not orthogonal")
    if float(np.linalg.det(g)) < 0:
        raise ValueError("reflections are not part of the acting group")
    last = np.zeros(dim)
    last[-1] = 1.0
    if float(np.linalg.norm(g @ last - last)) > tol:
        raise ValueError("rotation must fix the last coordinate axis")
    return g


def check_equivariance(
    plan_fn: Callable[[Any, Any], PathPlan],
    group_elements: Iterable,
    sample_pairs: Iterable[tuple],
    tol: float = 1e-9,
    grid: int = 64,
) -> dict:
    """Compare plan(gx, gy) with g pushed through plan(x, y) in LP distance.

    Group elements act on the last-axis-fixing copy of the rotation group;
    reflections are rejected.  Returns {samples, max_discrepancy, failures}
    with one failure record per pair exceeding tol.
    """
    pairs = [(np.asarray(x, float), np.asarray(y, float)) for x, y in sample_pairs]
    if not pairs:
        return {"samples": 0, "max_discrepancy": 0.0, "failures": []}
    dim = len(pairs[0][0])
    mats = [_check_rotation(g, dim) for g in group_elements]
    space = path_metric(projective_metric(), grid=grid)
    samples = 0
    worst = 0.0
    failures: list[dict] = []
    for g in mats:
        g_t = tuple(tuple(float(v) for v in row) for row in g)
        for x, y in pairs:
            samples += 1
            moved = plan_fn(g @ x, g @ y)
            pushed_atoms = [
                (LinearImagePath(g_t, p), w)
                for p, w in plan_fn(x, y).measure.atoms
            ]
            pushed = FiniteMeasure(pushed_atoms, mode="float")
            d = lp_distance(moved.measure, pushed, space, precision=1e-12)
            worst = max(worst, d)
            if d > tol:
                failures.append(
                    {
                        "input": {"g": _jsonable(g), "x": _jsonable(x), "y": _jsonable(y)},
                        "value": d,
                    }
                )
    return {"samples": samples, "max_discrepancy": worst, "failures": failures}


RATIO_CEILING = 10.0


def check_lp_continuity(
    plan_fn: Callable[[Any, Any], PathPlan],
    base_pairs: Iterable[tuple],
    perturbation_scale: float = 1e-4,
    samples_per_pair: int = 8,
    seed: int = 0,
    point_space: MetricSpace | None = None,
    grid: int = 64,
    ratio_ceiling: float = RATIO_CEILING,
) -> dict:
    """Empirical continuity probe for a two-point planner.

    Perturbs each input pair on the sphere, then compares the plans in LP
    distance over the path sup metric.  A sample fails when the output
    moves more than ratio_ceiling times the input displacement (plus the
    LP precision slack).  Returns {samples, max_discrepancy, failures}.
    """
    if point_space is None:
        point_space = projective_metric()
    rng = np.random.default_rng(seed)
    space = path_metric(point_space, grid=grid)
    samples = 0
    worst = 0.0
    failures: list[dict] = []
    precision = 1e-9
    for x, y in base_pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        base_plan = plan_fn(x, y)
        for _ in range(samples_per_pair):
            samples += 1
            dx = rng.normal(size=x.shape) * perturbation_scale
            dy = rng.normal(size=y.shape) * perturbation_scale
            x2 = x + dx
            x2 = x2 / float(np.linalg.norm(x2))
            y2 = y + dy
            y2 = y2 / float(np.linalg.norm(y2))
            input_delta = max(
                point_space.distance(x, x2), point_space.distance(y, y2)
            )
            moved = plan_fn(x2, y2)
            d = lp_distance(base_plan.measure, moved.measure, space, precision=precision)
            worst = max(worst, d)
            if d > ratio_ceiling * input_delta + 2 * precision:
                failures.append(
                    {
                        "input": {"x": _jsonable(x2), "y": _jsonable(y2)},
                        "value": d,
                    }
                )
    return {"samples": samples, "max_discrepancy": worst, "failures": failures}
