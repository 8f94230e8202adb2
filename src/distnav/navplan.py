"""Distributional navigation planners for projective spaces, the circle,
and the quaternion Hopf fibration, with verifiers for their advertised
properties.

A plan for r checkpoints is a finitely supported probability measure on
paths together with the checkpoint tuple; every supported path visits
checkpoint i at time (i-1)/(r-1).  Plans here are continuous and, for the
projective planner, equivariant under rotations: both claims are checked
empirically by the verifiers at the bottom of the module, which compare
plans in the Levy-Prokhorov metric over a uniform time grid.

All three planners build one kind of path, ``ArcPath``: a piecewise great
arc, ``cos(angle_k s) u_k + sin(angle_k s) v_k`` on the k-th of n equal
pieces of [0, 1].  A projective plan has one piece, a sequential circle
plan one piece per consecutive checkpoint pair (u_k the k-th checkpoint,
v_k its quarter turn), and a Hopf plan is a circle plan mapped into the
3-sphere by left translation, a linear map, which sends arcs to arcs.

Plans are compared in three metrics: the chord metric on sphere points
(``sphere_metric``, which is ``euclidean_metric``), its minimum over the
two signs on lines (``projective_metric``), and the sup over a uniform time
grid of either on paths (``path_metric``).  A path's coordinates are its
samples on the grid (``ArcPath.sample``, one numpy call), and the path
distance is the maximum of the point distance over the time axis, so
``lp_distance`` samples each path once and compares all pairs in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .measures import FiniteMeasure, MetricSpace, euclidean_metric, lp_distance, to_jsonable

__all__ = [
    "ProjectivePoint",
    "ArcPath",
    "PathPlan",
    "projective_metric",
    "sphere_metric",
    "path_metric",
    "plan_checkpoint_deviation",
    "rpn_navigate",
    "circle_navigate",
    "hopf_parametrized_navigate",
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


def _unit(p, dim: int) -> np.ndarray:
    """p scaled to unit length; ValueError, naming p, unless it is a finite
    nonzero vector of length dim."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"checkpoint {arr.tolist()} is not a vector of length {dim}")
    norm = float(np.linalg.norm(arr))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"checkpoint {arr.tolist()} has norm {norm}, not a finite nonzero length")
    return arr / norm


@dataclass(frozen=True)
class ProjectivePoint:
    """A line through the origin, stored by its canonical unit representative.

    The representative has norm 1 and its first coordinate of magnitude
    above 1e-12 is positive, so equal lines compare equal as tuples.  numpy
    reads the point as its representative.
    """

    vec: tuple[float, ...]

    @staticmethod
    def from_vector(v: Sequence[float]) -> "ProjectivePoint":
        arr = _unit(v, np.size(v))
        for x in arr:
            if abs(x) > COORDINATE_ZERO:
                if x < 0:
                    arr = -arr
                break
        return ProjectivePoint(tuple(arr.tolist()))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.vec, dtype=dtype)


def _as_projective(p) -> ProjectivePoint:
    if isinstance(p, ProjectivePoint):
        return p
    arr = np.asarray(p, dtype=float)
    norm = float(np.linalg.norm(arr))
    if not abs(norm - 1.0) <= 1e-9:  # also false for NaN and inf
        raise ValueError(f"representative {arr.tolist()} has norm {norm}, expected a unit vector")
    return ProjectivePoint.from_vector(arr)


# -- paths ----------------------------------------------------------------------


def _rows(a) -> tuple[tuple[float, ...], ...]:
    return tuple(map(tuple, np.asarray(a, dtype=float).tolist()))


@dataclass(frozen=True)
class ArcPath:
    """A piecewise great arc on n equal pieces of [0, 1].

    At local time s in [0, 1] of piece k the path is at
    cos(angles[k] s) u[k] + sin(angles[k] s) v[k], with u[k], v[k]
    orthonormal.  An angle may be negative (the arc runs the other way
    around its great circle) or zero (the piece stays at u[k]).  Times are
    clamped to [0, 1].
    """

    u: tuple[tuple[float, ...], ...]
    v: tuple[tuple[float, ...], ...]
    angles: tuple[float, ...]

    def sample(self, ts) -> np.ndarray:
        """The points at the times ts, shape (len(ts), dim).

        A quarter arc starts at u and ends at v:

        >>> quarter = ArcPath(((1.0, 0.0, 0.0),), ((0.0, 1.0, 0.0),), (math.pi / 2,))
        >>> points = quarter.sample([0.0, 1.0])
        >>> points.shape
        (2, 3)
        >>> points.round(12).tolist()
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        """
        n = len(self.angles)
        scaled = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0) * n
        k = np.minimum(scaled.astype(int), n - 1)
        a = np.asarray(self.angles)[k] * (scaled - k)
        u, v = np.asarray(self.u)[k], np.asarray(self.v)[k]
        return np.cos(a)[:, None] * u + np.sin(a)[:, None] * v

    def __call__(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def mapped(self, matrix) -> "ArcPath":
        """The image under a linear map M: M(cos u + sin v) = cos Mu + sin Mv."""
        m = np.asarray(matrix, dtype=float)
        return ArcPath(_rows(np.asarray(self.u) @ m.T), _rows(np.asarray(self.v) @ m.T), self.angles)


# -- metrics ---------------------------------------------------------------------


# The chord metric of the ambient space, on sphere points.
sphere_metric = euclidean_metric
_CHORD = euclidean_metric()


def _line_chord(p, q):
    return np.minimum(_CHORD.distance(p, q), _CHORD.distance(p, np.negative(q)))


def projective_metric() -> MetricSpace:
    """min(|a-b|, |a+b|) over unit representatives: metric on lines.

    Like the chord metric it broadcasts over leading axes.
    """
    return MetricSpace(distance=_line_chord, coordinates=_CHORD.coordinates)


def _grid_times(count: int) -> np.ndarray:
    """count times k / (count - 1) spaced evenly over [0, 1]."""
    return np.arange(count) / max(count - 1, 1)


def path_metric(point_space: MetricSpace, grid: int = 64) -> MetricSpace:
    """Sup distance between paths sampled on a uniform grid of times.

    A path's coordinates are ``path.sample(times)``, shape (grid, dim), and
    the distance of two stacks of samples is the maximum of the point
    distance over the time axis.  The grid holds both endpoints, so it
    needs at least two times.
    """
    if grid < 2:
        raise ValueError(f"grid must have at least 2 times, got {grid}")
    times = _grid_times(grid)
    return MetricSpace(
        distance=lambda p, q: np.max(point_space.distance(p, q), axis=-1),
        coordinates=lambda path: path.sample(times),
    )


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
    """Worst distance from path(t_i) to checkpoint i over the support.

    One ``distance`` call compares every path's samples with the checkpoints.
    """
    times = _grid_times(plan.r)
    samples = np.array([path.sample(times) for path in plan.measure.points()])
    return float(np.max(point_space.distance(samples, np.asarray(plan.checkpoints, dtype=float))))


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
    split.  Identical lines give the constant plan.  Each path is a
    one-piece ArcPath from the representative of x.  Vectors of length
    below 2 raise ValueError: a constant path needs a second axis.
    """
    if min(np.size(x), np.size(y)) < 2:
        raise ValueError("rpn_navigate needs vectors of length at least 2 (lines in R^n, n >= 2)")
    px, py = _as_projective(x), _as_projective(y)
    xv, yv = np.array(px), np.array(py)
    dot = float(np.dot(xv, yv))
    if dot < 0:
        yv = -yv
        dot = -dot
    c = min(dot, 1.0)
    w = yv - c * xv
    wn = float(np.linalg.norm(w))
    if px.vec == py.vec or wn == 0.0:
        constant = ArcPath((px.vec,), (tuple(_orthonormal_completion(xv).tolist()),), (0.0,))
        return PathPlan(FiniteMeasure([(constant, 1.0)]), (px, py))
    e2 = (tuple((w / wn).tolist()),)
    alpha = math.acos(c)
    short = ArcPath((px.vec,), e2, (alpha,))
    long_ = ArcPath((px.vec,), e2, (alpha - math.pi,))
    w_long = alpha / math.pi
    atoms = [(short, 1.0 - w_long), (long_, w_long)]
    return PathPlan(FiniteMeasure(atoms), (px, py))


# -- circle planner ----------------------------------------------------------------


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
    at most 2^(r-1) supported paths, each an ArcPath with r - 1 pieces;
    ValueError when that exceeds MAX_PLAN_ATOMS (r > 13).  Checkpoints are
    scaled to unit length and must be finite nonzero vectors of the plane.
    """
    _check_checkpoint_count(r, points)
    pts = [_unit(p, 2) for p in points]
    # Per pair, the (u, v, angle) pieces joining a to b, with their weights.
    segment_options: list[list[tuple[tuple, float]]] = []
    for a, b in zip(pts, pts[1:]):
        u, v = tuple(a.tolist()), (-float(a[1]), float(a[0]))
        delta = math.atan2(
            a[0] * b[1] - a[1] * b[0],  # cross
            float(np.dot(a, b)),
        )
        theta = abs(delta)
        if theta == 0.0:
            segment_options.append([((u, v, 0.0), 1.0)])
            continue
        other = delta - math.copysign(2 * math.pi, delta)
        w_long = theta / (2 * math.pi)
        options = [((u, v, delta), 1.0 - w_long), ((u, v, other), w_long)]
        segment_options.append([(p, w) for p, w in options if w > 0.0])
    atoms: list[tuple[Any, float]] = []
    stack: list[tuple[int, tuple, float]] = [(0, (), 1.0)]
    while stack:
        k, pieces, weight = stack.pop()
        if k == len(segment_options):
            atoms.append((ArcPath(*zip(*pieces)), weight))
            continue
        for piece, w in segment_options[k]:
            stack.append((k + 1, pieces + (piece,), weight * w))
    checkpoints = tuple(tuple(p.tolist()) for p in pts)
    return PathPlan(FiniteMeasure(atoms), checkpoints)


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

    The checkpoints must be finite nonzero quaternions, scaled to unit
    length, over one base point (their fiber projections must agree within
    1e-9; otherwise ValueError).  The fiber is the coset e1 * C of the
    stabilizer circle C = {cos a + i sin a}, so the plan is the circle plan
    through the factors e1^-1 e_i, left translated by e1: each path is the
    circle path mapped by the 4x2 matrix z -> e1 (z_0 + z_1 i).  Left
    translation is an isometry, hence weights and support size carry over
    unchanged, and so does the MAX_PLAN_ATOMS cap.
    """
    _check_checkpoint_count(r, points)
    quats = [_unit(p, 4) for p in points]
    base = hopf_map(quats[0])
    spread = max(float(np.linalg.norm(hopf_map(q) - base)) for q in quats[1:])
    if spread > FIBER_TOLERANCE:
        raise ValueError(
            f"checkpoints do not lie in a single fiber: max projection "
            f"discrepancy {spread:.3e} exceeds {FIBER_TOLERANCE:.0e}"
        )
    anchor = quats[0]
    inv = quat_conj(anchor)
    # exact fiber membership makes the j, k parts of e1^-1 e_i vanish;
    # circle_navigate renormalizes the float residue away
    circle_plan = circle_navigate(r, [quat_mul(inv, q)[:2] for q in quats])
    translate = np.column_stack([anchor, quat_mul(anchor, [0.0, 1.0, 0.0, 0.0])])
    atoms = [(path.mapped(translate), w) for path, w in circle_plan.measure.atoms]
    checkpoints = tuple(tuple(q.tolist()) for q in quats)
    return PathPlan(FiniteMeasure(atoms), checkpoints)


# -- verifiers ----------------------------------------------------------------------


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
        for x, y in pairs:
            samples += 1
            moved = plan_fn(g @ x, g @ y)
            pushed_atoms = [(p.mapped(g), w) for p, w in plan_fn(x, y).measure.atoms]
            pushed = FiniteMeasure(pushed_atoms)
            d = lp_distance(moved.measure, pushed, space, precision=1e-12)
            worst = max(worst, d)
            if d > tol:
                failures.append(
                    {
                        "input": {"g": to_jsonable(g), "x": to_jsonable(x), "y": to_jsonable(y)},
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
    grid: int = 64,
) -> dict:
    """Empirical continuity probe for a two-point planner.

    Perturbs each input pair on the sphere, then compares the plans in LP
    distance over the path sup metric.  A sample fails when the output
    moves more than RATIO_CEILING times the input displacement (plus the
    LP precision slack).  Returns {samples, max_discrepancy, failures}.
    """
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
            if d > RATIO_CEILING * input_delta + 2 * precision:
                failures.append(
                    {
                        "input": {"x": to_jsonable(x2), "y": to_jsonable(y2)},
                        "value": d,
                    }
                )
    return {"samples": samples, "max_discrepancy": worst, "failures": failures}
