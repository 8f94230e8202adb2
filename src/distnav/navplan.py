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
A circle plan couples its pairs by one quantile, so it has at most r
paths and shows r - 1, the sequential distributional complexity of the
circle and of every circle-fibered Hopf projection.

Plans are compared in three metrics: the chord metric on sphere points
(``sphere_metric``, which is ``euclidean_metric``), its minimum over the
two signs on lines (``projective_metric``), and the sup over a uniform time
grid of either on paths (``path_metric``).  Each maps a whole support to
one coordinate array: the sphere and line metrics by one numpy conversion
of the points, the path metric by stacking each path's samples on the grid
(``ArcPath.sample``, one numpy call per path).  The path distance is the
maximum of the point distance over the time axis, so ``lp_distance``
samples each path once and compares all pairs in one call.  A measure
keeps its samples while it is compared under the same path metric object:
``check_lp_continuity`` samples each base plan once per base input.
A single time is evaluated in scalar arithmetic (``path(t)``, the same
bits as ``path.sample([t])[0]`` without its index arrays).  A path builds
the numpy arrays of its angles and frames once, read-only, on first use,
and sampling, scalar evaluation and mapping read them; nothing converts
per call.

One function, ``_unit``, scales a vector to unit length or refuses it
unless finite and nonzero: every planner's points, the continuity probe's
perturbed points and the CLI's random pairs go through it (rpn_navigate
also takes ProjectivePoints as they are).  Rotations act on R^n as
(n-1) x (n-1) blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .measures import MAX_SUPPORT, FiniteMeasure, MetricSpace, euclidean_metric, lp_distance, to_jsonable

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
    "MAX_CHECKPOINTS",
    "MAX_GRID",
]

COORDINATE_ZERO = 1e-12
# Checkpoints of a circle or Hopf plan, which has at most one path per
# checkpoint, each of r - 1 pieces: a plan must fit lp_distance.
MAX_CHECKPOINTS = MAX_SUPPORT
# Times on the grid of path_metric, and trace samples per path of the CLI's
# nav rpn, circle and hopf.  A plan has at most MAX_CHECKPOINTS paths, so at
# most 64 x 1024 trace points: a 64-path Hopf plan prints 10.8 MB in 0.7 to
# 1.0 s (in process, three runs on a shared 2-core host), and two 64-path
# circle plans compare at grid 1024 in 134 to 164 ms, the peak RSS rising
# from 31 MB after import to 194 MB in each run (five fresh processes on the
# same host; 19 ms and 41 MB at grid 64).
MAX_GRID = 1024


# -- points ---------------------------------------------------------------------


def _unit(p, dim: int) -> np.ndarray:
    """p scaled to unit length; ValueError, naming p, unless it is a finite
    nonzero vector of length dim.

    p is first divided by the least power of two above its largest
    magnitude, exactly but for coordinates under 2^-1022 times that, so its
    squared length neither overflows nor underflows.
    """
    arr = np.asarray(p, dtype=float)
    coords = arr.tolist()
    if arr.shape != (dim,):
        raise ValueError(f"checkpoint {coords} is not a vector of length {dim}")
    # The largest magnitude, NaN if a coordinate is (max can skip a NaN): for
    # a zero, inf or NaN vector it is also the norm.
    big = math.nan if any(map(math.isnan, coords)) else max(map(abs, coords), default=0.0)
    if not 0.0 < big < math.inf:
        raise ValueError(f"checkpoint {coords} has norm {big}, not a finite nonzero length")
    scaled = np.ldexp(arr, -math.frexp(big)[1])
    return scaled / math.sqrt(scaled.dot(scaled))


@dataclass(frozen=True)
class ProjectivePoint:
    """A line through the origin, stored by its canonical unit representative.

    The representative has norm 1 and its first coordinate of magnitude
    above 1e-12 is positive, so equal lines compare equal as tuples.  numpy
    reads the point as its representative.
    """

    vec: tuple[float, ...]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.vec, dtype=dtype)


def _canonical_line(unit: np.ndarray) -> ProjectivePoint:
    """The line through a unit vector, signed as the representative must be."""
    coords = unit.tolist()
    lead = next((x for x in coords if abs(x) > COORDINATE_ZERO), 0.0)
    return ProjectivePoint(tuple(-x for x in coords) if lead < 0 else tuple(coords))


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
    clamped to [0, 1], infinities included; a NaN time raises ValueError.

    The fields are tuples, so equal paths compare and hash equal.  On
    first use the path builds read-only float arrays of angles, u and v
    once, outside the fields, and ``sample``, ``path(t)`` and ``mapped``
    compute from them.
    """

    u: tuple[tuple[float, ...], ...]
    v: tuple[tuple[float, ...], ...]
    angles: tuple[float, ...]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """angles, u and v as read-only float arrays, built on first use.

        Not a field: the cache stays out of repr, equality, hashing and
        ``dataclasses.asdict``.  Paths that are never evaluated, sampled or
        mapped never pay for it.
        """
        arrays = (
            np.array(self.angles, dtype=float),
            np.array(self.u, dtype=float),
            np.array(self.v, dtype=float),
        )
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def sample(self, ts) -> np.ndarray:
        """The points at the times ts, shape (len(ts), dim), in a new array.

        A quarter arc starts at u and ends at v:

        >>> quarter = ArcPath(((1.0, 0.0, 0.0),), ((0.0, 1.0, 0.0),), (math.pi / 2,))
        >>> points = quarter.sample([0.0, 1.0])
        >>> points.shape
        (2, 3)
        >>> points.round(12).tolist()
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        """
        angles, u, v = self._arrays
        n = len(angles)
        # In this argument order a time of -0.0 stays -0.0, as under np.clip,
        # so samples match it bit for bit.  NaN passes both bounds, so one
        # check on the clamped times finds it.
        clamped = np.minimum(np.maximum(0.0, np.asarray(ts, dtype=float)), 1.0)
        nan = np.isnan(clamped)
        if nan.any():
            raise ValueError(f"sample time {int(np.argmax(nan))} is nan, not a time in [0, 1]")
        scaled = clamped * n
        k = np.minimum(scaled.astype(int), n - 1)
        a = (angles.take(k) * (scaled - k))[:, None]
        return np.cos(a) * u.take(k, axis=0) + np.sin(a) * v.take(k, axis=0)

    def __call__(self, t: float) -> np.ndarray:
        """The point at the time t, in a new array: ``sample([t])[0]`` bit
        for bit, computed in scalar arithmetic without the batched lookup.

        >>> quarter = ArcPath(((1.0, 0.0),), ((0.0, 1.0),), (math.pi / 2,))
        >>> quarter(0.5).round(12).tolist()
        [0.707106781187, 0.707106781187]
        >>> quarter(2.0).tolist() == quarter.sample([1.0])[0].tolist()
        True
        """
        angles, u, v = self._arrays
        n = len(angles)
        # max(t, 0.0), not max(0.0, t): Python's max keeps its first argument
        # on a tie, so a time of -0.0 stays -0.0, as in sample.  NaN passes
        # both bounds.
        s = min(max(float(t), 0.0), 1.0)
        if math.isnan(s):
            raise ValueError("path time is nan, not a time in [0, 1]")
        scaled = s * n
        k = min(int(scaled), n - 1)
        # np.cos and np.sin on an np.float64, as in sample, so the bits do
        # not depend on the C library's cos and sin.
        a = angles[k] * (scaled - k)
        return np.cos(a) * u[k] + np.sin(a) * v[k]

    def mapped(self, matrix) -> "ArcPath":
        """The image under a linear map M: M(cos u + sin v) = cos Mu + sin Mv."""
        m = np.asarray(matrix, dtype=float).T
        _, u, v = self._arrays
        return ArcPath(_rows(u @ m), _rows(v @ m), self.angles)


# -- metrics ---------------------------------------------------------------------


# The chord metric of the ambient space, on sphere points.
sphere_metric = euclidean_metric
_CHORD = euclidean_metric()


def _line_chord(p, q):
    return np.minimum(_CHORD.distance(p, q), _CHORD.distance(p, np.negative(q)))


def projective_metric() -> MetricSpace:
    """min(|a-b|, |a+b|) over unit representatives: metric on lines.

    Like the chord metric it broadcasts over leading axes, and it takes a
    support's coordinates, by one numpy conversion, from the chord metric.
    """
    return MetricSpace(distance=_line_chord, coordinates=_CHORD.coordinates)


def _grid_times(count: int) -> np.ndarray:
    """count times k / (count - 1) spaced evenly over [0, 1]."""
    return np.arange(count) / max(count - 1, 1)


def _samples(paths, times) -> np.ndarray:
    """Each path's samples at the times, stacked: shape (paths, times, dim)."""
    return np.array([path.sample(times) for path in paths])


def path_metric(point_space: MetricSpace, grid: int = 64) -> MetricSpace:
    """Sup distance between paths sampled on a uniform grid of times.

    The coordinates of n paths are their samples ``path.sample(times)``
    stacked, shape (n, grid, dim), and the distance of two stacks of
    samples is the maximum of the point distance over the time axis.  The
    grid holds both endpoints, so it needs at least two times, and at most
    MAX_GRID.
    """
    if grid < 2:
        raise ValueError(f"grid must have at least 2 times, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"a grid of {grid} times is over the cap of {MAX_GRID} (MAX_GRID)")
    times = _grid_times(grid)
    return MetricSpace(
        distance=lambda p, q: np.max(point_space.distance(p, q), axis=-1),
        coordinates=lambda paths: _samples(paths, times),
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
    samples = _samples(plan.measure.points(), times)
    return float(np.max(point_space.distance(samples, np.asarray(plan.checkpoints, dtype=float))))


# -- real projective planner ------------------------------------------------------


def _orthonormal_completion(x: np.ndarray) -> np.ndarray:
    """Some unit vector orthogonal to x, chosen deterministically."""
    k = int(np.argmin(np.abs(x)))
    e = np.zeros_like(x)
    e[k] = 1.0
    return _unit(e - float(np.dot(e, x)) * x, x.size)


def rpn_navigate(x, y) -> PathPlan:
    """Two-point distributional plan on real projective space.

    Between lines at angle alpha in [0, pi/2], mass (pi - alpha)/pi rides
    the short geodesic (length alpha) and mass alpha/pi the long one
    (length pi - alpha), each weight proportional to pi minus the length
    of the arc it rides.  Antipodal inputs to the sphere picture do not
    occur: alpha = pi/2 is the diameter of the quotient and gets an even
    split.  Identical lines give the constant plan.  Each path is a
    one-piece ArcPath from the representative of x.  A ProjectivePoint is
    taken as it is; a vector is scaled to unit length, as circle and Hopf
    checkpoints are, so x and c x give one line for any real c != 0.
    ValueError unless x and y have one shape, of length at least 2 (a
    constant path needs a second axis), and are finite and nonzero.
    """
    if np.shape(x) != np.shape(y):
        raise ValueError("x and y must have the same dimension")
    if min(np.size(x), np.size(y)) < 2:
        raise ValueError("rpn_navigate needs vectors of length at least 2 (lines in R^n, n >= 2)")
    px, py = (p if isinstance(p, ProjectivePoint) else _canonical_line(_unit(p, np.size(p))) for p in (x, y))
    xv, yv = np.array(px), np.array(py)
    dot = float(np.dot(xv, yv))
    if dot < 0:
        yv = -yv
        dot = -dot
    w = yv - dot * xv
    wn = float(np.linalg.norm(w))
    if px.vec == py.vec or wn == 0.0:
        constant = ArcPath((px.vec,), (tuple(_orthonormal_completion(xv).tolist()),), (0.0,))
        return PathPlan(FiniteMeasure([(constant, 1.0)]), (px, py))
    e2 = (tuple((w / wn).tolist()),)
    alpha = math.atan2(wn, dot)  # acos(dot) loses half the digits of a small angle
    short = ArcPath((px.vec,), e2, (alpha,))
    long_ = ArcPath((px.vec,), e2, (alpha - math.pi,))
    w_long = alpha / math.pi
    atoms = [(short, 1.0 - w_long), (long_, w_long)]
    return PathPlan(FiniteMeasure(atoms), (px, py))


# -- circle planner ----------------------------------------------------------------


def _check_checkpoint_count(r: int, points: Sequence) -> None:
    """Reject r < 2, r over MAX_CHECKPOINTS, or len(points) != r."""
    if r < 2:
        raise ValueError("need at least two checkpoints")
    if r > MAX_CHECKPOINTS:
        raise ValueError(f"{r} checkpoints are over the cap of {MAX_CHECKPOINTS} (MAX_CHECKPOINTS)")
    if len(points) != r:
        raise ValueError(f"expected {r} checkpoints, got {len(points)}")


def circle_navigate(r: int, points: Sequence) -> PathPlan:
    """Sequential plan on the unit circle through r checkpoints.

    Pair k joins its checkpoints by a counter-clockwise arc of angle t_k in
    [0, 2 pi) or the clockwise arc t_k - 2 pi; the clockwise arc weighs
    s_k = t_k / (2 pi), so the shorter arc is favoured, a half turn splits
    evenly, and coincident checkpoints stay put.  The pairs are coupled by
    one quantile q in [0, 1): a path takes the clockwise arc on every pair
    with q < s_k.  The sorted breakpoints {0, s_1, ..., s_(r-1), 1} cut
    [0, 1) into at most r intervals, each one path weighted by its length:
    every pair keeps its two-arc measure, and at a wrap of t_k both arcs are
    the same near-zero piece, so the plan moves continuously with the
    checkpoints.  Each path is an ArcPath with r - 1 pieces.  ValueError
    over MAX_CHECKPOINTS checkpoints; checkpoints are scaled to unit length
    and must be finite nonzero vectors of the plane.

    >>> plan = circle_navigate(3, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    >>> sorted(w for _, w in plan.measure.atoms)
    [0.25, 0.75]
    """
    _check_checkpoint_count(r, points)
    pts = [_unit(p, 2) for p in points]
    u, v, arcs = [], [], []  # arcs: per pair, (t, t - 2 pi, s) as in the docstring
    for a, b in zip(pts, pts[1:]):
        u.append(tuple(a.tolist()))
        v.append((-float(a[1]), float(a[0])))
        delta = math.atan2(a[0] * b[1] - a[1] * b[0], float(np.dot(a, b)))  # cross, dot
        if delta < 0:
            arcs.append((delta + 2 * math.pi, delta, 1.0 + delta / (2 * math.pi)))
        else:  # abs turns an angle of -0.0 into 0.0
            arcs.append((abs(delta), delta - 2 * math.pi, delta / (2 * math.pi)))
    breaks = sorted({0.0, 1.0, *(s for _, _, s in arcs)})
    atoms = [
        (ArcPath(tuple(u), tuple(v), tuple(cw if lo < s else ccw for ccw, cw, s in arcs)), hi - lo)
        for lo, hi in zip(breaks, breaks[1:])
    ]
    checkpoints = tuple(tuple(p.tolist()) for p in pts)
    return PathPlan(FiniteMeasure(atoms), checkpoints)


# -- Hopf fibration planner ---------------------------------------------------------


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product of quaternions [w, x, y, z], on Python floats."""
    aw, ax, ay, az = np.asarray(a, dtype=float).tolist()
    bw, bx, by, bz = np.asarray(b, dtype=float).tolist()
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
    """q i q^-1 for unit q: the fiber projection onto the 2-sphere.

    The closed form of the two Hamilton products, within an ulp of them.
    """
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    return np.array([w * w + x * x - y * y - z * z, 2.0 * (x * y + w * z), 2.0 * (x * z - w * y)])


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
    unchanged: at most r paths, and at most MAX_CHECKPOINTS checkpoints.
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


def _check_rotation(g, dim: int) -> np.ndarray:
    """g, a (dim-1) x (dim-1) rotation, embedded in dim x dim to fix the
    last axis; ValueError for other shapes, for g not orthogonal within
    1e-9 and for reflections."""
    g = np.asarray(g, dtype=float)
    if g.shape != (dim - 1, dim - 1):
        raise ValueError(f"rotation must be {dim - 1}x{dim - 1}")
    # No entry of an orthogonal matrix is above 1: this refuses NaN, which
    # passes no comparison, and inf and huge entries, on which g.T @ g warns.
    if not ((np.abs(g) <= 2.0).all() and float(np.max(np.abs(g.T @ g - np.eye(dim - 1)))) <= 1e-9):
        raise ValueError("matrix is not orthogonal")
    if float(np.linalg.det(g)) < 0:
        raise ValueError("reflections are not part of the acting group")
    full = np.eye(dim)
    full[: dim - 1, : dim - 1] = g
    return full


def _lp_report(trials: Iterable[tuple[float, float, dict]]) -> dict:
    """{samples, max_discrepancy, failures} over trials (value, bound,
    inputs), in order: a trial fails when its value exceeds its bound, and
    its failure record holds the inputs as JSON."""
    samples, worst, failures = 0, 0.0, []
    for d, bound, inputs in trials:
        samples += 1
        worst = max(worst, d)
        if d > bound:
            failures.append({"input": {k: to_jsonable(v) for k, v in inputs.items()}, "value": d})
    return {"samples": samples, "max_discrepancy": worst, "failures": failures}


def check_equivariance(
    plan_fn: Callable[[Any, Any], PathPlan],
    group_elements: Iterable,
    sample_pairs: Iterable[tuple],
    tol: float = 1e-9,
    grid: int = 64,
) -> dict:
    """Compare plan(gx, gy) with g pushed through plan(x, y) in LP distance.

    Each element g is an (n-1) x (n-1) rotation of points in R^n, acting
    on the first n - 1 axes (``_check_rotation``).  Each base plan
    plan(x, y) is built once.  Returns {samples, max_discrepancy, failures}
    with one failure record, g embedded in n x n, per element and pair
    exceeding tol, elements in the outer order.  A tol that is negative,
    NaN or infinite is refused before any plan is built: no discrepancy
    exceeds NaN or inf.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be at least 0 and finite, got {tol}")
    pairs = [(np.asarray(x, float), np.asarray(y, float)) for x, y in sample_pairs]
    if not pairs:
        return _lp_report(())
    dim = len(pairs[0][0])
    mats = [_check_rotation(g, dim) for g in group_elements]
    space = path_metric(projective_metric(), grid=grid)
    bases = [plan_fn(x, y).measure.atoms for x, y in pairs]

    def trials():
        for g in mats:
            for (x, y), base in zip(pairs, bases):
                pushed = FiniteMeasure([(p.mapped(g), w) for p, w in base])
                yield lp_distance(plan_fn(g @ x, g @ y).measure, pushed, space), tol, {"g": g, "x": x, "y": y}

    return _lp_report(trials())


RATIO_CEILING = 10.0


def check_lp_continuity(
    plan_fn: Callable[..., PathPlan],
    base_inputs: Iterable[tuple],
    perturbation_scale: float = 1e-4,
    samples_per_pair: int = 8,
    seed: int = 0,
    grid: int = 64,
) -> dict:
    """Empirical continuity probe for a planner on a tuple of sphere points.

    Each base input (x, y, ...) gives the plan ``plan_fn(x, y, ...)``;
    ``samples_per_pair`` times, every point is perturbed in order and
    scaled back to unit length, and the plans are compared in LP distance
    over the path sup metric.  Points are compared in the projective metric
    when the base plan's checkpoints are ProjectivePoints, in the chord
    metric otherwise.  A sample fails when the output moves more than
    RATIO_CEILING times the largest input displacement.  Returns {samples,
    max_discrepancy, failures}.
    """
    rng = np.random.default_rng(seed)

    def trials():
        for inputs in base_inputs:
            inputs = [np.asarray(p, dtype=float) for p in inputs]
            base_plan = plan_fn(*inputs)
            lines = isinstance(base_plan.checkpoints[0], ProjectivePoint)
            point_space = projective_metric() if lines else sphere_metric()
            space = path_metric(point_space, grid=grid)
            for _ in range(samples_per_pair):
                moved = [_unit(p + rng.normal(size=p.shape) * perturbation_scale, p.size) for p in inputs]
                input_delta = max(point_space.distance(p, q) for p, q in zip(inputs, moved))
                d = lp_distance(base_plan.measure, plan_fn(*moved).measure, space)
                yield d, RATIO_CEILING * input_delta, {"points": moved}

    return _lp_report(trials())
