"""Finitely supported probability measures and the Levy-Prokhorov metric.

Measures are formal convex combinations of points: numbers, coordinate
tuples, numpy arrays, or path objects.  Weights are either all exact
rationals (mode "exact") or include floats (mode "float"); construction
merges duplicate points and rejects nonprobability weights, and bools,
which Python counts as ints, as weights.  In JSON a measure is a list of
{point, weight} records: a point is a number or a list of numbers, and a
weight a number or a "p/q" string, which stays exact.

A metric space maps a whole support, a sequence of n points, to one
coordinate array of shape (n, *s) and compares such stacks in one
broadcasting ``distance`` call, so ``lp_distance`` gets its n x m matrix
from one ``distance`` call.  ``coordinates`` must be a deterministic
function of the points: each measure keeps the array of the last
``coordinates`` function it was read under, read-only, so ``lp_distance``
makes at most one ``coordinates`` call per measure and metric.  A measure
keeps its ndarray points as read-only copies, so that kept stack cannot
go stale; other mutable points must not be changed once it is built.

The Levy-Prokhorov distance

    inf { eps > 0 : mu(A) <= nu(A^eps) + eps  and  nu(A) <= mu(A^eps) + eps }

is computed exactly, given the float pairwise distances.  Each measure
holds its weights as integer numerators over their least common
denominator (exact for Fraction and float weights alike, built on first
use), and ``lp_distance`` scales both measures to one denominator, so
masses and defects are exact integers and only the distances are floats.
The one-sided defect max_A [mu(A) - nu(A^eps)] may let A range over
subsets of supp(mu) alone (enlarging A by points of zero mu-mass only
weakens the constraint), and by Strassen's theorem (1965), or
max-flow/min-cut, it equals mu's total minus the maximum flow from mu to nu
along pairs at most eps apart, so the nu-side defect is the mu-side one
plus nu's total minus mu's, exactly, at every eps.  One flow from the
smaller support, or from mu's on a size tie, computed in Python ints,
serves every pair at every size up to MAX_SUPPORT, adding the other side's
surplus mass when it is positive (float totals may miss 1 in the last
bits).  The defect is a non-increasing step function of eps that changes
only at pairwise distances, and the distance never exceeds 1, so the
least feasible eps is a breakpoint in [0, 1], found with no bisection
tolerance.  Pairs only ever join the flow as eps grows, so one flow is
grown over the pairs in order of distance (a parametric max flow, as in
Gallo, Grigoriadis and Tarjan 1989), its residual search carried on from
one pair to the next, and the first breakpoint whose defect passes ends it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .gcring import json_list, json_rational

__all__ = [
    "MetricSpace",
    "FiniteMeasure",
    "lp_distance",
    "product_measure",
    "measure_to_jsonable",
    "measure_from_jsonable",
    "to_jsonable",
    "euclidean_metric",
    "MAX_SUPPORT",
    "MAX_PRODUCT_ATOMS",
]

MAX_SUPPORT = 64
# Atoms product_measure may build, len(mu) x len(nu), checked before any is
# built: in `measure product`, 256 x 256 atoms took 2.4 s and printed 12 MB,
# 300 x 300 took 3.1 s and printed 17 MB (in process, single runs on a
# shared 2-core host).
MAX_PRODUCT_ATOMS = 2**16
# Digits above or below the line up to which a weight total that is not 1
# is printed in the error: two weights of 10^4299 made a 4300-digit message.
SHOWN_DIGITS = 100


@dataclass(frozen=True)
class MetricSpace:
    """``coordinates(points)`` maps a support, a sequence of n points, to one
    float array of shape (n, *s); ``distance(P, Q)`` takes arrays of shapes
    (..., *s) and broadcasts over the leading axes.

    ``coordinates`` must be a deterministic function of the points: a
    measure keeps a read-only copy of its array and reuses it while it is
    compared under the same function object.
    """

    distance: Callable[[Any, Any], Any]
    coordinates: Callable[[Sequence[Any]], np.ndarray]


def _chord(p, q):
    """|p - q| over the last axis; arrays of points give arrays of distances.
    A distance past the largest float is inf, correctly rounded, with no warning."""
    with np.errstate(over="ignore"):
        return _length(np.subtract(p, q, dtype=float))


def _line_chord(p, q):
    """min(|p - q|, |p + q|), the chord of each sign of q as ``_chord`` gives
    it (p + q is p - (-q) bit for bit), under one errstate."""
    with np.errstate(over="ignore"):
        return np.minimum(_length(np.subtract(p, q, dtype=float)), _length(np.add(p, q, dtype=float)))


def _length(d: np.ndarray):
    """The length of d over its last axis; a 0-d d is a number."""
    if d.ndim == 0:
        return abs(d)
    return np.sqrt(np.add.reduce(d * d, -1))


def _vectors(points) -> np.ndarray:
    """A support as one float array of vectors, by one numpy conversion; a
    number is a point of the line.  numpy refuses a ragged support with a
    ValueError, a number next to a one-element list included.
    """
    stacked = np.array(points, dtype=float)
    return stacked[:, None] if stacked.ndim == 1 else stacked


def euclidean_metric() -> MetricSpace:
    """The chord metric; its distance broadcasts over leading axes.

    >>> euclidean_metric().distance([[0.0, 0.0], [1.0, 1.0]], [3.0, 4.0]).tolist()
    [5.0, 3.605551275463989]
    >>> euclidean_metric().coordinates([0.5, 0.25]).tolist()
    [[0.5], [0.25]]
    """
    return MetricSpace(distance=_chord, coordinates=_vectors)


def _point_key(point: Any):
    """Hashable identity for merging atoms at literally identical points."""
    if isinstance(point, np.ndarray):
        return ("ndarray", point.shape, point.tobytes())
    try:
        hash(point)
    except TypeError:
        return ("id", id(point))
    return point


def _is_finite_point(point: Any) -> bool:
    """False when a numeric coordinate of the point is NaN or infinite.

    Non-numeric points (labels, path objects) carry no coordinates to check.
    """
    if isinstance(point, np.ndarray):
        return point.dtype.kind not in "fc" or all(map(cmath.isfinite, point.ravel().tolist()))
    if isinstance(point, (float, complex, np.inexact)):
        return cmath.isfinite(point)
    if isinstance(point, (tuple, list)):
        return all(map(_is_finite_point, point))
    return True


def _digits(n: int) -> int:
    """The decimal digits of n >= 0, counted without writing n out, which
    Python refuses past 4300 digits."""
    d = int((n.bit_length() - 1) * math.log10(2)) + 1
    return d + (n >= 10**d)


def _shown(total: Fraction) -> str:
    """An exact weight total as text while both its parts have at most
    SHOWN_DIGITS digits, else the digit counts of its parts."""
    p, q = _digits(total.numerator), _digits(total.denominator)
    return str(total) if max(p, q) <= SHOWN_DIGITS else f"a rational of {p} digits over {q}"


class FiniteMeasure:
    """An immutable finitely supported probability measure.

    Float weights and numeric point coordinates must be finite.  The mode
    is "exact" when every weight is an int or a Fraction, else "float".
    The measure keeps one coordinate stack, read-only, with the
    ``coordinates`` function it came from, and is not mapped again under
    that function.  So an ndarray point is kept as a read-only copy, and
    any other mutable point, such as a list, must not be changed once the
    measure is built.
    """

    def __init__(self, atoms: Iterable[tuple[Any, Fraction | float | int]]) -> None:
        merged: dict[Any, tuple[Any, Any]] = {}
        exact = True
        for point, weight in atoms:
            if isinstance(point, np.ndarray):
                point = point.copy()
                point.setflags(write=False)
            if isinstance(weight, float):
                exact = False
                if not math.isfinite(weight):
                    raise ValueError(f"weight {weight} at {point!r} is not finite")
            elif isinstance(weight, bool) or not isinstance(weight, (int, Fraction)):
                raise TypeError(f"weight {weight!r} is neither rational nor float")
            if not _is_finite_point(point):
                raise ValueError(f"point {point!r} has a non-finite coordinate")
            key = _point_key(point)
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + weight)
            else:
                merged[key] = (point, weight)
        kept: list[tuple[Any, Any]] = []
        total = Fraction(0) if exact else 0.0
        for point, weight in merged.values():
            if weight == 0:
                continue
            if weight < 0:
                raise ValueError(f"negative weight {weight} at {point!r}")
            weight = Fraction(weight) if exact else float(weight)
            kept.append((point, weight))
            total += weight
        if exact:
            if total != 1:
                raise ValueError(f"weights sum to {_shown(total)}, expected exactly 1")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1 within 1e-12")
        self.atoms: tuple[tuple[Any, Any], ...] = tuple(kept)
        self.mode = "exact" if exact else "float"
        self._masses: tuple[list[int], int, int] | None = None
        self._coordinates: tuple[Callable, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.atoms)

    def points(self) -> list:
        return [p for p, _ in self.atoms]

    def weights(self) -> list:
        return [w for _, w in self.atoms]

    def total_mass(self):
        return sum(self.weights())

    def _integer_masses(self) -> tuple[list[int], int, int]:
        """The weights as integer numerators over their least common
        denominator, with that denominator and the numerators' sum.

        Exact for Fraction and float weights alike.  Built on first LP use
        and kept: building it at construction slowed a 256 x 256 product
        by about 15%.
        """
        if self._masses is None:
            ratios = [w.as_integer_ratio() for _, w in self.atoms]
            den = math.lcm(*[q for _, q in ratios])
            nums = [p * (den // q) for p, q in ratios]
            self._masses = nums, den, sum(nums)
        return self._masses

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteMeasure({len(self.atoms)} atoms, mode={self.mode})"


def product_measure(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """Independent coupling: atoms are pairs, weights multiply.  ValueError,
    before any atom is built, when it would have over MAX_PRODUCT_ATOMS."""
    if len(mu) * len(nu) > MAX_PRODUCT_ATOMS:
        raise ValueError(
            f"the product of {len(mu)} and {len(nu)} atoms has {len(mu) * len(nu)}, "
            f"over the cap of {MAX_PRODUCT_ATOMS} (MAX_PRODUCT_ATOMS)"
        )
    return FiniteMeasure([((p, q), wp * wq) for p, wp in mu.atoms for q, wq in nu.atoms])


# -- Levy-Prokhorov ------------------------------------------------------------

def _grown_flow(
    a: list[int],
    b: list[int],
    dist: np.ndarray,
    den: int,
    surplus: int,
) -> tuple[float, int | None, list[dict[int, int]], list[int]]:
    """The first breakpoint eps whose defect passes, by one maximum flow
    from a to b grown over the pairs in order of distance.

    Each pair joins as an arc from its row to its column, so the flow at
    one breakpoint stays feasible at every larger one and is only ever
    augmented.  The breadth-first residual search from the rows with
    unsent mass keeps its reached rows and columns between arcs: a new arc
    from a reached row to an unreached column either ends at a column with
    room, an augmenting path, or carries the search on from that column's
    flow rows.  A direct push that leaves its row with mass keeps the
    search as it is.  Any other augmenting path leaves the search stale
    until the next breakpoint, and meanwhile new arcs only take direct
    pushes, so the pairs at one distance cost one search between them.  At
    the breakpoint, searches from scratch, each carrying every path of its
    tree that still has room (tree paths are shortest paths), make the
    flow maximal again.  The defect at eps is then the unsent mass plus
    ``surplus``, exact in Python ints, and eps = p/q passes when defect * q
    <= p * den.

    Returns eps, or 1.0 when no breakpoint below 1 passes; the defect at
    the breakpoint before it (None when eps is 0); and the maximal flow at
    eps (at the last breakpoint below 1 when eps is 1.0), ``flow[j][i]``
    from row i into column j, with the rows A its residual search reaches:
    a(A) - b(A^eps) equals the unsent mass, so the flow and its cut certify
    each other.
    """
    pairs = np.argsort(dist, axis=None, kind="stable")
    sorted_dist = dist.ravel()[pairs]
    inner = int(np.count_nonzero(sorted_dist < 1.0))
    rows, cols = np.divmod(pairs[:inner], len(b))
    left, room = list(a), list(b)
    unsent = sum(left)
    flow: list[dict[int, int]] = [{} for _ in room]
    near: list[list[int]] = [[] for _ in left]
    # back[i]: the column a reached row was reached from along a flow arc,
    # None at the rows with unsent mass; came[j]: the row a column was
    # reached from.  Unless `stale`, they hold the whole residual search.
    back: dict[int, int | None] = {i: None for i, x in enumerate(left) if x}
    came: dict[int, int] = {}
    stale = False

    def search(frontier: list[int]) -> list[int]:
        """Carry the breadth-first search on from the frontier rows to its
        end; the reached columns with room, where paths of its tree end."""
        ends = []
        while frontier:
            reached = []
            for i in frontier:
                for j in near[i]:
                    if j in came:
                        continue
                    came[j] = i
                    if room[j]:
                        ends.append(j)
                    for k in flow[j]:
                        if k not in back:
                            back[k] = j
                            reached.append(k)
            frontier = reached
        return ends

    def augment(ends: list[int]) -> None:
        """Carry what each path of the search tree to ``ends`` still can."""
        nonlocal unsent
        for end in ends:
            # Walk the path back from `end` to its source row twice: once
            # for the mass it can still carry, once to carry it.
            sent, i = room[end], came[end]
            while sent and (j := back[i]) is not None:
                sent = min(sent, flow[j].get(i, 0))
                i = came[j]
            sent = min(sent, left[i])
            if not sent:
                continue
            left[i] -= sent
            unsent -= sent
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

    def settle() -> None:
        """Search from scratch and augment until no column with room is reached."""
        nonlocal back, came
        while True:
            back = {i: None for i, x in enumerate(left) if x}
            came = {}
            ends = search(list(back))
            if not ends:
                return
            augment(ends)

    # eps = p/q passes when defect * q <= p * den.  The last breakpoint, 1,
    # ends the pairs: the distance is at most 1.
    eps, (p, q), below = 0.0, (0, 1), None
    arcs = zip(sorted_dist[:inner].tolist(), rows.tolist(), cols.tolist())
    for d, i, j in itertools.chain(arcs, [(1.0, 0, 0)]):
        if d > eps:
            # Every pair within eps has joined: make the flow maximal, decide eps.
            if stale:
                settle()
                stale = False
            if (unsent + surplus) * q <= p * den:
                return eps, below, flow, list(back)
            if d == 1.0:
                return d, unsent + surplus, flow, list(back)
            eps, below = d, unsent + surplus
            p, q = d.as_integer_ratio()
        near[i].append(j)
        x, y = left[i], room[j]
        if stale:
            if x and y:
                sent = x if x < y else y
                flow[j][i] = sent
                left[i], room[j] = x - sent, y - sent
                unsent -= sent
            continue
        if i not in back or j in came:
            continue
        came[j] = i
        if y and back[i] is None and x > y:
            # A direct push that leaves its row with mass keeps the search.
            flow[j][i] = y
            left[i], room[j] = x - y, 0
            unsent -= y
            y = 0
        if y:
            ends = [j]
        else:
            frontier = [k for k in flow[j] if k not in back]
            for k in frontier:
                back[k] = j
            ends = search(frontier)
        if ends:
            augment(ends)
            stale = True


def _shape_error(first: tuple, other: tuple) -> ValueError:
    return ValueError(f"points of coordinate shapes {first} and {other} cannot be compared")


def _support_stack(space: MetricSpace, mu: FiniteMeasure) -> np.ndarray:
    """mu's coordinates under ``space``: the kept stack when it came from
    the same ``coordinates`` function object, else one ``coordinates``
    call, whose result the measure keeps as a read-only copy in place of
    the one before.  The key is the function itself, held, so a function
    that is gone cannot pass for a new one at its address."""
    kept = mu._coordinates
    if kept is not None and kept[0] is space.coordinates:
        return kept[1]
    stack = np.array(space.coordinates(mu.points()))
    stack.setflags(write=False)
    mu._coordinates = space.coordinates, stack
    return stack


def _coordinate_stacks(space: MetricSpace, mu: FiniteMeasure, nu: FiniteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Both supports' coordinates, by at most one ``coordinates`` call each.

    Where a call raises ValueError, as numpy does on a ragged support, the
    points are read one by one, and what they give is not kept: a number
    and a one-element list are then the same point of the line, and two
    different shapes raise, the first point's against the first that
    differs, over mu's points and then nu's.
    """
    try:
        pm, pn = _support_stack(space, mu), _support_stack(space, nu)
    except ValueError:
        mu_points, nu_points = mu.points(), nu.points()
        coords = [space.coordinates([p])[0] for p in mu_points + nu_points]
        shape = coords[0].shape
        for c in coords:
            if c.shape != shape:
                raise _shape_error(shape, c.shape) from None
        return np.array(coords[: len(mu_points)]), np.array(coords[len(mu_points) :])
    if pm.shape[1:] != pn.shape[1:]:
        raise _shape_error(pm.shape[1:], pn.shape[1:])
    return pm, pn


def lp_distance(
    mu: FiniteMeasure,
    nu: FiniteMeasure,
    space: MetricSpace,
    precision: float = 1e-6,
) -> float:
    """Levy-Prokhorov distance, exact given the float pairwise distances.

    The weights enter as exact integer masses over a common denominator,
    so only the distances are floats: ``lp_distance(mu, nu) ==
    lp_distance(nu, mu)`` bit for bit, and equal measures lie exactly 0.0
    apart whatever the order of their atoms.  Every pair grows one flow
    from the smaller support over the breakpoints in increasing order, for
    both inequality families, and stops at the first breakpoint that
    passes.  Each measure's coordinates come from at most one
    ``coordinates`` call per measure and metric, kept on the measure
    read-only, and the n x m distances from one ``distance`` call.
    ``precision`` must be positive and finite; the result does not depend
    on it.  Raises ValueError when either support exceeds MAX_SUPPORT
    points, when two points have coordinates of different shapes, or when
    the distances are not one number per pair, as the chord distance of
    matrix points is not.

    Two Dirac measures lie min(|p - q|, 1) apart:

    >>> a, b = FiniteMeasure([((0.0,), 1)]), FiniteMeasure([((0.25,), 1)])
    >>> lp_distance(a, b, euclidean_metric())
    0.25
    """
    if len(mu) > MAX_SUPPORT or len(nu) > MAX_SUPPORT:
        raise ValueError(
            f"a support of {max(len(mu), len(nu))} atoms is over the cap of {MAX_SUPPORT} (MAX_SUPPORT)"
        )
    if not (precision > 0 and math.isfinite(precision)):
        raise ValueError(f"precision must be positive and finite, got {precision}")
    pm, pn = _coordinate_stacks(space, mu, nu)
    dist = np.asarray(space.distance(pm[:, None], pn[None, :]), dtype=float)
    if dist.shape != (len(mu), len(nu)):
        raise ValueError(
            f"the distance array has shape {dist.shape}, expected {len(mu)} x {len(nu)}: "
            "one distance per pair of points"
        )
    (num_m, den_m, total_m), (num_n, den_n, total_n) = mu._integer_masses(), nu._integer_masses()
    den = math.lcm(den_m, den_n)
    scale_m, scale_n = den // den_m, den // den_n
    total_m, total_n = total_m * scale_m, total_n * scale_n
    a, b = [m * scale_m for m in num_m], [m * scale_n for m in num_n]
    # The smaller support, or mu's on a tie; the larger defect is this side's
    # plus the other side's surplus mass (see the module docstring).
    if len(nu) < len(mu):
        a, b, dist, total_m, total_n = b, a, dist.T, total_n, total_m
    surplus = max(0, total_n - total_m)
    eps, below = _grown_flow(a, b, dist, den, surplus)[:2]
    # On [D_(k-1), D_k) the defect stays at defect(D_(k-1)), and int / int
    # is correctly rounded.
    return 0.0 if below is None else min(eps, below / den)


# -- JSON interchange -----------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """A JSON-ready copy of a point, weight or coordinate array.

    Exact rationals become "p/q" strings and other numbers floats; sequences
    become lists, and anything numpy reads as an array (arrays, projective
    points) a flat list of floats.  Other objects, labels included, become
    their ``str``, so this also serves as the ``default`` of ``json.dumps``.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    if isinstance(value, (tuple, list)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "__array__"):
        return [float(v) for v in np.asarray(value, dtype=float).ravel()]
    return str(value)


def measure_to_jsonable(mu: FiniteMeasure) -> list[dict]:
    return [{"point": to_jsonable(p), "weight": to_jsonable(w)} for p, w in mu.atoms]


def _json_number(value: Any) -> float:
    """A JSON number as a float; anything else, bool included, raises ValueError."""
    try:
        if type(value) in (int, float):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"a point is a number or a list of numbers, got {value!r}")


def measure_from_jsonable(data: Any) -> FiniteMeasure:
    """Parse a list of {point, weight} records.

    A point is a number or a list of numbers; a weight is a number or a
    "p/q" string, which gives an exact weight.  Anything else, a document
    that is not a list of objects included, raises ValueError, and a record
    without one of the two keys KeyError; read_json_file names the file in
    both.
    """
    atoms: list[tuple[Any, Any]] = []
    for entry in json_list(data, dict, "a measure"):
        point, weight = entry["point"], entry["weight"]
        point = tuple(map(_json_number, point)) if isinstance(point, list) else _json_number(point)
        invalid = f'weight {weight!r} is not a number or a "p/q" string with q != 0'
        atoms.append((point, json_rational(weight, invalid)))
    return FiniteMeasure(atoms)
