"""Finitely supported probability measures and the Levy-Prokhorov metric.

Measures are formal convex combinations of points: numbers, coordinate
tuples, numpy arrays, or path objects.  Weights are either all exact
rationals (mode "exact") or include floats (mode "float"); construction
merges duplicate points and rejects nonprobability weights, and bools,
which Python counts as ints, as weights.  In JSON a measure is a list of
{point, weight} records: a point is a number or a list of numbers, and a
weight a number or a "p/q" string, which stays exact.

A metric space maps each point to a coordinate array and compares stacks
of such arrays in one broadcasting ``distance`` call, so ``lp_distance``
reads each atom's coordinates once and gets its n x m matrix from one call.

The Levy-Prokhorov distance

    inf { eps > 0 : mu(A) <= nu(A^eps) + eps  and  nu(A) <= mu(A^eps) + eps }

is computed exactly, given the float pairwise distances.  The one-sided
defect max_A [mu(A) - nu(A^eps)] may let A range over subsets of supp(mu)
alone (enlarging A by points of zero mu-mass only weakens the constraint),
and by Strassen's theorem (1965), or max-flow/min-cut, it equals
min over couplings of P(d(X, Y) > eps), the same from either side.  So one
family of inequalities suffices, over subsets of the smaller support: at
most 2^12 subsets.  The defect is a non-increasing step function of eps
that changes only at pairwise distances, and the distance never exceeds 1,
so a binary search over those breakpoints in [0, 1] finds the least
feasible eps with no bisection tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

import numpy as np

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
]

MAX_SUPPORT = 12


@dataclass(frozen=True)
class MetricSpace:
    """``coordinates(point)`` is an array of some shape s; ``distance(P, Q)``
    takes arrays of shapes (..., *s) and broadcasts over the leading axes.
    """

    distance: Callable[[Any, Any], Any]
    coordinates: Callable[[Any], np.ndarray]


def _chord(p, q):
    """|p - q| over the last axis; arrays of points give arrays of distances."""
    d = np.subtract(p, q, dtype=float)
    if d.ndim == 0:
        return abs(d)
    return np.sqrt(np.add.reduce(d * d, -1))


def _vector(point) -> np.ndarray:
    """A point as a float vector; a number is a point of the line."""
    return np.atleast_1d(np.asarray(point, dtype=float))


def euclidean_metric() -> MetricSpace:
    """The chord metric; its distance broadcasts over leading axes.

    >>> euclidean_metric().distance([[0.0, 0.0], [1.0, 1.0]], [3.0, 4.0]).tolist()
    [5.0, 3.605551275463989]
    """
    return MetricSpace(distance=_chord, coordinates=_vector)


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


class FiniteMeasure:
    """An immutable finitely supported probability measure.

    Float weights and numeric point coordinates must be finite.  The mode
    is "exact" when every weight is an int or a Fraction, else "float".
    """

    def __init__(self, atoms: Iterable[tuple[Any, Fraction | float | int]]) -> None:
        merged: dict[Any, tuple[Any, Any]] = {}
        exact = True
        for point, weight in atoms:
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
                raise ValueError(f"weights sum to {total}, expected exactly 1")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1 within 1e-12")
        self.atoms: tuple[tuple[Any, Any], ...] = tuple(kept)
        self.mode = "exact" if exact else "float"

    def __len__(self) -> int:
        return len(self.atoms)

    def points(self) -> list:
        return [p for p, _ in self.atoms]

    def weights(self) -> list:
        return [w for _, w in self.atoms]

    def total_mass(self):
        return sum(self.weights())

    def __repr__(self) -> str:  # pragma: no cover
        return f"FiniteMeasure({len(self.atoms)} atoms, mode={self.mode})"


def product_measure(mu: FiniteMeasure, nu: FiniteMeasure) -> FiniteMeasure:
    """Independent coupling: atoms are pairs, weights multiply."""
    return FiniteMeasure([((p, q), wp * wq) for p, wp in mu.atoms for q, wq in nu.atoms])


# -- Levy-Prokhorov ------------------------------------------------------------

_subset_cache: dict[int, np.ndarray] = {}


def _subset_matrix(n: int) -> np.ndarray:
    """All 2^n indicator rows over n support points, as float64 zeros and ones.

    Row m holds the bits of m.  The table is built by doubling, in place,
    with no temporaries of its size: those fragmented the heap each time a
    fresh import rebuilt the table, and left the process about 1 MB larger.
    """
    if n not in _subset_cache:
        table = np.zeros((1 << n, n))
        for i in range(n):
            upper = table[1 << i : 2 << i]
            upper[:] = table[: 1 << i]
            upper[:, i] = 1.0
        _subset_cache[n] = table
    return _subset_cache[n]


def _one_sided_defect(
    eps: float,
    mass_a: np.ndarray,
    w_b: np.ndarray,
    dist_ab: np.ndarray,
    subsets: np.ndarray,
) -> float:
    """max_A [a(A) - b(A^eps)] over subsets A of supp(a), given mass_a = subsets @ w_a."""
    covered = subsets @ (dist_ab <= eps)
    np.minimum(covered, 1.0, out=covered)
    return float(np.max(mass_a - covered @ w_b))


def lp_distance(
    mu: FiniteMeasure,
    nu: FiniteMeasure,
    space: MetricSpace,
    precision: float = 1e-6,
) -> float:
    """Levy-Prokhorov distance, exact given the float pairwise distances.

    ``precision`` must be positive and finite; the result does not depend
    on it.  Raises ValueError when either support exceeds MAX_SUPPORT
    points (the subset enumeration is exact but exponential), or when two
    points have coordinates of different shapes.

    Two Dirac measures lie min(|p - q|, 1) apart:

    >>> a, b = FiniteMeasure([((0.0,), 1)]), FiniteMeasure([((0.25,), 1)])
    >>> lp_distance(a, b, euclidean_metric())
    0.25
    """
    if len(mu) > MAX_SUPPORT or len(nu) > MAX_SUPPORT:
        raise ValueError(
            f"supports of sizes {len(mu)}, {len(nu)} exceed the brute-force "
            f"cap of {MAX_SUPPORT}"
        )
    if not (precision > 0 and math.isfinite(precision)):
        raise ValueError(f"precision must be positive and finite, got {precision}")
    coords = [space.coordinates(p) for p in mu.points() + nu.points()]
    shape = coords[0].shape
    for c in coords:
        if c.shape != shape:
            raise ValueError(f"points of coordinate shapes {shape} and {c.shape} cannot be compared")
    pm, pn = np.array(coords[: len(mu)]), np.array(coords[len(mu) :])
    wm = np.array([float(w) for w in mu.weights()])
    wn = np.array([float(w) for w in nu.weights()])
    dist = np.asarray(space.distance(pm[:, None], pn[None, :]), dtype=float)
    # Either side's defect is the whole defect (Strassen), so enumerate the
    # smaller support.  On a tie take the max of both, so that swapping the
    # arguments returns the same float bit for bit.
    sides = []
    if len(pm) <= len(pn):
        subsets = _subset_matrix(len(pm))
        sides.append((subsets @ wm, wn, dist, subsets))
    if len(pn) <= len(pm):
        subsets = _subset_matrix(len(pn))
        sides.append((subsets @ wn, wm, np.ascontiguousarray(dist.T), subsets))
    inner = np.sort(dist, axis=None)
    breaks = np.concatenate(([0.0], inner[(inner > 0.0) & (inner < 1.0)], [1.0]))
    # First breakpoint D_k with defect(D_k) <= D_k; the last one, 1, always
    # qualifies.  On [D_(k-1), D_k) the defect stays at defect(D_(k-1)).
    lo, hi, below = 0, len(breaks) - 1, 1.0
    while lo < hi:
        mid = (lo + hi) // 2
        eps = float(breaks[mid])
        defect = max(_one_sided_defect(eps, *side) for side in sides)
        if defect <= eps:
            hi = mid
        else:
            lo, below = mid + 1, defect
    return 0.0 if lo == 0 else min(float(breaks[lo]), below)


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


def _json_weight(value: Any) -> int | float | Fraction:
    """A JSON number as it is, or a "p/q" string as an exact Fraction."""
    try:
        if type(value) in (int, float):
            return value
        if type(value) is str:
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f'weight {value!r} is not a number or a "p/q" string with q != 0')


def measure_from_jsonable(data: Sequence[dict]) -> FiniteMeasure:
    """Parse [{point, weight}] records.

    A point is a number or a list of numbers; a weight is a number or a
    "p/q" string, which gives an exact weight.  Anything else raises
    ValueError.
    """
    atoms: list[tuple[Any, Any]] = []
    for entry in data:
        point = entry["point"]
        point = tuple(map(_json_number, point)) if isinstance(point, list) else _json_number(point)
        atoms.append((point, _json_weight(entry["weight"])))
    return FiniteMeasure(atoms)
