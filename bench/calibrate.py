"""Host-speed calibration: fixed units of work timed beside what is measured.

The benchmark runs on shared hosts whose speed changes by a third or more
for seconds to minutes at a time, and process CPU time slows with wall
time, so neither clock alone separates the program from the host.  The
run loop therefore times a unit at least every ``UNIT_EVERY_S`` between
ops, and right before and after each set-up, and scales each latency by
``REFERENCE_S`` over the median of the units around it.  A reported
millisecond is a millisecond on a host where the unit takes
``REFERENCE_S``.

Each unit imitates the kind of work it stands beside, so that a slow host
phase slows it as it slows that work:

* ``path_unit`` samples great-circle paths with small numpy arrays and
  Python floats, as ``navplan.path_metric`` does;
* ``table_unit`` runs feasibility tests on a 12-point subset table, as
  ``measures.lp_distance`` does: products of 4096 x 12 arrays.  In one
  host phase these slowed the ops of ``lp_wide`` by a quarter while
  ``path_unit`` slowed by a twentieth;
* ``setup_unit`` loads fresh, unregistered copies of three pure-Python
  standard library modules from their cached bytecode: file reads,
  unmarshalling, and executing module bodies full of classes and
  functions, as the import that is most of set-up does.

Ops are scaled by ``path_unit``, and those of ``lp_wide``, which are
nearly all subset-table products, by ``path_unit`` and ``table_unit`` run
together.  None of the units calls ``distnav``, so a change to the
program does not move them.
"""

from __future__ import annotations

import _pydecimal
import fractions
import gc
import importlib.util
import math
import statistics
import sys
from time import perf_counter

import numpy as np

# Duration of each unit at the reference host speed (a 2-core shared Xeon
# in a fast phase, in a tight loop).
REFERENCE_S = 2.0e-3
# Ops are timed between units at most this far apart.
UNIT_EVERY_S = 0.02

_MODULE_FILES = tuple(module.__file__ for module in (fractions, statistics, _pydecimal))
_X = np.array([1.0, 0.0, 0.0, 0.0])
_Y = np.array([0.0, 0.6, 0.8, 0.0])
_TIMES = tuple(k / 63 for k in range(64))
_SUBSETS = (np.arange(1 << 12, dtype=np.uint32)[:, None] >> np.arange(12)[None, :]) & 1 > 0
_TABLE_WEIGHTS = np.linspace(1.0, 2.0, 12) / 18.0
_TABLE_DIST = np.abs(np.subtract.outer(np.linspace(0.0, 1.0, 12), np.linspace(0.05, 1.05, 12)))


def path_unit() -> float:
    """Sum the step angles along four great-circle arcs sampled at 64 times."""
    total = 0.0
    for angle in (0.3, 0.7, 1.1, 1.9):
        prev = _X
        for t in _TIMES:
            p = math.cos(angle * t) * _X + math.sin(angle * t) * _Y
            p = p / np.linalg.norm(p)
            total += float(np.arccos(np.clip(np.dot(p, prev), -1.0, 1.0)))
            prev = p
    return total


def table_unit() -> float:
    """Four one-sided feasibility tests at growing radii; sum their excesses."""
    total = 0.0
    for k in range(4):
        close = _TABLE_DIST <= 0.05 + 0.07 * k
        mass = _SUBSETS @ _TABLE_WEIGHTS
        covered = _SUBSETS @ close.astype(np.float64) > 0.0
        total += float(np.max(mass - covered @ _TABLE_WEIGHTS))
    return total


def setup_unit() -> int:
    """Load and drop fresh copies of the modules; return the names they define.

    The copies are not entered in ``sys.modules``, so the program keeps the
    modules it imported.  No bytecode is written.
    """
    defined = 0
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for k, path in enumerate(_MODULE_FILES):
            spec = importlib.util.spec_from_file_location(f"_calibration_{k}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            defined += len(vars(module))
    finally:
        sys.dont_write_bytecode = dont_write
    return defined


PATH_UNIT = (path_unit,)
OP_UNITS = {
    "certify": PATH_UNIT,
    "rewrite": PATH_UNIT,
    "navigate": PATH_UNIT,
    "lp_wide": (path_unit, table_unit),
}
SETUP_UNIT = (setup_unit,)


def timed_unit(parts) -> float:
    """Wall time of one unit, in seconds per part, including freeing what
    it made.

    Automatic collection is paused meanwhile, so that no collection of the
    program's heap is timed, and the unit's own garbage is freed before it
    ends, so that none is left for the program's ops to collect.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for part in parts:
            part()
        gc.collect(0)
        return (perf_counter() - t0) / len(parts)
    finally:
        gc.enable()
