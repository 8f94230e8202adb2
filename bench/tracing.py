"""Per-layer spans and counts, recorded from outside the program.

The tracer rebinds each listed public ``distnav`` function, in every
``distnav`` module that binds it, to a wrapper that records a span: name,
start, end and the index of the enclosing span.  Spans of one op are kept
in memory and folded into per-function totals when the op ends:

* ``calls``  - number of spans;
* ``busy_s`` - wall time with at least one span of the function open
  (a nested span of the same function is not counted twice);
* ``self_s`` - span duration minus the time its child spans cover.

The program is single-threaded and has no queues, so no span ever waits
and there is no wait time to report.

Counts are computed from arguments and return values at the same
boundaries; the program itself is not changed.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from time import perf_counter
from typing import Callable

# Public functions wrapped per module.  The distance function returned by
# navplan.path_metric is traced as PATH_METRIC.
WRAPPED: dict[str, tuple[str, ...]] = {
    "gcring": ("normal_form", "multiply", "poincare_series", "check_confluence"),
    "presentations": ("fn_fiber_product", "cpn_sphere_bundle", "sphere_bundle_tower", "catalog"),
    "bounds": (
        "verify_witness_fn",
        "sphere_bundle_lower_bound",
        "euler_height",
        "ring_top_degree",
        "apply_ring_map",
        "validate_ring_map",
        "cup_length_kernel",
    ),
    "knowledge": ("value_fadell_neuwirth",),
    "measures": ("lp_distance",),
    "navplan": (
        "rpn_navigate",
        "circle_navigate",
        "hopf_parametrized_navigate",
        "plan_checkpoint_deviation",
        "check_equivariance",
        "check_lp_continuity",
    ),
}
PATH_METRIC = "navplan.path_metric"
SPAN_NAMES: tuple[str, ...] = tuple(
    f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns
) + (PATH_METRIC,)

# Counts and their units.
COUNTS: dict[str, str] = {
    "gcring.poincare_series.monomials": "count",
    "gcring.check_confluence.triples": "count",
    "bounds.cup_length_kernel.multiply_calls": "count",
    "bounds.cup_length_kernel.nonzero_ratio": "ratio",
    "measures.lp_distance.pair_evals": "count",
    "measures.lp_distance.max_atoms": "count",
    "navplan.path_metric.evals": "count",
    "navplan.path_metric.point_evals": "count",
}


def fold_spans(spans: list, totals: dict[str, list]) -> None:
    """Add the spans of one op to ``totals[name] = [calls, busy_s, self_s]``.

    ``spans`` holds ``[name, start, end, parent]`` in start order; ``parent``
    is the index of the enclosing span or -1.  Spans are properly nested
    (one thread), so the time children cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        total = totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[2] += duration - covered[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[1] += duration


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = {name: 0 for name in COUNTS}
        self.search_nonzero = 0
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def is_open(self, name: str) -> bool:
        spans = self.spans
        return any(spans[i][0] == name for i in self._stack)

    def flush(self) -> None:
        """Fold the finished op's spans into the totals and drop them."""
        fold_spans(self.spans, self.totals)
        self.spans.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            calls, busy, self_time = self.totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.busy_s"] = (busy, "s")
            out[f"{name}.self_s"] = (self_time, "s")
        counts = dict(self.counts)
        calls = counts["bounds.cup_length_kernel.multiply_calls"]
        counts["bounds.cup_length_kernel.nonzero_ratio"] = self.search_nonzero / calls if calls else 0.0
        for name, unit in COUNTS.items():
            out[name] = (counts[name], unit)
        return out


# -- counts taken at the wrapped boundaries ------------------------------------


def _after_poincare_series(tracer, args, kwargs, series):
    tracer.counts["gcring.poincare_series.monomials"] += sum(series)


def _after_check_confluence(tracer, args, kwargs, report):
    tracer.counts["gcring.check_confluence.triples"] += report.triples_checked


def _after_multiply(tracer, args, kwargs, product):
    # Products of the cup-length search itself: inside cup_length_kernel but
    # not inside its kernel-membership test (apply_ring_map).
    if tracer.is_open("bounds.cup_length_kernel") and not tracer.is_open("bounds.apply_ring_map"):
        tracer.counts["bounds.cup_length_kernel.multiply_calls"] += 1
        if product.terms:
            tracer.search_nonzero += 1


def _lp_distance_hook(signature: inspect.Signature) -> Callable:
    def after(tracer, args, kwargs, value):
        bound = signature.bind(*args, **kwargs)
        mu, nu = len(bound.arguments["mu"]), len(bound.arguments["nu"])
        counts = tracer.counts
        counts["measures.lp_distance.pair_evals"] += mu * nu
        counts["measures.lp_distance.max_atoms"] = max(counts["measures.lp_distance.max_atoms"], mu, nu)

    return after


_AFTER = {
    "gcring.poincare_series": _after_poincare_series,
    "gcring.check_confluence": _after_check_confluence,
    "gcring.multiply": _after_multiply,
}


def _rebind(modules: dict, original, replacement) -> None:
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, modules: dict) -> None:
    """Rebind the listed functions of a freshly imported ``distnav``.

    ``modules`` maps short module names (``"gcring"``, ...) to every loaded
    ``distnav`` module, so names imported from another module are rebound
    where they are bound.
    """
    hooks = dict(_AFTER)
    hooks["measures.lp_distance"] = _lp_distance_hook(inspect.signature(modules["measures"].lp_distance))
    for module_name, fn_names in WRAPPED.items():
        for fn_name in fn_names:
            original = getattr(modules[module_name], fn_name)
            name = f"{module_name}.{fn_name}"
            _rebind(modules, original, tracer.wrap(original, name, hooks.get(name)))

    path_metric = modules["navplan"].path_metric
    signature = inspect.signature(path_metric)

    @functools.wraps(path_metric)
    def traced_path_metric(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        grid = bound.arguments["grid"]
        space = path_metric(*args, **kwargs)

        def after(tracer, _args, _kwargs, _value):
            tracer.counts["navplan.path_metric.evals"] += 1
            tracer.counts["navplan.path_metric.point_evals"] += 2 * grid

        return dataclasses.replace(space, distance=tracer.wrap(space.distance, PATH_METRIC, after))

    _rebind(modules, path_metric, traced_path_metric)
