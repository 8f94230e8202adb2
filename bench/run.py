"""Benchmark of distnav: four closed-loop workloads, one caller, no threads.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of that checkout.  With ``--trace 0``
the run reports the end-to-end metrics, every time scaled to a reference
host speed by the calibration units of ``calibrate``; with ``--trace 1``
it runs the same ops untraced and then traced, checks that both give the
same outcomes, and reports per-layer times and counts.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
See ``bench/README.md`` for the workloads and what each metric predicts.
"""

from __future__ import annotations

import os

# One caller, no threads.  Unpinned, OpenBLAS hands the 4096 x 12 subset
# products of 12-atom LP supports to a thread per core, and their speed then
# depends on whether the other core is free (bench/README.md, "OpenBLAS
# threads").  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from calibrate import OP_UNITS, PATH_UNIT, REFERENCE_S, SETUP_UNIT, UNIT_EVERY_S, timed_unit  # noqa: E402
from tracing import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("gcring", "presentations", "bounds", "knowledge", "measures", "navplan", "cli")
MIN_OPS = 100  # so that at least ten latency samples lie beyond op_p90_ms
# setup_s is the median of SETUP_REPEATS fresh set-ups, each scaled by the
# median of SETUP_UNITS calibration units before it and as many after it.
SETUP_REPEATS = 9
SETUP_UNITS = 3
FAILURES_SHOWN = 3

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.setup_s": "s",
    "trace.untraced_ops_s": "s",
    "trace.ops_s": "s",
    "trace.overhead_s": "s",
    "trace.ops": "count",
}


def load_distnav() -> SimpleNamespace:
    """Import ``distnav`` afresh from ``src/``: new modules, empty caches."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "distnav" or m.startswith("distnav.")]:
        del sys.modules[name]
    importlib.import_module("distnav.cli")
    modules = {name: sys.modules[f"distnav.{name}"] for name in MODULES}
    package = Path(sys.modules["distnav"].__file__).resolve()
    if package.parent != SRC / "distnav":
        raise RuntimeError(f"imported distnav from {package}, not from {SRC}")
    pr = modules["presentations"]
    # Handles on the original lru_cache objects, kept across any rebinding.
    caches = (pr.fn_fiber_product, pr.config_space, pr.cpn_sphere_bundle)
    return SimpleNamespace(modules=modules, caches=caches, **modules)


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)  # one per op, in run order
    unit_parts: tuple = PATH_UNIT  # what a calibration unit runs
    units: list[float] = field(default_factory=list)  # calibration units, in run order
    unit_before: list[int] = field(default_factory=list)  # per op: the last unit before it
    unit_at: float = float("-inf")  # when the last unit ended
    # Op outcomes, kept only when a pass is compared with another: kept for
    # every op, they would grow the resident set with the op count.
    outcomes: list | None = None
    failed: int = 0
    wall_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def time_unit(self) -> None:
        self.units.append(timed_unit(self.unit_parts))
        self.unit_at = perf_counter()

    def scaled(self) -> list[float]:
        """Op latencies at the reference host speed (see ``calibrate``).

        An op is scaled by the median of the two units before it and the
        two after it, so one unit slowed by a preemption does not skew it.
        """
        return [
            latency * REFERENCE_S / statistics.median(self.units[max(0, k - 1) : k + 3])
            for latency, k in zip(self.latencies, self.unit_before)
        ]


def run_cycle(ops, result: Pass, max_ops: int | None = None, tracer: Tracer | None = None) -> None:
    """Run the ops once in order (or until ``result`` holds ``max_ops``), each
    timed on its own, with a calibration unit between ops at least every
    UNIT_EVERY_S."""
    start = perf_counter()
    for op in ops:
        if perf_counter() - result.unit_at >= UNIT_EVERY_S:
            result.time_unit()
        result.unit_before.append(len(result.units) - 1)
        t0 = perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a failed op is counted; the run goes on
            outcome = ("failed", type(exc).__name__)
            result.failed += 1
            if result.failed <= FAILURES_SHOWN:
                print(f"op {op.kind} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        result.latencies.append(perf_counter() - t0)
        if tracer is not None:
            tracer.flush()
        if result.outcomes is not None:
            result.outcomes.append(outcome)
        if result.ops == max_ops:
            break
    result.wall_s += perf_counter() - start


def _finished(start: float, seconds: float, ops: int, max_ops: int | None) -> bool:
    """Whole cycles run until ``seconds`` have passed and MIN_OPS ops ran, or
    until exactly ``max_ops`` ops ran."""
    if max_ops is not None:
        return ops >= max_ops
    return perf_counter() - start >= seconds and ops >= MIN_OPS


def run_ops(ops, seconds: float, max_ops: int | None = None, unit_parts: tuple = PATH_UNIT) -> Pass:
    """Closed loop over whole cycles of ``ops``."""
    result = Pass(unit_parts=unit_parts)
    start = perf_counter()
    while True:
        run_cycle(ops, result, max_ops)
        if _finished(start, seconds, result.ops, max_ops):
            result.time_unit()
            return result


def setup(workload: str, seed: int) -> tuple[float, list]:
    """Import of distnav + input generation + prebuilds, timed.

    Garbage of an earlier set-up (the old module graph is cyclic) is
    collected first, so that its collection is not timed here.
    """
    gc.collect()
    t0 = perf_counter()
    dn = load_distnav()
    ops = WORKLOADS[workload](dn, random.Random(seed))
    return perf_counter() - t0, ops


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def e2e_run(workload: str, seed: int, seconds: float, max_ops: int | None = None) -> dict:
    """Repeated set-ups, then one timed closed loop; the end-to-end metrics.

    Times are scaled to the reference host speed of ``calibrate``: each op
    by the units around it, each set-up by the units right before and right
    after it.
    """
    setup_times: list[float] = []
    raw_setup_times: list[float] = []
    for _ in range(SETUP_REPEATS):
        ops = None  # the previous set-up's state is garbage before the next starts
        gc.collect()
        units = [timed_unit(SETUP_UNIT) for _ in range(SETUP_UNITS)]
        elapsed, ops = setup(workload, seed)
        units += [timed_unit(SETUP_UNIT) for _ in range(SETUP_UNITS)]
        raw_setup_times.append(elapsed)
        setup_times.append(elapsed * REFERENCE_S / statistics.median(units))
    gc.collect()
    loop = run_ops(ops, seconds, max_ops, OP_UNITS[workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = loop.ops
    scaled = loop.scaled()
    values = {
        "ops_per_s": attempted / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": _quantile(scaled, 90) * 1e3,
        "ok_frac": (attempted - loop.failed) / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    print(
        f"{workload} unscaled: {attempted / sum(loop.latencies):.6g} ops/s, "
        f"op p50 {statistics.median(loop.latencies) * 1e3:.6g} ms, "
        f"op p90 {_quantile(loop.latencies, 90) * 1e3:.6g} ms, "
        f"set-up {statistics.median(raw_setup_times):.6g} s; "
        f"calibration unit median {statistics.median(loop.units) * 1e3:.4g} ms",
        file=sys.stderr,
    )
    print(
        f"{workload}: {attempted} ops (latency samples), {loop.wall_s:.2f} s, "
        f"{loop.failed} failed; {len(setup_times)} set-ups",
        file=sys.stderr,
    )
    return {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()},
    }


def _canonical(value):
    """Outcome with floats as hex strings, so equality is bitwise."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    return value


def traced_run(workload: str, seed: int, seconds: float, max_ops: int | None = None) -> dict:
    """The same ops untraced and traced, in alternating cycles.

    The two passes run on two imports of ``distnav``; only the second is
    rebound.  Alternating cycles see the same host speed, so the difference
    of their op times is the tracing overhead.  Per-layer times are not
    scaled: they are read as shares of ``trace.ops_s`` of the same run.
    """
    _, ops = setup(workload, seed)
    dn = load_distnav()
    tracer = Tracer()
    install(tracer, dn.modules)
    t0 = perf_counter()
    traced_ops = WORKLOADS[workload](dn, random.Random(seed))
    traced_setup_s = perf_counter() - t0
    tracer.flush()
    gc.collect()
    plain, traced = Pass(outcomes=[]), Pass(outcomes=[])
    start = perf_counter()
    while True:
        run_cycle(ops, plain, max_ops)
        run_cycle(traced_ops, traced, max_ops, tracer)
        if _finished(start, seconds, plain.ops, max_ops):
            break

    same = [_canonical(o) for o in plain.outcomes] == [_canonical(o) for o in traced.outcomes]
    if not same:
        print("traced outcomes differ from untraced outcomes", file=sys.stderr)
    layers = tracer.metrics()
    values = {name: v for name, (v, _) in layers.items()}
    units = {name: unit for name, (_, unit) in layers.items()} | TRACE_UNITS
    values |= {
        "trace.setup_s": traced_setup_s,
        "trace.untraced_ops_s": sum(plain.latencies),
        "trace.ops_s": sum(traced.latencies),
        "trace.overhead_s": sum(traced.latencies) - sum(plain.latencies),
        "trace.ops": traced.ops,
    }
    failed = plain.failed + traced.failed
    return {
        "correct": same and failed == 0,
        "attempted": plain.ops + traced.ops,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "distnav" / "__init__.py").is_file():
        print(f"no distnav package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    run = traced_run if args.trace else e2e_run
    result = run(args.workload, args.seed, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
