"""Tests of the benchmark itself: checks, span arithmetic, metric names and a
one-op smoke run per workload.

Run from the root of the repository:

    python3 -m pytest -q bench
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import checks
import run
from tracing import COUNTS, SPAN_NAMES, Tracer, fold_spans
from workloads import WORKLOADS, Op

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- checks reject wrong values ---------------------------------------------------


def test_fn_certificate_check():
    checks.check_fn_certificate((3, 2, 2, 4), 9, Fraction(-2))
    checks.check_fn_certificate((2, 2, 2, 4), 8, Fraction(1, 3))
    with pytest.raises(checks.CheckFailed):
        checks.check_fn_certificate((3, 2, 2, 4), 8, Fraction(1))  # even-d formula on odd d
    with pytest.raises(checks.CheckFailed):
        checks.check_fn_certificate((2, 2, 1, 2), 2, Fraction(0))
    with pytest.raises(checks.CheckFailed):
        checks.check_fn_certificate((2, 2, 1, 2), 2, 1.0)  # not exact


def test_tower_check():
    checks.check_tower(1, 2, 1, 2)
    checks.check_tower(6, 4, 7, 10)
    with pytest.raises(checks.CheckFailed):
        checks.check_tower(6, 4, 7, 9)  # bound != height + r - 1
    with pytest.raises(checks.CheckFailed):
        checks.check_tower(2, 2, 2, 3)  # height of CP^2 is 3
    with pytest.raises(checks.CheckFailed):
        checks.check_tower(6, 4, 6, 9)


def test_tolerance_checks():
    checks.check_at_most("x", 1e-9, checks.DEVIATION_TOL)
    for bad in (2e-9, float("nan")):
        with pytest.raises(checks.CheckFailed):
            checks.check_at_most("x", bad, checks.DEVIATION_TOL)
    checks.check_weight_sum("plan", 1.0 + 1e-13)
    with pytest.raises(checks.CheckFailed):
        checks.check_weight_sum("plan", 1.0 + 1e-11)
    with pytest.raises(checks.CheckFailed):
        checks.check_equal("confluence", False, True)


def test_lp_checks():
    checks.check_lp_symmetric(0.5, 0.5 + 2e-6)
    with pytest.raises(checks.CheckFailed):
        checks.check_lp_symmetric(0.5, 0.5 + 4e-6)
    checks.check_lp_self(0.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_lp_self(1e-5)
    checks.check_lp_triangle(0.2, 0.3, 0.5)
    for sides in ((0.2, 0.3, 0.6), (0.6, 0.3, 0.2), (0.2, 0.6, 0.3)):
        with pytest.raises(checks.CheckFailed):
            checks.check_lp_triangle(*sides)
    checks.check_lp_dirac(0.4, 0.4 + 5e-7)
    checks.check_lp_dirac(1.0, 1.7)
    with pytest.raises(checks.CheckFailed):
        checks.check_lp_dirac(0.4, 0.41)
    with pytest.raises(checks.CheckFailed):
        checks.check_lp_dirac(0.9, 1.7)


def test_cpn_tower_height_closed_form():
    assert [checks.cpn_tower_height(n) for n in range(1, 7)] == [1, 3, 3, 5, 5, 7]


# -- span arithmetic ----------------------------------------------------------------


def test_fold_spans_self_and_busy_time():
    # a [0, 10] holds b [1, 4] and b [5, 9]; the second b holds c [6, 8],
    # which holds a nested a [6.5, 7].
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["c", 6.0, 8.0, 2],
        ["a", 6.5, 7.0, 3],
    ]
    totals = {}
    fold_spans(spans, totals)
    assert totals["a"] == [2, 10.0, pytest.approx(3.0 + 0.5)]
    assert totals["b"] == [2, 7.0, pytest.approx(3.0 + 2.0)]
    assert totals["c"] == [1, 2.0, pytest.approx(1.5)]
    self_sum = sum(t[2] for t in totals.values())
    assert self_sum == pytest.approx(10.0)  # self times tile the root span
    fold_spans([["c", 0.0, 1.0, -1]], totals)
    assert totals["c"] == [2, 3.0, pytest.approx(2.5)]


def test_tracer_records_nested_calls():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "m.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "m.outer")
    assert outer(1) == 4
    tracer.flush()
    assert tracer.totals["m.outer"][0] == 1 and tracer.totals["m.inner"][0] == 1
    outer_busy, outer_self = tracer.totals["m.outer"][1:]
    assert outer_self == pytest.approx(outer_busy - tracer.totals["m.inner"][1])
    assert tracer.spans == []


# -- host-speed scaling -------------------------------------------------------------


def test_scaled_latency_uses_the_median_of_the_units_around_each_op():
    ref = run.REFERENCE_S
    result = run.Pass(
        latencies=[1.0, 1.0, 1.0],
        units=[2 * ref, 2 * ref, 4 * ref, 100 * ref, 2 * ref],
        unit_before=[0, 1, 2],
    )
    # Units around op 0: [2, 2, 4]; op 1: [2, 2, 4, 100]; op 2: [2, 4, 100, 2].
    assert result.scaled() == pytest.approx([1 / 2, 1 / 3, 1 / 3])


def test_run_ops_times_a_unit_before_the_first_op_and_after_the_last():
    ops = [Op("synthetic", lambda: 1) for _ in range(3)]
    result = run.run_ops(ops, seconds=0.0, max_ops=3)
    assert result.ops == 3 and len(result.unit_before) == 3
    assert result.unit_before[0] == 0
    assert len(result.units) == result.unit_before[-1] + 2


def test_calibration_units_leave_the_program_modules_alone():
    assert set(calibrate.OP_UNITS) == set(WORKLOADS)
    modules, fraction = set(sys.modules), sys.modules["fractions"].Fraction
    for parts in {calibrate.SETUP_UNIT, *calibrate.OP_UNITS.values()}:
        assert calibrate.timed_unit(parts) > 0
    assert set(sys.modules) == modules
    assert sys.modules["fractions"].Fraction is fraction


# -- metric names ---------------------------------------------------------------------


def test_metric_names_are_well_formed_and_match_the_spec():
    tracer_names = set(Tracer().metrics())
    assert tracer_names == {f"{s}.{k}" for s in SPAN_NAMES for k in ("calls", "busy_s", "self_s")} | set(COUNTS)
    assert set(E2E_NAMES) == set(run.E2E_UNITS)
    assert set(LAYER_NAMES) == tracer_names | set(run.TRACE_UNITS)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    for name in E2E_NAMES + LAYER_NAMES + list(WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


# -- smoke run -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_op_smoke_run_emits_every_metric(workload):
    result = run.e2e_run(workload, seed=3, seconds=0.0, max_ops=1)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert list(result["metrics"]) == E2E_NAMES
    for name, metric in result["metrics"].items():
        assert metric["unit"] == next(m["unit"] for m in SPEC["end_to_end"] if m["name"] == name)
        assert metric["value"] > 0, name

    traced = run.traced_run(workload, seed=3, seconds=0.0, max_ops=1)
    assert (traced["correct"], traced["attempted"], traced["failed"]) == (True, 2, 0)
    assert set(traced["metrics"]) == set(LAYER_NAMES)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metric["unit"] == units[name] for name, metric in traced["metrics"].items())
    json.dumps(traced)
