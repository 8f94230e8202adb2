"""End-to-end command-line checks: JSON payload shapes and exit codes."""

import argparse
import contextlib
import io
import json
import time

import numpy as np
import pytest

import distnav.cli as cli
from distnav.cli import main
from distnav.gcring import MAX_SERIES_DEGREE, presentation_to_dict
from distnav.bounds import euler_height
from distnav.presentations import complex_projective, config_space, cpn_sphere_bundle


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def write_measure(path, atoms):
    path.write_text(json.dumps([{"point": p, "weight": w} for p, w in atoms]))
    return str(path)


# === ring group ===


def test_normal_form_square_vanishes():
    code, out = run("ring", "normal-form", "--ring", "conf:d=2,k=4", "--word", "w_1_2,w_1_2")
    assert code == 0
    assert out["schema_version"] == 2
    assert out["zero"] is True
    assert out["normal_form"] == []


def test_normal_form_straightening():
    code, out = run(
        "ring", "normal-form", "--ring", "conf:d=2,k=4",
        "--word", "w_1_4,w_2_4", "--coeff", "3/2",
    )
    assert code == 0
    assert out["zero"] is False
    coeffs = sorted(t["coefficient"] for t in out["normal_form"])
    assert coeffs == ["-3/2", "3/2"]


def test_normal_form_unknown_generator_exits_2():
    code, out = run("ring", "normal-form", "--ring", "cp2", "--word", "nope")
    assert code == 2
    assert "error" in out and out["schema_version"] == 2


def test_poincare_cp2():
    code, out = run("ring", "poincare", "--ring", "cp2", "--max-degree", "6")
    assert code == 0
    assert out["series"] == [1, 0, 1, 0, 1, 0, 0]


def test_unknown_ring_exits_2():
    code, out = run("ring", "poincare", "--ring", "mystery")
    assert code == 2
    assert "unknown presentation" in out["error"]


def test_confluence_pass_and_fail(tmp_path):
    code, out = run("ring", "confluence", "--ring", "conf:d=2,k=4")
    assert code == 0
    assert out["passed"] is True
    assert out["failures"] == []

    data = presentation_to_dict(config_space(2, 4))
    flips = 0
    for rule in data["rules"]:
        if rule["lhs"] == ["w_1_4", "w_2_4"]:
            for term in rule["rhs"]:
                if term["monomial"] == ["w_1_2", "w_1_4"]:
                    term["coeff"] = "1"
                    flips += 1
    assert flips == 1
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(data))
    # file-loaded presentations are gated at load time, before any command runs
    code, out = run("ring", "confluence", "--ring", str(bad))
    assert code == 3
    assert "confluence" in out["error"]


def test_env_directory_resolution(tmp_path, monkeypatch):
    ring_file = tmp_path / "tiny.json"
    ring_file.write_text(json.dumps(presentation_to_dict(complex_projective(1))))
    monkeypatch.delenv("DISTNAV_PRESENTATIONS", raising=False)
    code, _ = run("ring", "poincare", "--ring", "tiny")
    assert code == 2
    monkeypatch.setenv("DISTNAV_PRESENTATIONS", str(tmp_path))
    code, out = run("ring", "poincare", "--ring", "tiny", "--max-degree", "2")
    assert code == 0
    assert out["series"] == [1, 0, 1]


def test_non_koszul_parity_file_exits_3(tmp_path):
    data = presentation_to_dict(complex_projective(1))
    data["parity"] = "commutative"
    ring_file = tmp_path / "commutative.json"
    ring_file.write_text(json.dumps(data))
    code, out = run("ring", "poincare", "--ring", str(ring_file))
    assert code == 3
    assert "parity" in out["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "poincare", "--ring", "cp3", "--max-degree", str(MAX_SERIES_DEGREE + 1)),
        ("bound", "fn", "--d", "2", "--m", "2", "--n", "1", "--r", str(MAX_SERIES_DEGREE + 1)),
    ],
    ids=["ring-poincare", "bound-fn"],
)
def test_series_degree_over_cap_exits_2(argv):
    code, out = run(*argv)
    assert code == 2
    assert "MAX_SERIES_DEGREE" in out["error"]


@pytest.mark.parametrize(
    "name, message",
    [
        (
            "fn:d=1,m=2,n=1,r=2",
            "need d >= 2, m >= 2, n >= 1, r >= 2; got d=1, m=2, n=1, r=2",
        ),
        ("fn:d=2,m=2,n=1,r=3000", "series degree 3000 is outside 0..512 (MAX_SERIES_DEGREE)"),
        ("nosuch", "unknown presentation 'nosuch'"),
        ("fn:d=x,m=2,n=1,r=2", "unknown presentation 'fn:d=x,m=2,n=1,r=2'"),
        ("fn:d=2", "unknown presentation 'fn:d=2'"),
    ],
    ids=["rejected-parameters", "series-cap", "unknown", "non-integer", "missing-parameter"],
)
def test_resolve_ring_keeps_catalog_messages(name, message):
    # Only a name the catalog does not know reads "unknown presentation";
    # a known family that rejects its parameters says why, still with exit 2.
    code, out = run("ring", "normal-form", "--ring", name, "--word", "w_1_2")
    assert code == 2
    assert out["error"] == message


def test_bound_fn_over_witness_work_exits_2(monkeypatch):
    def no_product(*args):
        raise AssertionError("a witness product was formed")

    monkeypatch.setattr("distnav.bounds.product", no_product)
    code, out = run("bound", "fn", "--d", "2", "--m", "2", "--n", "1", "--r", "292")
    assert code == 2
    assert "MAX_WITNESS_WORK" in out["error"]
    code, out = run("bound", "fn", "--d", "2", "--m", "10", "--n", "1", "--r", "2")
    assert code == 2
    assert "has 10 factors" in out["error"]


def test_missing_presentation_file_exits_2(tmp_path):
    code, out = run("ring", "poincare", "--ring", str(tmp_path / "gone.json"))
    assert code == 2


ONE_GENERATOR = [{"id": "x", "degree": 2}]

# Malformed presentation files: before the loader checked the document's
# shape, the string monomial and the bool degree were misread and the others
# printed a traceback.
MALFORMED_PRESENTATIONS = {
    "list": ([{"generators": ONE_GENERATOR}], "must be a JSON object"),
    "generators-object": ({"generators": {"x": 2}}, '"generators" must be a list of objects'),
    "generators-ints": ({"generators": [1, 2]}, '"generators" must be a list of objects'),
    "rules-string": ({"generators": ONE_GENERATOR, "rules": "xx"}, '"rules" must be a list of objects'),
    "lhs-one-name": (
        {"generators": ONE_GENERATOR, "rules": [{"lhs": ["x"], "rhs": []}]},
        "must name two generators",
    ),
    "monomial-string": (
        {
            "generators": [{"id": "a", "degree": 1}, {"id": "b", "degree": 1}],
            "rules": [{"lhs": ["a", "b"], "rhs": [{"coeff": "1", "monomial": "ab"}]}],
        },
        "a monomial must be a list of generator names",
    ),
    "degree-bool": ({"generators": [{"id": "x", "degree": True}]}, "an integer degree and rank"),
    "coeff-zero-denominator": (
        {"generators": ONE_GENERATOR, "rules": [{"lhs": ["x", "x"], "rhs": [{"coeff": "1/0", "monomial": []}]}]},
        "not a finite rational",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PRESENTATIONS))
def test_malformed_presentation_file_exits_2(case, tmp_path):
    data, message = MALFORMED_PRESENTATIONS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    code, out = run("ring", "poincare", "--ring", str(path))
    assert code == 2
    assert message in out["error"]


# === bound group ===


def test_bound_fn_with_citation():
    code, out = run("bound", "fn", "--d", "3", "--m", "2", "--n", "1", "--r", "2", "--cite")
    assert code == 0
    assert out["bound"] == 3
    assert out["certificate"]["provenance"] == "fiber-product-diagonal-kernel-witness"
    tags = [c["tag"] for c in out["citations"]]
    assert tags == ["fiber-product-diagonal-kernel-witness"]
    assert out["citations"][0]["statement"]


def test_bound_fn_bad_parameters_exit_2():
    # A cell out of range is an argument error, as in value fn; it exited 3.
    code, out = run("bound", "fn", "--d", "1", "--m", "2", "--n", "1", "--r", "2")
    assert code == 2
    assert "need d >= 2" in out["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("cup-length", "--d", "1", "--m", "2", "--n", "1", "--r", "2"),
        ("sphere-bundle", "--n", "1", "--r", "0"),
    ],
    ids=["cup-length", "sphere-bundle"],
)
def test_bound_bad_cells_exit_2(argv):
    code, out = run("bound", *argv)
    assert code == 2
    assert "need" in out["error"]


def test_bound_sphere_bundle():
    code, out = run("bound", "sphere-bundle", "--n", "2", "--r", "2")
    assert code == 0
    assert out["height"] == 3
    assert out["bound"] == 4
    code, same = run("bound", "sphere-bundle", "--n", "2", "--r", "2", "--partition", "3")
    assert code == 0
    assert same["bound"] == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_bound_sphere_bundle_height_is_the_euler_height(n, r):
    # The height is read off the certificate (bound = h + r - 1), not recomputed.
    tower = cpn_sphere_bundle(n, r)
    top = sum(g.degree for g in tower.ring.generators)
    height = euler_height(tower.ring, tower.section_euler, max_power=top // (tower.q - 1) + 1)
    # r - 1 parts; with r = 2 the only composition is the default one
    split = [height] if r == 2 else [height - height // 2, height // 2] + [0] * (r - 3)
    for extra in ([], ["--partition", ",".join(map(str, split))]):
        code, out = run("bound", "sphere-bundle", "--n", str(n), "--r", str(r), *extra)
        assert code == 0
        assert out["height"] == height
        assert out["bound"] == height + r - 1


def test_bound_sphere_bundle_bad_partition_exits_3():
    code, out = run("bound", "sphere-bundle", "--n", "2", "--r", "2", "--partition", "1,1")
    assert code == 3
    assert "partition" in out["error"]


def test_bound_cup_length():
    code, out = run("bound", "cup-length", "--d", "2", "--m", "2", "--n", "1", "--r", "2")
    assert code == 0
    assert out["cup_length"] == 2
    assert out["kernel_elements"]


def test_bound_cup_length_even_d_stops_at_node_limit():
    # Even d never reaches the degree ceiling; this search had no bound and ran on.
    start = time.perf_counter()
    code, out = run("bound", "cup-length", "--d", "2", "--m", "3", "--n", "2", "--r", "3")
    assert code == 2
    assert "fn:d=2,m=3,n=2,r=3" in out["error"]
    assert time.perf_counter() - start < 60


# === value group ===


def test_value_fn_payload():
    code, out = run("value", "fn", "--d", "2", "--m", "3", "--n", "2", "--r", "3")
    assert code == 0
    assert out["exact"] == 7
    assert out["provenance"][0]["kind"] == "certificate"


def test_value_so3_cite_lists_both_sources():
    code, out = run("value", "so3", "--r", "4", "--cite")
    assert code == 0
    assert (out["lower"], out["upper"]) == (3, 7)
    assert out["exact"] is None
    assert out["extras"]["classical_sequential_value"] == 9
    tags = {c["tag"] for c in out["citations"]}
    assert tags == {"rotation-bundle-value", "nontrivial-fiber-lower"}


def test_value_spheres():
    code, out = run("value", "spheres", "--dims", "2,3", "--r", "2", "--flips", "2,2")
    assert code == 0
    assert (out["lower"], out["upper"], out["exact"]) == (3, 4, None)
    code, out = run("value", "spheres", "--dims", "2,4", "--r", "2")
    assert code == 0
    assert out["exact"] == 4
    code, out = run("value", "spheres", "--dims", "2,3", "--r", "2", "--flips", "1,2")
    assert code == 2


def test_value_scalars():
    code, out = run("value", "associate", "--dtc", "1")
    assert (code, out["upper"]) == (0, 3)
    code, out = run("value", "threshold", "--r", "3")
    assert code == 0
    assert out["threshold"] == "15/2"
    assert out["threshold_float"] == 7.5
    assert (out["numerator"], out["denominator"]) == (15, 2)
    code, out = run("value", "hopf", "--r", "5")
    assert (code, out["exact"]) == (0, 4)


# === nav group ===


def test_nav_rpn_payload():
    code, out = run("nav", "rpn", "--x", "1,0,0", "--y", "0,1,0")
    assert code == 0
    assert out["r"] == 2
    assert out["support"] == 2
    assert abs(out["weight_sum"] - 1.0) <= 1e-12
    assert out["atoms"][0]["weight"] >= out["atoms"][1]["weight"]
    assert len(out["atoms"][0]["trace"]) == 9


def test_nav_rpn_rejects_bad_input():
    code, out = run("nav", "rpn", "--x", "2,0,0", "--y", "0,1,0")
    assert code == 2  # not a unit representative
    code, out = run("nav", "rpn", "--x", "1,0", "--y", "0,1,0")
    assert code == 2  # dimension mismatch
    code, out = run("nav", "rpn", "--x", "1,zz", "--y", "0,1")
    assert code == 2  # unparseable number


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ("nav", "rpn", "--x", "1,0,0", "--y", "0,nan,0"),
        ("nav", "rpn", "--x", "inf,0,0", "--y", "0,1,0"),
        ("nav", "circle", "--points", "1,0;nan,1"),
    ],
)
def test_non_finite_vector_exits_2_with_valid_json(argv):
    # A NaN component would otherwise flow into the plan and print as bare NaN.
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 2
    payload = strict_json(out.getvalue())
    assert "finite" in payload["error"]


def test_emit_refuses_non_finite_output(monkeypatch):
    monkeypatch.setattr(cli, "_cmd_value_hopf", lambda args: ({"value": float("nan")}, [], 0))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["value", "hopf", "--r", "2"])
    assert code == 2
    assert "error" in strict_json(out.getvalue())


def test_nav_circle_payload():
    code, out = run("nav", "circle", "--points", "1,0;0,1")
    assert code == 0
    weights = sorted(a["weight"] for a in out["atoms"])
    assert weights == [0.25, 0.75]
    code, _ = run("nav", "circle", "--points", "1,0;0,1", "--r", "3")
    assert code == 2  # r disagrees with the checkpoint count


def test_nav_hopf_payload():
    code, out = run("nav", "hopf", "--points", "1,0,0,0;0,1,0,0")
    assert code == 0
    assert sorted(a["weight"] for a in out["atoms"]) == [0.25, 0.75]
    code, out = run("nav", "hopf", "--points", "1,0,0,0;0,0,1,0")
    assert code == 2
    assert "fiber" in out["error"]


NAV_COMMANDS = [
    ("rpn", "--x", "1,0,0", "--y", "0,1,0"),
    ("circle", "--points", "1,0;0,1"),
    ("hopf", "--points", "1,0,0,0;0,1,0,0"),
]


@pytest.mark.parametrize("command", NAV_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("grid", ["1", "0"])
def test_nav_grid_below_two_exits_2(command, grid):
    # --grid 1 raised ZeroDivisionError; --grid 0 printed empty traces with exit 0.
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["nav", *command, "--grid", grid])
    assert code == 2
    assert "grid must be at least 2" in err.getvalue()


def test_nav_grid_cap():
    # --grid 100000000 ran for over 20 s; the cap is checked before any sampling.
    assert cli._grid_count(str(cli.MAX_GRID)) == cli.MAX_GRID
    with pytest.raises(argparse.ArgumentTypeError, match=f"at most {cli.MAX_GRID}"):
        cli._grid_count(str(cli.MAX_GRID + 1))


def run_stderr(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("continuity", "--n", "0"), "--n"),
        (("equivariance", "--n", "0"), "--n"),
        (("continuity", "--pairs", "-1"), "--pairs"),
        (("equivariance", "--pairs", "-3"), "--pairs"),
        (("continuity", "--samples", "-2"), "--samples"),
        (("equivariance", "--elements", "-1"), "--elements"),
        (("continuity", "--scale", "-1"), "--scale"),
        (("continuity", "--scale", "nan"), "--scale"),
        (("equivariance", "--tol", "nan"), "--tol"),
        (("equivariance", "--tol", "inf"), "--tol"),
    ],
)
def test_nav_verifier_bad_flags_exit_2(argv, flag):
    # --n 0 divided by zero (NaN results, exit 0 or 3); negative counts ran
    # 0 samples; --scale -1 was accepted; --tol nan printed invalid JSON.
    code, err = run_stderr("nav", *argv)
    assert code == 2
    assert f"argument {flag}:" in err


def test_nav_rpn_rejects_vectors_of_length_one():
    # The constant plan divided by zero: NaN traces and "not valid JSON".
    code, out = run("nav", "rpn", "--x", "1", "--y", "1")
    assert code == 2
    assert "length at least 2" in out["error"]


def test_nav_equivariance_on_the_projective_line():
    # Seed 0 draws a 1x1 matrix of determinant -1, whose column swap raised
    # IndexError; the only rotation of the line is [[1]].
    code, out = run("nav", "equivariance", "--n", "1", "--pairs", "2", "--elements", "2")
    assert code == 0
    assert out["samples"] == 4
    assert out["failures"] == []


def old_random_rotation(rng, n):
    """_random_rotation as it was, for n >= 2 (oracle)."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def test_random_rotation_unchanged_for_n_at_least_2():
    for n in (2, 3, 4, 5):
        for seed in range(6):
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                np.testing.assert_array_equal(cli._random_rotation(new, n), old_random_rotation(old, n))
    for seed in (4, 5):  # seeds whose 1x1 draw has determinant -1
        line = cli._random_rotation(np.random.default_rng(seed), 1)
        assert line.shape == (1, 1) and abs(line[0, 0] - 1.0) <= 1e-15


@pytest.mark.parametrize("command, point", [("circle", "1,0"), ("hopf", "1,0,0,0")])
def test_nav_plan_over_atom_cap_exits_2(command, point):
    code, out = run("nav", command, "--points", ";".join([point] * 14))
    assert code == 2
    assert "cap of 4096" in out["error"]


def test_nav_equivariance_passes():
    code, out = run("nav", "equivariance", "--n", "2", "--pairs", "4", "--elements", "2")
    assert code == 0
    assert out["samples"] == 8
    assert out["failures"] == []
    assert out["max_discrepancy"] <= 1e-9


def test_nav_continuity_reports():
    code, out = run("nav", "continuity", "--n", "2", "--pairs", "2", "--samples", "3")
    assert code == 0
    assert out["samples"] == 6
    assert "max_discrepancy" in out


# === measure group ===


def test_measure_lp_and_product(tmp_path):
    mu = write_measure(tmp_path / "mu.json", [([0.0, 0.0], "1/2"), ([1.0, 0.0], "1/2")])
    nu = write_measure(tmp_path / "nu.json", [([0.0, 0.0], "1/2"), ([1.0, 0.0], "1/2")])
    code, out = run("measure", "lp", "--mu", mu, "--nu", nu)
    assert code == 0
    assert out["distance"] == 0.0

    far = write_measure(tmp_path / "far.json", [([0.25, 0.0], 1)])
    near = write_measure(tmp_path / "near.json", [([0.0, 0.0], 1)])
    code, out = run("measure", "lp", "--mu", far, "--nu", near, "--precision", "1e-9")
    assert code == 0
    assert abs(out["distance"] - 0.25) <= 1e-8

    code, out = run("measure", "product", "--mu", mu, "--nu", far)
    assert code == 0
    assert out["mode"] == "exact"
    assert out["support"] == 2
    assert sorted(a["weight"] for a in out["atoms"]) == ["1/2", "1/2"]


def test_measure_lp_three_dimensional_against_scalar_points_exits_2(tmp_path):
    # Broadcasting compared (3,) with () and printed a distance, exit 0.
    space = write_measure(tmp_path / "space.json", [([0.1, 0.2, 0.3], "1/2"), ([0.0, 0.5, -0.3], "1/2")])
    line = write_measure(tmp_path / "line.json", [(0.5, "1/4"), (0.1, "3/4")])
    code, out = run("measure", "lp", "--mu", space, "--nu", line)
    assert code == 2
    assert "(3,)" in out["error"] and "(1,)" in out["error"]


def test_measure_lp_mixed_dimensions_in_one_file_exits_2(tmp_path):
    # A file mixing 2-d and 1-d points printed 0.1 with exit 0.
    mixed = write_measure(tmp_path / "mixed.json", [([0.0, 0.0], "1/2"), ([0.1], "1/2")])
    code, out = run("measure", "lp", "--mu", mixed, "--nu", mixed)
    assert code == 2
    assert "(2,)" in out["error"] and "(1,)" in out["error"]


@pytest.mark.parametrize("precision", ["nan", "inf", "0", "-1"])
def test_measure_lp_rejects_bad_precision(tmp_path, precision):
    # nan and inf exited 2 only because the old bisection's log2 raised.
    point = write_measure(tmp_path / "point.json", [([0.0], 1)])
    code, out = run("measure", "lp", "--mu", point, "--nu", point, "--precision", precision)
    assert code == 2
    assert "precision" in out["error"]


# Malformed measure files: strings and objects as points died inside numpy,
# "1/0" raised ZeroDivisionError, and a true weight was read as exact 1.
MALFORMED_MEASURES = {
    "point-string": ({"point": "ab", "weight": 1}, "a point is a number or a list of numbers"),
    "point-object": ({"point": {"x": 1.0}, "weight": 1}, "a point is a number or a list of numbers"),
    "coordinate-bool": ({"point": [True, 0.0], "weight": 1}, "a point is a number or a list of numbers"),
    "weight-zero-denominator": ({"point": [0.0], "weight": "1/0"}, 'not a number or a "p/q" string'),
    "weight-bool": ({"point": [0.0], "weight": True}, 'not a number or a "p/q" string'),
    "weight-list": ({"point": [0.0], "weight": [1]}, 'not a number or a "p/q" string'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MEASURES))
def test_malformed_measure_file_exits_2(case, tmp_path):
    record, message = MALFORMED_MEASURES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([record]))
    good = write_measure(tmp_path / "good.json", [([0.0], 1)])
    code, out = run("measure", "lp", "--mu", str(bad), "--nu", good)
    assert code == 2
    assert message in out["error"]


def test_measure_file_numbers_as_points(tmp_path):
    mu = write_measure(tmp_path / "mu.json", [(0.5, 1)])
    nu = write_measure(tmp_path / "nu.json", [(0.5, "1/2"), (1, 0.5)])
    code, out = run("measure", "lp", "--mu", mu, "--nu", nu)
    assert code == 0 and out["distance"] == 0.5


def test_measure_errors(tmp_path):
    code, out = run("measure", "lp", "--mu", str(tmp_path / "absent.json"), "--nu", str(tmp_path / "absent.json"))
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run("measure", "lp", "--mu", str(bad), "--nu", str(bad))
    assert code == 2
    unbalanced = write_measure(tmp_path / "u.json", [([0.0], "1/3")])
    code, out = run("measure", "lp", "--mu", unbalanced, "--nu", unbalanced)
    assert code == 2


# === shared flags ===


# One successful invocation of every subcommand; "MEASURE" stands for a
# measure file.
SUBCOMMANDS = [
    ("ring", "normal-form", "--ring", "cp2", "--word", "a1,a1"),
    ("ring", "poincare", "--ring", "cp2"),
    ("ring", "confluence", "--ring", "cp2"),
    ("bound", "fn", "--d", "3", "--m", "2", "--n", "1", "--r", "2"),
    ("bound", "sphere-bundle", "--n", "1", "--r", "2"),
    ("bound", "cup-length", "--d", "3", "--m", "2", "--n", "1", "--r", "2"),
    ("value", "fn", "--d", "3", "--m", "2", "--n", "1", "--r", "2"),
    ("value", "so3", "--r", "2"),
    ("value", "spheres", "--dims", "2,4", "--r", "2"),
    ("value", "associate", "--dtc", "3"),
    ("value", "threshold", "--r", "3"),
    ("value", "hopf", "--r", "2"),
    ("nav", "rpn", "--x", "1,0,0", "--y", "0,1,0"),
    ("nav", "circle", "--points", "1,0;0,1"),
    ("nav", "hopf", "--points", "1,0,0,0;0,1,0,0"),
    ("nav", "continuity", "--pairs", "1", "--samples", "1"),
    ("nav", "equivariance", "--pairs", "1", "--elements", "1"),
    ("measure", "lp", "--mu", "MEASURE", "--nu", "MEASURE"),
    ("measure", "product", "--mu", "MEASURE", "--nu", "MEASURE"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: f"{argv[0]}-{argv[1]}")
def test_payload_names_its_command(argv, tmp_path):
    measure = write_measure(tmp_path / "mu.json", [([0.0, 0.0], "1/2"), ([1.0, 0.0], "1/2")])
    code, out = run(*(measure if a == "MEASURE" else a for a in argv))
    assert code == 0
    assert out["command"] == f"{argv[0]} {argv[1]}"
    assert list(out)[:2] == ["schema_version", "command"]


def test_json_flag_is_noop():
    _, plain = run("value", "hopf", "--r", "2")
    _, flagged = run("value", "hopf", "--r", "2", "--json")
    assert plain == flagged


def test_cite_absent_without_flag():
    _, out = run("value", "so3", "--r", "2")
    assert "citations" not in out


def test_argparse_failures_exit_2():
    code, _ = run("no-such-group")
    assert code == 2
    code, _ = run("ring", "poincare")  # missing --ring
    assert code == 2
    code, _ = run()
    assert code == 2
