"""End-to-end command-line checks: JSON payload shapes and exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import string
import time
from fractions import Fraction

import numpy as np
import pytest

import distnav.bounds as bounds
import distnav.cli as cli
import distnav.gcring as gcring
import distnav.knowledge as knowledge
import distnav.measures as measures
import distnav.navplan as navplan
import distnav.presentations as presentations
from distnav.cli import main
from distnav.gcring import MAX_LITERAL_EXPONENT, MAX_SERIES_DEGREE, presentation_to_dict
from distnav.bounds import euler_height
from distnav.presentations import complex_projective, config_space, cpn_sphere_bundle


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def run_all(*argv):
    """Exit code, parsed stdout and raw stderr of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, json.loads(out.getvalue()), err.getvalue()


def write_measure(path, atoms):
    path.write_text(json.dumps([{"point": p, "weight": w} for p, w in atoms]))
    return str(path)


# === ring group ===


def test_normal_form_square_vanishes():
    code, out = run("ring", "normal-form", "--ring", "conf:d=2,k=4", "--word", "w_1_2,w_1_2")
    assert code == 0
    assert out["schema_version"] == 6
    assert out["zero"] is True
    assert out["normal_form"] == []


def test_normal_form_straightening():
    code, out = run(
        "ring", "normal-form", "--ring", "conf:d=2,k=4",
        "--word", "w_1_4,w_2_4", "--coeff", "3/2",
    )
    assert code == 0
    assert out["zero"] is False
    coeffs = sorted(t["coeff"] for t in out["normal_form"])
    assert coeffs == ["-3/2", "3/2"]


def test_normal_form_unknown_generator_exits_2():
    code, out = run("ring", "normal-form", "--ring", "cp2", "--word", "nope")
    assert code == 2
    assert out == {"schema_version": 6, "error": "unknown generator 'nope' in cp2"}


@pytest.mark.parametrize("coeff", ["1", "0"])
def test_unknown_generator_is_named_by_the_kernel(tmp_path, coeff):
    # The CLI checked generator names itself; now the kernel's ValueError
    # names the generator and the ring, with the catalog ring's old bytes.
    # A file ring is named by its presentation name, where the CLI printed
    # the path.
    path = tmp_path / "g.json"
    path.write_text(json.dumps(presentation_to_dict(complex_projective(2)) | {"name": "loaded"}))
    for ring, word, error in (
        ("cp2", "nope", "unknown generator 'nope' in cp2"),
        ("cp3", "a1,zz", "unknown generator 'zz' in cp3"),
        (str(path), "a1,zz", "unknown generator 'zz' in loaded"),
    ):
        code, out, err = run_all("ring", "normal-form", "--ring", ring, "--word", word, "--coeff", coeff)
        assert (code, err) == (2, "")
        assert out == {"schema_version": 6, "error": error}


@pytest.mark.parametrize("name", ["cp²", "s٣", "conf:k=4,d=2"], ids=["superscript", "arabic-indic", "reordered"])
def test_names_outside_the_catalog_grammar_are_unknown(name):
    # cp² printed Python's "invalid literal for int()", s٣ built s3 and
    # conf:k=4,d=2 built conf:d=2,k=4.
    code, out, err = run_all("ring", "poincare", "--ring", name)
    assert (code, err) == (2, "")
    assert out["error"] == f"unknown presentation {name!r}"


def test_normal_form_over_the_rewrite_step_cap_exits_2(monkeypatch):
    # conf:d=3,k=20 took 10.3 s and printed 106 MB; k=22, a normal form of
    # 2^20 terms, is refused at the shipped cap within seconds.
    start = time.perf_counter()
    word = ",".join(f"w_{i}_22" for i in range(1, 22))
    code, out, err = run_all("ring", "normal-form", "--ring", "conf:d=3,k=22", "--word", word)
    assert (code, err) == (2, "")
    assert out["error"] == (
        f"rewriting a word in 'conf:d=3,k=22' takes over the cap of {gcring.MAX_REWRITE_STEPS} steps (MAX_REWRITE_STEPS)"
    )
    assert time.perf_counter() - start < 20
    # k=8, whose word takes 63 steps, under a cap of 62.
    monkeypatch.setattr(gcring, "MAX_REWRITE_STEPS", 62)
    word = ",".join(f"w_{i}_8" for i in range(1, 8))
    code, out, err = run_all("ring", "normal-form", "--ring", "conf:d=3,k=8", "--word", word)
    assert (code, err) == (2, "")
    assert out["error"] == "rewriting a word in 'conf:d=3,k=8' takes over the cap of 62 steps (MAX_REWRITE_STEPS)"


def test_normal_form_zero_denominator_exits_2():
    # Fraction("1/0") raises ZeroDivisionError, which escaped as a traceback.
    code, out = run("ring", "normal-form", "--ring", "cp2", "--word", "a1", "--coeff", "1/0")
    assert code == 2
    assert out["error"] == "coefficient '1/0' is not a rational literal such as 3/2 or -2.5e-3"


@pytest.mark.parametrize("text", ["abc", "1/0"])
def test_normal_form_bad_coefficient_exits_2_with_one_message(text):
    # Any text Fraction cannot read, a zero denominator included, gets the
    # one coefficient message; "abc" printed Fraction's own error.
    code, out, err = run_all("ring", "normal-form", "--ring", "cp2", "--word", "a1", "--coeff", text)
    assert (code, err) == (2, "")
    assert out["error"] == f"coefficient {text!r} is not a rational literal such as 3/2 or -2.5e-3"


def test_normal_form_terms_are_the_library_encoding():
    # The terms of ring normal-form are element_to_json's, with the keys of a
    # bound fn certificate factor.
    word = ("w_1_4", "w_2_4")
    code, out = run("ring", "normal-form", "--ring", "conf:d=2,k=4", "--word", ",".join(word), "--coeff", "3/2")
    assert code == 0
    nf = gcring.normal_form(config_space(2, 4), gcring.element([(Fraction(3, 2), word)]))
    assert out["normal_form"] == gcring.element_to_json(nf)
    assert out["input"] == {"coeff": "3/2", "monomial": list(word)}
    code, cert = run("bound", "fn", "--d", "2", "--m", "2", "--n", "1", "--r", "2")
    assert code == 0
    factor_keys = {frozenset(term) for factor in cert["certificate"]["factors"] for term in factor}
    assert factor_keys == {frozenset(term) for term in out["normal_form"]} == {frozenset({"coeff", "monomial"})}


class LiteralParsed(Exception):
    """Raised by a stand-in for Fraction in the literal parser: the exponent cap let a literal through."""


def literal_parsed(*args):
    if args and isinstance(args[0], str):
        raise LiteralParsed(args)
    return Fraction(*args)  # numbers, as ring building makes them


def test_coeff_at_the_exponent_cap_is_parsed():
    cap = MAX_LITERAL_EXPONENT
    code, out = run("ring", "normal-form", "--ring", "cp2", "--word", "a1", "--coeff", f"1e-{cap}")
    assert code == 0
    assert Fraction(out["input"]["coeff"]) == Fraction(1, 10**cap)


OVER_CAP = MAX_LITERAL_EXPONENT + 1


@pytest.mark.parametrize("text", [f"1e{OVER_CAP}", f"-2.5E-{OVER_CAP}", "3e1_001", "1e" + "9" * 4000])
def test_coeff_over_the_exponent_cap_exits_2_before_parsing(monkeypatch, text):
    monkeypatch.setattr(gcring, "Fraction", literal_parsed)
    code, out = run("ring", "normal-form", "--ring", "cp2", "--word", "a1", f"--coeff={text}")
    assert code == 2
    cap = MAX_LITERAL_EXPONENT
    assert out["error"].endswith(f"outside -{cap}..{cap} (MAX_LITERAL_EXPONENT)")


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
    # A name with no file in the directory is still an unknown presentation.
    assert run("ring", "poincare", "--ring", "absent") == (
        2,
        {"schema_version": 6, "error": "unknown presentation 'absent'"},
    )


def test_over_long_name_in_the_presentation_directory_is_unknown(tmp_path, monkeypatch):
    # A name past the file system's name limit (255 bytes on most) made the
    # lookup of <name>.json raise OSError (ENAMETOOLONG), a traceback and
    # exit 1; it is an unknown presentation like any name without a file.
    rng = random.Random(36)
    monkeypatch.setenv("DISTNAV_PRESENTATIONS", str(tmp_path))
    for length in (300, 5000):
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        assert run_all("ring", "poincare", "--ring", name) == (
            2,
            {"schema_version": 6, "error": f"unknown presentation {name!r}"},
            "",
        )


def test_non_koszul_parity_file_exits_3(tmp_path):
    data = presentation_to_dict(complex_projective(1))
    data["parity"] = "commutative"
    ring_file = tmp_path / "commutative.json"
    ring_file.write_text(json.dumps(data))
    code, out = run("ring", "poincare", "--ring", str(ring_file))
    assert code == 3
    assert "parity" in out["error"]


def test_loaded_chain_over_the_word_cap_exits_2(tmp_path, monkeypatch):
    # 24 degree-2 generators with g_i * g_(i+1) -> 0 counted 43508106 words
    # to degree 24 in 40.8 s, and 4000 rule-free ones, under the word cap,
    # took 20.8 s in poly_mul to degree 512: each is refused at its shipped
    # cap within seconds.
    shipped = (
        (24, 23, "24", f"counts over {gcring.MAX_SERIES_WORDS} admissible words (MAX_SERIES_WORDS)"),
        (4000, 0, "512", f"forms over {gcring.MAX_SERIES_PRODUCTS} coefficient products (MAX_SERIES_PRODUCTS)"),
    )
    for size, chained, degree, cap in shipped:
        gens = [{"id": f"g{i}", "degree": 2} for i in range(size)]
        rules = [{"lhs": [f"g{i}", f"g{i + 1}"], "rhs": []} for i in range(chained)]
        ring_file = tmp_path / f"shipped{size}.json"
        ring_file.write_text(json.dumps({"name": "shipped", "generators": gens, "rules": rules}))
        start = time.perf_counter()
        code, out, err = run_all("ring", "poincare", "--ring", str(ring_file), "--max-degree", degree)
        assert (code, err) == (2, "")
        assert out["error"] == f"Poincare series to degree {degree} {cap}"
        assert time.perf_counter() - start < 20
    # 12 chained generators, under a cap of 1000 words.
    gens = [{"id": f"g{i}", "degree": 2} for i in range(12)]
    rules = [{"lhs": [f"g{i}", f"g{i + 1}"], "rhs": []} for i in range(11)]
    ring_file = tmp_path / "chain.json"
    ring_file.write_text(json.dumps({"name": "chain", "generators": gens, "rules": rules}))
    monkeypatch.setattr(gcring, "MAX_SERIES_WORDS", 1000)
    code, out, err = run_all("ring", "poincare", "--ring", str(ring_file), "--max-degree", "4")
    assert (code, err, out["series"]) == (0, "", [1, 0, 12, 0, 67])
    code, out, err = run_all("ring", "poincare", "--ring", str(ring_file), "--max-degree", "24")
    assert (code, err) == (2, "")
    assert out["error"] == "Poincare series to degree 24 counts over 1000 admissible words (MAX_SERIES_WORDS)"


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "poincare", "--ring", "cp3", "--max-degree", str(MAX_SERIES_DEGREE + 1)),
        ("bound", "fn", "--d", "2", "--m", "2", "--n", "1", "--r", str(MAX_SERIES_DEGREE + 1)),
        ("ring", "poincare", "--ring", "cp3", "--max-degree", "-1"),
    ],
    ids=["ring-poincare", "bound-fn", "ring-poincare-negative"],
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
        ("s0", "sphere dimension must be >= 1"),
        ("conf:d=1,k=2", "need d >= 2 and k >= 1, got d=1, k=2"),
    ],
    ids=["rejected-parameters", "series-cap", "unknown", "non-integer", "missing-parameter", "sphere-range", "conf-range"],
)
def test_resolve_ring_keeps_catalog_messages(name, message):
    # Only a name the catalog does not know reads "unknown presentation";
    # a known family that rejects its parameters says why, still with exit 2.
    code, out = run("ring", "normal-form", "--ring", name, "--word", "w_1_2")
    assert code == 2
    assert out["error"] == message


@pytest.mark.parametrize(
    "argv",
    [
        ("ring", "poincare", "--ring", "fn:d=2,m=2,n=1,r=2"),
        ("bound", "fn", "--d", "2", "--m", "2", "--n", "1", "--r", "2"),
    ],
    ids=["ring-poincare", "bound-fn"],
)
def test_failed_catalog_gate_exits_3(argv, monkeypatch):
    # A failed dimension gate is a program fault, not a bad request: ring
    # poincare turned it into exit 2 where bound fn exited 3.
    closed_form = presentations.fn_poincare_formula
    monkeypatch.setattr(presentations, "fn_poincare_formula", lambda *args: [c + 1 for c in closed_form(*args)])
    presentations.fn_fiber_product.cache_clear()
    try:
        code, out, err = run_all(*argv)
    finally:
        presentations.fn_fiber_product.cache_clear()
    assert (code, err) == (3, "")
    assert "disagree with the product formula" in out["error"]


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


def test_bound_fn_checks_witness_work_before_building_the_ring(monkeypatch):
    def no_ring(*args):
        raise AssertionError("the fiber power was built")

    monkeypatch.setattr(cli, "fn_fiber_product", no_ring)
    code, out = run("bound", "fn", "--d", "2", "--m", "10", "--n", "1", "--r", "2")
    assert code == 2
    assert out["error"].endswith("(MAX_WITNESS_WORK)")
    # the witness degree is still checked first, as building the cell would
    code, out = run("bound", "fn", "--d", "2", "--m", "2", "--n", "1", "--r", str(MAX_SERIES_DEGREE + 1))
    assert code == 2
    assert out["error"].endswith("(MAX_SERIES_DEGREE)")


RULE_CAP = "rules, over the cap of 32768 (MAX_RING_RULES)"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("ring", "poincare", "--ring", "cp1500"), RULE_CAP),
        (("ring", "poincare", "--ring", "conf:d=2,k=120"), RULE_CAP),
        (("ring", "poincare", "--ring", "fn:d=2,m=120,n=1,r=2"), RULE_CAP),
        # The tower's degree 1500 * 1501 + 4 is checked before its base cp1500.
        (("bound", "sphere-bundle", "--n", "1500", "--r", "2"), "outside 0..512 (MAX_SERIES_DEGREE)"),
    ],
    ids=["cp", "conf", "fn", "sphere-bundle"],
)
def test_ring_over_rule_cap_exits_2_at_once(argv, error):
    # Each of these built its ring for over 20 s before answering or failing.
    start = time.perf_counter()
    code, out = run(*argv)
    assert code == 2
    assert out["error"].endswith(error)
    assert time.perf_counter() - start < 5


def test_confluence_over_candidate_cap_exits_2():
    # conf:d=2,k=40 has 293930 candidate triples, about 14 s of probing.
    code, out = run("ring", "confluence", "--ring", "conf:d=2,k=40")
    assert code == 2
    assert out["error"] == (
        "confluence probe of 'conf:d=2,k=40' has 293930 candidate triples, "
        "over the cap of 65536 (MAX_CONFLUENCE_CANDIDATES)"
    )


def test_loaded_star_presentation_exits_2_at_the_candidate_cap(tmp_path):
    # One hub with a rule against each of 400 other generators: the load
    # gate would build 80600 candidate triples.
    spokes = [f"g{i}" for i in range(1, 401)]
    data = {
        "name": "star",
        "generators": [{"id": g, "degree": 2} for g in ["g0", *spokes]],
        "rules": [{"lhs": ["g0", g], "rhs": []} for g in spokes],
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(data))
    code, out = run("ring", "poincare", "--ring", str(path))
    assert code == 2
    assert out["error"].endswith("(MAX_CONFLUENCE_CANDIDATES)")


def test_wide_presentation_without_rules_loads_and_probes_at_once(tmp_path):
    # 1500 generators and no rules: the full enumeration of triples took
    # over 120 s at load; no triple has two redexes.
    data = {"name": "wide", "generators": [{"id": f"g{i}", "degree": 1 + i % 2} for i in range(1500)]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out = run("ring", "confluence", "--ring", str(path))
    assert (code, out["passed"], out["triples_checked"], out["failures"]) == (0, True, 0, [])
    code, out = run("ring", "poincare", "--ring", str(path), "--max-degree", "3")
    assert code == 0
    # 750 odd generators of degree 1 and 750 even ones of degree 2
    assert out["series"] == [1, 750, 750 * 749 // 2 + 750, 750 * 749 * 748 // 6 + 750 * 750]
    assert time.perf_counter() - start < 10


def test_value_so3_with_huge_r_answers_at_once():
    # min(2^(r-1) - 1, 2r + 1) used to form the power first.
    start = time.perf_counter()
    code, out = run("value", "so3", "--r", "10000000000")
    assert code == 0
    assert (out["lower"], out["upper"]) == (9999999999, 20000000001)
    assert time.perf_counter() - start < 5


def test_missing_presentation_file_exits_2(tmp_path):
    # The CLI's own existence check said "presentation file ... not found";
    # the one reader of presentation and measure files now says why.
    path = str(tmp_path / "gone.json")
    code, out, err = run_all("ring", "poincare", "--ring", path)
    assert (code, err) == (2, "")
    assert out["error"].startswith(f"cannot read presentation file {path!r}: [Errno 2] ")


ONE_GENERATOR = [{"id": "x", "degree": 2}]

# Malformed presentation files: before the loader checked the document's
# shape, the string monomial and the bool degree were misread and the others
# printed a traceback.
MALFORMED_PRESENTATIONS = {
    "list": ([{"generators": ONE_GENERATOR}], "must be a JSON object"),
    "generators-string": ({"generators": "x"}, '"generators" must be a list of objects'),
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
    "coeff-over-exponent-cap": (
        {"generators": ONE_GENERATOR, "rules": [{"lhs": ["x", "x"], "rhs": [{"coeff": "1e1001", "monomial": []}]}]},
        "(MAX_LITERAL_EXPONENT)",
    ),
    # A missing key printed only the key, as Python's KeyError does.
    "no-generators": ({"name": "x"}, "no-generators.json' is missing the key 'generators'"),
    "no-degree": ({"generators": [{"id": "x"}]}, "no-degree.json' is missing the key 'degree'"),
    "no-rhs": ({"generators": ONE_GENERATOR, "rules": [{"lhs": ["x", "x"]}]}, "no-rhs.json' is missing the key 'rhs'"),
    "no-monomial": (
        {"generators": ONE_GENERATOR, "rules": [{"lhs": ["x", "x"], "rhs": [{"coeff": "1"}]}]},
        "no-monomial.json' is missing the key 'monomial'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PRESENTATIONS))
def test_malformed_presentation_file_exits_2(case, tmp_path):
    # Shape errors printed only the message, without the file.
    data, message = MALFORMED_PRESENTATIONS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    code, out, err = run_all("ring", "poincare", "--ring", str(path))
    assert (code, err) == (2, "")
    assert message in out["error"]
    assert out["error"].startswith((f"bad presentation in {str(path)!r}: ", f"presentation file {str(path)!r} "))


NUMERIC_COEFFICIENT_FILE = (
    '{"generators": [{"id": "a", "degree": 2, "rank": 1}, {"id": "b", "degree": 2}],'
    ' "rules": [{"lhs": ["a", "a"], "rhs": [{"coeff": %s, "monomial": ["b", "b"]}]}]}'
)


def test_rule_rhs_with_an_unknown_generator_exits_3(tmp_path):
    # As an unknown generator on the left side does; the right side printed
    # the bare KeyError 'c' and exited 2.
    path = tmp_path / "rhs.json"
    path.write_text(NUMERIC_COEFFICIENT_FILE.replace('["b", "b"]', '["c"]') % "1")
    code, out, err = run_all("ring", "poincare", "--ring", str(path))
    assert (code, err) == (3, "")
    assert out["error"] == f"bad presentation in {str(path)!r}: rule ('a', 'a') uses unknown generator 'c'"


def odd_square_file(path, rhs):
    """x of degree 1, y of degree 2, and the one rule x x -> rhs."""
    data = {
        "generators": [{"id": "x", "degree": 1}, {"id": "y", "degree": 2}],
        "rules": [{"lhs": ["x", "x"], "rhs": rhs}],
    }
    path.write_text(json.dumps(data))
    return str(path)


def test_odd_square_with_a_nonzero_right_side_exits_3(tmp_path):
    # x^2 = -x^2 over Q, so x x -> y forces y = 0 (series [1, 1, 0, 0]); the
    # engine drops odd squares before any rule applies, so this file printed
    # [1, 1, 1, 1] and passed the confluence check after 0 triples.
    path = odd_square_file(tmp_path / "oddsq.json", [{"coeff": "1", "monomial": ["y"]}])
    message = (
        f"bad presentation in {path!r}: rule ('x', 'x') gives the square of odd "
        "generator 'x' a nonzero right side"
    )
    for argv in (("poincare", "--ring", path, "--max-degree", "3"), ("confluence", "--ring", path)):
        assert run_all("ring", *argv) == (3, {"schema_version": 6, "error": message}, "")
    # An empty right side states what the sign rule already gives.
    path = odd_square_file(tmp_path / "oddsq-zero.json", [])
    code, out, err = run_all("ring", "poincare", "--ring", path, "--max-degree", "3")
    assert (code, out["series"], err) == (0, [1, 1, 1, 1], "")
    code, out, err = run_all("ring", "confluence", "--ring", path)
    assert (code, out["passed"], err) == (0, True, "")


@pytest.mark.parametrize(
    "coeff, answer",
    [
        ("1", "1"),
        ("0.5", "1/2"),
        ("-2", "-2"),
        ("1e400", "coefficient inf is not a finite rational"),
        ("true", "coefficient True is not a finite rational"),
    ],
)
def test_presentation_file_numeric_coefficients(coeff, answer, tmp_path):
    # A JSON number is a coefficient as it is; one that overflows to inf, or
    # a bool, exits 2.
    path = tmp_path / "numeric.json"
    path.write_text(NUMERIC_COEFFICIENT_FILE % coeff)
    code, out, err = run_all("ring", "normal-form", "--ring", str(path), "--word", "a,a")
    if answer.startswith("coefficient"):
        assert (code, err, out["error"]) == (2, "", f"bad presentation in {str(path)!r}: {answer}")
    else:
        assert (code, err, out["normal_form"]) == (0, "", [{"coeff": answer, "monomial": ["b", "b"]}])


# === bound group ===


def test_bound_fn_with_citation():
    code, out = run("bound", "fn", "--d", "3", "--m", "2", "--n", "1", "--r", "2", "--cite")
    assert code == 0
    assert out["bound"] == 3
    assert out["certificate"]["provenance"] == "fiber-product-diagonal-kernel-witness"
    tags = [c["tag"] for c in out["citations"]]
    assert tags == ["fiber-product-diagonal-kernel-witness"]
    assert out["citations"][0]["statement"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # A cell out of range is an argument error, as in value fn; it exited 3.
        (("fn", "--d", "1", "--m", "2", "--n", "1", "--r", "2"), "need d >= 2"),
        (("cup-length", "--d", "1", "--m", "2", "--n", "1", "--r", "2"), "need"),
        (("sphere-bundle", "--n", "1", "--r", "0"), "need"),
        # One factor built the whole tower and then failed as a certificate (3).
        (("sphere-bundle", "--n", "2", "--r", "1"), "need"),
        (("sphere-bundle", "--n", "0", "--r", "2"), "projective space dimension must be >= 1"),
    ],
    ids=["fn", "cup-length", "sphere-bundle", "sphere-bundle-one-factor", "sphere-bundle-no-base"],
)
def test_bound_bad_cells_exit_2(argv, message):
    code, out = run("bound", *argv)
    assert code == 2
    assert message in out["error"]


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (("value", "spheres", "--r", "2"), "--dims", "2,a"),
        (("value", "spheres", "--dims", "2,4", "--r", "2"), "--flips", "2,x"),
        (("bound", "sphere-bundle", "--n", "2", "--r", "2"), "--partition", "3;"),
    ],
    ids=["dims", "flips", "partition"],
)
def test_integer_list_flag_errors_name_the_flag(argv, flag, text):
    # They printed only "invalid literal for int() with base 10: 'a'".
    code, out, err = run_all(*argv, flag, text)
    assert (code, err) == (2, "")
    command = " ".join(argv[:2])
    assert out["error"] == f"distnav {command}: argument {flag}: {text!r} is not a comma-separated list of integers"


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


def test_bound_sphere_bundle_bad_partition_exits_2():
    # A partition that is not a composition of the height is a bad request;
    # both exited 3 as failed certificates.
    for r, partition in (("2", "1,1"), ("3", "1,-1")):
        code, out, err = run_all("bound", "sphere-bundle", "--n", "2", "--r", r, "--partition", partition)
        assert (code, err) == (2, "")
        assert "is not a nonnegative composition of the height 3" in out["error"]


def test_bound_cup_length():
    code, out = run("bound", "cup-length", "--d", "2", "--m", "2", "--n", "1", "--r", "2")
    assert code == 0
    assert out["cup_length"] == 2
    assert out["kernel_elements"]
    assert out["optimality"] == "probabilistic"
    assert out["error_bound"] == "3/2305843009213693952"  # (2 + 1) / 2^61


def test_bound_cup_length_top_degree_past_the_series_degree():
    # Every degree of fn:d=172,m=2,n=1,r=2 is a multiple of 171 and its top
    # degree is 513, past MAX_SERIES_DEGREE: the ceiling is 3, not 2, so
    # length 2 is probabilistic.  The Poincare series to 512 read 342, and
    # printed a false "ceiling".
    code, out, err = run_all("bound", "cup-length", "--d", "172", "--m", "2", "--n", "1", "--r", "2")
    assert (code, err) == (0, "")
    assert (out["cup_length"], out["optimality"]) == (2, "probabilistic")
    assert out["error_bound"] == "3/2305843009213693952"  # (2 + 1) / 2^61


def test_bound_cup_length_odd_d_reaches_the_ceiling():
    # r = 11 reaches its degree ceiling of 12 at MAX_CUP_LENGTH.
    for r, length in (("2", 3), ("11", 12)):
        code, out = run("bound", "cup-length", "--d", "3", "--m", "2", "--n", "1", "--r", r)
        assert code == 0
        assert (out["cup_length"], out["optimality"], out["error_bound"]) == (length, "ceiling", None)


def test_bound_cup_length_even_d_answers():
    # Even d never reaches the degree ceiling: the multiset search ran on
    # without a bound here, then exited 2 at its product limit.
    start = time.perf_counter()
    code, out = run("bound", "cup-length", "--d", "2", "--m", "3", "--n", "2", "--r", "3")
    assert code == 0
    assert (out["cup_length"], out["optimality"]) == (7, "probabilistic")
    assert time.perf_counter() - start < 60


def test_bound_cup_length_over_the_pairs_cap_exits_2(monkeypatch):
    # Cells whose degree ceiling passes MAX_CUP_LENGTH stop at the length cap.
    for cell in ((3, 2, 1, 12), (2, 2, 2, 7), (2, 2, 1, 150)):
        start = time.perf_counter()
        d, m, n, r = map(str, cell)
        code, out, err = run_all("bound", "cup-length", "--d", d, "--m", m, "--n", n, "--r", r)
        assert (code, err) == (2, "")
        assert out["error"] == (
            f"cup-length chain on fn:d={d},m={m},n={n},r={r} would pass the length cap "
            "of 12 (MAX_CUP_LENGTH); best so far 12"
        )
        assert time.perf_counter() - start < 20
    monkeypatch.setattr(bounds, "MAX_CHAIN_PAIRS", 40)
    code, out = run("bound", "cup-length", "--d", "2", "--m", "2", "--n", "1", "--r", "3")
    assert code == 2
    assert out["error"].startswith("cup-length chain on fn:d=2,m=2,n=1,r=3 would multiply")
    assert out["error"].endswith("(MAX_CHAIN_PAIRS); best so far 3")


# === value group ===


def test_value_fn_payload():
    # (4,2,1,2), under LIVE_WITNESS_WORK, is certified live as (2,3,2,3) is.
    for cell, exact in (((2, 3, 2, 3), 7), ((4, 2, 1, 2), 2)):
        d, m, n, r = map(str, cell)
        code, out = run("value", "fn", "--d", d, "--m", m, "--n", n, "--r", r)
        assert code == 0
        assert out["exact"] == exact
        assert out["provenance"][0]["kind"] == "certificate"


def test_value_fn_certificate_contradiction_exits_3(monkeypatch):
    # A certificate that disagrees with the closed form raised a bare
    # RuntimeError, which escaped main as a traceback.
    verify = knowledge.verify_witness_fn
    def short(fp):  # the certificate of one factor fewer
        cert = verify(fp)
        return dataclasses.replace(cert, factors=cert.factors[:-1])

    monkeypatch.setattr(knowledge, "verify_witness_fn", short)
    code, out, err = run_all("value", "fn", "--d", "2", "--m", "2", "--n", "1", "--r", "2")
    assert (code, err) == (3, "")
    assert out["error"] == "certificate bound 1 contradicts closed form 2"


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


class PowerFormed(Exception):
    """Raised by a stand-in for Fraction in knowledge: the cap let r through."""


def power_formed(*args):
    raise PowerFormed(args)


def test_threshold_cap_is_the_largest_finite_float(monkeypatch):
    cap = knowledge.MAX_THRESHOLD_R
    assert cap == 517
    code, out = run("value", "threshold", "--r", str(cap))
    assert code == 0
    assert Fraction(out["threshold"]) == Fraction(2 ** (2 * cap - 2) - 1, cap - 1)
    assert math.isfinite(out["threshold_float"])
    with pytest.raises(OverflowError):
        float(Fraction(2 ** (2 * cap) - 1, cap))  # the threshold at cap + 1
    # The check alone admits the cap: the threshold is built.
    monkeypatch.setattr(knowledge, "Fraction", power_formed)
    with pytest.raises(PowerFormed):
        knowledge.value_son_threshold(cap)


@pytest.mark.parametrize("r", ["518", "7150", str(10**9)])
def test_threshold_over_cap_exits_2_before_the_power(monkeypatch, r):
    monkeypatch.setattr(knowledge, "Fraction", power_formed)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["value", "threshold", "--r", r])
    assert code == 2
    assert json.loads(out.getvalue())["error"].startswith(f"r {r} is over the cap of 517 (MAX_THRESHOLD_R)")
    assert err.getvalue() == ""


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
    code, out = run("nav", "rpn", "--x", "1,0", "--y", "0,1,0")
    assert code == 2  # dimension mismatch
    code, out = run("nav", "rpn", "--x", "1,zz", "--y", "0,1")
    assert code == 2  # unparseable number


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


# Each vector reaches the norm check every planner shares; the CLI's own
# check said "bad vector '...': components must be finite".
NON_FINITE_VECTORS = {
    ("nav", "rpn", "--x", "1,0,0", "--y", "0,nan,0"): "[0.0, nan, 0.0] has norm nan",
    ("nav", "rpn", "--x", "inf,0,0", "--y", "0,1,0"): "[inf, 0.0, 0.0] has norm inf",
    ("nav", "circle", "--points", "1,0;nan,1"): "[nan, 1.0] has norm nan",
    ("nav", "circle", "--points", "1e400,0;0,1"): "[inf, 0.0] has norm inf",
}


@pytest.mark.parametrize("argv", list(NON_FINITE_VECTORS))
def test_non_finite_vector_exits_2_with_valid_json(argv):
    # A NaN component would otherwise flow into the plan and print as bare NaN.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (2, "")
    payload = strict_json(out.getvalue())
    assert payload["error"] == f"checkpoint {NON_FINITE_VECTORS[argv]}, not a finite nonzero length"


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
    code, out = run("nav", "circle", "--points", "1,0")
    assert code == 2
    assert "at least two checkpoints" in out["error"]


def test_nav_hopf_payload():
    code, out = run("nav", "hopf", "--points", "1,0,0,0;0,1,0,0")
    assert code == 0
    assert sorted(a["weight"] for a in out["atoms"]) == [0.25, 0.75]
    code, out = run("nav", "hopf", "--points", "1,0,0,0;0,0,1,0")
    assert code == 2
    assert "fiber" in out["error"]


RPN_V = [-0.3282917418630383, 0.2462188063972787, 0.9119215051751064]
CIRCLE_FRAMES = {"u": [[1.0, 0.0], [0.0, 1.0]], "v": [[-0.0, 1.0], [-1.0, 0.0]]}
HOPF_FRAMES = {"u": [[0.5, 0.5, 0.5, 0.5]], "v": [[-0.5, 0.5, 0.5, -0.5]]}


@pytest.mark.parametrize(
    "argv, data",
    [
        (
            ("rpn", "--x", "0.6,0.8,0", "--y", "0,0.6,0.8"),
            [{"u": [[0.6, 0.8, 0.0]], "v": [RPN_V], "angles": [a]}
             for a in (1.0701416143903084, -2.0714510391994847)],
        ),
        (
            ("circle", "--points", "1,0;0,1;-1,1"),
            # One quantile couples the pairs: three paths, by weight 3/4, 1/8, 1/8.
            [{**CIRCLE_FRAMES, "angles": list(a)} for a in (
                (1.5707963267948966, 0.7853981633974483),
                (-4.71238898038469, -5.497787143782138),
                (-4.71238898038469, 0.7853981633974483),
            )],
        ),
        (
            ("hopf", "--points", "0.5,0.5,0.5,0.5;-0.5,0.5,0.5,-0.5"),
            [{**HOPF_FRAMES, "angles": [a]} for a in (1.5707963267948966, -4.71238898038469)],
        ),
    ],
    ids=["rpn", "circle", "hopf"],
)
def test_nav_path_atoms_print_only_the_path_fields(argv, data):
    # A path's cached arrays are no dataclass field: data holds u, v and
    # angles alone, with the values the planners gave before the cache.
    code, out = run("nav", *argv)
    assert code == 0
    assert [a["data"] for a in out["atoms"]] == data
    assert all(list(a["data"]) == ["u", "v", "angles"] for a in out["atoms"])


@pytest.mark.parametrize(
    "argv",
    [
        ("nav", "circle", "--points", "1,0;0,1;-1,0;0,-1;1,1;-1,1;1,-1;-1,-1;2,1;1,2;3,1;1,3", "--grid", "1024"),
        ("value", "hopf", "--r", "2"),
    ],
    ids=["large", "small"],
)
def test_closed_stdout_exits_quietly(argv):
    # A reader that stops early (| head) closed the pipe under print, which
    # raised BrokenPipeError out of main as a traceback.  Here stdout is a
    # pipe whose read end is closed, so every write to it raises that error.
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout, err = open(write_end, "w"), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(list(argv))
        stdout.write("more")
        stdout.flush()  # now goes to os.devnull
    finally:
        stdout.close()
    assert code == cli.EXIT_CLOSED_STDOUT == 141
    assert err.getvalue() == ""


NAV_COMMANDS = [
    ("rpn", "--x", "1,0,0", "--y", "0,1,0"),
    ("circle", "--points", "1,0;0,1"),
    ("hopf", "--points", "1,0,0,0;0,1,0,0"),
]


@pytest.mark.parametrize("command", NAV_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("grid", ["1", "0"])
def test_nav_grid_below_two_exits_2(command, grid):
    # --grid 1 raised ZeroDivisionError; --grid 0 printed empty traces with exit 0.
    code, out, err = run_all("nav", *command, "--grid", grid)
    assert (code, err) == (2, "")
    assert "grid must be at least 2" in out["error"]


def test_nav_grid_cap():
    # --grid 100000000 ran for over 20 s; the cap is checked before any sampling.
    assert cli._grid_count(str(cli.MAX_GRID)) == cli.MAX_GRID
    with pytest.raises(argparse.ArgumentTypeError, match=f"at most {cli.MAX_GRID}"):
        cli._grid_count(str(cli.MAX_GRID + 1))


def test_trace_cap_admits_the_largest_plan_and_the_finest_grid():
    # A plan has at most one path per checkpoint, so the checkpoint cap bounds
    # the trace points one nav command prints.
    assert navplan.MAX_CHECKPOINTS * cli.MAX_GRID <= 2**16


@pytest.mark.parametrize(
    "command, points", [("circle", ("1,0", "0,1")), ("hopf", ("1,0,0,0", "0,1,0,0"))], ids=["circle", "hopf"]
)
def test_trace_over_cap_exits_2_before_sampling(command, points, monkeypatch):
    # 65 checkpoints at --grid 1024 are refused before any path is built.
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was built")

    monkeypatch.setattr(navplan, "ArcPath", no_paths)
    code, out = run("nav", command, "--points", ";".join(points * 32 + points[:1]), "--grid", "1024")
    assert code == 2
    assert "65 checkpoints" in out["error"] and "MAX_CHECKPOINTS" in out["error"]


@pytest.mark.parametrize("command", ["circle", "hopf"])
def test_points_over_cap_exit_2_before_any_vector_is_parsed(command, monkeypatch):
    # 30000 points took 0.11 s to exit 2: every vector was parsed before the
    # count was checked.
    parsed = []
    monkeypatch.setattr(cli, "_parse_vector", lambda text: parsed.append(text))
    code, out = run("nav", command, "--points", ";".join(["1,0"] * 30000))
    assert code == 2
    assert "30000 checkpoints" in out["error"] and "MAX_CHECKPOINTS" in out["error"]
    assert parsed == []


@pytest.mark.parametrize("command", ["circle", "hopf"])
def test_one_point_is_refused_before_its_vector_is_parsed(command, monkeypatch):
    # --points is counted by navplan's own checkpoint check, the one that
    # refuses 30000 points unparsed; "1,a" printed "bad vector '1,a'".
    parsed = []
    monkeypatch.setattr(cli, "_parse_vector", lambda text: parsed.append(text))
    code, out = run("nav", command, "--points", "1,a")
    assert (code, out["error"], parsed) == (2, "need at least two checkpoints", [])


def test_plan_at_checkpoint_cap_answers_at_finest_grid():
    e1 = np.array([0.5, 0.5, 0.5, 0.5])
    angles = np.linspace(0.0, 2 * math.pi, navplan.MAX_CHECKPOINTS, endpoint=False)
    quats = [navplan.quat_mul(e1, [math.cos(a), math.sin(a), 0.0, 0.0]) for a in angles]
    points = ";".join(",".join(repr(float(c)) for c in q) for q in quats)
    code, out = run("nav", "hopf", "--points", points, "--grid", str(cli.MAX_GRID))
    assert code == 0
    assert 1 <= out["support"] <= navplan.MAX_CHECKPOINTS
    assert all(len(atom["trace"]) == cli.MAX_GRID for atom in out["atoms"])


def test_verifier_dimension_cap():
    # --n 100000 drew a 10^5 x 10^5 normal matrix per rotation.
    assert cli._dimension(str(cli.MAX_VERIFIER_DIM)) == cli.MAX_VERIFIER_DIM
    with pytest.raises(argparse.ArgumentTypeError, match=f"at most {cli.MAX_VERIFIER_DIM}"):
        cli._dimension(str(cli.MAX_VERIFIER_DIM + 1))


@pytest.mark.parametrize("name", ["samples", "elements"])
def test_verifier_probe_cap(name):
    # Pairs were drawn up front and probed without bound.
    cap = cli.MAX_VERIFIER_PROBES
    cli._check_probes(cap, 1, name)
    cli._check_probes(1, cap, name)
    cli._check_probes(cap, 0, name)
    for pairs, per_pair in ((cap + 1, 1), (1, cap + 1), (cap + 1, 0), (0, cap + 1), (101, 100)):
        with pytest.raises(ValueError, match="MAX_VERIFIER_PROBES") as info:
            cli._check_probes(pairs, per_pair, name)
        assert f"--{name} {per_pair}" in str(info.value)


@pytest.mark.parametrize("command, flag", [("continuity", "--samples"), ("equivariance", "--elements")])
def test_verifier_over_probe_cap_exits_2(command, flag, monkeypatch):
    monkeypatch.setattr(cli, "MAX_VERIFIER_PROBES", 5)
    monkeypatch.setattr(cli, "_random_pairs", lambda *args: pytest.fail("pairs were drawn"))
    code, out = run("nav", command, "--pairs", "3", flag, "2")
    assert code == 2
    assert "MAX_VERIFIER_PROBES" in out["error"]


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
        # Overflowed in numpy and exited 2 as "representative ... has norm 0.0".
        (("continuity", "--scale", "1e308"), "--scale"),
        (("continuity", "--pairs", "abc"), "--pairs"),
        # numpy's "expected non-negative integer", naming no flag.
        (("continuity", "--seed", "-1"), "--seed"),
        (("equivariance", "--seed", "-1"), "--seed"),
    ],
)
def test_nav_verifier_bad_flags_exit_2(argv, flag):
    # --n 0 divided by zero (NaN results, exit 0 or 3); negative counts ran
    # 0 samples; --scale -1 was accepted; --tol nan printed invalid JSON.
    # Parser errors print a JSON error, and nothing on stderr.
    code, out, err = run_all("nav", *argv)
    assert (code, err) == (2, "")
    assert out["error"].startswith(f"distnav nav {argv[0]}: argument {flag}:")


def test_nav_rpn_rejects_vectors_of_length_one():
    # The constant plan divided by zero: NaN traces and "not valid JSON".
    code, out = run("nav", "rpn", "--x", "1", "--y", "1")
    assert code == 2
    assert "length at least 2" in out["error"]


def test_nav_rpn_over_length_cap_exits_2(monkeypatch):
    # Vectors of 10^5 components at --grid 1024 would sample 1.6 GB of points.
    cap = cli.MAX_RPN_LENGTH
    assert cap == cli.MAX_VERIFIER_DIM + 1
    at_cap = "1" + ",0" * (cap - 1)
    code, out = run("nav", "rpn", "--x", at_cap, "--y", "0,1" + ",0" * (cap - 2))
    assert code == 0 and len(out["atoms"][0]["trace"][0]) == cap
    monkeypatch.setattr(cli, "rpn_navigate", lambda *args: pytest.fail("a plan was built"))
    over = "1" + ",0" * cap
    for x, y, flag in ((over, at_cap, "--x"), (at_cap, over, "--y")):
        code, out = run("nav", "rpn", "--x", x, "--y", y)
        assert code == 2
        assert f"{flag} has {cap + 1} components" in out["error"] and "MAX_RPN_LENGTH" in out["error"]


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
    code, out = run("nav", command, "--points", ";".join([point] * 65))
    assert code == 2
    assert "cap of 64" in out["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("circle", "--points=-1,0;0,1"),
        ("hopf", "--points=-1,0,0,0;0,-1,0,0"),
        ("rpn", "--x=-1,0", "--y=0,-1"),
    ],
    ids=["circle", "hopf", "rpn"],
)
def test_nav_negative_first_coordinate_in_equals_form(argv):
    # argparse reads "--points -1,0;0,1" as a flag and stops with "expected
    # one argument", now as a JSON error; the "=" form passes the value.
    code, out = run("nav", *argv)
    assert code == 0
    assert out["checkpoints"][0][0] in (-1.0, 1.0)
    spaced = [part for arg in argv for part in arg.split("=")]
    code, out, err = run_all("nav", *spaced)
    assert (code, err) == (2, "")
    assert out["error"].endswith("expected one argument")


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


def test_nav_continuity_probe_does_not_replay_the_pair_stream():
    # The probe was seeded with --seed, the seed the pairs were drawn with,
    # so its first sample moved both points along themselves, by rounding
    # only, and flagged LP 1.9e-15 as a failure.
    code, out, err = run_all("nav", "continuity", "--n", "1", "--pairs", "1", "--samples", "1", "--seed", "3")
    assert (code, err, out["failures"]) == (0, "", [])
    assert out["max_discrepancy"] > 1e-6  # moved by about --scale, not by rounding


# === measure group ===


def test_measure_lp_and_product(tmp_path):
    mu = write_measure(tmp_path / "mu.json", [([0.0, 0.0], "1/2"), ([1.0, 0.0], "1/2")])
    nu = write_measure(tmp_path / "nu.json", [([0.0, 0.0], "1/2"), ([1.0, 0.0], "1/2")])
    code, out = run("measure", "lp", "--mu", mu, "--nu", nu)
    assert code == 0
    assert out["distance"] == 0.0

    far = write_measure(tmp_path / "far.json", [([0.25, 0.0], 1)])
    near = write_measure(tmp_path / "near.json", [([0.0, 0.0], 1)])
    code, out = run("measure", "lp", "--mu", far, "--nu", near)
    assert code == 0
    assert list(out) == ["schema_version", "command", "distance"]
    assert out["distance"] == 0.25

    code, out = run("measure", "product", "--mu", mu, "--nu", far)
    assert code == 0
    assert out["mode"] == "exact"
    assert out["support"] == 2
    assert sorted(a["weight"] for a in out["atoms"]) == ["1/2", "1/2"]


def run_bytes(*argv):
    """Exit code and raw stdout of one invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize(
    "mu, nu, shapes",
    [
        ("three", "two", "(3,) and (2,)"),  # across, mu's shape first
        ("two", "three", "(2,) and (3,)"),  # across, nu's shape second
        ("mixed", "three", "(2,) and (3,)"),  # within mu
        ("two", "mixed", "(2,) and (3,)"),  # within nu, which starts at mu's shape
        ("three", "mixed", "(3,) and (2,)"),  # nu mixed, starting at another shape
        # Broadcasting compared (3,) with () and printed a distance, exit 0.
        ("space", "line", "(3,) and (1,)"),
        # A file mixing 2-d and 1-d points printed 0.1 with exit 0.
        ("plane-line", "plane-line", "(2,) and (1,)"),
    ],
)
def test_measure_lp_coordinate_shape_message_in_every_order(tmp_path, mu, nu, shapes):
    # The first point's shape against the first that differs, over mu's
    # points and then nu's.
    files = {
        "three": write_measure(tmp_path / "three.json", [([0.0, 0.0, 1.0], 1)]),
        "two": write_measure(tmp_path / "two.json", [([0.0, 1.0], 1)]),
        "mixed": write_measure(tmp_path / "mixed.json", [([0, 0], "1/2"), ([1, 0, 0], "1/2")]),
        "space": write_measure(tmp_path / "space.json", [([0.1, 0.2, 0.3], "1/2"), ([0.0, 0.5, -0.3], "1/2")]),
        "line": write_measure(tmp_path / "line.json", [(0.5, "1/4"), (0.1, "3/4")]),
        "plane-line": write_measure(tmp_path / "plane-line.json", [([0.0, 0.0], "1/2"), ([0.1], "1/2")]),
    }
    code, out = run("measure", "lp", "--mu", files[mu], "--nu", files[nu])
    assert code == 2
    assert out == {"schema_version": 6, "error": f"points of coordinate shapes {shapes} cannot be compared"}


def test_measure_lp_numbers_and_one_element_lists_compare(tmp_path):
    # A number is a point of the line, the same as a one-element list, also
    # next to one in the same file.
    mixed = write_measure(tmp_path / "mixed.json", [(0.5, "1/2"), ([0.25], "1/2")])
    one = write_measure(tmp_path / "one.json", [([0.75], 1)])
    code, text = run_bytes("measure", "lp", "--mu", mixed, "--nu", one)
    assert code == 0
    assert json.loads(text) == {"schema_version": 6, "command": "measure lp", "distance": 0.5}
    assert run_bytes("measure", "lp", "--mu", one, "--nu", mixed) == (code, text)
    assert run("measure", "lp", "--mu", mixed, "--nu", mixed) == (0, {"schema_version": 6, "command": "measure lp", "distance": 0.0})


def test_measure_lp_up_to_64_atoms(tmp_path):
    # 13 to 64 atoms exited 2 at the subset table's cap of 12; the max flow
    # answers there, symmetric bit for bit, and 65 atoms exit 2.
    rng = np.random.default_rng(64)

    def atoms(count):
        return [(rng.uniform(-1, 1, 3).tolist(), f"1/{count}") for _ in range(count)]

    wide, narrow, over = (write_measure(tmp_path / f"{n}.json", atoms(n)) for n in (64, 40, 65))
    start = time.perf_counter()
    code, out = run("measure", "lp", "--mu", wide, "--nu", narrow)
    assert code == 0 and 0.0 < out["distance"] < 1.0
    assert run("measure", "lp", "--mu", narrow, "--nu", wide) == (code, out)
    assert time.perf_counter() - start < 10
    code, out = run("measure", "lp", "--mu", narrow, "--nu", over)
    assert code == 2
    assert out["error"].endswith("a support of 65 atoms is over the cap of 64 (MAX_SUPPORT)")


@pytest.mark.parametrize("precision", ["nan", "inf", "0", "-1", "1e-6"])
def test_measure_lp_rejects_bad_precision(tmp_path, precision):
    # --precision is gone, good values included: the distance is exact.
    point = write_measure(tmp_path / "point.json", [([0.0], 1)])
    code, out, err = run_all("measure", "lp", "--mu", point, "--nu", point, "--precision", precision)
    assert (code, err) == (2, "")
    assert "unrecognized arguments: --precision" in out["error"]


# Malformed measure files: strings and objects as points died inside numpy,
# "1/0" raised ZeroDivisionError, and a true weight was read as exact 1.
MALFORMED_MEASURES = {
    "point-string": ({"point": "ab", "weight": 1}, "a point is a number or a list of numbers"),
    "point-object": ({"point": {"x": 1.0}, "weight": 1}, "a point is a number or a list of numbers"),
    "coordinate-bool": ({"point": [True, 0.0], "weight": 1}, "a point is a number or a list of numbers"),
    # Past the largest float: float() raises OverflowError.
    "coordinate-400-digits": ({"point": [10**399, 0.0], "weight": 1}, "a point is a number or a list of numbers"),
    "weight-zero-denominator": ({"point": [0.0], "weight": "1/0"}, 'not a number or a "p/q" string'),
    "weight-bool": ({"point": [0.0], "weight": True}, 'not a number or a "p/q" string'),
    "weight-list": ({"point": [0.0], "weight": [1]}, 'not a number or a "p/q" string'),
    # These printed Python's "list indices must be integers or slices, not
    # str" and the bare KeyError 'weight'.
    "record-list": ([1, 2], "a measure must be a list of objects"),
    "no-weight": ({"point": [0.0]}, "bad.json' is missing the key 'weight'"),
    "no-point": ({"weight": 1}, "bad.json' is missing the key 'point'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MEASURES))
def test_malformed_measure_file_exits_2(case, tmp_path):
    record, message = MALFORMED_MEASURES[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([record]))
    good = write_measure(tmp_path / "good.json", [([0.0], 1)])
    code, out, err = run_all("measure", "lp", "--mu", str(bad), "--nu", good)
    assert (code, err) == (2, "")
    assert message in out["error"] and str(bad) in out["error"]


def test_measure_file_that_is_an_object_exits_2(tmp_path):
    # It printed Python's "string indices must be integers, not 'str'".
    bad = tmp_path / "object.json"
    bad.write_text(json.dumps({"a": 1}))
    good = write_measure(tmp_path / "good.json", [([0.0], 1)])
    code, out, err = run_all("measure", "lp", "--mu", str(bad), "--nu", good)
    assert (code, err) == (2, "")
    assert out["error"] == f"bad measure in {str(bad)!r}: a measure must be a list of objects"


def test_measure_file_with_a_5000_digit_weight_names_the_file(tmp_path):
    # Python's own int-digit error escaped, without the file's name.
    bad = tmp_path / "digits.json"
    bad.write_text('[{"point": [0.0], "weight": ' + "1" * 5000 + "}]")
    good = write_measure(tmp_path / "good.json", [([0.0], 1)])
    code, out, err = run_all("measure", "lp", "--mu", str(bad), "--nu", good)
    assert (code, err) == (2, "")
    assert out["error"] == f"bad measure in {str(bad)!r}: an integer has over 4300 digits"


@pytest.mark.parametrize(
    "weight, digits", [(9 * 10**4299, 4301), (10**4299, 4300)], ids=["4301-digit-sum", "4300-digit-sum"]
)
def test_huge_weight_sum_is_not_printed(tmp_path, weight, digits):
    # Two 4300-digit weights: a 4301-digit sum printed Python's int-digit
    # error, a 4300-digit one the whole sum.
    bad = tmp_path / "hugew.json"
    bad.write_text(json.dumps([{"point": [0.0], "weight": weight}, {"point": [1.0], "weight": weight}]))
    good = write_measure(tmp_path / "good.json", [([0.0], 1)])
    code, out, err = run_all("measure", "lp", "--mu", str(bad), "--nu", good)
    assert (code, err) == (2, "")
    assert out["error"] == (
        f"bad measure in {str(bad)!r}: weights sum to a rational of {digits} digits over 1, expected exactly 1"
    )
    assert "set_int_max_str_digits" not in out["error"]


def test_measure_file_numbers_as_points(tmp_path):
    mu = write_measure(tmp_path / "mu.json", [(0.5, 1)])
    nu = write_measure(tmp_path / "nu.json", [(0.5, "1/2"), (1, 0.5)])
    code, out = run("measure", "lp", "--mu", mu, "--nu", nu)
    assert code == 0 and out["distance"] == 0.5


# JSON files that cannot be read: a directory and a 5000-deep nest ended in
# tracebacks with exit 1, and undecodable bytes exited 2 without naming the
# file.  "--ring-env" finds the file through $DISTNAV_PRESENTATIONS.
UNREADABLE_FILES = {
    "directory": (lambda path: path.mkdir(), "Is a directory"),
    "deep": (lambda path: path.write_text("[" * 5000 + "]" * 5000), "nests too deeply to parse"),
    "undecodable": (lambda path: path.write_bytes(b"\xff\xfe["), "codec can't decode"),
}


@pytest.mark.parametrize("flag", ["--ring", "--ring-env", "--mu", "--nu"])
@pytest.mark.parametrize("failure", sorted(UNREADABLE_FILES))
def test_unreadable_json_file_exits_2(failure, flag, tmp_path, monkeypatch):
    make, message = UNREADABLE_FILES[failure]
    path = tmp_path / "x.json"
    make(path)
    good = write_measure(tmp_path / "good.json", [([0.0], 1)])
    argv = {
        "--ring": ("ring", "confluence", "--ring", str(path)),
        "--ring-env": ("ring", "confluence", "--ring", "x"),
        "--mu": ("measure", "lp", "--mu", str(path), "--nu", good),
        "--nu": ("measure", "lp", "--mu", good, "--nu", str(path)),
    }[flag]
    monkeypatch.setenv("DISTNAV_PRESENTATIONS", str(tmp_path))
    code, out, err = run_all(*argv)
    assert (code, err) == (2, "")
    assert repr(str(path)) in out["error"] and message in out["error"]


def test_endless_json_file_exits_2(tmp_path, monkeypatch):
    # The whole file was read: /dev/zero grew until memory ran out.  Now at
    # most MAX_JSON_BYTES + 1 bytes are read.
    monkeypatch.setattr(gcring, "MAX_JSON_BYTES", 1024)
    good = write_measure(tmp_path / "good.json", [([0.0], 1)])
    code, out, err = run_all("measure", "lp", "--mu", "/dev/zero", "--nu", good)
    assert (code, err) == (2, "")
    assert out["error"] == "measure file '/dev/zero' is over the cap of 1024 bytes (MAX_JSON_BYTES)"


def test_loaded_presentation_over_the_rule_cap_exits_2(tmp_path, monkeypatch):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(presentation_to_dict(config_space(2, 5))))
    monkeypatch.setattr(gcring, "MAX_RING_RULES", 9)
    code, out, err = run_all("ring", "confluence", "--ring", str(path))
    assert (code, err) == (2, "")
    assert out["error"] == (
        f"bad presentation in {str(path)!r}: presentation 'conf:d=2,k=5' has 10 rules, over the cap of 9 (MAX_RING_RULES)"
    )


def test_large_finite_coordinates_give_no_numpy_warning(tmp_path):
    # Each printed an overflow RuntimeWarning on stderr; nav circle then
    # refused its finite checkpoint as "has norm inf".
    far = write_measure(tmp_path / "far.json", [([1e308, 1e308], 1)])
    near = write_measure(tmp_path / "near.json", [([-1e308, -1e308], 1)])
    code, out, err = run_all("measure", "lp", "--mu", far, "--nu", near)
    assert (code, err, out["distance"]) == (0, "", 1.0)
    for points in ("1e200,0;0,1", "1e-320,0;0,1"):
        code, out, err = run_all("nav", "circle", "--points", points)
        assert (code, err, out["checkpoints"]) == (0, "", [[1.0, 0.0], [0.0, 1.0]]), points
    # nav rpn scales its vectors as nav circle does, so this plans between
    # the lines of (1, 1, 0) and (0, 1, 0).
    code, out, err = run_all("nav", "rpn", "--x", "1e200,1e200,0", "--y", "0,1,0")
    assert (code, err) == (0, "")
    assert out == run("nav", "rpn", "--x", "1,1,0", "--y", "0,1,0")[1]


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


# Flags that had no effect, removed in schema version 3: --json on every
# subcommand, and --r of nav circle and nav hopf, which had to equal the
# number of --points (measure lp --precision is tested above).  Schema
# version 6 removed --budget of bound cup-length, whose cap is MAX_CUP_LENGTH.
REMOVED_FLAGS = [(argv, ("--json",)) for argv in SUBCOMMANDS] + [
    (("nav", "circle", "--points", "1,0;0,1"), ("--r", "2")),
    (("nav", "hopf", "--points", "1,0,0,0;0,1,0,0"), ("--r", "2")),
    (("bound", "cup-length", "--d", "3", "--m", "2", "--n", "1", "--r", "2"), ("--budget", "12")),
]


@pytest.mark.parametrize(
    "argv, flag", REMOVED_FLAGS, ids=[f"{argv[0]}-{argv[1]}{flag[0]}" for argv, flag in REMOVED_FLAGS]
)
def test_removed_flags_exit_2(argv, flag, tmp_path):
    measure = write_measure(tmp_path / "mu.json", [([0.0, 0.0], "1/2"), ([1.0, 0.0], "1/2")])
    code, out, err = run_all(*(measure if a == "MEASURE" else a for a in argv), *flag)
    assert (code, err) == (2, "")
    assert out == {"schema_version": 6, "error": f"distnav: unrecognized arguments: {' '.join(flag)}"}


def test_cite_absent_without_flag():
    _, out = run("value", "so3", "--r", "2")
    assert "citations" not in out


def test_argparse_failures_exit_2():
    # Each printed usage on stderr and nothing on stdout.
    for argv, error in (
        (("no-such-group",), "distnav: argument group: invalid choice: 'no-such-group'"),
        (("ring", "poincare"), "distnav ring poincare: the following arguments are required: --ring"),
        ((), "distnav: the following arguments are required: group"),
        (("nav", "rpn", "--x", "1,0", "--y", "0,1", "--grid", "1"), "distnav nav rpn: argument --grid: grid"),
    ):
        code, out, err = run_all(*argv)
        assert (code, err) == (2, ""), argv
        assert list(out) == ["schema_version", "error"] and out["error"].startswith(error), argv


def test_help_still_prints_usage():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(["value", "--help"])
    assert info.value.code == 0 and out.getvalue().startswith("usage: distnav value")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["value", "--help"]) == 0


class UnreadAtoms(tuple):
    """Atoms whose count may be read but which fail the test when iterated."""

    def __iter__(self):
        pytest.fail("an atom was read")


def test_measure_product_over_atom_cap_exits_2(tmp_path, monkeypatch):
    # Two 300-atom files built 90000 atoms and printed 15 MB.
    mu = write_measure(tmp_path / "mu.json", [([float(i)], "1/2") for i in range(2)])
    nu = write_measure(tmp_path / "nu.json", [([float(i)], "1/3") for i in range(3)])
    monkeypatch.setattr(measures, "MAX_PRODUCT_ATOMS", 6)
    code, out = run("measure", "product", "--mu", mu, "--nu", nu)
    assert code == 0 and out["support"] == 6
    monkeypatch.setattr(measures, "MAX_PRODUCT_ATOMS", 5)
    parse = cli.measure_from_jsonable

    def parse_unread(data):
        measure = parse(data)
        measure.atoms = UnreadAtoms(measure.atoms)
        return measure

    monkeypatch.setattr(cli, "measure_from_jsonable", parse_unread)
    code, out = run("measure", "product", "--mu", mu, "--nu", nu)
    assert code == 2
    assert "2 and 3 atoms has 6" in out["error"] and "MAX_PRODUCT_ATOMS" in out["error"]


def test_measure_product_over_weight_digits_exits_2(tmp_path):
    # Each weight is 2202 characters, within MAX_LITERAL_LENGTH; the product
    # of 10^-2200 with itself has a 4401-digit denominator, which Python
    # refused to print.
    small, large = "0." + "0" * 2199 + "1", "0." + "9" * 2200
    mu = write_measure(tmp_path / "mu.json", [([0.0], small), ([1.0], large)])  # sums to 1
    code, out = run("measure", "product", "--mu", mu, "--nu", mu)
    assert code == 2
    assert out["error"] == (
        "a product weight has over 4300 digits above or below the line (MAX_WEIGHT_DIGITS)"
    )
    # One factor of that size prints: 2201 digits below the line.
    nu = write_measure(tmp_path / "nu.json", [([0.0], 1)])
    code, out = run("measure", "product", "--mu", mu, "--nu", nu)
    assert code == 0 and out["support"] == 2
