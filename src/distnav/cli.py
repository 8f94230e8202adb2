"""Command-line front end.

Every subcommand, --help aside, prints a single JSON document on standard
output with a schema_version field, parser errors included.  Exit codes: 0
success, 2 argument error or a request over a work cap, 3 validation or
certificate failure, 141 when the reader closes standard output early.
--cite appends the provenance statements behind the numbers.

Presentation names resolve against the built-in catalog first, then
against ``$DISTNAV_PRESENTATIONS`` (a directory of ``<name>.json`` files);
a literal path to a ``.json`` file also works.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .bounds import (
    CertificateError,
    certificate_to_dict,
    check_witness_work,
    copy_differences,
    cup_length_kernel,
    diagonal_fn,
    sphere_bundle_lower_bound,
    verify_witness_fn,
)
from .gcring import (
    PresentationError,
    check_confluence,
    element,
    element_to_json,
    load_presentation_json,
    normal_form,
    parse_rational,
    poincare_series,
    read_json_file,
    scale,
)
from .knowledge import (
    REGISTRY,
    record_to_jsonable,
    value_associate_upper,
    value_fadell_neuwirth,
    value_hopf,
    value_product_spheres,
    value_so3_bundle,
    value_son_threshold,
)
from .measures import (
    euclidean_metric,
    lp_distance,
    measure_from_jsonable,
    measure_to_jsonable,
    product_measure,
    to_jsonable,
)
from .navplan import (
    MAX_GRID,
    PathPlan,
    _check_checkpoint_count,
    _grid_times,
    _unit,
    check_equivariance,
    check_lp_continuity,
    circle_navigate,
    hopf_parametrized_navigate,
    rpn_navigate,
)
from .presentations import catalog, cpn_sphere_bundle, fn_fiber_product

SCHEMA_VERSION = 6
# Exit code when the reader closes stdout before the JSON is written (as in
# ``| head``): 128 + SIGPIPE, the status a shell reports for a writer that
# the signal ended.
EXIT_CLOSED_STDOUT = 141
ENV_PRESENTATIONS = "DISTNAV_PRESENTATIONS"
# --n of nav continuity and nav equivariance.  A random n x n rotation takes
# 0.2 ms at n = 64, so MAX_VERIFIER_PROBES of them take 2 s, but 2 ms at 128
# and 120 ms at 1024; --n 100000 would draw a 10^5 x 10^5 normal matrix
# (80 GB).
MAX_VERIFIER_DIM = 64
# Vector length of nav rpn: a line in R^(n+1) for n up to MAX_VERIFIER_DIM,
# the projective dimension the verifiers take.
MAX_RPN_LENGTH = MAX_VERIFIER_DIM + 1
# Plan comparisons one verifier run may make: pairs x samples or pairs x
# elements, where a zero count counts as 1 (the other side is still drawn).
# At the cap, with --n 64, equivariance ran in 4.0 s (100 x 100) and 6.5 s
# (1 pair x 10000 rotations), continuity in 3.3 s (single runs on a shared
# 2-core host).
MAX_VERIFIER_PROBES = 10_000
# Decimal digits a printed product weight may have above or below the line:
# Python's default limit on int-to-str conversion.  Each factor's literal is
# within gcring.MAX_LITERAL_LENGTH, but a product has about the digits of
# both, so two 2202-character weights gave 4401-digit denominators.
MAX_WEIGHT_DIGITS = 4300


# -- shared helpers ---------------------------------------------------------------


def _dumps(payload: dict) -> str:
    # NaN and infinity are not JSON: refuse them instead of printing bare tokens.
    return json.dumps(payload, indent=2, default=to_jsonable, allow_nan=False)


def _emit(text: str) -> bool:
    """Print text and flush it; False when the reader closed stdout first.

    Then stdout is pointed at os.devnull, so the flush at exit writes what
    is left of the buffer nowhere instead of raising again.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _resolve_ring(name: str):
    """A literal ``.json`` path, loaded as it is, else a catalog name, else
    ``<name>.json`` in ``$DISTNAV_PRESENTATIONS`` if that file exists.

    The catalog's errors pass through: a known family that rejects its
    parameters raises ValueError (exit 2), a failed dimension gate
    PresentationError (exit 3), as under ``bound fn``."""
    if name.endswith(".json"):
        return load_presentation_json(name)
    try:
        return catalog(name)
    except KeyError:
        pass  # not a catalog name: try the presentation directory
    env = os.environ.get(ENV_PRESENTATIONS)
    if env:
        path = os.path.join(env, f"{name}.json")
        # os.path.exists, unlike Path.exists, is False for a name the file
        # system refuses, such as one over its length limit (ENAMETOOLONG).
        if os.path.exists(path):
            return load_presentation_json(path)
    raise ValueError(f"unknown presentation {name!r}")


def _parse_vector(text: str) -> np.ndarray:
    """The comma-separated floats of text; the planners refuse non-finite ones."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad vector {text!r}: {exc}") from None


def _parse_points(text: str) -> list[np.ndarray]:
    """The ";"-separated vectors of --points, counted by the planners' own
    checkpoint check before any of them is parsed."""
    chunks = [chunk for chunk in text.split(";") if chunk]
    _check_checkpoint_count(len(chunks), chunks)
    return [_parse_vector(chunk) for chunk in chunks]


def _flag(name: str, cast, low, high=math.inf):
    """argparse type of a flag: cast(text), finite and in [low, high]."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} {text!r} is not of type {cast.__name__}") from None
        if not low <= value <= high or value == math.inf:  # NaN fails the comparison
            cap = f" and at most {high}" if high < math.inf else ""
            raise argparse.ArgumentTypeError(f"{name} must be at least {low}{cap}, and finite; got {text}")
        return value

    return parse


def _int_list(text: str) -> list[int]:
    """argparse type of the comma-separated integer flags."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers") from None


# --grid keeps both endpoints, so it takes at least 2 samples.
_grid_count = _flag("grid", int, 2, MAX_GRID)
_dimension = _flag("n", int, 1, MAX_VERIFIER_DIM)


def _parse_word(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def _plan_payload(plan: PathPlan, grid: int = 9) -> dict:
    times = _grid_times(grid)
    atoms = [
        {
            "weight": float(weight),
            "kind": type(path).__name__,
            "data": dataclasses.asdict(path),
            "trace": path.sample(times).tolist(),
        }
        for path, weight in plan.measure.atoms
    ]
    atoms.sort(key=lambda a: -a["weight"])
    return {
        "r": plan.r,
        "checkpoints": plan.checkpoints,
        "support": len(plan.measure),
        "weight_sum": float(plan.measure.total_mass()),
        "atoms": atoms,
    }


def _random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        if n == 1:  # one column: no swap, the only rotation is [[1]]
            return -q
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


# -- ring subcommands --------------------------------------------------------------


def _cmd_ring_normal_form(args) -> tuple[dict, list[str], int]:
    ring = _resolve_ring(args.ring)
    word = _parse_word(args.word)
    # Rewritten at coefficient 1, so that at --coeff 0 the kernel still sees the word.
    monomial = normal_form(ring, element([(1, word)]))
    invalid = f"coefficient {args.coeff!r} is not a rational literal such as 3/2 or -2.5e-3"
    coeff = parse_rational(args.coeff, invalid)
    nf = scale(coeff, monomial)
    payload = {
        "ring": args.ring,
        "input": {"coeff": coeff, "monomial": list(word)},
        "normal_form": element_to_json(nf),
        "zero": not nf.terms,
    }
    return payload, [], 0


def _cmd_ring_poincare(args) -> tuple[dict, list[str], int]:
    series = poincare_series(_resolve_ring(args.ring), args.max_degree)
    return {"ring": args.ring, "max_degree": args.max_degree, "series": series}, [], 0


def _cmd_ring_confluence(args) -> tuple[dict, list[str], int]:
    ring = _resolve_ring(args.ring)
    report = check_confluence(ring)
    payload = {
        "ring": args.ring,
        "passed": report.passed,
        "triples_checked": report.triples_checked,
        "failures": [
            {"word": list(word), "detail": detail}
            for word, detail in report.failures
        ],
    }
    return payload, [], 0 if report.passed else 3


# -- bound subcommands ---------------------------------------------------------------


def _cmd_bound_fn(args) -> tuple[dict, list[str], int]:
    # The witness bound is closed-form: a cell over it exits 2 before its
    # ring is built.
    check_witness_work(args.d, args.m, args.n, args.r)
    fp = fn_fiber_product(args.d, args.m, args.n, args.r)
    cert = verify_witness_fn(fp)
    payload = {
        "parameters": {"d": args.d, "m": args.m, "n": args.n, "r": args.r},
        "bound": cert.bound,
        "certificate": certificate_to_dict(cert),
    }
    return payload, [cert.provenance], 0


def _cmd_bound_sphere_bundle(args) -> tuple[dict, list[str], int]:
    tower = cpn_sphere_bundle(args.n, args.r)
    cert = sphere_bundle_lower_bound(tower, args.partition)
    payload = {
        "parameters": {"n": args.n, "r": args.r, "q": tower.q},
        # the certified bound is h + r - 1 for the height h of the section class
        "height": cert.bound - tower.r + 1,
        "bound": cert.bound,
        "certificate": certificate_to_dict(cert),
    }
    return payload, [cert.provenance], 0


def _cmd_bound_cup_length(args) -> tuple[dict, list[str], int]:
    fp = fn_fiber_product(args.d, args.m, args.n, args.r)
    differences = copy_differences(fp)
    length = cup_length_kernel(fp.ring, diagonal_fn(fp), list(differences.values()))
    payload = {
        "parameters": {"d": args.d, "m": args.m, "n": args.n, "r": args.r},
        "kernel_elements": list(differences),
        "cup_length": int(length),
        "optimality": length.optimality,
        "error_bound": length.error_bound,
    }
    return payload, ["diagonal-kernel-cup-length-lower"], 0


# -- value subcommands ----------------------------------------------------------------


def _record_payload(record) -> tuple[dict, list[str], int]:
    return record_to_jsonable(record), [entry.tag for entry in record.provenance], 0


def _cmd_value_fn(args):
    return _record_payload(value_fadell_neuwirth(args.d, args.m, args.n, args.r))


def _cmd_value_so3(args):
    return _record_payload(value_so3_bundle(args.r))


def _cmd_value_spheres(args):
    return _record_payload(value_product_spheres(args.dims, args.r, args.flips))


def _cmd_value_associate(args):
    payload = {"equivariant_input": args.dtc, "upper": value_associate_upper(args.dtc)}
    return payload, ["associate-bundle-square-upper"], 0


def _cmd_value_threshold(args):
    t = value_son_threshold(args.r)
    payload = {
        "r": args.r,
        "threshold": t,
        "threshold_float": float(t),
        "numerator": t.numerator,
        "denominator": t.denominator,
    }
    return payload, ["rotation-threshold"], 0


def _cmd_value_hopf(args):
    return _record_payload(value_hopf(args.r))


# -- nav subcommands --------------------------------------------------------------------


def _cmd_nav_rpn(args) -> tuple[dict, list[str], int]:
    x = _parse_vector(args.x)
    y = _parse_vector(args.y)
    for flag, vector in (("--x", x), ("--y", y)):
        if len(vector) > MAX_RPN_LENGTH:
            raise ValueError(
                f"{flag} has {len(vector)} components, over the cap of "
                f"{MAX_RPN_LENGTH} (MAX_RPN_LENGTH)"
            )
    plan = rpn_navigate(x, y)
    return _plan_payload(plan, grid=args.grid), ["projective-equivariant-planner"], 0


def _cmd_nav_sequential(args) -> tuple[dict, list[str], int]:
    """nav circle and nav hopf: ``args.planner`` through the checkpoints."""
    points = _parse_points(args.points)
    plan = args.planner(len(points), points)
    return _plan_payload(plan, grid=args.grid), ["circle-fiber-value"], 0


def _check_probes(pairs: int, per_pair: int, name: str) -> None:
    """Refuse a verifier run of more than MAX_VERIFIER_PROBES comparisons."""
    probes = max(pairs, 1) * max(per_pair, 1)
    if probes > MAX_VERIFIER_PROBES:
        raise ValueError(
            f"--pairs {pairs} x --{name} {per_pair} is {probes} comparisons, over the cap "
            f"of {MAX_VERIFIER_PROBES} (MAX_VERIFIER_PROBES)"
        )


def _random_pairs(rng: np.random.Generator, args) -> list[tuple[np.ndarray, np.ndarray]]:
    dim = args.n + 1
    return [(_unit(rng.normal(size=dim), dim), _unit(rng.normal(size=dim), dim)) for _ in range(args.pairs)]


def _cmd_nav_continuity(args) -> tuple[dict, list[str], int]:
    _check_probes(args.pairs, args.samples, "samples")
    rng = np.random.default_rng(args.seed)
    pairs = _random_pairs(rng, args)
    # The probe's own stream, drawn after the pairs: seeded with args.seed
    # it would replay the normals the first pair was built from.
    report = check_lp_continuity(
        rpn_navigate,
        pairs,
        perturbation_scale=args.scale,
        samples_per_pair=args.samples,
        seed=int(rng.integers(2**32)),
    )
    # report-only probe: flagged samples are data, not a failure
    return {"n": args.n, "scale": args.scale, **report}, ["projective-equivariant-planner"], 0


def _cmd_nav_equivariance(args) -> tuple[dict, list[str], int]:
    _check_probes(args.pairs, args.elements, "elements")
    rng = np.random.default_rng(args.seed)
    pairs = _random_pairs(rng, args)
    elements = [_random_rotation(rng, args.n) for _ in range(args.elements)]
    report = check_equivariance(rpn_navigate, elements, pairs, tol=args.tol)
    payload = {"n": args.n, "tol": args.tol, **report}
    return payload, ["projective-equivariant-planner"], 0 if not report["failures"] else 3


# -- measure subcommands -------------------------------------------------------------------


def _cmd_measure_lp(args) -> tuple[dict, list[str], int]:
    mu, nu = (read_json_file(path, "measure", measure_from_jsonable) for path in (args.mu, args.nu))
    return {"distance": lp_distance(mu, nu, euclidean_metric())}, [], 0


def _cmd_measure_product(args) -> tuple[dict, list[str], int]:
    mu, nu = (read_json_file(path, "measure", measure_from_jsonable) for path in (args.mu, args.nu))
    prod = product_measure(mu, nu)
    limit = 10**MAX_WEIGHT_DIGITS
    for _, weight in prod.atoms:
        if isinstance(weight, Fraction) and max(abs(weight.numerator), weight.denominator) >= limit:
            raise ValueError(
                f"a product weight has over {MAX_WEIGHT_DIGITS} digits above or below "
                f"the line (MAX_WEIGHT_DIGITS)"
            )
    payload = {
        "support": len(prod),
        "mode": prod.mode,
        "atoms": measure_to_jsonable(prod),
    }
    return payload, [], 0


# -- parser ------------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises its errors as ValueError, which main prints as JSON (exit 2)."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cite", action="store_true", help="append provenance statements to the output"
    )

    fn_cell = argparse.ArgumentParser(add_help=False, parents=[common])
    for flag in ("--d", "--m", "--n", "--r"):
        fn_cell.add_argument(flag, type=int, required=True)
    stages = argparse.ArgumentParser(add_help=False, parents=[common])
    stages.add_argument("--r", type=int, required=True)

    parser = _Parser(
        prog="distnav",
        description="Certified complexity bounds and distributional navigation planners.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    ring = top.add_parser("ring", help="graded ring computations").add_subparsers(
        dest="sub", required=True
    )
    p = ring.add_parser("normal-form", parents=[common])
    p.add_argument("--ring", required=True, help="catalog name or .json path")
    p.add_argument("--word", required=True, help="comma-separated generator names")
    p.add_argument("--coeff", default="1", help="rational coefficient, e.g. 3/2")
    p.set_defaults(handler=_cmd_ring_normal_form)
    p = ring.add_parser("poincare", parents=[common])
    p.add_argument("--ring", required=True)
    p.add_argument("--max-degree", type=int, default=8)
    p.set_defaults(handler=_cmd_ring_poincare)
    p = ring.add_parser("confluence", parents=[common])
    p.add_argument("--ring", required=True)
    p.set_defaults(handler=_cmd_ring_confluence)

    bound = top.add_parser("bound", help="certified lower bounds").add_subparsers(
        dest="sub", required=True
    )
    p = bound.add_parser("fn", parents=[fn_cell])
    p.set_defaults(handler=_cmd_bound_fn)
    p = bound.add_parser("sphere-bundle", parents=[common])
    p.add_argument("--n", type=int, required=True, help="complex projective base dimension")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--partition", type=_int_list, help="height split, e.g. 2,1")
    p.set_defaults(handler=_cmd_bound_sphere_bundle)
    bound.add_parser("cup-length", parents=[fn_cell]).set_defaults(handler=_cmd_bound_cup_length)

    value = top.add_parser("value", help="closed-form values with provenance").add_subparsers(
        dest="sub", required=True
    )
    p = value.add_parser("fn", parents=[fn_cell])
    p.set_defaults(handler=_cmd_value_fn)
    value.add_parser("so3", parents=[stages]).set_defaults(handler=_cmd_value_so3)
    p = value.add_parser("spheres", parents=[common])
    p.add_argument("--dims", type=_int_list, required=True, help="sphere dimensions, e.g. 2,4")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--flips",
        type=_int_list,
        help="flipped-coordinate counts for the general action; omit for antipodal",
    )
    p.set_defaults(handler=_cmd_value_spheres)
    p = value.add_parser("associate", parents=[common])
    p.add_argument("--dtc", type=int, required=True, help="equivariant value of the fiber")
    p.set_defaults(handler=_cmd_value_associate)
    value.add_parser("threshold", parents=[stages]).set_defaults(handler=_cmd_value_threshold)
    value.add_parser("hopf", parents=[stages]).set_defaults(handler=_cmd_value_hopf)

    nav = top.add_parser("nav", help="navigation planners and verifiers").add_subparsers(
        dest="sub", required=True
    )
    p = nav.add_parser("rpn", parents=[common])
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.add_argument("--y", required=True)
    p.add_argument("--grid", type=_grid_count, default=9, help=f"trace sample count, 2 to {MAX_GRID}")
    p.set_defaults(handler=_cmd_nav_rpn)
    for name, planner, points in (
        ("circle", circle_navigate, "2d points"),
        ("hopf", hopf_parametrized_navigate, "quaternions w,x,y,z"),
    ):
        p = nav.add_parser(name, parents=[common])
        p.add_argument("--points", required=True, help=f"semicolon-separated {points}")
        p.add_argument("--grid", type=_grid_count, default=9)
        p.set_defaults(handler=_cmd_nav_sequential, planner=planner)
    p = nav.add_parser("continuity", parents=[common])
    p.add_argument(
        "--n", type=_dimension, default=3, help=f"projective space dimension, 1 to {MAX_VERIFIER_DIM}"
    )
    p.add_argument("--pairs", type=_flag("pairs", int, 0), default=5)
    p.add_argument("--samples", type=_flag("samples", int, 0), default=4, help="perturbations per pair")
    p.add_argument("--scale", type=_flag("scale", float, 0.0, 1.0), default=1e-4)
    p.add_argument("--seed", type=_flag("seed", int, 0), default=0)
    p.set_defaults(handler=_cmd_nav_continuity)
    p = nav.add_parser("equivariance", parents=[common])
    p.add_argument("--n", type=_dimension, default=3)
    p.add_argument("--pairs", type=_flag("pairs", int, 0), default=10)
    p.add_argument("--elements", type=_flag("elements", int, 0), default=3)
    p.add_argument("--tol", type=_flag("tol", float, 0.0), default=1e-9)
    p.add_argument("--seed", type=_flag("seed", int, 0), default=0)
    p.set_defaults(handler=_cmd_nav_equivariance)

    measure = top.add_parser("measure", help="finitely supported measures").add_subparsers(
        dest="sub", required=True
    )
    p = measure.add_parser("lp", parents=[common])
    p.add_argument("--mu", required=True, help="measure file: [{point, weight}]")
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_measure_lp)
    p = measure.add_parser("product", parents=[common])
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_measure_product)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, tags, code = args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, KeyError, CertificateError) as exc:
        # A bad request is a ValueError or KeyError (2); a failed presentation
        # or certificate check is a validation failure (3).
        out = {"schema_version": SCHEMA_VERSION, "error": str(exc)}
        code = 3 if isinstance(exc, (CertificateError, PresentationError)) else 2
    else:
        out = {"schema_version": SCHEMA_VERSION, "command": f"{args.group} {args.sub}", **payload}
        if args.cite:
            out["citations"] = [
                {"tag": tag, "statement": REGISTRY[tag]} for tag in dict.fromkeys(tags)
            ]
    try:
        text = _dumps(out)
    except ValueError as exc:
        text = _dumps({"schema_version": SCHEMA_VERSION, "error": f"result is not valid JSON: {exc}"})
        code = 2
    return code if _emit(text) else EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
