"""Command-line front end.

Every subcommand prints a single JSON document on standard output with a
schema_version field.  Exit codes: 0 success, 2 argument error, 3
validation or certificate failure.  --cite appends the provenance
statements behind the numbers; --json is accepted everywhere and is a
no-op because output is always JSON.

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
from pathlib import Path

import numpy as np

from .bounds import (
    CertificateError,
    certificate_to_dict,
    cup_length_kernel,
    diagonal_fn,
    sphere_bundle_lower_bound,
    verify_witness_fn,
)
from .gcring import (
    PresentationError,
    check_confluence,
    element,
    gen,
    load_presentation_json,
    normal_form,
    poincare_series,
    subtract,
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
    FiniteMeasure,
    euclidean_metric,
    lp_distance,
    measure_from_jsonable,
    measure_to_jsonable,
    product_measure,
    to_jsonable,
)
from .navplan import (
    PathPlan,
    check_equivariance,
    check_lp_continuity,
    circle_navigate,
    hopf_parametrized_navigate,
    rpn_navigate,
)
from .presentations import catalog, cpn_sphere_bundle, fn_fiber_product

SCHEMA_VERSION = 2
ENV_PRESENTATIONS = "DISTNAV_PRESENTATIONS"
# Trace samples per path of nav rpn, circle and hopf.
MAX_GRID = 1024


class ArgumentProblem(ValueError):
    """Bad request shape or values: mapped to exit code 2."""


# -- shared helpers ---------------------------------------------------------------


def _emit(payload: dict) -> None:
    # NaN and infinity are not JSON: refuse them instead of printing bare tokens.
    print(json.dumps(payload, indent=2, default=to_jsonable, allow_nan=False))


def _resolve_ring(name: str):
    if name.endswith(".json"):
        path = Path(name)
        if path.exists():
            return load_presentation_json(str(path))
        raise ArgumentProblem(f"presentation file {name!r} not found")
    try:
        return catalog(name)
    except KeyError:
        pass  # not a catalog name: try the presentation directory
    except ValueError as exc:
        # A known family with parameters it rejects keeps its own message.
        raise ArgumentProblem(str(exc)) from None
    env = os.environ.get(ENV_PRESENTATIONS)
    if env:
        path = Path(env) / f"{name}.json"
        if path.exists():
            return load_presentation_json(str(path))
    raise ArgumentProblem(f"unknown presentation {name!r}")


def _parse_vector(text: str) -> np.ndarray:
    try:
        vector = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ArgumentProblem(f"bad vector {text!r}: {exc}") from None
    if not np.isfinite(vector).all():
        raise ArgumentProblem(f"bad vector {text!r}: components must be finite")
    return vector


def _parse_points(text: str) -> list[np.ndarray]:
    return [_parse_vector(chunk) for chunk in text.split(";") if chunk]


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


# --grid keeps both endpoints, so it takes at least 2 samples.
_grid_count = _flag("grid", int, 2, MAX_GRID)


def _parse_word(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def _element_terms(a) -> list[dict]:
    terms = sorted(a.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [
        {"coefficient": str(c), "monomial": list(word)} for word, c in terms
    ]


def _plan_payload(plan: PathPlan, grid: int = 9) -> dict:
    times = np.arange(grid) / (grid - 1)
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
        "checkpoints": to_jsonable(plan.checkpoints),
        "support": len(plan.measure),
        "weight_sum": float(sum(w for _, w in plan.measure.atoms)),
        "atoms": atoms,
    }


def _load_measure(path: str) -> FiniteMeasure:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ArgumentProblem(f"cannot read measure file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ArgumentProblem(f"measure file {path!r} is not JSON: {exc}") from None
    try:
        return measure_from_jsonable(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentProblem(f"bad measure in {path!r}: {exc}") from None


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / float(np.linalg.norm(v))


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
    known = set(ring.generator_names())
    for name in word:
        if name not in known:
            raise ArgumentProblem(f"unknown generator {name!r} in {args.ring}")
    coeff = Fraction(args.coeff)
    nf = normal_form(ring, element([(coeff, word)]))
    payload = {
        "ring": args.ring,
        "input": {"coefficient": str(coeff), "monomial": list(word)},
        "normal_form": _element_terms(nf),
        "zero": not nf.terms,
    }
    return payload, [], 0


def _cmd_ring_poincare(args) -> tuple[dict, list[str], int]:
    ring = _resolve_ring(args.ring)
    if args.max_degree < 0:
        raise ArgumentProblem("max degree must be nonnegative")
    series = poincare_series(ring, args.max_degree)
    payload = {
        "ring": args.ring,
        "max_degree": args.max_degree,
        "series": series,
    }
    return payload, [], 0


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
    fp = fn_fiber_product(args.d, args.m, args.n, args.r)
    cert = verify_witness_fn(fp)
    payload = {
        "parameters": {"d": args.d, "m": args.m, "n": args.n, "r": args.r},
        "bound": cert.bound,
        "certificate": certificate_to_dict(cert),
    }
    return payload, [cert.provenance], 0


def _cmd_bound_sphere_bundle(args) -> tuple[dict, list[str], int]:
    if args.n < 1:
        raise ArgumentProblem("n must be at least 1")
    tower = cpn_sphere_bundle(args.n, args.r)
    partition = None
    if args.partition:
        partition = [int(v) for v in args.partition.split(",")]
    cert = sphere_bundle_lower_bound(tower, partition)
    payload = {
        "parameters": {"n": args.n, "r": args.r, "q": 3},
        # the certified bound is h + r - 1 for the height h of the section class
        "height": cert.bound - tower.r + 1,
        "bound": cert.bound,
        "certificate": certificate_to_dict(cert),
    }
    return payload, [cert.provenance], 0


def _cmd_bound_cup_length(args) -> tuple[dict, list[str], int]:
    fp = fn_fiber_product(args.d, args.m, args.n, args.r)
    elements = []
    labels = []
    for j in range(fp.m + 1, fp.m + fp.n + 1):
        for i in range(1, j):
            for l1 in range(1, fp.r + 1):
                for l2 in range(l1 + 1, fp.r + 1):
                    elements.append(
                        subtract(gen(fp.w(l1, i, j)), gen(fp.w(l2, i, j)))
                    )
                    labels.append(f"{fp.w(l1, i, j)} - {fp.w(l2, i, j)}")
    length = cup_length_kernel(fp.ring, diagonal_fn(fp), elements, budget=args.budget)
    payload = {
        "parameters": {"d": args.d, "m": args.m, "n": args.n, "r": args.r},
        "budget": args.budget,
        "kernel_elements": labels,
        "cup_length": length,
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
    dims = [int(v) for v in args.dims.split(",")]
    p_list = [int(v) for v in args.flips.split(",")] if args.flips else None
    return _record_payload(value_product_spheres(dims, args.r, p_list))


def _cmd_value_associate(args):
    upper = value_associate_upper(args.dtc)
    payload = {
        "equivariant_input": args.dtc,
        "upper": upper,
    }
    return payload, ["associate-bundle-square-upper"], 0


def _cmd_value_threshold(args):
    t = value_son_threshold(args.r)
    payload = {
        "r": args.r,
        "threshold": str(t),
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
    if x.shape != y.shape:
        raise ArgumentProblem("x and y must have the same dimension")
    plan = rpn_navigate(x, y)
    return _plan_payload(plan, grid=args.grid), ["projective-equivariant-planner"], 0


def _cmd_nav_sequential(args) -> tuple[dict, list[str], int]:
    """nav circle and nav hopf: ``args.planner`` through the checkpoints."""
    points = _parse_points(args.points)
    r = args.r if args.r is not None else len(points)
    plan = args.planner(r, points)
    return _plan_payload(plan, grid=args.grid), ["circle-fiber-value"], 0


def _random_pairs(rng: np.random.Generator, args) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(_random_unit(rng, args.n + 1), _random_unit(rng, args.n + 1)) for _ in range(args.pairs)]


def _cmd_nav_continuity(args) -> tuple[dict, list[str], int]:
    rng = np.random.default_rng(args.seed)
    report = check_lp_continuity(
        rpn_navigate,
        _random_pairs(rng, args),
        perturbation_scale=args.scale,
        samples_per_pair=args.samples,
        seed=args.seed,
    )
    # report-only probe: flagged samples are data, not a failure
    return {"n": args.n, "scale": args.scale, **report}, ["projective-equivariant-planner"], 0


def _cmd_nav_equivariance(args) -> tuple[dict, list[str], int]:
    rng = np.random.default_rng(args.seed)
    pairs = _random_pairs(rng, args)
    elements = [_random_rotation(rng, args.n) for _ in range(args.elements)]
    report = check_equivariance(rpn_navigate, elements, pairs, tol=args.tol)
    payload = {"n": args.n, "tol": args.tol, **report}
    return payload, ["projective-equivariant-planner"], 0 if not report["failures"] else 3


# -- measure subcommands -------------------------------------------------------------------


def _cmd_measure_lp(args) -> tuple[dict, list[str], int]:
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    d = lp_distance(mu, nu, euclidean_metric(), precision=args.precision)
    payload = {
        "distance": d,
        "precision": args.precision,
    }
    return payload, [], 0


def _cmd_measure_product(args) -> tuple[dict, list[str], int]:
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    prod = product_measure(mu, nu)
    payload = {
        "support": len(prod),
        "mode": prod.mode,
        "atoms": measure_to_jsonable(prod),
    }
    return payload, [], 0


# -- parser ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="output JSON (always on; accepted for symmetry)"
    )
    common.add_argument(
        "--cite", action="store_true", help="append provenance statements to the output"
    )

    fn_cell = argparse.ArgumentParser(add_help=False, parents=[common])
    for flag in ("--d", "--m", "--n", "--r"):
        fn_cell.add_argument(flag, type=int, required=True)

    parser = argparse.ArgumentParser(
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
    p.add_argument("--partition", default="", help="height split, e.g. 2,1")
    p.set_defaults(handler=_cmd_bound_sphere_bundle)
    p = bound.add_parser("cup-length", parents=[fn_cell])
    p.add_argument("--budget", type=int, default=12)
    p.set_defaults(handler=_cmd_bound_cup_length)

    value = top.add_parser("value", help="closed-form values with provenance").add_subparsers(
        dest="sub", required=True
    )
    p = value.add_parser("fn", parents=[fn_cell])
    p.set_defaults(handler=_cmd_value_fn)
    p = value.add_parser("so3", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_value_so3)
    p = value.add_parser("spheres", parents=[common])
    p.add_argument("--dims", required=True, help="sphere dimensions, e.g. 2,4")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--flips",
        default="",
        help="flipped-coordinate counts for the general action; omit for antipodal",
    )
    p.set_defaults(handler=_cmd_value_spheres)
    p = value.add_parser("associate", parents=[common])
    p.add_argument("--dtc", type=int, required=True, help="equivariant value of the fiber")
    p.set_defaults(handler=_cmd_value_associate)
    p = value.add_parser("threshold", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_value_threshold)
    p = value.add_parser("hopf", parents=[common])
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_value_hopf)

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
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--grid", type=_grid_count, default=9)
        p.set_defaults(handler=_cmd_nav_sequential, planner=planner)
    p = nav.add_parser("continuity", parents=[common])
    p.add_argument("--n", type=_flag("n", int, 1), default=3, help="projective space dimension")
    p.add_argument("--pairs", type=_flag("pairs", int, 0), default=5)
    p.add_argument("--samples", type=_flag("samples", int, 0), default=4, help="perturbations per pair")
    p.add_argument("--scale", type=_flag("scale", float, 0.0), default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_nav_continuity)
    p = nav.add_parser("equivariance", parents=[common])
    p.add_argument("--n", type=_flag("n", int, 1), default=3)
    p.add_argument("--pairs", type=_flag("pairs", int, 0), default=10)
    p.add_argument("--elements", type=_flag("elements", int, 0), default=3)
    p.add_argument("--tol", type=_flag("tol", float, 0.0), default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_nav_equivariance)

    measure = top.add_parser("measure", help="finitely supported measures").add_subparsers(
        dest="sub", required=True
    )
    p = measure.add_parser("lp", parents=[common])
    p.add_argument("--mu", required=True, help="measure file: [{point, weight}]")
    p.add_argument("--nu", required=True)
    p.add_argument(
        "--precision", type=float, default=1e-6, help="accepted; the distance is exact"
    )
    p.set_defaults(handler=_cmd_measure_lp)
    p = measure.add_parser("product", parents=[common])
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.set_defaults(handler=_cmd_measure_product)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and bad flags
        return int(exc.code or 0)
    try:
        payload, tags, code = args.handler(args)
    except (ValueError, KeyError, CertificateError) as exc:
        # ArgumentProblem and other ValueErrors are bad requests (2); a failed
        # presentation or certificate check is a validation failure (3).
        _emit({"schema_version": SCHEMA_VERSION, "error": str(exc)})
        return 3 if isinstance(exc, (CertificateError, PresentationError)) else 2
    out = {"schema_version": SCHEMA_VERSION, "command": f"{args.group} {args.sub}", **payload}
    if getattr(args, "cite", False):
        out["citations"] = [
            {"tag": tag, "statement": REGISTRY[tag]} for tag in dict.fromkeys(tags)
        ]
    try:
        _emit(out)
    except ValueError as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": f"result is not valid JSON: {exc}"})
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
