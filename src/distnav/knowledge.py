"""Closed-form complexity values with explicit provenance.

Each value_* function returns a ComplexityRecord whose numbers are either
certified on the spot (a nonzero-product certificate computed by the bounds
module, for parameters small enough to run interactively) or quoted as
cited constants.  The registry below maps every provenance tag to the
statement it stands for; the CLI prints these under --cite.

An entry's kind follows from what it carries: an entry that links the
certificate object it was verified from is a "certificate" entry, and one
without is a "cited-constant" entry, which never recomputes anything.  A
record's exact value likewise follows from its bounds: it is the lower
bound when the two agree, and None otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import (
    CertificateError, NonzeroCertificate, certificate_to_dict, verify_witness_fn, witness_is_live
)
from .presentations import fn_fiber_product, fn_witness_length

__all__ = [
    "KIND_CERTIFICATE",
    "KIND_CITED",
    "REGISTRY",
    "ProvenanceEntry",
    "ComplexityRecord",
    "value_fadell_neuwirth",
    "value_so3_bundle",
    "value_product_spheres",
    "value_associate_upper",
    "value_son_threshold",
    "MAX_THRESHOLD_R",
    "value_hopf",
    "record_to_jsonable",
]

KIND_CERTIFICATE = "certificate"
KIND_CITED = "cited-constant"

REGISTRY: dict[str, str] = {
    "fiber-product-diagonal-kernel-witness": (
        "Nonzero product of diagonal-kernel classes in the fiberwise power of "
        "the forgetful configuration fibration; the number of factors lower-"
        "bounds the sequential fiberwise distributional complexity."
    ),
    "sphere-bundle-tower-witness": (
        "Nonzero product of section-difference classes in the fiberwise power "
        "of an odd sphere bundle with section; the Euler-class height h of the "
        "complementary bundle gives the lower bound h + r - 1."
    ),
    "configuration-fibration-value": (
        "The sequential fiberwise distributional complexity of the forgetful "
        "fibration between ordered configuration spaces of d-space with m "
        "obstacle points and n robots equals rn+m-1 for odd d and rn+m-2 for "
        "even d."
    ),
    "configuration-fibration-upper-citation": (
        "Matching upper bound for the configuration fibration: the classical "
        "sequential complexity of configuration spaces of punctured d-space, "
        "equal to their zero-divisor cup-length."
    ),
    "rotation-bundle-value": (
        "Every principal bundle with structure group the rotation group of "
        "3-space has sequential fiberwise distributional complexity equal to "
        "that of the group itself: at most min(2^(r-1)-1, 2r+1), strictly "
        "below the classical sequential value 3(r-1) for every r >= 2."
    ),
    "nontrivial-fiber-lower": (
        "A fibration whose fiber is not rationally acyclic has sequential "
        "fiberwise distributional complexity at least r-1."
    ),
    "sphere-product-antipodal-value": (
        "For a product of m spheres with the diagonal antipodal involution, "
        "the equivariant sequential value and the fiberwise value of the "
        "associate bundle of any free principal two-element-group bundle both "
        "equal m(r-1) plus the number of even-dimensional factors."
    ),
    "sphere-product-involution-bounds": (
        "For coordinate-sign involutions flipping at least two coordinates in "
        "each sphere factor, the value lies between m(r-1) plus the number of "
        "even-dimensional factors and rm; the top is attained when every "
        "factor is even-dimensional."
    ),
    "associate-bundle-square-upper": (
        "An F-associate bundle of a principal G-bundle satisfies "
        "dTC_r <= (v+1)^2 - 1 where v is the equivariant distributional "
        "complexity of the fiber F."
    ),
    "rotation-threshold": (
        "For projective-space associates of principal rotation-group bundles, "
        "the distributional upper bound 2^(2r-2)-1 falls strictly below the "
        "classical sequential value once the projective dimension exceeds "
        "(2^(2r-2)-1)/(r-1)."
    ),
    "circle-fiber-value": (
        "The sequential distributional complexity of the circle, hence of "
        "every odd-sphere-to-complex-projective Hopf projection, equals r-1; "
        "the shipped circle and Hopf planners witness it for every r up to "
        "their cap of 64 checkpoints, each plan at most r paths."
    ),
    "diagonal-kernel-cup-length-lower": (
        "The rational cup-length of the kernel of the fiberwise diagonal "
        "lower-bounds the sequential fiberwise distributional complexity. "
        "A reported length is certified by a nonzero product of kernel "
        "classes, so it is an exact lower bound even when its optimality is "
        "only probabilistic."
    ),
    "projective-equivariant-planner": (
        "Two-rotation distributional planner on real projective space: "
        "support two, rotation-equivariant, witnessing equivariant "
        "distributional complexity one."
    ),
}


@dataclass(frozen=True)
class ProvenanceEntry:
    tag: str
    certificate: NonzeroCertificate | None = None

    def __post_init__(self) -> None:
        if self.tag not in REGISTRY:
            raise ValueError(f"unregistered provenance tag {self.tag!r}")

    @property
    def kind(self) -> str:
        return KIND_CITED if self.certificate is None else KIND_CERTIFICATE


@dataclass(frozen=True)
class ComplexityRecord:
    family: str
    parameters: dict
    lower: int | None
    upper: int | None
    provenance: tuple[ProvenanceEntry, ...]
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.provenance:
            raise ValueError("record carries no provenance")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def exact(self) -> int | None:
        return self.lower if self.lower == self.upper else None


def value_fadell_neuwirth(d: int, m: int, n: int, r: int) -> ComplexityRecord:
    """Exact value for the forgetful configuration fibration.

    Where bounds.witness_is_live holds, the lower bound is re-certified live
    by a diagonal-kernel witness product; otherwise both bounds are cited
    constants.  Raises ValueError for a cell out of range.
    """
    exact = fn_witness_length(d, m, n, r)
    provenance = [
        ProvenanceEntry("configuration-fibration-value"),
        ProvenanceEntry("configuration-fibration-upper-citation"),
    ]
    if witness_is_live(d, m, n, r):
        cert = verify_witness_fn(fn_fiber_product(d, m, n, r))
        if cert.bound != exact:
            raise CertificateError(f"certificate bound {cert.bound} contradicts closed form {exact}")
        provenance.insert(0, ProvenanceEntry(cert.provenance, cert))
    return ComplexityRecord(
        family="fadell-neuwirth",
        parameters={"d": d, "m": m, "n": n, "r": r},
        lower=exact,
        upper=exact,
        provenance=tuple(provenance),
    )


def value_so3_bundle(r: int) -> ComplexityRecord:
    """Bounds for any principal bundle with 3-space rotation structure group."""
    if r < 2:
        raise ValueError("r must be at least 2")
    # min(2^(r-1) - 1, 2r + 1), without forming the power: from r = 5 on
    # the linear term is the smaller.
    upper = 2 * r + 1 if r >= 5 else 2 ** (r - 1) - 1
    return ComplexityRecord(
        family="so3-bundle",
        parameters={"r": r},
        lower=r - 1,
        upper=upper,
        provenance=(
            ProvenanceEntry("rotation-bundle-value"),
            ProvenanceEntry("nontrivial-fiber-lower"),
        ),
        extras={"classical_sequential_value": 3 * (r - 1)},
    )


def value_product_spheres(
    n_list, r: int, p_list=None
) -> ComplexityRecord:
    """Associate bundles of sphere products under sign involutions.

    p_list None means the diagonal antipodal action (exact value); otherwise
    p_list gives the number of flipped coordinates per factor, each required
    to be between 2 and n_i + 1.
    """
    dims = [int(n) for n in n_list]
    if r < 2:
        raise ValueError("r must be at least 2")
    if not dims or any(n < 1 for n in dims):
        raise ValueError("sphere dimensions must be positive")
    m = len(dims)
    ell = sum(1 for n in dims if n % 2 == 0)
    base = m * (r - 1) + ell
    if p_list is None:
        return ComplexityRecord(
            family="sphere-product-associate",
            parameters={"dims": dims, "r": r, "action": "antipodal"},
            lower=base,
            upper=base,
            provenance=(ProvenanceEntry("sphere-product-antipodal-value"),),
            extras={"even_factor_count": ell},
        )
    flips = [int(p) for p in p_list]
    if len(flips) != m:
        raise ValueError(f"expected {m} flip counts, got {len(flips)}")
    for n, p in zip(dims, flips):
        if not 2 <= p <= n + 1:
            raise ValueError(f"flip count {p} invalid for a {n}-sphere")
    return ComplexityRecord(
        family="sphere-product-associate",
        parameters={"dims": dims, "r": r, "action": "general", "flips": flips},
        lower=base,
        upper=r * m,
        provenance=(ProvenanceEntry("sphere-product-involution-bounds"),),
        extras={"even_factor_count": ell},
    )


def value_associate_upper(dtc_g_r: int) -> int:
    """(v+1)^2 - 1: fiberwise value of an associate bundle from the
    equivariant value v of its fiber."""
    if dtc_g_r < 0:
        raise ValueError("equivariant complexity cannot be negative")
    return (dtc_g_r + 1) ** 2 - 1


# Largest r of value_son_threshold: the largest r whose threshold, about
# 2^(2r-2)/(r-1), is a finite double.  Checked before the power is formed,
# which at r = 10^9 alone is an int of 2 * 10^9 bits (250 MB).
MAX_THRESHOLD_R = 517


def value_son_threshold(r: int) -> Fraction:
    """Projective dimension beyond which the distributional value drops
    strictly below the classical one, as an exact rational.  Raises
    ValueError for r outside 2..MAX_THRESHOLD_R."""
    if r < 2:
        raise ValueError("r must be at least 2")
    if r > MAX_THRESHOLD_R:
        raise ValueError(
            f"r {r} is over the cap of {MAX_THRESHOLD_R} (MAX_THRESHOLD_R): "
            "the threshold would not fit a float"
        )
    return Fraction(2 ** (2 * r - 2) - 1, r - 1)


def value_hopf(r: int) -> ComplexityRecord:
    """Exact value r-1 for circle-fibered Hopf projections."""
    if r < 2:
        raise ValueError("r must be at least 2")
    return ComplexityRecord(
        family="hopf-circle-bundle",
        parameters={"r": r},
        lower=r - 1,
        upper=r - 1,
        provenance=(ProvenanceEntry("circle-fiber-value"),),
        extras={"planner_demo": "nav hopf"},
    )


def record_to_jsonable(record: ComplexityRecord) -> dict:
    prov = []
    for entry in record.provenance:
        item: dict = {"tag": entry.tag, "kind": entry.kind}
        if entry.certificate is not None:
            item["certificate"] = certificate_to_dict(entry.certificate)
        prov.append(item)
    out: dict = {
        "family": record.family,
        "parameters": record.parameters,
        "lower": record.lower,
        "upper": record.upper,
        "exact": record.exact,
        "provenance": prov,
    }
    if record.extras:
        out["extras"] = record.extras
    return out
