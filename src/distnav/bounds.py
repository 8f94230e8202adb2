"""Lower-bound certificates from products of diagonal-kernel classes.

The comparison map sends the r-fold fiber power (or sphere-bundle tower) onto
one fiber power by collapsing the superscripted copies: every difference of
two copies of the same class lies in its kernel.  A nonvanishing k-fold
product of kernel classes certifies a lower bound of k for the sectional
invariant of the associated path fibration; this module builds the two
certificate families shipped with the package and a generic cup-length
search over a supplied list of kernel elements.

Every certificate is verified inside the exact rewrite engine: kernel
membership is checked by applying the ring map, and nonvanishing by
computing the normal form of the full product.  A vanishing product raises
``CertificateError``; nothing is approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .gcring import (
    GradedElement,
    PresentationError,
    RingPresentation,
    Word,
    element_degree,
    gen,
    is_zero,
    multiply,
    normal_form,
    one,
    poincare_series,
    product,
    subtract,
)
from .presentations import FiberProduct, SphereBundleTower, config_space, sphere_bundle_tower

__all__ = [
    "RingMap",
    "CertificateError",
    "apply_ring_map",
    "validate_ring_map",
    "diagonal_fn",
    "tower_diagonal",
    "NonzeroCertificate",
    "certificate_to_dict",
    "verify_witness_fn",
    "euler_height",
    "sphere_bundle_lower_bound",
    "cup_length_kernel",
    "ring_top_degree",
    "CUP_LENGTH_NODE_LIMIT",
]

# Products the cup-length search may form before it gives up.  Cells whose
# search finishes quickly stay well under it: (2,3,1,3) forms 534 products and
# (3,3,2,3) 60.  Even-d cells such as (2,3,2,3) never reach the degree
# ceiling: the full search at (2,3,2,3) had not finished after 40 s, and at
# about 10 ms per product there the limit ends it in some 10 s.
CUP_LENGTH_NODE_LIMIT = 1000


class CertificateError(RuntimeError):
    """A claimed certificate failed verification in the exact engine."""


@dataclass(frozen=True)
class RingMap:
    """A ring homomorphism given on generators; monomials map multiplicatively."""

    source: RingPresentation
    target: RingPresentation
    images: Mapping[str, GradedElement]


def apply_ring_map(f: RingMap, a: GradedElement) -> GradedElement:
    """Image of ``a``, in normal form in the target ring.

    Each term's image is a product of normal forms, so it is one itself;
    their sum needs a single normal form at the end, which merges equal
    words and drops cancelled ones.
    """
    total: dict[Word, Fraction] = {}
    for word, coeff in a.terms.items():
        for w, c in product(f.target, (f.images[g] for g in word)).terms.items():
            total[w] = total.get(w, Fraction(0)) + coeff * c
    return normal_form(f.target, GradedElement(total))


def validate_ring_map(f: RingMap) -> None:
    """Check that f kills every defining relation of the source.

    For each rule lhs -> rhs the images of both sides must agree in the
    target; otherwise f is not a ring map and certificates built from it
    would be meaningless.
    """
    for name in f.source.generator_names():
        if name not in f.images:
            raise PresentationError(f"ring map misses generator {name!r}")
        img_deg = element_degree(f.target, f.images[name])
        if img_deg is not None and img_deg != f.source.degree(name):
            raise PresentationError(
                f"ring map image of {name!r} has degree {img_deg}, "
                f"expected {f.source.degree(name)}"
            )
    for (a, b), rhs in f.source.rules.items():
        lhs_img = multiply(f.target, f.images[a], f.images[b])
        rhs_img = apply_ring_map(f, rhs)
        if lhs_img != rhs_img:
            raise PresentationError(f"ring map does not respect the rule on ({a}, {b})")


def diagonal_fn(fp: FiberProduct) -> RingMap:
    """Collapse map of the fiber power: every copy w{l}_i_j goes to w_i_j.

    The target is the configuration-space ring on m+n points.
    """
    target = config_space(fp.d, fp.m + fp.n)
    images: dict[str, GradedElement] = {}
    for name in fp.ring.generator_names():
        head, i, j = name.split("_")
        images[name] = gen(f"w_{i}_{j}")
    f = RingMap(fp.ring, target, images)
    validate_ring_map(f)
    return f


def tower_diagonal(tower: SphereBundleTower) -> RingMap:
    """Collapse map of the tower: u_i goes to the section Euler class.

    The target is the single-level tower (base plus u); base classes and u
    map identically.
    """
    target = sphere_bundle_tower(tower.base, tower.euler_class, tower.q, 1).ring
    images: dict[str, GradedElement] = {name: gen(name) for name in tower.base.generator_names()}
    images["u"] = gen("u")
    for name in tower.u_names:
        images[name] = tower.section_euler
    f = RingMap(tower.ring, target, images)
    validate_ring_map(f)
    return f


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class NonzeroCertificate:
    """A verified nonvanishing product of kernel classes.

    ``bound`` equals the number of positive-degree factors (with
    multiplicity); ``witness_monomial`` is the first monomial of the product
    in the canonical order, with its exact coefficient.
    """

    ring_name: str
    factors: tuple[GradedElement, ...]
    witness_monomial: Word
    coefficient: Fraction
    bound: int
    provenance: str


def certificate_to_dict(cert: NonzeroCertificate) -> dict:
    return {
        "ring": cert.ring_name,
        "factors": [
            sorted(
                ({"coeff": str(c), "monomial": list(w)} for w, c in f.terms.items()),
                key=lambda t: t["monomial"],
            )
            for f in cert.factors
        ],
        "witness_monomial": list(cert.witness_monomial),
        "coefficient": str(cert.coefficient),
        "bound": cert.bound,
        "provenance": cert.provenance,
    }


def _check_in_kernel(collapse: RingMap, elements: Sequence[GradedElement]) -> None:
    """Raise CertificateError unless the collapse map kills every element."""
    for idx, e in enumerate(elements):
        if not is_zero(apply_ring_map(collapse, e)):
            raise CertificateError(
                f"{collapse.source.name}: element {idx} does not lie in the collapse kernel"
            )


def _kernel_product_certificate(
    ring: RingPresentation,
    collapse: RingMap,
    factors: Sequence[GradedElement],
    provenance: str,
) -> NonzeroCertificate:
    _check_in_kernel(collapse, factors)
    witness = product(ring, factors)
    if is_zero(witness):
        raise CertificateError(f"{ring.name}: witness product vanished, no certificate")
    word = min(witness.terms)  # deterministic: first monomial in canonical order
    return NonzeroCertificate(
        ring_name=ring.name,
        factors=tuple(factors),
        witness_monomial=word,
        coefficient=witness.terms[word],
        bound=len(factors),
        provenance=provenance,
    )


def _copy_difference(fp: FiberProduct, l1: int, l2: int, i: int, j: int) -> GradedElement:
    """w{l1}_i_j - w{l2}_i_j, a kernel class of the collapse map."""
    return subtract(gen(fp.w(l1, i, j)), gen(fp.w(l2, i, j)))


def verify_witness_fn(fp: FiberProduct) -> NonzeroCertificate:
    """Build and verify the witness product for the fiber power.

    For odd d the product takes one difference per extra base strand, the
    square of one difference per fiber point, and one difference per
    remaining copy; for even d squares vanish, and consecutive-index
    differences replace them.  The factor count is r*n + m - 1 (d odd) or
    r*n + m - 2 (d even).
    """
    d, m, n, r = fp.d, fp.m, fp.n, fp.r
    factors: list[GradedElement] = []
    for i in range(2, m + 1):
        factors.append(_copy_difference(fp, 1, 2, i, m + 1))
    if d % 2 == 1:
        for j in range(m + 1, m + n + 1):
            diff = _copy_difference(fp, 2, 1, 1, j)
            factors.append(diff)
            factors.append(diff)
        for l in range(3, r + 1):
            for j in range(m + 1, m + n + 1):
                factors.append(_copy_difference(fp, l, 1, 1, j))
    else:
        for j in range(m + 2, m + n + 1):
            factors.append(_copy_difference(fp, 1, 2, j - 1, j))
        for l in range(2, r + 1):
            for j in range(m + 1, m + n + 1):
                factors.append(_copy_difference(fp, l, 1, 1, j))
    assert len(factors) == fp.witness_length()
    return _kernel_product_certificate(
        fp.ring, diagonal_fn(fp), factors, provenance="fiber-product-diagonal-kernel-witness"
    )


def euler_height(P: RingPresentation, e: GradedElement, max_power: int) -> int:
    """Largest k <= max_power with e^k nonzero in normal form (0 for e = 0)."""
    height = 0
    acc = one()
    for k in range(1, max_power + 1):
        acc = multiply(P, acc, e)
        if is_zero(acc):
            break
        height = k
    return height


def ring_top_degree(P: RingPresentation, ceiling: int) -> int:
    """Largest degree <= ceiling with a nonzero graded piece."""
    dims = poincare_series(P, ceiling)
    top = 0
    for deg, dim in enumerate(dims):
        if dim:
            top = deg
    return top


def sphere_bundle_lower_bound(
    tower: SphereBundleTower,
    partition: Sequence[int] | None = None,
) -> NonzeroCertificate:
    """Certificate from the tower witness product.

    The i-th factor is u_i minus the pullback section Euler class, raised to
    the power b_i + 1, where the b_i are nonnegative and sum to the height h
    of the section Euler class; the certified bound is h + r - 1.  The
    default partition puts all of h on the first factor.
    """
    r = tower.r
    if r < 2:
        raise CertificateError("tower witness needs at least two factors (r >= 2)")
    step = tower.q - 1
    top = sum(g.degree for g in tower.ring.generators)
    h = euler_height(tower.ring, tower.section_euler, max_power=top // step + 1)
    if partition is None:
        partition = (h,) + (0,) * (r - 2)
    partition = tuple(int(b) for b in partition)
    if len(partition) != r - 1 or any(b < 0 for b in partition) or sum(partition) != h:
        raise CertificateError(
            f"partition {partition} is not a nonnegative composition of the height {h} "
            f"into {r - 1} parts"
        )
    factors: list[GradedElement] = []
    for i, b in enumerate(partition, start=1):
        f = subtract(gen(f"u{i}"), tower.pullback_section_euler(i))
        factors.extend([f] * (b + 1))
    return _kernel_product_certificate(
        tower.ring, tower_diagonal(tower), factors, provenance="sphere-bundle-tower-witness"
    )


# -- generic cup-length search ------------------------------------------------------


def cup_length_kernel(
    P: RingPresentation,
    collapse: RingMap,
    elements: Sequence[GradedElement],
    budget: int = 12,
) -> int:
    """Greatest k <= budget with a nonzero k-fold product of the elements.

    Elements are tried as multisets in the given order (repetition allowed);
    the search prunes any branch whose total degree would exceed the top
    nonzero degree of the ring, and stops as soon as a chain reaches
    min(budget, top degree // least element degree), which no chain can
    exceed.  Every element must be homogeneous and lie in the kernel of the
    collapse map.  Raises ValueError, naming the ring, when the search would
    form more than CUP_LENGTH_NODE_LIMIT products.
    """
    k, _ = _cup_length_search(P, collapse, elements, budget)
    return k


def _cup_length_search(
    P: RingPresentation,
    collapse: RingMap,
    elements: Sequence[GradedElement],
    budget: int,
) -> tuple[int, tuple[int, ...]]:
    if budget < 1 or budget > 12:
        raise ValueError("budget must be between 1 and 12")
    degrees: list[int] = []
    for idx, e in enumerate(elements):
        d = element_degree(P, e)
        if d is None:
            raise CertificateError(f"kernel element {idx} is zero")
        degrees.append(d)
    _check_in_kernel(collapse, elements)
    if not elements:
        return 0, ()
    top = ring_top_degree(P, ceiling=budget * max(degrees))
    # No chain is longer than the ceiling; the first chain to reach it is the
    # one the full search would keep, as best only grows on a strict gain.
    ceiling = min(budget, top // min(degrees))
    best = 0
    best_indices: tuple[int, ...] = ()
    nodes = 0

    def dfs(start: int, acc: GradedElement, acc_degree: int, chosen: list[int]) -> bool:
        """Extend the chain; True once best has reached the ceiling."""
        nonlocal best, best_indices, nodes
        for idx in range(start, len(elements)):
            ndeg = acc_degree + degrees[idx]
            if ndeg > top:
                continue
            nodes += 1
            if nodes > CUP_LENGTH_NODE_LIMIT:
                raise ValueError(
                    f"cup-length search on {P.name} formed {CUP_LENGTH_NODE_LIMIT} "
                    f"products without an answer (best so far {best})"
                )
            nxt = multiply(P, acc, elements[idx])
            if is_zero(nxt):
                continue
            chosen.append(idx)
            if len(chosen) > best:
                best = len(chosen)
                best_indices = tuple(chosen)
                if best >= ceiling:
                    return True
            if len(chosen) < budget and dfs(idx, nxt, ndeg, chosen):
                return True
            chosen.pop()
        return False

    dfs(0, one(), 0, [])
    return best, best_indices
