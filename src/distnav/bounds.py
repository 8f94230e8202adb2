"""Lower-bound certificates from products of diagonal-kernel classes.

The comparison map collapses the r copies of a fiber power (or the r-1
levels of a sphere-bundle tower) onto one copy: every difference of two
copies of the same class lies in its kernel.  That one copy already sits
inside the ring, so each collapse is an endomorphism of the ring it
certifies: no second ring is built.  A nonvanishing k-fold product of kernel
classes certifies a lower bound of k for the sectional invariant of the
associated path fibration; this module builds the two certificate families
shipped with the package and the cup length of a supplied list of kernel
elements.

Every certificate is verified inside the exact rewrite engine: kernel
membership is checked by applying the ring map, and nonvanishing by
computing the normal form of the full product.  Every product here, the
witnesses, the powers of :func:`euler_height` and both cup-length chains,
runs on a coded ``gcring.Chain``.  A vanishing product raises
``CertificateError``; nothing is approximated.  The cup length is an exact
lower bound, certified by a nonzero product of kernel elements; only its
optimality can be probabilistic, when a product of generic combinations
vanishes below the degree ceiling, and the chance that it is wrong is given
exactly.  The ring maps themselves
(``RingMap``, ``apply_ring_map``, ``validate_ring_map``) live in
:mod:`distnav.gcring`, which owns the kernel's integer coding they run on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gcring import (
    MAX_SERIES_DEGREE,
    Chain,
    GradedElement,
    RingMap,
    RingPresentation,
    Word,
    apply_ring_map,
    check_series_degree,
    element,
    element_degree,
    element_to_json,
    gen,
    is_zero,
    product,
    ring_top_degree,
    subtract,
    validate_ring_map,
)
from .presentations import FiberProduct, SphereBundleTower, fn_witness_length

__all__ = [
    "CertificateError",
    "diagonal_fn",
    "tower_diagonal",
    "NonzeroCertificate",
    "certificate_to_dict",
    "copy_differences",
    "verify_witness_fn",
    "euler_height",
    "sphere_bundle_lower_bound",
    "cup_length_kernel",
    "ring_top_degree",
    "CupLength",
    "MAX_CHAIN_PAIRS",
    "MAX_CUP_LENGTH",
    "CUP_LENGTH_SEED",
    "MAX_WITNESS_WORK",
    "witness_work",
    "check_witness_work",
    "LIVE_WITNESS_WORK",
    "witness_is_live",
]

# Pairs of terms (accumulator terms times factor terms) a cup-length chain
# may multiply in one product; checked before every product.  The largest
# products of cells that answer: 296478 pairs at (2,3,2,3) (6 s in all),
# 226160 at (2,2,2,4) (4 s), 63720 at (2,5,1,3) (2.5 s) and 488160 at
# (2,6,1,3) (21-26 s).  A pair costs about 5-8 us at m <= 3 but 16 us at
# m >= 5, so cells over the cap give up after 2.5 s at (2,3,2,4), 5.3 s at
# (2,2,2,5) and 23 s at (2,7,1,3) (single runs on a shared 2-core host).
MAX_CHAIN_PAIRS = 2**20

# Factors a cup-length chain may reach; a chain of this length is refused
# before its next product is formed.  Without a cap the greedy chain is
# unbounded: at (2,2,1,150) it reached 150 factors, and the generic chain
# then stopped at MAX_CHAIN_PAIRS, after 137 s; at the cap it stops in about
# 1 s (single runs on a shared 2-core host).
MAX_CUP_LENGTH = 12

# Seed of the generic combinations of cup_length_kernel: every call draws
# the same coefficients, so they need not be printed to be reproduced.
CUP_LENGTH_SEED = 20_251_018


# Work estimate (witness_work) above which the fn witness is refused, checked
# before any factor is built.  Cells just under it, single runs on a shared
# 2-core host: (2,2,1,291) 2.3 s, (2,4,1,112) 3.8 s, (2,6,1,41) 7.2 s and
# 67 MB, (2,8,1,12) 13.8 s and 143 MB; odd-d cells near it take under 4 s.
# Both parities grow like 4^m in the base strand count m, and even d also
# like 2^n in n, so a cap on the factor count alone would not bound the
# work: (2,10,1,2) has 10 factors and takes 13 s, (3,10,1,2) 43 s.
MAX_WITNESS_WORK = 50_000_000


class CertificateError(RuntimeError):
    """A claimed certificate failed verification in the exact engine."""


def diagonal_fn(fp: FiberProduct) -> RingMap:
    """Collapse map of the fiber power: every copy w{l}_i_j goes to w1_i_j.

    Base and copy-1 classes obey exactly the rules of the configuration
    space on m+n points, so they span a copy of that ring inside fp.ring,
    and the kernel is the kernel of the collapse onto it.  The images are
    named by ``fp.w`` over ``fp.classes()``, in registration order.
    """
    images = {fp.w(l, i, j): gen(fp.w(1, i, j)) for l, i, j in fp.classes()}
    f = RingMap(fp.ring, images)
    validate_ring_map(f)
    return f


def tower_diagonal(tower: SphereBundleTower) -> RingMap:
    """Collapse map of the tower: u_i goes to the section Euler class.

    Base classes and u map identically.  By Leray-Hirsch the tower is free
    over its one-level subring (base plus u), so this collapse onto it has
    the kernel of the collapse onto the single-level tower.
    """
    images = {name: gen(name) for name in tower.ring.generator_names()}
    for name in tower.u_names:
        images[name] = tower.section_euler
    f = RingMap(tower.ring, images)
    validate_ring_map(f)
    return f


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class NonzeroCertificate:
    """A verified nonvanishing product of kernel classes.

    ``witness_monomial`` is the first monomial of the product in the
    canonical order, with its exact coefficient.
    """

    ring_name: str
    factors: tuple[GradedElement, ...]
    witness_monomial: Word
    coefficient: Fraction
    provenance: str

    @property
    def bound(self) -> int:
        """The certified bound: the number of positive-degree factors."""
        return len(self.factors)


def certificate_to_dict(cert: NonzeroCertificate) -> dict:
    return {
        "ring": cert.ring_name,
        "factors": [element_to_json(f) for f in cert.factors],
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
                f"{collapse.ring.name}: element {idx} does not lie in the collapse kernel"
            )


def _kernel_product_certificate(
    collapse: RingMap, factors: Sequence[GradedElement], provenance: str
) -> NonzeroCertificate:
    """Certificate for the product of the factors, in the collapse's ring."""
    ring = collapse.ring
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
        provenance=provenance,
    )


def _copy_difference(fp: FiberProduct, l1: int, l2: int, i: int, j: int) -> GradedElement:
    """w{l1}_i_j - w{l2}_i_j, a kernel class of the collapse map."""
    return subtract(gen(fp.w(l1, i, j)), gen(fp.w(l2, i, j)))


def copy_differences(fp: FiberProduct) -> dict[str, GradedElement]:
    """The kernel classes w{l1}_i_j - w{l2}_i_j, l1 < l2, of the fiber
    classes (j > m), by label, in the order of j, i, l1 and l2."""
    return {
        f"{fp.w(l1, i, j)} - {fp.w(l2, i, j)}": _copy_difference(fp, l1, l2, i, j)
        for j in range(fp.m + 1, fp.m + fp.n + 1)
        for i in range(1, j)
        for l1 in range(1, fp.r + 1)
        for l2 in range(l1 + 1, fp.r + 1)
    }


def _witness_terms(d: int, m: int, n: int, r: int) -> int:
    """Term count of the normal form of the fn witness product, in closed
    form: 4^(m-1) / 2 for odd d, n 2^(2m+n-4) r + 2^(m+n-2) for even d."""
    if d % 2 == 1:
        return 2 ** (2 * m - 3)
    return n * 2 ** (2 * m + n - 4) * r + 2 ** (m + n - 2)


def witness_work(d: int, m: int, n: int, r: int) -> int:
    """Estimated cost of the fn witness product: terms x L x (L + m + n)
    for L factors.

    Each factor multiplies a partial product of at most ``terms`` terms, and
    each term costs a merge over its L factors plus a rewrite chain that
    moves one strand at a time.  ``terms`` is the larger of the final term
    count (_witness_terms) and 6 * 5^(m-2), which bounds the peak partial
    product measured in both parities: 6, 22, 88, 372, 1630, 7302, 33142
    and 151562 terms for m = 2..9.  Raises ValueError for a cell out of
    range (presentations.fn_witness_length).
    """
    length = fn_witness_length(d, m, n, r)
    terms = max(_witness_terms(d, m, n, r), 6 * 5 ** (m - 2))
    return terms * length * (length + m + n)


def check_witness_work(d: int, m: int, n: int, r: int) -> None:
    """Raise ValueError when the cell is out of range, its witness degree is
    over MAX_SERIES_DEGREE or witness_work exceeds MAX_WITNESS_WORK, in that
    order, as building the cell and then its witness would.  The degree
    bounds m, n and r, so the estimate of a huge cell is never formed."""
    check_series_degree(fn_witness_length(d, m, n, r) * (d - 1))
    work = witness_work(d, m, n, r)
    if work > MAX_WITNESS_WORK:
        raise ValueError(
            f"fn witness at d={d}, m={m}, n={n}, r={r} has "
            f"{fn_witness_length(d, m, n, r)} factors and a work estimate of {work}, "
            f"over {MAX_WITNESS_WORK} (MAX_WITNESS_WORK)"
        )


# Work up to which value fn certifies live: the costliest cell of the old box
# d, m in {2, 3}, n in {1, 2}, r in {2, 3}.  The 3493 cells under it within
# MAX_SERIES_DEGREE certify in at most 46 ms each (best of 5, shared 2-core host).
LIVE_WITNESS_WORK = witness_work(2, 3, 2, 3)


def witness_is_live(d: int, m: int, n: int, r: int) -> bool:
    """Whether value fn certifies the cell live: its witness degree is within
    MAX_SERIES_DEGREE, read first so that a huge cell forms no estimate, and
    its witness_work within LIVE_WITNESS_WORK.  ValueError out of range."""
    degree = fn_witness_length(d, m, n, r) * (d - 1)
    return degree <= MAX_SERIES_DEGREE and witness_work(d, m, n, r) <= LIVE_WITNESS_WORK


def verify_witness_fn(fp: FiberProduct) -> NonzeroCertificate:
    """Build and verify the witness product for the fiber power.

    For odd d the product takes one difference per extra base strand, the
    square of one difference per fiber point, and one difference per
    remaining copy; for even d squares vanish, and consecutive-index
    differences replace them.  The factor count is r*n + m - 1 (d odd) or
    r*n + m - 2 (d even).  Raises ValueError, before any factor is built,
    when the cell is over MAX_WITNESS_WORK.
    """
    d, m, n, r = fp.d, fp.m, fp.n, fp.r
    check_witness_work(d, m, n, r)
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
    assert len(factors) == fn_witness_length(d, m, n, r)
    return _kernel_product_certificate(
        diagonal_fn(fp), factors, provenance="fiber-product-diagonal-kernel-witness"
    )


def euler_height(P: RingPresentation, e: GradedElement, max_power: int) -> int:
    """Largest k <= max_power with e^k nonzero in normal form (0 for e = 0)."""
    chain = Chain(P)
    for _ in range(max_power):
        if not chain.times(e):
            break
    return chain.length


def sphere_bundle_lower_bound(
    tower: SphereBundleTower,
    partition: Sequence[int] | None = None,
) -> NonzeroCertificate:
    """Certificate from the tower witness product.

    The i-th factor is u_i minus the pullback section Euler class, raised to
    the power b_i + 1, where the b_i are nonnegative and sum to the height h
    of the section Euler class; the certified bound is h + r - 1.  The
    default partition puts all of h on the first factor.  A tower of r < 2,
    or a partition that is not such a composition, is a bad request and
    raises ValueError.
    """
    r = tower.r
    if r < 2:
        raise ValueError(f"tower witness needs at least two factors (r >= 2), got r={r}")
    step = tower.q - 1
    top = sum(g.degree for g in tower.ring.generators)
    h = euler_height(tower.ring, tower.section_euler, max_power=top // step + 1)
    if partition is None:
        partition = (h,) + (0,) * (r - 2)
    partition = tuple(int(b) for b in partition)
    if len(partition) != r - 1 or any(b < 0 for b in partition) or sum(partition) != h:
        raise ValueError(
            f"partition {partition} is not a nonnegative composition of the height {h} "
            f"into {r - 1} parts"
        )
    factors: list[GradedElement] = []
    for i, (u, b) in enumerate(zip(tower.u_names, partition), start=1):
        f = subtract(gen(u), tower.pullback_section_euler(i))
        factors.extend([f] * (b + 1))
    return _kernel_product_certificate(
        tower_diagonal(tower), factors, provenance="sphere-bundle-tower-witness"
    )


# -- cup length of the kernel -------------------------------------------------------


class CupLength(int):
    """A cup length that is its int value, and says how it was shown maximal.

    ``error_bound`` is None when a nonzero product reached the degree ceiling
    top degree // least element degree, which no nonzero product passes, and
    otherwise the exact chance, at most, that a longer nonzero product
    exists.  ``optimality`` says which: ``"ceiling"`` or ``"probabilistic"``.

    >>> k = CupLength(3, Fraction(1, 2**59))
    >>> k == 3, k + 1, k.optimality
    (True, 4, 'probabilistic')
    """

    error_bound: Fraction | None

    def __new__(cls, length: int, error_bound: Fraction | None = None):
        self = super().__new__(cls, length)
        self.error_bound = error_bound
        return self

    @property
    def optimality(self) -> str:
        return "ceiling" if self.error_bound is None else "probabilistic"


def _chain_product(chain: Chain, x: GradedElement, best: int) -> bool:
    """chain.times(x), refused with ValueError, before the product is formed,
    when the chain already has MAX_CUP_LENGTH factors or the product would
    multiply more than MAX_CHAIN_PAIRS pairs of terms."""
    if chain.length >= MAX_CUP_LENGTH:
        raise ValueError(
            f"cup-length chain on {chain.ring.name} would pass the length cap of "
            f"{MAX_CUP_LENGTH} (MAX_CUP_LENGTH); best so far {best}"
        )
    pairs = chain.size * len(x.terms)
    if pairs > MAX_CHAIN_PAIRS:
        raise ValueError(
            f"cup-length chain on {chain.ring.name} would multiply {pairs} pairs of terms, "
            f"over the cap of {MAX_CHAIN_PAIRS} (MAX_CHAIN_PAIRS); best so far {best}"
        )
    return chain.times(x)


def cup_length_kernel(
    P: RingPresentation,
    collapse: RingMap,
    elements: Sequence[GradedElement],
) -> CupLength:
    """Greatest k with a nonzero k-fold product of the elements.

    No nonzero product passes the degree ceiling top degree // least element
    degree, with the top degree of :func:`ring_top_degree`.  A greedy chain
    comes first: it takes the elements in the given order, skips any that
    would pass the top degree or give a zero product, and never multiplies
    an odd-degree element by itself (x x = -x x over Q).  If it reaches the
    ceiling, that is the answer, with optimality ``"ceiling"``.

    Otherwise one chain of generic combinations x_j = sum_i a_ij e_i, with
    the a_ij drawn from 1..2^61 by ``random.Random(CUP_LENGTH_SEED)``, is
    multiplied until its product vanishes or reaches the ceiling.  The
    product is multilinear, and each monomial in the a_ij of x_1 ... x_k
    carries one product of k elements, so x_1 ... x_k is nonzero as a
    polynomial exactly when some k-fold product of the elements is.  Each
    x_j is checked to lie in the kernel, so a nonzero product is an exact
    certificate; a first zero at step k+1 misses a nonzero polynomial of
    degree k+1 with probability at most (k+1)/2^61 (Schwartz 1980, Zippel
    1979), the ``error_bound`` of the ``"probabilistic"`` answer.  The
    answer is the longer of the two chains.

    Every element must be homogeneous and lie in the kernel of the collapse
    map, whose ring must be P itself.  Raises ValueError, naming the ring and
    the best length so far, before a product of either chain would pass
    MAX_CUP_LENGTH factors or multiply more than MAX_CHAIN_PAIRS pairs of
    terms, and, before any product, when ring_top_degree refuses the ring.
    """
    if P is not collapse.ring:
        raise ValueError(f"cup length asked in {P.name} with a collapse map of {collapse.ring.name}")
    degrees: list[int] = []
    for idx, e in enumerate(elements):
        d = element_degree(P, e)
        if d is None:
            raise CertificateError(f"kernel element {idx} is zero")
        degrees.append(d)
    _check_in_kernel(collapse, elements)
    if not elements:
        return CupLength(0)
    top = ring_top_degree(P)
    ceiling = top // min(degrees)

    greedy, degree, start = Chain(P), 0, 0
    while greedy.length < ceiling:
        for idx in range(start, len(elements)):
            if degree + degrees[idx] <= top and _chain_product(greedy, elements[idx], greedy.length):
                degree, start = degree + degrees[idx], idx + degrees[idx] % 2
                break
        else:
            break
    if greedy.length == ceiling:
        return CupLength(ceiling)

    rng = random.Random(CUP_LENGTH_SEED)
    generic = Chain(P)
    while generic.length < ceiling:
        coeffs = [rng.getrandbits(61) + 1 for _ in elements]  # uniform on 1..2^61
        x = element((a * c, w) for a, e in zip(coeffs, elements) for w, c in e.terms.items())
        _check_in_kernel(collapse, [x])
        best = max(greedy.length, generic.length)
        if not _chain_product(generic, x, best):
            return CupLength(best, Fraction(generic.length + 1, 2**61))
    return CupLength(ceiling)
