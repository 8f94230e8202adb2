"""Catalog of shipped ring presentations.

Three families:

* ``config_space(d, k)`` - rational cohomology of the space of k distinct
  labeled points in R^d: the fiber power below at m = k, n = 0, r = 1,
  without its gate.  One generator w_i_j of degree d-1 per index pair
  i < j, with the quadratic straightening rules

      w_i_k * w_j_k  ->  w_i_j * w_j_k - w_i_j * w_i_k      (i < j < k)

  plus explicit square-zero rules when d-1 is even.  Normal-form monomials
  are exactly the products with pairwise distinct second indices, so the
  graded dimensions are the coefficients of prod_{i=1}^{k-1} (1 + i t^{d-1}).

* ``fn_fiber_product(d, m, n, r)`` - the r-fold fiber power of the bundle
  "forget the last n points" over the m-point configuration space.  Base
  classes w_i_j (j <= m) are shared; classes with second index j > m come in
  r superscripted copies w{l}_i_j, each copy satisfying its own straightening
  rules (no cross-superscript relation beyond graded commutativity).  The
  builder validates the graded dimensions against the closed-form product
  formula up to the witness degree and raises on any mismatch, so a missing
  or wrong relation cannot slip through silently.

* ``sphere_bundle_tower(base, q, r)`` - iterated unit sphere bundle tower
  over a base ring: one class u of degree q-1 with u^2 = e_eta * u, then
  r-1 further classes u_i with u_i^2 = e * u_i where e is the section Euler
  class (2u - e_eta for odd q, the pullback of e_eta, rationally zero, for
  even q).  The Euler class e_eta is the hyperplane class a1 over cpN at
  q = 3, the bundle S(L + 1), and zero otherwise, the trivial bundle.  Each
  adjunction doubles the graded dimensions; the builder checks that too.
  A tower is named "sb:base=<base>,q=..,r=..", which the catalog reads
  back as that very ring.

Base presentations ``point()``, ``sphere(k)`` and ``complex_projective(n)``
are provided; the truncated polynomial ring of complex projective space is
made quadratic by one generator per power class (a1, .., an with
ai * aj -> a{i+j} or 0).

``catalog(name)`` resolves the string names this module writes, e.g.
"conf:d=2,k=4", "fn:d=2,m=2,n=1,r=2", "sb:base=cp2,q=3,r=2", "cp3", "s2",
"point"; it reads them by one pattern per family.  Parameters out of range,
or a ring of more than MAX_RING_RULES rules (counted in closed form before
anything is built), raise a plain ValueError; a failed gate raises
PresentationError.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Iterable

from .gcring import (
    MAX_RING_RULES,
    GradedElement,
    Generator,
    PresentationError,
    RingPresentation,
    Rule,
    check_rule_count,
    check_series_degree,
    element,
    gen,
    poincare_series,
    poly_mul,
    scale,
    subtract,
    zero,
)

__all__ = [
    "point",
    "sphere",
    "complex_projective",
    "config_space",
    "FiberProduct",
    "fn_fiber_product",
    "fn_poincare_formula",
    "fn_witness_length",
    "SphereBundleTower",
    "sphere_bundle_tower",
    "cpn_sphere_bundle",
    "catalog",
    "shipped_names",
    "MAX_RING_RULES",
]

# -- base presentations --------------------------------------------------------


def point() -> RingPresentation:
    """The ground field: no generators."""
    return RingPresentation((), (), name="point")


def sphere(k: int) -> RingPresentation:
    """One generator s of degree k with s^2 = 0."""
    if k < 1:
        raise ValueError("sphere dimension must be >= 1")
    gens = (Generator("s", k),)
    return RingPresentation(gens, _square_zero_rules(gens), name=f"s{k}")


def complex_projective(n: int) -> RingPresentation:
    """Truncated polynomial ring on a degree-2 class, quadratically presented.

    Generator a{k} stands for the k-th power of the hyperplane class, so the
    rules are a{i} * a{j} -> a{i+j} for i+j <= n and -> 0 beyond the cut.
    """
    if n < 1:
        raise ValueError("projective space dimension must be >= 1")
    check_rule_count(f"cp{n}", n * (n + 1) // 2)
    gens = tuple(Generator(f"a{k}", 2 * k) for k in range(1, n + 1))
    rules = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            rhs = element([(1, (f"a{i + j}",))]) if i + j <= n else zero()
            rules.append(((f"a{i}", f"a{j}"), rhs))
    return RingPresentation(gens, rules, name=f"cp{n}")


# -- configuration spaces --------------------------------------------------------


def _w(i: int, j: int, superscript: int = 0) -> str:
    return f"w_{i}_{j}" if superscript == 0 else f"w{superscript}_{i}_{j}"


def _straightening_rules(name: Callable[[int, int], str], ks: Iterable[int]) -> list[Rule]:
    """w(i,k) * w(j,k) -> w(i,j) * w(j,k) - w(i,j) * w(i,k) for i < j < k, k in ks."""
    return [
        (
            (name(i, k), name(j, k)),
            element([(1, (name(i, j), name(j, k))), (-1, (name(i, j), name(i, k)))]),
        )
        for k in ks
        for j in range(2, k)
        for i in range(1, j)
    ]


def _square_zero_rules(gens: Iterable[Generator]) -> list[Rule]:
    """g * g -> 0 for every even-degree generator; odd squares vanish implicitly."""
    return [((g.name, g.name), zero()) for g in gens if g.degree % 2 == 0]


def _binomial_product(step: int, coeffs: Iterable[int], max_degree: int) -> list[int]:
    """Coefficients of prod_c (1 + c t^step) up to max_degree (step >= 1)."""
    out = [1] + [0] * max_degree
    for c in coeffs:
        for deg in range(max_degree, step - 1, -1):
            out[deg] += c * out[deg - step]
    return out


def _fiber_classes(m: int, n: int, r: int) -> list[tuple[int, int, int]]:
    """(copy, i, j) of each fiber power class, copy 0 for a base class, in
    registration order: second index (the rank), then copy, then first index."""
    copies = range(1, r + 1)
    return [(l, i, j) for j in range(2, m + n + 1) for l in ((0,) if j <= m else copies) for i in range(1, j)]


def _fiber_power(name: str, d: int, m: int, n: int, r: int) -> RingPresentation:
    """The presentation of the fiber power, its rules counted against
    MAX_RING_RULES before any generator is built; no dimension gate."""
    deg = d - 1
    k = m + n
    squares = comb(m, 2) + r * (comb(k, 2) - comb(m, 2)) if deg % 2 == 0 else 0
    straightening = comb(m, 3) + r * (comb(k, 3) - comb(m, 3))
    check_rule_count(name, straightening + squares)
    gens = [Generator(_w(i, j, l), deg, rank=j) for l, i, j in _fiber_classes(m, n, r)]
    # Shared straightening below the base cut, one copy per superscript above.
    rules = _square_zero_rules(gens) + _straightening_rules(_w, range(3, m + 1))
    for l in range(1, r + 1):
        rules += _straightening_rules(lambda i, j: _w(i, j, 0 if j <= m else l), range(max(3, m + 1), k + 1))
    return RingPresentation(gens, rules, name=name)


@lru_cache(maxsize=None)
def config_space(d: int, k: int) -> RingPresentation:
    """Presentation of the k-point configuration space of R^d: the fiber
    power at m = k, n = 0, r = 1, without its gate; needs d >= 2, k >= 1."""
    if d < 2 or k < 1:
        raise ValueError(f"need d >= 2 and k >= 1, got d={d}, k={k}")
    return _fiber_power(f"conf:d={d},k={k}", d, k, 0, 1)


# -- fiber products ---------------------------------------------------------------


@dataclass(frozen=True)
class FiberProduct:
    """Presented r-fold fiber power with its parameters and name helpers."""

    ring: RingPresentation
    d: int
    m: int
    n: int
    r: int

    def w(self, l: int, i: int, j: int) -> str:
        """Class name for index pair (i, j) in copy l; base classes for j <= m."""
        return _w(i, j, 0 if j <= self.m else l)

    def classes(self) -> list[tuple[int, int, int]]:
        """(copy, i, j) of every generator, in registration order."""
        return _fiber_classes(self.m, self.n, self.r)


def fn_witness_length(d: int, m: int, n: int, r: int) -> int:
    """Factor count of the fn witness product (see bounds.verify_witness_fn).
    Every fn entry point reads it first, so it owns the cell range: ValueError
    unless d >= 2 dimensions, m >= 2 obstacles, n >= 1 robots, r >= 2 stages."""
    if d < 2 or m < 2 or n < 1 or r < 2:
        raise ValueError(f"need d >= 2, m >= 2, n >= 1, r >= 2; got d={d}, m={m}, n={n}, r={r}")
    return r * n + m - 1 if d % 2 == 1 else r * n + m - 2


def fn_poincare_formula(d: int, m: int, n: int, r: int, max_degree: int) -> list[int]:
    """prod_{i=1}^{m-1}(1+i t^{d-1}) * (prod_{i=0}^{n-1}(1+(m+i) t^{d-1}))^r.

    Classical additive structure of the fiber power: base times r independent
    fiber factors.  Cross-checked against brute-force enumeration at r = 1 in
    the tests.
    """
    return _binomial_product(d - 1, [*range(1, m)] + [*range(m, m + n)] * r, max_degree)


@lru_cache(maxsize=None)
def fn_fiber_product(d: int, m: int, n: int, r: int) -> FiberProduct:
    """Build and dimension-validate the fiber power presentation.

    Raises PresentationError if the admissible-monomial counts deviate from
    the closed-form product formula anywhere up to the witness degree, and
    ValueError, before building anything, for parameters out of range or a
    witness degree over MAX_SERIES_DEGREE.
    """
    limit = fn_witness_length(d, m, n, r) * (d - 1)
    check_series_degree(limit)
    ring = _fiber_power(f"fn:d={d},m={m},n={n},r={r}", d, m, n, r)
    got = poincare_series(ring, limit)
    expected = fn_poincare_formula(d, m, n, r, limit)
    if got != expected:
        raise PresentationError(
            f"{ring.name}: graded dimensions {got} disagree with the product "
            f"formula {expected}; the relation set is wrong, refusing to continue"
        )
    return FiberProduct(ring=ring, d=d, m=m, n=n, r=r)


# -- sphere bundle towers -----------------------------------------------------------


@dataclass(frozen=True)
class SphereBundleTower:
    """Iterated sphere-bundle tower ring with its distinguished elements."""

    ring: RingPresentation
    section_euler: GradedElement  # e = e(xi..), degree q-1, in base + u
    q: int
    r: int

    @property
    def u_names(self) -> tuple[str, ...]:
        """The r-1 top-level classes u1..u{r-1} (u itself is the first level)."""
        return tuple(f"u{i}" for i in range(1, self.r))

    def pullback_section_euler(self, i: int) -> GradedElement:
        """e(eta_i') for level i: 2*u{i} - e for odd q, e for even q."""
        if self.q % 2 == 1:
            return subtract(scale(2, gen(f"u{i}")), self.section_euler)
        return self.section_euler


def sphere_bundle_tower(base: RingPresentation, q: int, r: int) -> SphereBundleTower:
    """Adjoin u with u^2 = e_eta*u, then u1..u{r-1} with u_i^2 = e*u_i.

    The Euler class e_eta is ``_catalog_euler_class(base.name, q)``.  The
    section Euler class e is 2u - e_eta when q is odd; for even q the class
    has odd degree and vanishes rationally, so e = e_eta = 0, which makes
    the u_i rules exterior ones.  Validates the Leray-Hirsch doubling of
    graded dimensions at every level; raises ValueError, before adjoining
    anything, for q < 2, r < 1, or a check that would go past
    MAX_SERIES_DEGREE.
    """
    if q < 2 or r < 1:
        # r = 1 is the degenerate single-level tower (just u).
        raise ValueError(f"need q >= 2 and r >= 1, got q={q}, r={r}")
    step = q - 1
    top = sum(g.degree for g in base.generators) + step * r
    check_series_degree(top)
    euler_class = _catalog_euler_class(base.name, q)
    base_rank = max((g.rank for g in base.generators), default=0)
    gens = list(base.generators)
    gens.append(Generator("u", step, rank=base_rank + 1))
    for i in range(1, r):
        gens.append(Generator(f"u{i}", step, rank=base_rank + 1 + i))

    rules = list(base.rules.items())
    if step % 2 == 0:
        # Even step means odd q: x^2 = e x with e = e_eta for u and e = 2u - e_eta
        # for each u_i.
        section = subtract(scale(2, gen("u")), euler_class)
        for x, e in [("u", euler_class)] + [(f"u{i}", section) for i in range(1, r)]:
            rules.append(((x, x), element([(c, w + (x,)) for w, c in e.terms.items()])))
    else:
        # Odd fiber degree: all the truncation classes square to zero
        # implicitly, and the section Euler class is rationally zero.
        section = zero()

    ring = RingPresentation(gens, rules, name=f"sb:base={base.name},q={q},r={r}")
    tower = SphereBundleTower(ring=ring, section_euler=section, q=q, r=r)

    # Leray-Hirsch gate: adjoining each sphere class doubles the dimensions.
    expected = poly_mul(poincare_series(base, top), _binomial_product(step, [1] * r, top), top)
    got = poincare_series(ring, top)
    if got != expected:
        raise PresentationError(
            f"{ring.name}: tower dimensions {got} disagree with Leray-Hirsch "
            f"doubling {expected}; refusing to continue"
        )
    return tower


def _catalog_euler_class(base_name: str, q: int) -> GradedElement:
    """The Euler class of the tower over this base and q: the hyperplane
    class a1 over cpN at q = 3 (``cpn_sphere_bundle``), else zero."""
    return gen("a1") if q == 3 and re.fullmatch(f"cp{_N}", base_name) else zero()


@lru_cache(maxsize=None)
def cpn_sphere_bundle(n: int, r: int) -> SphereBundleTower:
    """Tower over complex projective n-space for the line-bundle-plus-trivial
    construction: e_eta is the hyperplane class, fiber is a 2-sphere (q = 3).
    Before the base is built, r < 1 raises ValueError, and for n >= 1 the
    tower's top degree n(n+1) + 2r is checked against MAX_SERIES_DEGREE;
    n < 1 keeps the message of complex_projective.
    """
    if r < 1:
        raise ValueError(f"need q >= 2 and r >= 1, got q=3, r={r}")
    if n >= 1:
        check_series_degree(n * (n + 1) + 2 * r)
    base = complex_projective(n)
    return sphere_bundle_tower(base, q=3, r=r)


# -- named catalog ------------------------------------------------------------------

# The catalog grammar: one pattern per family, each number ASCII digits.  A
# tower's base is anchored on the trailing ",q=..,r=..", so it may hold commas
# (conf, fn), but it is no tower: a tower over a tower adjoins u twice, which
# sphere_bundle_tower refuses.  A name matches whole or not at all, and the
# first family that matches builds the ring from its fields, a cached builder
# called positionally to share the entries of direct calls.
_N = "[0-9]+"
_FAMILIES: dict[str, Callable[..., RingPresentation]] = {
    "point": point,
    f"s(?P<k>{_N})": sphere,
    f"cp(?P<n>{_N})": complex_projective,
    f"conf:d=(?P<d>{_N}),k=(?P<k>{_N})": lambda d, k: config_space(d, k),
    f"fn:d=(?P<d>{_N}),m=(?P<m>{_N}),n=(?P<n>{_N}),r=(?P<r>{_N})": (
        lambda d, m, n, r: fn_fiber_product(d, m, n, r).ring
    ),
    f"sb:base=cp(?P<n>{_N}),q=0*3,r=(?P<r>{_N})": lambda n, r: cpn_sphere_bundle(n, r).ring,
    f"sb:base=(?P<base>(?!sb:).*),q=(?P<q>{_N}),r=(?P<r>{_N})": (
        lambda base, q, r: sphere_bundle_tower(catalog(base), q, r).ring
    ),
}


def catalog(name: str) -> RingPresentation:
    """Resolve a catalog name to a presentation.  KeyError for a name
    outside the grammar of ``_FAMILIES`` (or with a number over Python's
    digit limit), ValueError when its family rejects its parameters, and
    PresentationError, a ValueError too, when its ring fails a gate."""
    for pattern, build in _FAMILIES.items():
        match = re.fullmatch(pattern, name)
        if match:
            try:
                fields = {key: text if key == "base" else int(text) for key, text in match.groupdict().items()}
            except ValueError:  # int() refuses a number over Python's digit limit
                break
            return build(**fields)
    raise KeyError(f"unknown presentation name {name!r}")


def shipped_names() -> tuple[str, ...]:
    """Catalog entries exercised by the confluence/property acceptance gate."""
    return (
        "point",
        "s2",
        "s3",
        "cp1",
        "cp2",
        "cp3",
        "cp4",
        "conf:d=2,k=3",
        "conf:d=2,k=4",
        "conf:d=2,k=5",
        "conf:d=3,k=3",
        "conf:d=3,k=4",
        "fn:d=2,m=2,n=1,r=2",
        "fn:d=3,m=2,n=1,r=2",
        "fn:d=2,m=3,n=2,r=3",
        "fn:d=3,m=3,n=2,r=2",
        "sb:base=cp2,q=3,r=2",
        "sb:base=cp3,q=3,r=3",
        "sb:base=point,q=2,r=2",
    )
