"""Catalog of shipped ring presentations.

Three families:

* ``config_space(d, k)`` - rational cohomology of the space of k distinct
  labeled points in R^d.  One generator w_i_j of degree d-1 per index pair
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

* ``sphere_bundle_tower(base, euler_class, q, r)`` - iterated unit sphere
  bundle tower over a base ring: one class u of degree q-1 with
  u^2 = e_eta * u, then r-1 further classes u_i with u_i^2 = e * u_i where
  e is the section Euler class (2u - e_eta for odd q, the pullback of e_eta,
  rationally zero, for even q).  Each adjunction doubles the graded
  dimensions; the builder checks that too.

Base presentations ``point()``, ``sphere(k)`` and ``complex_projective(n)``
are provided; the truncated polynomial ring of complex projective space is
made quadratic by one generator per power class (a1, .., an with
ai * aj -> a{i+j} or 0).

``catalog(name)`` resolves the string names used by the CLI and the tests,
e.g. "conf:d=2,k=4", "fn:d=2,m=2,n=1,r=2", "sb:base=cp2,q=3,r=2", "cp3",
"s2", "point".  Parameters out of range raise a plain ValueError; a failed
gate raises PresentationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .gcring import (
    GradedElement,
    Generator,
    PresentationError,
    RewriteRule,
    RingPresentation,
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
    "config_poincare_formula",
    "FiberProduct",
    "fn_fiber_product",
    "fn_poincare_formula",
    "fn_witness_length",
    "SphereBundleTower",
    "sphere_bundle_tower",
    "cpn_sphere_bundle",
    "catalog",
    "shipped_names",
    "poly_mul",
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
    gens = tuple(Generator(f"a{k}", 2 * k) for k in range(1, n + 1))
    rules = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            rhs = element([(1, (f"a{i + j}",))]) if i + j <= n else zero()
            rules.append(RewriteRule((f"a{i}", f"a{j}"), rhs))
    return RingPresentation(gens, rules, name=f"cp{n}")


# -- configuration spaces --------------------------------------------------------


def _w(i: int, j: int, superscript: int = 0) -> str:
    return f"w_{i}_{j}" if superscript == 0 else f"w{superscript}_{i}_{j}"


def _straightening_rules(name: Callable[[int, int], str], ks: Iterable[int]) -> list[RewriteRule]:
    """w(i,k) * w(j,k) -> w(i,j) * w(j,k) - w(i,j) * w(i,k) for i < j < k, k in ks."""
    return [
        RewriteRule(
            (name(i, k), name(j, k)),
            element([(1, (name(i, j), name(j, k))), (-1, (name(i, j), name(i, k)))]),
        )
        for k in ks
        for j in range(2, k)
        for i in range(1, j)
    ]


def _square_zero_rules(gens: Iterable[Generator]) -> list[RewriteRule]:
    """g * g -> 0 for every even-degree generator; odd squares vanish implicitly."""
    return [RewriteRule((g.name, g.name), zero()) for g in gens if g.degree % 2 == 0]


def _binomial_product(step: int, coeffs: Iterable[int], max_degree: int) -> list[int]:
    """Coefficients of prod_c (1 + c t^step) up to max_degree (step >= 1)."""
    out = [1] + [0] * max_degree
    for c in coeffs:
        for deg in range(max_degree, step - 1, -1):
            out[deg] += c * out[deg - step]
    return out


@lru_cache(maxsize=None)
def config_space(d: int, k: int) -> RingPresentation:
    """Presentation of the k-point configuration space of R^d."""
    if d < 2 or k < 1:
        raise ValueError(f"need d >= 2 and k >= 1, got d={d}, k={k}")
    deg = d - 1
    pairs = [(i, j) for j in range(2, k + 1) for i in range(1, j)]
    gens = tuple(Generator(_w(i, j), deg, rank=j) for i, j in pairs)
    rules = _square_zero_rules(gens) + _straightening_rules(_w, range(3, k + 1))
    return RingPresentation(gens, rules, name=f"conf:d={d},k={k}")


def config_poincare_formula(d: int, k: int, max_degree: int) -> list[int]:
    """Coefficients of prod_{i=1}^{k-1} (1 + i t^{d-1}) up to max_degree."""
    return _binomial_product(d - 1, range(1, k), max_degree)


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
        if j <= self.m:
            return _w(i, j)
        return _w(i, j, l)

    def witness_length(self) -> int:
        """Number of positive-degree factors in the witness product."""
        return fn_witness_length(self.d, self.m, self.n, self.r)

    def witness_degree(self) -> int:
        return self.witness_length() * (self.d - 1)


def fn_witness_length(d: int, m: int, n: int, r: int) -> int:
    """Factor count of the fn witness product (see bounds.verify_witness_fn)."""
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
    if d < 2 or m < 2 or n < 1 or r < 2:
        raise ValueError(
            f"need d >= 2, m >= 2, n >= 1, r >= 2; got d={d}, m={m}, n={n}, r={r}"
        )
    check_series_degree(fn_witness_length(d, m, n, r) * (d - 1))
    deg = d - 1
    k = m + n

    def name_for(l: int):
        return lambda i, j: _w(i, j) if j <= m else _w(i, j, l)

    # Registration order: second index, then copy (0 = base), then first
    # index.  The rank (= second index) drives rewrite termination.
    gens = [
        Generator(_w(i, j, l), deg, rank=j)
        for j in range(2, k + 1)
        for l in ((0,) if j <= m else range(1, r + 1))
        for i in range(1, j)
    ]

    # Shared straightening below the base cut, one copy per superscript above.
    rules = _square_zero_rules(gens) + _straightening_rules(_w, range(3, m + 1))
    for l in range(1, r + 1):
        rules += _straightening_rules(name_for(l), range(max(3, m + 1), k + 1))

    ring = RingPresentation(gens, rules, name=f"fn:d={d},m={m},n={n},r={r}")
    fp = FiberProduct(ring=ring, d=d, m=m, n=n, r=r)
    limit = fp.witness_degree()
    got = poincare_series(ring, limit)
    expected = fn_poincare_formula(d, m, n, r, limit)
    if got != expected:
        raise PresentationError(
            f"{ring.name}: graded dimensions {got} disagree with the product "
            f"formula {expected}; the relation set is wrong, refusing to continue"
        )
    return fp


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


def sphere_bundle_tower(
    base: RingPresentation,
    euler_class: GradedElement,
    q: int,
    r: int,
) -> SphereBundleTower:
    """Adjoin u with u^2 = e_eta*u, then u1..u{r-1} with u_i^2 = e*u_i.

    ``euler_class`` must be a degree q-1 element of the base (zero allowed).
    The section Euler class e is 2u - e_eta when q is odd; for even q the
    class has odd degree and vanishes rationally, so e = e_eta as given
    (typically zero), which degenerates the u_i rules toward exterior ones.
    Validates the Leray-Hirsch doubling of graded dimensions at every level;
    raises ValueError, before adjoining anything, for q < 2, r < 1, or a
    check that would go past MAX_SERIES_DEGREE.
    """
    if q < 2 or r < 1:
        # r = 1 is the degenerate single-level tower (just u).
        raise ValueError(f"need q >= 2 and r >= 1, got q={q}, r={r}")
    step = q - 1
    top = sum(g.degree for g in base.generators) + step * r
    check_series_degree(top)
    for word in euler_class.terms:
        if base.word_degree(word) != step:
            raise PresentationError(
                f"Euler class term {word} has degree {base.word_degree(word)}, expected {step}"
            )
    base_rank = max((g.rank for g in base.generators), default=0)
    gens = list(base.generators)
    gens.append(Generator("u", step, rank=base_rank + 1))
    for i in range(1, r):
        gens.append(Generator(f"u{i}", step, rank=base_rank + 1 + i))

    rules = [RewriteRule(lhs, rhs) for lhs, rhs in base.rules.items()]
    if step % 2 == 0:
        # Even step means odd q: x^2 = e x with e = e_eta for u and e = 2u - e_eta
        # for each u_i.
        section = subtract(scale(2, gen("u")), euler_class)
        for x, e in [("u", euler_class)] + [(f"u{i}", section) for i in range(1, r)]:
            rules.append(RewriteRule((x, x), element([(c, w + (x,)) for w, c in e.terms.items()])))
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


@lru_cache(maxsize=None)
def cpn_sphere_bundle(n: int, r: int) -> SphereBundleTower:
    """Tower over complex projective n-space for the line-bundle-plus-trivial
    construction: e_eta is the hyperplane class, fiber is a 2-sphere (q = 3).
    """
    base = complex_projective(n)
    return sphere_bundle_tower(base, gen("a1"), q=3, r=r)


# -- named catalog ------------------------------------------------------------------


def _parse_kv(spec: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in spec.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise KeyError(f"malformed catalog parameter {part!r}")
        out[key.strip()] = value.strip()
    return out


def _int_param(kv: dict[str, str], key: str) -> int:
    """An integer catalog parameter; a missing or non-integer one makes the
    name unknown (KeyError)."""
    try:
        return int(kv[key])
    except ValueError:
        raise KeyError(f"catalog parameter {key}={kv[key]!r} is not an integer") from None


def catalog(name: str) -> RingPresentation:
    """Resolve a catalog name to a presentation.

    Raises KeyError for unknown names, malformed ones included, and
    ValueError (PresentationError among them) when a known family rejects
    its parameters; the CLI maps both to exit code 2.
    """
    if name == "point":
        return point()
    if name.startswith("s") and name[1:].isdigit():
        return sphere(int(name[1:]))
    if name.startswith("cp") and name[2:].isdigit():
        return complex_projective(int(name[2:]))
    kind, _, spec = name.partition(":")
    if kind == "conf":
        kv = _parse_kv(spec)
        return config_space(_int_param(kv, "d"), _int_param(kv, "k"))
    if kind == "fn":
        kv = _parse_kv(spec)
        d, m, n, r = (_int_param(kv, key) for key in "dmnr")
        return fn_fiber_product(d, m, n, r).ring
    if kind == "sb":
        kv = _parse_kv(spec)
        base = catalog(kv["base"])
        q, r = _int_param(kv, "q"), _int_param(kv, "r")
        if q == 3 and kv["base"].startswith("cp"):
            return cpn_sphere_bundle(int(kv["base"][2:]), r).ring
        euler = zero()
        return sphere_bundle_tower(base, euler, q, r).ring
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
