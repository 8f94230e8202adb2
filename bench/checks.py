"""Per-op correctness checks of the benchmark.

Every expected value is computed here from closed forms or from the
metric axioms; nothing is taken from ``distnav.knowledge``.  A check
raises :class:`CheckFailed`; the run loop counts the op as failed and
keeps going.
"""

from __future__ import annotations

from fractions import Fraction

# Tolerances of the shipped guarantees (acceptance criteria 6 to 8).
EQUIVARIANCE_TOL = 1e-9
DEVIATION_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12
LP_AXIOM_TOL = 3e-6
DIRAC_TOL = 1e-6


class CheckFailed(AssertionError):
    """An op returned a wrong or out-of-tolerance result."""


def fn_closed_form(d: int, m: int, n: int, r: int) -> int:
    """rn+m-1 for odd d, rn+m-2 for even d."""
    return r * n + m - 1 if d % 2 == 1 else r * n + m - 2


def cpn_tower_height(n: int) -> int:
    """Height of the section Euler class e = 2u - a1 over CP^n (q = 3).

    u^2 = a1 u gives e^2 = a1^2, so e^(2k) = a1^(2k) and
    e^(2k+1) = a1^(2k) (2u - a1).  These vanish once a1^(2k) does, i.e.
    for 2k > n, so the height is n for odd n and n + 1 for even n.
    """
    return n if n % 2 == 1 else n + 1


def check_fn_certificate(cell: tuple[int, int, int, int], bound: int, coefficient) -> None:
    expected = fn_closed_form(*cell)
    if bound != expected:
        raise CheckFailed(f"fn{cell}: bound {bound}, closed form {expected}")
    if not isinstance(coefficient, Fraction) or coefficient == 0:
        raise CheckFailed(f"fn{cell}: witness coefficient {coefficient!r} is not a nonzero Fraction")


def check_tower(n: int, r: int, height: int, bound: int) -> None:
    if height != cpn_tower_height(n):
        raise CheckFailed(f"tower cp{n} r={r}: height {height}, expected {cpn_tower_height(n)}")
    if bound != height + r - 1:
        raise CheckFailed(f"tower cp{n} r={r}: bound {bound} != height {height} + r - 1")
    if bound < n + r - 1:
        raise CheckFailed(f"tower cp{n} r={r}: bound {bound} < n + r - 1 = {n + r - 1}")


def check_equal(what: str, got, expected) -> None:
    if got != expected:
        raise CheckFailed(f"{what}: got {got!r}, expected {expected!r}")


def check_at_most(what: str, value: float, limit: float) -> None:
    # `not <=` also rejects NaN.
    if not value <= limit:
        raise CheckFailed(f"{what}: {value!r} exceeds {limit!r}")


def check_weight_sum(what: str, total) -> None:
    check_at_most(f"{what} weight sum", abs(float(total) - 1.0), WEIGHT_SUM_TOL)


def check_lp_symmetric(d_ab: float, d_ba: float) -> None:
    check_at_most("LP symmetry |d(a,b) - d(b,a)|", abs(d_ab - d_ba), LP_AXIOM_TOL)


def check_lp_self(d_aa: float) -> None:
    check_at_most("LP d(a,a)", d_aa, LP_AXIOM_TOL)


def check_lp_triangle(d_ab: float, d_bc: float, d_ac: float) -> None:
    """All three triangle inequalities of one triple, within LP_AXIOM_TOL."""
    for side, a, b in ((d_ac, d_ab, d_bc), (d_ab, d_ac, d_bc), (d_bc, d_ab, d_ac)):
        check_at_most("LP triangle inequality", side - (a + b), LP_AXIOM_TOL)


def check_lp_dirac(d: float, euclidean: float) -> None:
    """LP distance of two Diracs is min(|p - q|, 1)."""
    check_at_most("LP Dirac pair error", abs(d - min(euclidean, 1.0)), DIRAC_TOL)
