"""Euler characteristics of line bundles on threefold profiles.

The characteristic of a line bundle D on a threefold is

    chi(D) = 1/12 * D.(D - K).(2D - K) + 1/12 * c2.D + chi_O,

and chi_O itself satisfies chi_O = -1/24 * K.c2.  Everything here is built
symbolically from these two facts and evaluated exactly.  Vanishing
theorems are never proved: extracting h^0 from chi requires a declared
flag stating that the divisor has the shape canonical-plus-ample
(Kodaira) or canonical-plus-nef-and-big (Kawamata-Viehweg).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bounds import (
    bs_class,
    fukuma_gap_class,
    fukuma_ka_class,
    miyaoka_correction,
    nefbig_class,
)
from .core import (
    ClassExpr,
    DivisorExpr,
    NumberExpr,
    expand_product,
    identity_check,
)
from .profile import FlagKind, NonIntegerChiError, ThreefoldProfile

_TWELFTH = Fraction(1, 12)


class ChiExpression(NamedTuple):
    """A divisor together with the symbolic form of its characteristic."""

    divisor: DivisorExpr
    expr: NumberExpr


def chi_class(D: ClassExpr, K: ClassExpr) -> NumberExpr:
    """Symbolic characteristic of a degree-one class, canonical class K."""
    if D.degree != 1 or K.degree != 1:
        raise ValueError("chi_class expects degree-one classes")
    cubic = expand_product([D, D - K, 2 * D - K])
    pairing = expand_product([ClassExpr.c2_atom(), D])
    return _TWELFTH * cubic + _TWELFTH * pairing + NumberExpr.chi_o_atom()


def chi_expression(D: DivisorExpr, K: DivisorExpr) -> ChiExpression:
    """The characteristic of O(D) as a symbolic number over the basis of D, K."""
    expr = chi_class(ClassExpr.from_divisor(D), ClassExpr.from_divisor(K))
    return ChiExpression(divisor=D, expr=expr)


def chi_line_bundle(p: ThreefoldProfile, D: DivisorExpr) -> Fraction:
    """Exact chi(X, O(D)) on the profile."""
    return p.number_eval(chi_expression(D, p.canonical).expr)


def chi_O_consistency(p: ThreefoldProfile) -> tuple[Fraction, Fraction]:
    """The stored chi_O next to -1/24 * K.c2; callers compare the two."""
    return (p.chi_O, Fraction(-1, 24) * p.c2_pair(p.canonical))


def h0_lower_bound_from_chi(p: ThreefoldProfile, D: DivisorExpr) -> int:
    """h^0(D) as an exact integer under a declared vanishing flag.

    Requires a flag certifying that D - K is ample (Kodaira vanishing) or
    nef and big (Kawamata-Viehweg vanishing); the flag subject is matched
    syntactically against D - K.  Under such a flag the higher cohomology
    vanishes and chi equals h^0.
    """
    p.require_flag(FlagKind.NEF_AND_BIG, D - p.canonical)
    chi = chi_line_bundle(p, D)
    if chi.denominator != 1:
        raise NonIntegerChiError(
            f"chi({D}) = {chi} is not an integer; the profile is inconsistent"
        )
    return int(chi)


def chi_identity_suite() -> list[tuple[str, bool]]:
    """Verify the fixed list of characteristic identities symbolically.

    Each identity is checked as a canonical-form equality with the pairing
    c2.K folded into the chi_O atom, so a True result is a proof valid on
    every threefold profile, not a numerical spot check.
    """
    K = ClassExpr.symbol("K")
    A = ClassExpr.symbol("A")
    D = ClassExpr.symbol("D")

    def chi(x: ClassExpr) -> NumberExpr:
        return chi_class(x, K)

    q = miyaoka_correction(K, A)
    gap = expand_product([K + 2 * A, A, K + 7 * A])  # cubic part of chi(K+2A) - chi(K+A)

    # the bound identities prove the very formulas the bound rules evaluate
    identities = (
        ("chi(K+A)-chi(2K+A)", chi(K + A) - chi(2 * K + A), nefbig_class(K, A)),
        ("chi(K+2A)-2chi(K+A)", chi(K + 2 * A) - 2 * chi(K + A), bs_class(K, A)),
        (
            "chi(K+2A)-chi(K+A)",
            chi(K + 2 * A) - chi(K + A),
            _TWELFTH * (gap + expand_product([ClassExpr.c2_atom(), A])),
        ),
        (
            "c2-elimination-adjoint",
            _TWELFTH * expand_product([K + A, A, K + 2 * A])
            - Fraction(1, 24) * expand_product([K + 2 * A, q]),
            fukuma_ka_class(K, A),
        ),
        (
            "c2-elimination-gap",
            _TWELFTH * (gap - expand_product([A, q])),
            fukuma_gap_class(K, A),
        ),
        ("serre-duality-sign", chi(K - D), -chi(D)),
    )
    return [(name, identity_check(lhs, rhs)) for name, lhs, rhs in identities]
