"""Effective section bounds for adjoint bundles and certification routes.

Four exact lower bounds are provided for h^0 of K+A and K+2A on a
threefold profile, together with two certifiers that walk the hypothesis
decision trees and emit machine-checkable certificates.  Flags are trusted
but their computable consequences are enforced: a route that needs
chi_O >= 1 or a nonnegative pairing fails hard when the numbers contradict
the declarations.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .core import ClassExpr, DivisorExpr, NumberExpr, _Record, expand_product
from .profile import FlagContradictionError, FlagKind, PositivityFlag, ThreefoldProfile
from .twist import cotangent_twisted_c2

# citation constants for externally established results consumed by routes
KA00_THM31 = "KA00_THM31"  # non-vanishing when the adjoint is nef but not big
CH02_THM42 = "CH02_THM42"  # non-vanishing on uniruled X with positive irregularity
BASEPOINTFREE = "BASEPOINTFREE"  # semiample positivity of a nef adjoint bundle
FANO_TRIVIAL = "FANO_TRIVIAL"  # a numerically trivial adjoint on a Fano is trivial


class Conclusion(str, Enum):
    NON_VANISHING = "NonVanishing"
    NON_VANISHING_EXTERNAL = "NonVanishingExternal"
    INCONCLUSIVE = "Inconclusive"


# route identifiers, named for the hypothesis pattern they consume
ROUTE_NOT_UNIRULED = "not-uniruled-c2-bound"
ROUTE_NEF_NOT_BIG = "nef-not-big-external"
ROUTE_POSITIVE_IRREGULARITY = "positive-irregularity-external"
ROUTE_ANTICANONICAL = "anticanonical-generically-nef"
ROUTE_FANO_TRIVIAL = "fano-numerically-trivial"
ROUTE_BS_CHI = "uniruled-regular-chi"
ROUTE_NONE = "none"


class Certificate(_Record):
    """Outcome of a non-vanishing certification.

    ``integer_bound`` is always the exact ceiling of ``rational_bound``
    (no flooring at zero), and is filled in when it is omitted.  A
    NonVanishing conclusion carries a strictly positive bound unless the
    trivializing Fano route fired.  Instances are immutable, equal when all
    six fields are, and hash accordingly.
    """

    __slots__ = (
        "conclusion",
        "route",
        "rational_bound",
        "integer_bound",
        "hypotheses_used",
        "citations",
    )

    def __init__(
        self,
        conclusion: Conclusion,
        route: str,
        rational_bound: Fraction | None = None,
        integer_bound: int | None = None,
        hypotheses_used: tuple[PositivityFlag, ...] = (),
        citations: tuple[str, ...] = (),
    ):
        if rational_bound is not None:
            ceiling = math.ceil(rational_bound)
            if integer_bound not in (None, ceiling):
                raise ValueError("integer_bound must be ceil(rational_bound)")
            integer_bound = ceiling
        elif integer_bound is not None:
            raise ValueError("integer_bound requires rational_bound")
        if conclusion is Conclusion.NON_VANISHING and route != ROUTE_FANO_TRIVIAL:
            if rational_bound is None or rational_bound <= 0:
                raise ValueError("NonVanishing requires a positive rational bound")
        self.conclusion = conclusion
        self.route = route
        self.rational_bound = rational_bound
        self.integer_bound = integer_bound
        self.hypotheses_used = hypotheses_used
        self.citations = citations


class PairingTest(NamedTuple):
    value: Fraction
    holds: bool


class MiyaokaTest(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool
    hypotheses_met: bool


def generic_nef_pairing_test(
    p: ThreefoldProfile, L: DivisorExpr, H1: DivisorExpr, H2: DivisorExpr
) -> PairingTest:
    """Evaluate L.H1.H2 against two declared ample classes.

    A negative value certifies that L is not generically nef; a
    nonnegative value is necessary evidence only.
    """
    for h in (H1, H2):
        p.require_flag(FlagKind.AMPLE, h)
    value = p.triple_eval(L, H1, H2)
    return PairingTest(value, value >= 0)


# -- the bound formulas ------------------------------------------------------
#
# Each formula is written once, as a symbolic function of the degree-one
# classes K (canonical) and A.  The identity suite proves these objects on
# the symbols K and A.  The profile bounds below, Miyaoka's inequality and
# the blow-down check evaluate them on a profile's classes through
# `_evaluate`, the one place that lifts a profile's divisors into the ring.


def miyaoka_correction(K: ClassExpr, A: ClassExpr) -> ClassExpr:
    """The part of c2 of the cotangent bundle twisted by A/3 beside the c2 atom.

    On a threefold this is 2/3 * K.A + 1/3 * A^2.
    """
    return cotangent_twisted_c2(3, K, A) - ClassExpr.c2_atom()


def fukuma_ka_class(K: ClassExpr, A: ClassExpr) -> NumberExpr:
    """1/18 * (K+2A).A.(K + 5/4 A): c2-eliminated bound for h^0(K+A)."""
    return Fraction(1, 18) * expand_product([K + 2 * A, A, K + Fraction(5, 4) * A])


def fukuma_gap_cubic(K: ClassExpr, A: ClassExpr) -> NumberExpr:
    """A.(K+2A).(K + 19/3 A), the blow-down invariant part of the gap bound."""
    return expand_product([A, K + 2 * A, K + Fraction(19, 3) * A])


def fukuma_gap_class(K: ClassExpr, A: ClassExpr) -> NumberExpr:
    """1/12 * [A.(K+2A).(K + 19/3 A) + A^3]: bound for h^0(K+2A) - h^0(K+A)."""
    return Fraction(1, 12) * (fukuma_gap_cubic(K, A) + expand_product([A, A, A]))


def nefbig_class(K: ClassExpr, A: ClassExpr) -> NumberExpr:
    """-1/2 * K.(K+A)^2 + 2 * chi_O, which equals chi(K+A) - chi(2K+A)."""
    return Fraction(-1, 2) * expand_product([K, K + A, K + A]) + 2 * NumberExpr.chi_o_atom()


def bs_class(K: ClassExpr, A: ClassExpr) -> NumberExpr:
    """1/2 * (K+2A).A^2 + chi_O, which equals chi(K+2A) - 2 * chi(K+A)."""
    return Fraction(1, 2) * expand_product([K + 2 * A, A, A]) + NumberExpr.chi_o_atom()


def _evaluate(form, p: ThreefoldProfile, *divisors: DivisorExpr) -> Fraction:
    """``form`` at K = ``p.canonical`` and ``divisors``, evaluated on ``p``."""
    lift = ClassExpr.from_divisor
    return p.number_eval(form(lift(p.canonical), *map(lift, divisors)))


def miyaoka_c2_inequality(
    p: ThreefoldProfile, A: DivisorExpr, H: DivisorExpr
) -> MiyaokaTest:
    """The threefold c2 lower bound from the twisted cotangent bundle.

    Compares H.c2 against -H.(2/3 * K.A + 1/3 * A^2).  The inequality is a
    theorem when the profile is not uniruled and both A and K+A are nef;
    ``hypotheses_met`` reports whether the declared flags cover that.
    """
    lhs = p.c2_pair(H)
    rhs = -_evaluate(lambda K, A, H: expand_product([H, miyaoka_correction(K, A)]), p, A, H)
    met = (
        _not_uniruled_witness(p) is not None
        and p.satisfies(FlagKind.NEF, A)
        and p.satisfies(FlagKind.NEF, p.canonical + A)
    )
    return MiyaokaTest(lhs, rhs, lhs >= rhs, met)


def bound_fukuma_ka(p: ThreefoldProfile, A: DivisorExpr) -> Fraction:
    """Lower bound for h^0(K+A) on a non-uniruled threefold, `fukuma_ka_class`.

    No hypothesis check here, see the certifiers.
    """
    return _evaluate(fukuma_ka_class, p, A)


def bound_fukuma_gap(p: ThreefoldProfile, A: DivisorExpr) -> Fraction:
    """Lower bound for h^0(K+2A) - h^0(K+A) on a non-uniruled threefold.

    The formula is `fukuma_gap_class`.
    """
    return _evaluate(fukuma_gap_class, p, A)


def bound_nefbig(p: ThreefoldProfile, A: DivisorExpr) -> Fraction:
    """Lower bound for h^0(K+A) when K+A is nef and big, `nefbig_class`.

    Sharp on projective space with A = 5H.
    """
    return _evaluate(nefbig_class, p, A)


def bound_bs(p: ThreefoldProfile, A: DivisorExpr) -> Fraction:
    """Lower bound for h^0(K+2A), `bs_class`; sharp on projective space with A = 3H."""
    return _evaluate(bs_class, p, A)


# the evaluated bounds by rule name, shared by the CLI and the catalog
BOUND_RULES = {
    "fukuma-ka": bound_fukuma_ka,
    "fukuma-gap": bound_fukuma_gap,
    "nefbig": bound_nefbig,
    "bs": bound_bs,
}


def _not_uniruled_witness(p: ThreefoldProfile) -> PositivityFlag | None:
    # not uniruled, declared directly or through pseudo-effectivity of K
    return p.find_flag(FlagKind.NOT_UNIRULED) or p.find_flag(
        FlagKind.PSEUDO_EFFECTIVE, p.canonical
    )


def _require_chi_O_positive(p: ThreefoldProfile, route: str) -> None:
    if p.chi_O < 1:
        raise FlagContradictionError(
            f"route {route} needs chi_O >= 1, profile has {p.chi_O}"
        )


def certify_h0_adjoint(p: ThreefoldProfile, A: DivisorExpr) -> Certificate:
    """Certify h^0(K+A) > 0 from declared flags; first matching route wins.

    Routes, in order: (a) K pseudo-effective -- the c2-elimination bound;
    (b) K+A nef but not big -- external citation; (c) uniruled with
    positive irregularity -- external citation; (d) -K generically nef,
    K+A nef and big, zero irregularity -- the Kawamata-Viehweg chi bound,
    with hard errors when chi_O < 1 or -K.(K+A)^2 < 0 contradict the
    declarations; otherwise inconclusive.
    """
    ample = p.require_flag(FlagKind.AMPLE, A)
    K = p.canonical

    witness = _not_uniruled_witness(p)
    if witness is not None:
        bound = bound_fukuma_ka(p, A)
        conclusion = Conclusion.NON_VANISHING if bound > 0 else Conclusion.INCONCLUSIVE
        return Certificate(
            conclusion, ROUTE_NOT_UNIRULED, bound, hypotheses_used=(ample, witness)
        )

    ka = K + A
    nef_ka = p.find_flag(FlagKind.NEF, ka)
    if nef_ka is not None and not p.satisfies(FlagKind.BIG, ka):
        return Certificate(
            Conclusion.NON_VANISHING_EXTERNAL,
            ROUTE_NEF_NOT_BIG,
            hypotheses_used=(ample, nef_ka),
            citations=(KA00_THM31,),
        )

    uniruled = p.find_flag(FlagKind.UNIRULED)
    irregularity_zero = p.find_flag(FlagKind.IRREGULARITY_ZERO)
    if uniruled is not None and irregularity_zero is None:
        return Certificate(
            Conclusion.NON_VANISHING_EXTERNAL,
            ROUTE_POSITIVE_IRREGULARITY,
            hypotheses_used=(ample, uniruled),
            citations=(CH02_THM42,),
        )

    anti = p.find_flag(FlagKind.PSEUDO_EFFECTIVE, -K) or p.find_flag(
        FlagKind.GENERICALLY_NEF, -K
    )
    nef_big = p.find_flag(FlagKind.NEF_AND_BIG, ka)
    if anti is not None and nef_big is not None and irregularity_zero is not None:
        _require_chi_O_positive(p, ROUTE_ANTICANONICAL)
        limit = p.triple_eval(-K, ka, ka)
        if limit < 0:
            raise FlagContradictionError(
                f"-K is declared generically nef but -K.(K+A)^2 = {limit} < 0"
            )
        bound = bound_nefbig(p, A)
        return Certificate(
            Conclusion.NON_VANISHING,
            ROUTE_ANTICANONICAL,
            bound,
            hypotheses_used=(ample, anti, nef_big, irregularity_zero),
        )

    return Certificate(Conclusion.INCONCLUSIVE, ROUTE_NONE)


def certify_h0_bs(p: ThreefoldProfile, A: DivisorExpr) -> Certificate:
    """Certify h^0(K+2A) > 0 from declared flags; first matching route wins.

    Requires Ample(A) and Nef(K+2A) (a numerically trivial declaration
    counts as nef).  Routes: (a) K+2A numerically trivial -- the class is
    trivial on a Fano, no bound; (b) K pseudo-effective -- sum of the two
    c2-elimination bounds; (c) uniruled with positive irregularity --
    external citation; (d) uniruled and regular -- the chi bound, with
    hard errors when (K+2A).A^2 <= 0 or chi_O < 1 contradict the
    declarations; otherwise inconclusive.
    """
    ample = p.require_flag(FlagKind.AMPLE, A)
    k2a = p.canonical + 2 * A
    nef = p.require_flag(FlagKind.NEF, k2a)

    trivial = p.find_flag(FlagKind.NUMERICALLY_TRIVIAL, k2a)
    if trivial is not None:
        return Certificate(
            Conclusion.NON_VANISHING,
            ROUTE_FANO_TRIVIAL,
            hypotheses_used=(ample, trivial),
            citations=(FANO_TRIVIAL,),
        )

    witness = _not_uniruled_witness(p)
    if witness is not None:
        bound = bound_fukuma_ka(p, A) + bound_fukuma_gap(p, A)
        conclusion = Conclusion.NON_VANISHING if bound > 0 else Conclusion.INCONCLUSIVE
        return Certificate(
            conclusion, ROUTE_NOT_UNIRULED, bound, hypotheses_used=(ample, nef, witness)
        )

    uniruled = p.find_flag(FlagKind.UNIRULED)
    irregularity_zero = p.find_flag(FlagKind.IRREGULARITY_ZERO)
    if uniruled is not None and irregularity_zero is None:
        return Certificate(
            Conclusion.NON_VANISHING_EXTERNAL,
            ROUTE_POSITIVE_IRREGULARITY,
            hypotheses_used=(ample, nef, uniruled),
            citations=(CH02_THM42,),
        )

    if uniruled is not None and irregularity_zero is not None:
        positivity = p.triple_eval(k2a, A, A)
        if positivity <= 0:
            raise FlagContradictionError(
                f"(K+2A).A^2 = {positivity} <= 0 contradicts semiample "
                "positivity of a nef, numerically nontrivial adjoint class"
            )
        _require_chi_O_positive(p, ROUTE_BS_CHI)
        bound = bound_bs(p, A)
        return Certificate(
            Conclusion.NON_VANISHING,
            ROUTE_BS_CHI,
            bound,
            hypotheses_used=(ample, nef, uniruled, irregularity_zero),
            citations=(BASEPOINTFREE,),
        )

    return Certificate(Conclusion.INCONCLUSIVE, ROUTE_NONE)
