"""Seeded generators of valid threefold profiles and divisors at any basis size.

Every profile has a dense, strictly positive triple tensor and a canonical
class with strictly negative coefficients.  That sign pattern fixes which
certification route fires and which guard raises for each flag set in
`ROUTES`, whatever the seed, so every seed runs the same mix of outcomes
and the same amount of work; the seed only changes the numbers.
"""

from __future__ import annotations

import random
from fractions import Fraction

from adjoint3 import DivisorExpr, FlagKind, ThreefoldProfile, flag


def basis_symbols(n: int) -> tuple[str, ...]:
    return tuple(f"B{i}" for i in range(n))


def random_valid_profile(rng: random.Random, n: int, chi_O: int) -> ThreefoldProfile:
    """A validated profile on n symbols with the given chi_O.

    The tensor has every sorted index triple (n(n+1)(n+2)/6 entries) with a
    value in 1..12, K has coefficients in -5..-1, and one c2 coordinate is
    solved from K.c2 = -24 chi_O.
    """
    basis = basis_symbols(n)
    triple = {
        (basis[i], basis[j], basis[k]): rng.randint(1, 12)
        for i in range(n)
        for j in range(i, n)
        for k in range(j, n)
    }
    k_coeffs = [rng.randint(-5, -1) for _ in range(n)]
    c2 = [Fraction(rng.randint(-10, 30)) for _ in range(n)]
    rest = sum(k_coeffs[i] * c2[i] for i in range(1, n))
    c2[0] = (Fraction(-24 * chi_O) - rest) / k_coeffs[0]
    profile = ThreefoldProfile(
        basis=basis,
        triple=triple,
        c2_vector=dict(zip(basis, c2)),
        chi_O=chi_O,
        canonical=DivisorExpr(zip(basis, k_coeffs)),
    )
    violations = profile.validate()
    if violations:
        raise RuntimeError(f"generated profile is invalid: {violations}")
    return profile


def positive_divisor(rng: random.Random, basis) -> DivisorExpr:
    """Every coefficient a positive rational p/q with p in 1..9, q in 1..4."""
    return DivisorExpr({s: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for s in basis})


def ample_candidate(rng: random.Random, p: ThreefoldProfile) -> DivisorExpr:
    """A with K + A strictly positive, so K + 2A and K + 5/4 A are too."""
    return positive_divisor(rng, p.basis) - p.canonical


def small_divisor(rng: random.Random, p: ThreefoldProfile) -> DivisorExpr:
    """A positive A with K + 2A strictly negative, so (K+2A).A^2 < 0."""
    return DivisorExpr(
        {s: -c * Fraction(rng.randint(1, 9), 20) for s, c in p.canonical.items()}
    )


# Each route: (label, certifier name, which profile, which divisor, flags(K, A),
# expected outcome).  Profile "pos" has chi_O >= 1, "neg" has chi_O <= 0;
# divisor "ample" is `ample_candidate`, "small" is `small_divisor`.  The
# expected outcome is "<Conclusion>:<route>" or the exception type name.
ROUTES = (
    ("adjoint/not-uniruled", "certify_h0_adjoint", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NOT_UNIRULED)),
     "NonVanishing:not-uniruled-c2-bound"),
    ("adjoint/nef-not-big", "certify_h0_adjoint", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NEF, K + A)),
     "NonVanishingExternal:nef-not-big-external"),
    ("adjoint/irregular", "certify_h0_adjoint", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.UNIRULED)),
     "NonVanishingExternal:positive-irregularity-external"),
    ("adjoint/anticanonical", "certify_h0_adjoint", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.PSEUDO_EFFECTIVE, -K),
                   flag(FlagKind.NEF_AND_BIG, K + A), flag(FlagKind.IRREGULARITY_ZERO)),
     "NonVanishing:anticanonical-generically-nef"),
    ("adjoint/chi-guard", "certify_h0_adjoint", "neg", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.GENERICALLY_NEF, -K),
                   flag(FlagKind.NEF_AND_BIG, K + A), flag(FlagKind.IRREGULARITY_ZERO)),
     "FlagContradictionError"),
    ("adjoint/none", "certify_h0_adjoint", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.IRREGULARITY_ZERO)),
     "Inconclusive:none"),
    ("adjoint/no-ample", "certify_h0_adjoint", "pos", "ample",
     lambda K, A: (flag(FlagKind.UNIRULED),),
     "MissingFlagError"),
    ("bs/fano-trivial", "certify_h0_bs", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NUMERICALLY_TRIVIAL, K + 2 * A)),
     "NonVanishing:fano-numerically-trivial"),
    ("bs/not-uniruled", "certify_h0_bs", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NEF, K + 2 * A),
                   flag(FlagKind.PSEUDO_EFFECTIVE, K)),
     "NonVanishing:not-uniruled-c2-bound"),
    ("bs/irregular", "certify_h0_bs", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NEF, K + 2 * A), flag(FlagKind.UNIRULED)),
     "NonVanishingExternal:positive-irregularity-external"),
    ("bs/chi", "certify_h0_bs", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NEF, K + 2 * A),
                   flag(FlagKind.UNIRULED), flag(FlagKind.IRREGULARITY_ZERO)),
     "NonVanishing:uniruled-regular-chi"),
    ("bs/chi-guard", "certify_h0_bs", "neg", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NEF, K + 2 * A),
                   flag(FlagKind.UNIRULED), flag(FlagKind.IRREGULARITY_ZERO)),
     "FlagContradictionError"),
    ("bs/positivity-guard", "certify_h0_bs", "pos", "small",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NEF, K + 2 * A),
                   flag(FlagKind.UNIRULED), flag(FlagKind.IRREGULARITY_ZERO)),
     "FlagContradictionError"),
    ("bs/none", "certify_h0_bs", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.NEF, K + 2 * A)),
     "Inconclusive:none"),
    ("bs/no-nef", "certify_h0_bs", "pos", "ample",
     lambda K, A: (flag(FlagKind.AMPLE, A), flag(FlagKind.UNIRULED)),
     "MissingFlagError"),
)
