"""Built-in validated example profiles and their pinned expected values.

Every entry passes `ThreefoldProfile.validate` and carries a list of
machine-checkable expected values in a tiny description language, so the
catalog doubles as a regression corpus:

    chi(<divisor>)        characteristic of the divisor
    triple(<d>,<d>,<d>)   triple intersection number
    c2pair(<divisor>)     pairing with the second Chern class
    <rule>(<A>)           a bound of `bounds.BOUND_RULES`: fukuma-ka,
                          fukuma-gap, nefbig or bs, whose formulas are
                          written once in `bounds`

Divisor arguments use the command-line grammar and may reference named
divisors and the canonical class K.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .core import CalcError, DivisorExpr, MalformedInputError, format_rational, rat
from .profile import FlagKind, ThreefoldProfile, flag


class UnknownEntryError(MalformedInputError):
    """The catalog has no entry of the requested name."""


class WitnessNotFoundError(CalcError):
    """No scanned epsilon produced a strictly positive pairing."""


class CatalogEntry(NamedTuple):
    name: str
    profile: ThreefoldProfile
    provenance: str
    expected_values: tuple[tuple[str, Fraction], ...]


_H = DivisorExpr.symbol("H")
_E = DivisorExpr.symbol("E")


def projective_space() -> CatalogEntry:
    """Projective three-space polarised by the hyperplane class.

    Its profile is the degree-1 hypersurface's.
    """
    return CatalogEntry(
        name="P3",
        profile=hypersurface(1).profile,
        provenance=(
            "Projective 3-space: H^3 = 1, K = -4H, c2(T).H = 6, chi_O = 1. "
            "The anticanonical class 4H is ample, hence pseudo-effective."
        ),
        expected_values=(
            ("chi(H)", Fraction(4)),
            ("chi(2*H)", Fraction(10)),
            ("chi(K + 5*H)", Fraction(4)),
            ("chi(K + 6*H)", Fraction(10)),
            ("triple(K, K, K)", Fraction(-64)),
            ("c2pair(H)", Fraction(6)),
            ("c2pair(K)", Fraction(-24)),
            ("nefbig(5*H)", Fraction(4)),
            ("bs(3*H)", Fraction(10)),
        ),
    )


def hypersurface(d: int) -> CatalogEntry:
    """Smooth degree-d hypersurface in projective four-space.

    Invariants from the total Chern class (1+H)^5 / (1+dH) truncated in
    degree two: H^3 = d, K = (d-5)H, c2(T).H = d(d^2-5d+10), and chi_O
    follows from the canonical-c2 pairing.  Degree 1 reproduces P3; degree
    5 is the quintic with trivial canonical class.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"the degree must be a positive integer, got {d}")
    c2_h = d * (d * d - 5 * d + 10)
    chi_o = Fraction(-(d - 5) * c2_h, 24)
    canonical = (d - 5) * _H
    flags = [flag(FlagKind.AMPLE, _H), flag(FlagKind.IRREGULARITY_ZERO)]
    if d <= 4:
        flags += [
            flag(FlagKind.UNIRULED),
            flag(FlagKind.PSEUDO_EFFECTIVE, -canonical),
        ]
    elif d == 5:
        flags += [
            flag(FlagKind.NOT_UNIRULED),
            flag(FlagKind.NUMERICALLY_TRIVIAL, DivisorExpr.zero()),
        ]
    else:
        flags += [
            flag(FlagKind.NOT_UNIRULED),
            flag(FlagKind.PSEUDO_EFFECTIVE, canonical),
        ]
    profile = ThreefoldProfile(
        basis=("H",),
        triple={("H", "H", "H"): d},
        c2_vector={"H": c2_h},
        chi_O=chi_o,
        canonical=canonical,
        flags=flags,
        named_divisors={"H": _H},
    )
    expected: list[tuple[str, Fraction]] = [
        ("triple(H, H, H)", Fraction(d)),
        ("c2pair(H)", Fraction(c2_h)),
    ]
    if d == 5:
        expected += [
            ("chi(H)", Fraction(5)),
            ("chi(2*H)", Fraction(15)),
            ("fukuma-ka(H)", Fraction(25, 36)),
            ("fukuma-gap(H)", Fraction(205, 36)),
            ("nefbig(H)", Fraction(0)),
            ("bs(H)", Fraction(5)),
        ]
    if d == 6:
        expected += [("nefbig(H)", Fraction(-20)), ("chi(H)", Fraction(4))]
    return CatalogEntry(
        name=f"hypersurface({d})",
        profile=profile,
        provenance=(
            f"Degree-{d} hypersurface in P4: H^3 = {d}, K = ({d}-5)H, "
            f"c2(T).H = {c2_h}, chi_O = {chi_o}. Uniruled iff the degree is "
            "at most 4; the irregularity vanishes by the Lefschetz "
            "hyperplane theorem."
        ),
        expected_values=tuple(expected),
    )


def blown_up_point_p3() -> CatalogEntry:
    """P3 blown up at a point; anticanonical degree drops from 64 to 56."""
    from .birational import blow_up_point

    base = projective_space().profile
    profile, _ = blow_up_point(base, "E")
    a_trivial = 2 * _H - _E  # K + 2A vanishes for this ample class
    a_ample = 3 * _H - _E
    profile = profile.with_flags(
        flag(FlagKind.AMPLE, a_trivial),
        flag(FlagKind.AMPLE, a_ample),
        flag(FlagKind.NUMERICALLY_TRIVIAL, DivisorExpr.zero()),
        flag(FlagKind.PSEUDO_EFFECTIVE, 4 * _H - 2 * _E),
    ).with_named_divisors(A2=a_trivial, A3=a_ample)
    return CatalogEntry(
        name="BlP3",
        profile=profile,
        provenance=(
            "Blow-up of a point in P3; a projective line bundle over the "
            "plane with (-K)^3 = 56. The classes 2H-E and 3H-E are ample "
            "(declared; Nakai-Moishezon), and K + 2(2H-E) = 0 is the "
            "numerically trivial adjoint case."
        ),
        expected_values=(
            ("triple(K, K, K)", Fraction(-56)),
            ("triple(E, E, E)", Fraction(1)),
            ("triple(A3, A3, A3)", Fraction(26)),
            ("c2pair(E)", Fraction(0)),
            ("c2pair(K)", Fraction(-24)),
            ("chi(2*H)", Fraction(10)),
        ),
    )


def blown_up_line_p3() -> CatalogEntry:
    """P3 blown up along a line; a plane bundle over the projective line."""
    from .birational import blow_up_curve

    base = projective_space().profile
    profile, _ = blow_up_curve(base, "E", genus=0, degrees={"H": 1})
    profile = profile.with_flags(flag(FlagKind.PSEUDO_EFFECTIVE, 4 * _H - _E))
    return CatalogEntry(
        name="BlLineP3",
        profile=profile,
        provenance=(
            "Blow-up of a line in P3: genus 0, H.C = 1, so E^3 = -2 and "
            "(-K)^3 = 54, matching the independent projective-bundle "
            "computation for P(O+O+O(1)) over the projective line."
        ),
        expected_values=(
            ("triple(K, K, K)", Fraction(-54)),
            ("triple(E, E, E)", Fraction(-2)),
            ("c2pair(H)", Fraction(7)),
            ("c2pair(E)", Fraction(4)),
            ("c2pair(K)", Fraction(-24)),
            ("chi(3*H)", Fraction(20)),
        ),
    )


def quintic_pencil() -> CatalogEntry:
    """P3 blown up along the base curve of a generic pencil of quintics.

    The base locus of a generic quintic pencil is the smooth (5,5)
    complete-intersection curve: degree 25 and genus 76 (its canonical
    degree is 6H.C = 150).  The fiber class of the induced fibration over
    the projective line is F = 5H - E, and F + eps*H is ample for small
    positive eps (declared for eps = 1/2).  This profile witnesses an
    anticanonical class that is not generically nef.
    """
    from .birational import blow_up_curve

    base = projective_space().profile
    profile, _ = blow_up_curve(base, "E", genus=76, degrees={"H": 25})
    fiber = 5 * _H - _E
    a_eps = fiber + Fraction(1, 2) * _H
    profile = profile.with_flags(
        flag(FlagKind.AMPLE, a_eps),
        flag(FlagKind.NEF, fiber),
    ).with_named_divisors(F=fiber, A_eps=a_eps)
    return CatalogEntry(
        name="Pencil5",
        profile=profile,
        provenance=(
            "Resolution of a generic pencil of quintic surfaces in P3 by "
            "one blow-up along the reduced base curve (degree 25, genus "
            "76, normal bundle degree 250). F = 5H - E is the fiber class "
            "of the fibration over the projective line; F + H/2 is ample "
            "(declared)."
        ),
        expected_values=(
            ("triple(E, E, E)", Fraction(-250)),
            ("triple(F, F, F)", Fraction(0)),
            ("triple(F, F, H)", Fraction(0)),
            ("triple(K, F, H)", Fraction(5)),
            ("triple(K, H, H)", Fraction(-4)),
            ("triple(K, F, F)", Fraction(0)),
            ("c2pair(H)", Fraction(31)),
            ("c2pair(E)", Fraction(100)),
            ("c2pair(K)", Fraction(-24)),
        ),
    )


# the degree in ASCII digits without leading zeros, so each name means one entry
_HYPERSURFACE_RE = re.compile(r"hypersurface\(([1-9][0-9]*)\)\Z")

# the concrete entries in listing order; Q5 is the alias of hypersurface(5)
_ENTRIES = {
    "P3": projective_space,
    "Q5": lambda: hypersurface(5),
    "BlP3": blown_up_point_p3,
    "BlLineP3": blown_up_line_p3,
    "Pencil5": quintic_pencil,
}


def names() -> tuple[str, ...]:
    """Concrete entry names; hypersurface(d) is available for any d >= 1."""
    return tuple(_ENTRIES)


def get(name: str) -> CatalogEntry:
    """Fetch a catalog entry by name.

    Accepts the names of `names` and ``hypersurface(d)``.
    """
    builder = _ENTRIES.get(name)
    if builder is not None:
        return builder()
    m = _HYPERSURFACE_RE.match(name)
    if m:
        return hypersurface(int(m.group(1)))
    raise UnknownEntryError(
        f"unknown catalog entry '{name}'; known: {', '.join(names())} "
        "and hypersurface(d)"
    )


DEFAULT_EPS_SCAN = tuple(Fraction(1, 2**k) for k in range(1, 21))


def _witness_classes(p: ThreefoldProfile) -> tuple[DivisorExpr, DivisorExpr]:
    """The fiber F and the polarization H of `bad_anticanonical_witness`.

    F is the named divisor ``F``; H is the named divisor ``H`` if there is
    one, else the symbol ``H``.
    """
    f = p.named_divisors.get("F")
    if f is None:
        raise UnknownEntryError("profile has no named divisor 'F'")
    return f, p.named_divisors.get("H", _H)


def bad_anticanonical_witness(
    entry: CatalogEntry | ThreefoldProfile,
    eps_list: tuple[Fraction, ...] | list[Fraction] | None = None,
) -> tuple[Fraction, Fraction]:
    """Scan for eps with K.(F + eps*H)^2 > 0, witnessing a bad anticanonical.

    Defaults to the halving scan eps = 1/2, 1/4, ..., 2^-20 and returns the
    first eps with a strictly positive value together with that value.  A
    positive value against an ample F + eps*H certifies that -K is not
    generically nef.  Every eps must be positive (`DivisorParseError`, a
    `MalformedInputError`, otherwise); that F + eps*H is ample is not checked.
    """
    scan = DEFAULT_EPS_SCAN if eps_list is None else tuple(rat(e) for e in eps_list)
    for eps in scan:
        if eps <= 0:
            from .profile_io import DivisorParseError

            raise DivisorParseError(f"eps {format_rational(eps)} is not positive")
    p = entry.profile if isinstance(entry, CatalogEntry) else entry
    f, h = _witness_classes(p)
    for eps in scan:
        candidate = f + eps * h
        value = p.triple_eval(p.canonical, candidate, candidate)
        if value > 0:
            return eps, value
    raise WitnessNotFoundError(
        f"no epsilon in {[format_rational(e) for e in scan]} makes "
        "K.(F + eps*H)^2 positive"
    )


def check_expected(entry: CatalogEntry) -> list[str]:
    """Evaluate every pinned expected value; returns mismatch records."""
    from .bounds import BOUND_RULES
    from .profile_io import resolve_divisor
    from .riemann_roch import chi_line_bundle

    p = entry.profile
    ops = {
        "chi": chi_line_bundle,
        "triple": ThreefoldProfile.triple_eval,
        "c2pair": ThreefoldProfile.c2_pair,
        **BOUND_RULES,
    }
    mismatches = []
    for description, expected in entry.expected_values:
        op, _, arg_text = description.partition("(")
        if op not in ops or not arg_text.endswith(")"):
            mismatches.append(f"{entry.name}: unreadable description '{description}'")
            continue
        args = [resolve_divisor(p, a) for a in arg_text[:-1].split(",")]
        actual = ops[op](p, *args)
        if actual != expected:
            mismatches.append(
                f"{entry.name}: {description} = {actual}, expected {expected}"
            )
    return mismatches
