"""Blow-up transforms of threefold profiles.

Blowing up a point or a smooth curve extends the basis by an exceptional
symbol and rewrites the intersection data by closed formulas.  The c2
rules are fixed by a single requirement: the characteristic of any pulled
back line bundle is unchanged, which together with the preserved chi_O
pins every sign.  Blowing down is only available as the inverse reading of
a stored `BlowupMap`; recognising exceptional divisors inside raw
numerical data is out of scope.

Basis symbols of the base profile persist in the blown-up profile, so the
pull-back of a divisor is the same coefficient vector read over the larger
basis (exceptional coefficient zero).  Variety-level flags (uniruledness,
irregularity, generic nefness of the cotangent bundle) are birational
invariants and are transported; divisor-level flags are dropped because
pull-backs of ample classes are merely nef.

A blow-up does not rebuild its profile: it shares the parent's validated
data and adds only the exceptional triple entries, the canonical class
and the c2 vector over the grown basis, the exceptional symbol last
(`ThreefoldProfile._extended`), so no inherited entry is checked again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .core import CalcError, DivisorExpr, RationalInput, rat
from .profile import _SYMBOL, VARIETY_LEVEL_KINDS, ThreefoldProfile, _is_symbol
from .profile_io import DivisorParseError


class SymbolCollisionError(CalcError):
    """The requested exceptional symbol already belongs to the basis."""


class MissingCurveDegreeError(CalcError):
    """Curve blow-up data must pair every basis symbol with a degree."""


class CurveCenter(NamedTuple):
    """Genus and intersection degrees D.C of a smooth curve center."""

    genus: int
    degrees: tuple[tuple[str, Fraction], ...]


class BlowupMap(NamedTuple):
    """A blow-up between two profiles: ``source`` is the blown-up threefold,
    ``center`` the blown-up curve, or None for a point."""

    source: ThreefoldProfile
    target: ThreefoldProfile
    exceptional: str
    center: CurveCenter | None = None


def _blown_up(p: ThreefoldProfile, e: str, entries, c2, canonical) -> ThreefoldProfile:
    """``p`` over the basis extended by ``e``, its triple entries plus the
    exceptional ``entries``, with the transported flags."""
    flags = frozenset(f for f in p.flags if f.kind in VARIETY_LEVEL_KINDS)
    return p._extended(e, entries, c2, canonical, flags)


def _check_new_symbol(p: ThreefoldProfile, new_symbol: str) -> None:
    # a profile file names its symbols in the divisor grammar
    if not _is_symbol(new_symbol):
        raise DivisorParseError(
            f"exceptional symbol {new_symbol!r} does not match {_SYMBOL}"
        )
    if new_symbol in p.basis:
        raise SymbolCollisionError(
            f"symbol '{new_symbol}' already belongs to the basis"
        )


def blow_up_point(
    p: ThreefoldProfile, new_symbol: str
) -> tuple[ThreefoldProfile, BlowupMap]:
    """Blow up a point, extending the basis by ``new_symbol``.

    Intersection rules: E^3 = 1, every product of E with a pulled-back
    class vanishes, the canonical class gains 2E, E pairs to zero with c2,
    and chi_O is unchanged.
    """
    _check_new_symbol(p, new_symbol)
    e = new_symbol
    c2 = {**p.c2_vector, e: Fraction(0)}
    canonical = p.canonical + DivisorExpr.symbol(e, 2)
    source = _blown_up(p, e, {(e, e, e): Fraction(1)}, c2, canonical)
    return source, BlowupMap(source=source, target=p, exceptional=e)


def blow_up_curve(
    p: ThreefoldProfile,
    new_symbol: str,
    genus: int,
    degrees: Mapping[str, RationalInput],
) -> tuple[ThreefoldProfile, BlowupMap]:
    """Blow up a smooth curve of the given genus and intersection degrees.

    ``degrees`` pairs every basis symbol D with the number D.C.  Rules:
    the canonical class gains E, mixed products of two pull-backs with E
    vanish, D.E^2 = -(D.C), E^3 = -(2g - 2 - K.C) (the normal bundle
    degree via adjunction), c2 pairings move by D.C on pull-backs and E
    pairs to K.C with the opposite sign, chi_O is unchanged.
    """
    _check_new_symbol(p, new_symbol)
    if not isinstance(genus, int) or genus < 0:
        raise ValueError(f"genus must be a nonnegative integer, got {genus}")
    p._check_symbols(degrees, "curve degrees")
    deg: dict[str, Fraction] = {}
    for s in p.basis:
        if s not in degrees:
            raise MissingCurveDegreeError(
                f"degree D.C missing for basis symbol '{s}'"
            )
        deg[s] = rat(degrees[s])

    e = new_symbol
    canonical_dot_curve = sum(
        (c * deg[s] for s, c in p.canonical.items()), Fraction(0)
    )
    entries = {tuple(sorted((s, e, e))): -deg[s] for s in p.basis}
    entries[(e, e, e)] = -(2 * genus - 2 - canonical_dot_curve)

    c2 = {s: v + deg[s] for s, v in p.c2_vector.items()}
    c2[e] = -canonical_dot_curve

    source = _blown_up(p, e, entries, c2, p.canonical + DivisorExpr.symbol(e))
    center = CurveCenter(genus=genus, degrees=tuple(sorted(deg.items())))
    return source, BlowupMap(source=source, target=p, exceptional=e, center=center)


def pull_back(m: BlowupMap, D: DivisorExpr) -> DivisorExpr:
    """Read a divisor on the target over the source basis.

    Coefficients are unchanged; the exceptional coefficient is zero.
    """
    m.target._check_symbols(D.symbols(), "pull_back")
    return D


def blowdown_invariance_check(
    m: BlowupMap, A_target: DivisorExpr
) -> tuple[bool, bool]:
    """Check that the two bound cubics are blow-down invariant.

    For a point blow-up with A = f*A' - E, both `fukuma_ka_class`, a
    multiple of (K+2A).A.(K + 5/4 A), and `fukuma_gap_cubic`, which is
    A.(K+2A).(K + 19/3 A), agree with their values downstairs; this holds
    identically because K+2A is a pull-back and pull-backs annihilate E.
    Returns the two comparisons (contract: both True).
    """
    from .bounds import _evaluate, fukuma_gap_cubic, fukuma_ka_class

    if m.center is not None:
        raise ValueError("the invariance check is defined for point blow-ups")
    a_source = pull_back(m, A_target) - DivisorExpr.symbol(m.exceptional)
    return tuple(
        _evaluate(form, m.source, a_source) == _evaluate(form, m.target, A_target)
        for form in (fukuma_ka_class, fukuma_gap_cubic)
    )
