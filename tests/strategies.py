"""Hypothesis strategies shared by the ring, evaluation and blow-up tests.

Each draws small first: few symbols, few terms, small numerators and
denominators, so a failing example shrinks over few entries and is
reported within seconds.  Profiles start at one basis symbol and store a
few nonzero rational entries; divisors mix denominators.
"""

from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from adjoint3 import ClassExpr, DivisorExpr, FlagKind, NumberExpr, ThreefoldProfile, flag
from adjoint3 import blow_up_curve, blow_up_point, get, names

_denominators = st.sampled_from([1, 2, 3, 4, 6, 7, 12])
rationals = st.builds(Fraction, st.integers(-30, 30), _denominators)
nonzero_rationals = st.builds(Fraction, st.integers(1, 30) | st.integers(-30, -1), _denominators)


class RationalSubclass(Fraction):
    """A `Fraction` subclass, as a caller's own rational type may be."""


# one rational in each form the constructors accept
values = st.one_of(
    st.integers(-6, 6),
    rationals.map(lambda q: f"{q.numerator}/{q.denominator}"),
    rationals,
    rationals.map(RationalSubclass),
)
symbols = st.sampled_from(("A", "E", "H", "K"))


@cache  # one strategy per basis, built and validated once
def divisors(basis, min_size=0):
    """Sparse divisors with mixed denominators; nonzero when ``min_size`` is."""
    coeffs = nonzero_rationals if min_size else rationals
    return st.dictionaries(st.sampled_from(basis), coeffs, min_size=min_size).map(DivisorExpr)


@cache
def _triples(basis):
    # a few entries, each stored under one of its orders
    symbol = st.sampled_from(basis)
    entry = st.tuples(st.tuples(symbol, symbol, symbol), nonzero_rationals)
    return st.lists(entry, max_size=8, unique_by=lambda item: tuple(sorted(item[0])))


@st.composite
def profiles(draw):
    """One to four basis symbols, a few nonzero entries, a sparse c2 vector
    and a canonical class."""
    basis = ("E", "G", "H", "F2")[: draw(st.integers(1, 4))]
    return ThreefoldProfile(
        basis=basis,
        triple=draw(_triples(basis)),
        c2_vector=draw(st.dictionaries(st.sampled_from(basis), rationals)),
        chi_O=draw(st.integers(1, 3) | st.integers(-1, 0)),  # the guarded routes need >= 1
        canonical=draw(divisors(basis)),
    )


@st.composite
def profile_and_divisors(draw, min_size=0):
    """A profile and three divisors over its basis."""
    p = draw(profiles())
    return p, tuple(draw(divisors(p.basis, min_size)) for _ in range(3))


@st.composite
def certified_cases(draw):
    """A profile, nonzero A, H and D, and flags that reach every route of
    both certifiers."""
    p, (A, H, D) = draw(profile_and_divisors(min_size=1))
    K = p.canonical
    ka, k2a = K + A, K + 2 * A
    nu, u, iz = FlagKind.NOT_UNIRULED, FlagKind.UNIRULED, FlagKind.IRREGULARITY_ZERO
    # the guarded routes' patterns first, as the smallest examples take those
    variety = draw(st.sampled_from([(u, iz), (iz,), (u,), (nu,), ()]))
    anticanonical = (flag(FlagKind.PSEUDO_EFFECTIVE, -K), flag(FlagKind.NEF_AND_BIG, ka))
    adjoint = draw(st.sampled_from([anticanonical, (flag(FlagKind.NEF, ka),), ()]))
    # certify_h0_bs requires K+2A nef, which a numerically trivial class is
    bs = draw(st.sampled_from([FlagKind.NEF, FlagKind.NEF, FlagKind.NUMERICALLY_TRIVIAL]))
    flags = [flag(FlagKind.AMPLE, A), *map(flag, variety), *adjoint, flag(bs, k2a)]
    return p.with_flags(*flags), (A, H, D)


# -- raw terms and ring expressions --------------------------------------------


def _keys(degree):
    # a symbol name, or a monomial of `degree` names in any order
    if degree is None:
        return symbols
    return st.lists(symbols, min_size=degree, max_size=degree).map(tuple)


@st.composite
def term_lists(draw, degree):
    """Terms whose keys repeat in any order, some of them cancelling to zero."""
    terms = draw(st.lists(st.tuples(_keys(degree), values), max_size=6))
    cancelled = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    for key, value in cancelled:
        if degree is not None:
            key = tuple(draw(st.permutations(key)))
        terms.append((key, -Fraction(value)))
    return draw(st.permutations(terms))


zero_or_rational = st.just(0) | rationals


@st.composite
def classes(draw):
    """Classes of degree 0, 1 and 2, a degree-2 class with or without the c2 atom."""
    degree = draw(st.integers(0, 2))
    c2 = draw(zero_or_rational) if degree == 2 else 0
    return ClassExpr(degree, draw(term_lists(degree)), c2)


@st.composite
def numbers(draw):
    """Cubic terms, c2 pairings, a chi_O multiple and a constant, each possibly empty."""
    parts = (term_lists(3), term_lists(None), zero_or_rational, zero_or_rational)
    return NumberExpr(*map(draw, parts))


# symbols left out of a mapping stay as they are
mappings = st.dictionaries(symbols, divisors(("E", "G", "H")), max_size=3)


def _cancelling(draw, terms, degree):
    """Raw terms that cancel all of ``terms``, or some of them beside new ones."""
    items = list(terms.items())
    if items and draw(st.booleans()):
        return [(key, -v) for key, v in items]
    cancelled = draw(st.lists(st.sampled_from(items), unique=True)) if items else []
    return [(key, -v) for key, v in cancelled] + draw(term_lists(degree))


@st.composite
def operand_pairs(draw):
    """Two classes of one degree, or two numbers, whose sum cancels terms."""
    degree = draw(st.integers(0, 3))
    if degree < 3:
        c2 = zero_or_rational if degree == 2 else st.just(0)
        a = ClassExpr(degree, draw(term_lists(degree)), draw(c2))
        b_c2 = draw(c2 | st.just(-a.c2_atom_coeff))
        return a, ClassExpr(degree, _cancelling(draw, a.terms, degree), b_c2)
    a = draw(numbers())
    b = NumberExpr(
        _cancelling(draw, a.cubic_terms, 3),
        _cancelling(draw, a.c2_pairings, None),
        -a.chi_o_coeff,
        draw(zero_or_rational),
    )
    return a, b


# -- blow-up chains --------------------------------------------------------------


@st.composite
def blow_up_chains(draw):
    """A catalog entry blown up one to three times, at points and along
    curves of integral degrees: the chain's `BlowupMap`s in order."""
    p = get(draw(st.sampled_from(names()))).profile
    maps = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            p, m = blow_up_point(p, f"X{i}")
        else:
            degrees = {s: draw(st.integers(-2, 4)) for s in p.basis}
            p, m = blow_up_curve(p, f"X{i}", draw(st.integers(0, 3)), degrees)
        maps.append(m)
    return maps
