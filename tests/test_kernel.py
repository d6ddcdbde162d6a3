"""The integer kernel and the ring's fast paths against the code they replaced.

`ThreefoldProfile.triple_eval`, `number_eval` and the ring product under
`expand_product` multiply integers over common denominators;
`ClassExpr.substitute` and `NumberExpr.substitute` multiply the lifted
divisors through `expand_product`; `core._canonical` adds a value only
when its key repeats; and the ring's sums, scalar multiples and products
build canonical results directly instead of handing raw terms to the
constructors.  The reference functions below are the plain `Fraction`
loops, expanders and constructor-built results those functions made
before; every public result must equal theirs exactly, in value and in
type, down to the order of each expression's keys.
"""

import contextlib
import functools
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from typing import Mapping
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from adjoint3 import (
    CalcError,
    ClassExpr,
    DivisorExpr,
    FlagKind,
    NumberExpr,
    ThreefoldProfile,
    blow_up_curve,
    blow_up_point,
    bound_bs,
    bound_fukuma_gap,
    bound_fukuma_ka,
    bound_nefbig,
    bs_class,
    certify_h0_adjoint,
    certify_h0_bs,
    chi_class,
    chi_expression,
    chi_identity_suite,
    chi_line_bundle,
    expand_divisors,
    expand_product,
    flag,
    fukuma_gap_class,
    fukuma_ka_class,
    miyaoka_c2_inequality,
    miyaoka_correction,
    nefbig_class,
    parse_profile,
    serialize_profile,
)
from adjoint3 import core
from adjoint3 import profile as profile_mod

_ZERO = Fraction(0)
BASIS = ("E", "G", "H", "F2")

# -- the reference loops ------------------------------------------------------


def reference_symmetric(p):
    """Sorted triple -> value, the smallest stored permutation winning."""
    sym = {}
    for key in sorted(p.triple):
        sym.setdefault(tuple(sorted(key)), p.triple[key])
    return sym


def reference_triple_eval(p, d1, d2, d3):
    sym = reference_symmetric(p)
    total = _ZERO
    for s1, c1 in d1.items():
        for s2, c2 in d2.items():
            for s3, c3 in d3.items():
                v = sym.get(tuple(sorted((s1, s2, s3))))
                if v:
                    total += c1 * c2 * c3 * v
    return total


def reference_number_eval(p, n):
    sym = reference_symmetric(p)
    total = n.constant + n.chi_o_coeff * p.chi_O
    for key, v in n.cubic_terms.items():
        t = sym.get(key)
        if t:
            total += v * t
    for s, v in n.c2_pairings.items():
        total += v * p.c2_vector.get(s, _ZERO)
    return total


def reference_mul_class(self, other):
    if self.degree == 0:
        return other * self.scalar_value()
    if other.degree == 0:
        return self * other.scalar_value()
    total = self.degree + other.degree
    if total > 3:
        return NumberExpr.zero()
    poly = {}
    for k1, v1 in self.terms.items():
        for k2, v2 in other.terms.items():
            key = tuple(sorted(k1 + k2))
            poly[key] = poly.get(key, _ZERO) + v1 * v2
    if total <= 2:
        return ClassExpr(total, poly)
    pairings = {}
    if self.c2_atom_coeff != 0:
        for (s,), v in other.terms.items():
            pairings[s] = pairings.get(s, _ZERO) + self.c2_atom_coeff * v
    if other.c2_atom_coeff != 0:
        for (s,), v in self.terms.items():
            pairings[s] = pairings.get(s, _ZERO) + other.c2_atom_coeff * v
    return NumberExpr(poly, pairings)


def reference_class_substitute(expr, mapping):
    acc = {}

    def expand(key, coeff, done):
        if not key:
            mono = tuple(sorted(done))
            acc[mono] = acc.get(mono, _ZERO) + coeff
            return
        head, rest = key[0], key[1:]
        div = mapping.get(head)
        if div is None:
            expand(rest, coeff, done + (head,))
            return
        for s, c in div.items():
            expand(rest, coeff * c, done + (s,))

    for key, v in expr.terms.items():
        expand(key, v, ())
    return ClassExpr(expr.degree, acc, expr.c2_atom_coeff)


def reference_number_substitute(expr, mapping):
    cubic = {}
    for (a, b, c), v in expr.cubic_terms.items():
        da = mapping.get(a, DivisorExpr.symbol(a))
        db = mapping.get(b, DivisorExpr.symbol(b))
        dc = mapping.get(c, DivisorExpr.symbol(c))
        for s1, c1 in da.items():
            for s2, c2 in db.items():
                for s3, c3 in dc.items():
                    key = tuple(sorted((s1, s2, s3)))
                    cubic[key] = cubic.get(key, _ZERO) + v * c1 * c2 * c3
    pairings = {}
    for s, v in expr.c2_pairings.items():
        div = mapping.get(s)
        if div is None:
            pairings[s] = pairings.get(s, _ZERO) + v
        else:
            for b, c in div.items():
                pairings[b] = pairings.get(b, _ZERO) + v * c
    return NumberExpr(cubic, pairings, expr.chi_o_coeff, expr.constant)


def reference_canonical(terms, degree=None):
    """`core._canonical` as it was: every value added to a zero sum."""
    acc = {}
    for key, value in terms.items() if isinstance(terms, Mapping) else terms:
        if degree is not None:
            mono = tuple(sorted(key))
            if len(mono) != degree or not all(isinstance(s, str) and s for s in mono):
                raise ValueError(f"monomial {key!r} does not have degree {degree}")
            key = mono
        elif not isinstance(key, str) or not key:
            raise TypeError("symbol names must be non-empty strings")
        acc[key] = acc.get(key, _ZERO) + core.rat(value)
    return {k: v for k, v in sorted(acc.items()) if v != 0}


def reference_class_add(self, other):
    if not isinstance(other, ClassExpr):
        return NotImplemented
    if self.degree != other.degree:
        raise ValueError(f"cannot add classes of degrees {self.degree} and {other.degree}")
    terms = (*self.terms.items(), *other.terms.items())
    return ClassExpr(self.degree, terms, self.c2_atom_coeff + other.c2_atom_coeff)


def reference_class_mul(self, other):
    if isinstance(other, ClassExpr):
        return self._mul_class(other)
    if isinstance(other, NumberExpr):
        raise TypeError("a NumberExpr has top degree; multiply by scalars only")
    q = core.rat(other)
    terms = {k: v * q for k, v in self.terms.items()}
    return ClassExpr(self.degree, terms, self.c2_atom_coeff * q)


def reference_number_add(self, other):
    if not isinstance(other, NumberExpr):
        return NotImplemented
    return NumberExpr(
        (*self.cubic_terms.items(), *other.cubic_terms.items()),
        (*self.c2_pairings.items(), *other.c2_pairings.items()),
        self.chi_o_coeff + other.chi_o_coeff,
        self.constant + other.constant,
    )


def reference_number_mul(self, scalar):
    if isinstance(scalar, (ClassExpr, NumberExpr, DivisorExpr)):
        raise TypeError("a NumberExpr has top degree; multiply by scalars only")
    q = core.rat(scalar)
    return NumberExpr(
        {k: v * q for k, v in self.cubic_terms.items()},
        {s: v * q for s, v in self.c2_pairings.items()},
        self.chi_o_coeff * q,
        self.constant * q,
    )


@contextlib.contextmanager
def reference_ring():
    """Hand every sum, scalar multiple and product of the ring back to the
    public constructors as raw terms, to be made canonical there."""
    with contextlib.ExitStack() as stack:
        for cls, name, reference in (
            (ClassExpr, "__add__", reference_class_add),
            (ClassExpr, "__mul__", reference_class_mul),
            (ClassExpr, "_mul_class", reference_mul_class),
            (NumberExpr, "__add__", reference_number_add),
            (NumberExpr, "__mul__", reference_number_mul),
        ):
            stack.enter_context(mock.patch.object(cls, name, reference))
        yield


@contextlib.contextmanager
def reference_path():
    """Route the library through the reference loops."""
    with mock.patch.object(ClassExpr, "_mul_class", reference_mul_class), mock.patch.object(
        ThreefoldProfile, "triple_eval", reference_triple_eval
    ), mock.patch.object(ThreefoldProfile, "number_eval", reference_number_eval):
        yield


# -- strategies ------------------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12])
)


@st.composite
def profiles(draw):
    """Rational, negative and zero entries; missing entries; some triples
    stored under several permutations, each with the triple's one value."""
    n = draw(st.integers(1, len(BASIS)))
    basis = BASIS[:n]
    triple = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                key = (basis[i], basis[j], basis[k])
                stored = sorted(set(permutations(key)))
                chosen = draw(st.lists(st.sampled_from(stored), max_size=3, unique=True))
                value = draw(rationals)
                for perm in chosen:
                    triple[perm] = value
    return ThreefoldProfile(
        basis=basis,
        triple=triple,
        c2_vector={s: draw(rationals) for s in basis},
        chi_O=draw(st.integers(-3, 3)),
        canonical=draw(divisors(basis)),
    )


def divisors(basis):
    """Sparse divisors with mixed denominators, the zero divisor included."""
    return st.dictionaries(st.sampled_from(basis), rationals, max_size=len(basis)).map(
        DivisorExpr
    )


@st.composite
def profile_and_divisors(draw):
    p = draw(profiles())
    return p, [draw(divisors(p.basis)) for _ in range(3)]


SYMBOLS = ("A", "D", "E", "H", "K")


def monomials(degree):
    return st.lists(st.sampled_from(SYMBOLS), min_size=degree, max_size=degree).map(tuple)


@st.composite
def classes(draw):
    """Classes of degree 0, 1 and 2, a degree-2 class with or without the c2 atom."""
    degree = draw(st.integers(0, 2))
    terms = draw(st.lists(st.tuples(monomials(degree), rationals), max_size=5))
    c2 = draw(st.one_of(st.just(0), rationals)) if degree == 2 else 0
    return ClassExpr(degree, terms, c2)


@st.composite
def numbers(draw):
    """Cubic terms, c2 pairings, a chi_O multiple and a constant, each possibly empty."""
    cubic = draw(st.lists(st.tuples(monomials(3), rationals), max_size=5))
    pairings = draw(st.lists(st.tuples(st.sampled_from(SYMBOLS), rationals), max_size=3))
    zero_or_rational = st.one_of(st.just(0), rationals)
    return NumberExpr(cubic, pairings, draw(zero_or_rational), draw(zero_or_rational))


@st.composite
def certified_cases(draw):
    """A dense profile of up to eight symbols with rational entries, A, H
    and D with mixed denominators, and flags for both certifiers' routes."""
    basis = tuple(f"B{i}" for i in range(draw(st.integers(1, 8))))
    keys = list(combinations_with_replacement(basis, 3))
    values = draw(st.lists(rationals, min_size=len(keys), max_size=len(keys)))
    K = draw(divisors(basis))
    A, H, D = (draw(divisors(basis).filter(bool)) for _ in range(3))
    ka, k2a = K + A, K + 2 * A
    nu, u, iz = FlagKind.NOT_UNIRULED, FlagKind.UNIRULED, FlagKind.IRREGULARITY_ZERO
    variety = draw(st.sampled_from([(), (nu,), (u,), (iz,), (u, iz)]))
    optional = [flag(FlagKind.PSEUDO_EFFECTIVE, -K)]
    if ka:
        optional += [flag(FlagKind.NEF, ka), flag(FlagKind.NEF_AND_BIG, ka)]
    flags = [flag(FlagKind.AMPLE, A), *map(flag, variety)]
    flags += [f for f in optional if draw(st.booleans())]
    if k2a:
        # certify_h0_bs requires K+2A nef, which a numerically trivial class is
        kind = draw(st.sampled_from([FlagKind.NEF, FlagKind.NEF, FlagKind.NUMERICALLY_TRIVIAL]))
        flags.append(flag(kind, k2a))
    p = ThreefoldProfile(
        basis=basis,
        triple=dict(zip(keys, values)),
        c2_vector={s: draw(rationals) for s in basis},
        chi_O=draw(st.integers(-1, 3)),
        canonical=K,
        flags=flags,
    )
    return p, (A, H, D)


# symbols left out of a mapping stay as they are
mappings = st.dictionaries(st.sampled_from(SYMBOLS), divisors(("E", "G", "H")), max_size=3)


# -- differential tests ----------------------------------------------------------


def _same(actual, expected):
    assert type(actual) is type(expected)
    assert actual == expected


def _same_deep(actual, expected):
    """`_same`, and so for every part: a record's `_fields()` in order (an
    expression's keys included), and each item of a tuple or list."""
    _same(actual, expected)
    if isinstance(actual, core._Record):
        actual, expected = actual._fields(), expected._fields()
    if isinstance(actual, (tuple, list)):
        for part, expected_part in zip(actual, expected, strict=True):
            _same_deep(part, expected_part)


@settings(max_examples=150, deadline=None)
@given(profile_and_divisors())
def test_triple_and_number_eval_match_fraction_loops(case):
    p, (d1, d2, d3) = case
    with reference_path():
        triple = p.triple_eval(d1, d2, d3)
        number = p.number_eval(expand_divisors(d1, d2, d3))
    _same(p.triple_eval(d1, d2, d3), triple)
    _same(p.number_eval(expand_divisors(d1, d2, d3)), number)
    # the symmetric form gives one value in every argument order
    _same(p.triple_eval(d3, d1, d2), triple)
    _same(number, triple)


@settings(max_examples=100, deadline=None)
@given(profile_and_divisors())
def test_bounds_chi_and_miyaoka_match_fraction_loops(case):
    p, (A, H, D) = case
    calls = [
        lambda: chi_line_bundle(p, D),
        lambda: bound_fukuma_ka(p, A),
        lambda: bound_fukuma_gap(p, A),
        lambda: bound_nefbig(p, A),
        lambda: bound_bs(p, A),
        lambda: miyaoka_c2_inequality(p, A, H),
    ]
    with reference_path():
        expected = [call() for call in calls]
    for call, value in zip(calls, expected):
        _same(call(), value)


def _outcome(call):
    # a certifier may refuse the profile; the refusal is compared too
    try:
        return call()
    except CalcError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(certified_cases())
def test_evaluations_and_certificates_match_the_adding_normaliser(case):
    # `_canonical` stores a key's first value and adds only when the key repeats
    p, (A, H, D) = case
    calls = [
        lambda: chi_line_bundle(p, D),
        lambda: bound_fukuma_ka(p, A),
        lambda: bound_fukuma_gap(p, A),
        lambda: bound_nefbig(p, A),
        lambda: bound_bs(p, A),
        lambda: miyaoka_c2_inequality(p, A, H),
        lambda: certify_h0_adjoint(p, A),
        lambda: certify_h0_bs(p, A),
    ]
    with mock.patch.object(core, "_canonical", reference_canonical):
        expected = [_outcome(call) for call in calls]
    for call, value in zip(calls, expected):
        _same_deep(_outcome(call), value)


@settings(max_examples=40, deadline=None)
@given(certified_cases(), classes(), numbers(), mappings, rationals)
def test_ring_results_match_the_constructors(case, expr, number, mapping, c2_coeff):
    # the ring's sums, scalar multiples and products build canonical terms
    p, (A, H, D) = case
    lift = ClassExpr.from_divisor
    calls = [
        lambda: chi_line_bundle(p, D),
        lambda: chi_expression(D, p.canonical),
        lambda: bound_fukuma_ka(p, A),
        lambda: bound_fukuma_gap(p, A),
        lambda: bound_nefbig(p, A),
        lambda: bound_bs(p, A),
        lambda: miyaoka_c2_inequality(p, A, H),
        lambda: certify_h0_adjoint(p, A),
        lambda: certify_h0_bs(p, A),
        lambda: expr.substitute(mapping),
        lambda: number.substitute(mapping),
        # the atom on the right and on the left of the linear factor
        lambda: expand_product([lift(A), lift(D) * lift(H) + ClassExpr.c2_atom(c2_coeff)]),
        lambda: expand_product([ClassExpr.c2_atom(c2_coeff) - lift(A) * lift(A), lift(D)]),
        # every key cancels, or is multiplied by zero
        lambda: expand_divisors(A, D, H) - expand_divisors(H, A, D),
        lambda: (lift(A) * 0, expand_divisors(A, D, H) * 0),
    ]
    with reference_ring():
        expected = [_outcome(call) for call in calls]
    for call, value in zip(calls, expected):
        _same_deep(_outcome(call), value)


def test_identity_suite_and_bound_forms_match_the_constructors():
    K, A = ClassExpr.symbol("K"), ClassExpr.symbol("A")
    forms = (miyaoka_correction, bs_class, nefbig_class, fukuma_ka_class, fukuma_gap_class)
    calls = [
        chi_identity_suite,
        lambda: chi_class(K + 2 * A, K),
        # the K^3 terms cancel
        lambda: chi_class(K + 2 * A, K) - 2 * chi_class(K + A, K),
        *(functools.partial(form, K, A) for form in forms),
    ]
    with reference_ring():
        expected = [call() for call in calls]
    for call, value in zip(calls, expected):
        _same_deep(call(), value)


@settings(max_examples=150, deadline=None)
@given(profile_and_divisors(), rationals)
def test_expand_product_matches_fraction_loops(case, c2_coeff):
    p, (d1, d2, d3) = case
    lift = ClassExpr.from_divisor
    products = [
        lambda: expand_divisors(d1, d2, d3),
        lambda: expand_divisors(d1, d2),
        lambda: expand_product([lift(d1), lift(d2) * lift(d3) + ClassExpr.c2_atom(c2_coeff)]),
        lambda: expand_product([ClassExpr.scalar(c2_coeff), lift(d1), lift(d2)]),
    ]
    with reference_path():
        expected = [product() for product in products]
    for product, value in zip(products, expected):
        _same(product(), value)


@settings(max_examples=200, deadline=None)
@given(st.one_of(classes(), numbers()), mappings)
def test_substitute_matches_expanders(expr, mapping):
    if isinstance(expr, ClassExpr):
        expected = reference_class_substitute(expr, mapping)
    else:
        expected = reference_number_substitute(expr, mapping)
    _same(expr.substitute(mapping), expected)


# -- the compile-once contract ------------------------------------------------------


def _count_compiles(monkeypatch):
    calls = []
    original = profile_mod._compile_tensor

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(profile_mod, "_compile_tensor", counting)
    return calls


def _sample_profile():
    H, E = DivisorExpr.symbol("H"), DivisorExpr.symbol("E")
    return ThreefoldProfile(
        basis=("H", "E"),
        triple={("H", "H", "H"): 1, ("E", "E", "E"): Fraction(1, 2), ("H", "H", "E"): -3},
        c2_vector={"H": 6},
        chi_O=1,
        canonical=-4 * H,
        flags=[flag(FlagKind.AMPLE, H)],
        named_divisors={"A": H - E},
    )


def test_profile_and_its_copies_compile_once(monkeypatch):
    calls = _count_compiles(monkeypatch)
    p = _sample_profile()
    H = DivisorExpr.symbol("H")
    copies = [
        p.with_flags(flag(FlagKind.NEF, H)),
        p.with_named_divisors(B=2 * H),
        p.with_flags(flag(FlagKind.UNIRULED), replace=True),
    ]
    # a copy evaluated first compiles for its parent too
    for q in (copies[1], p, *copies):
        q.triple_eval(H, H, p.canonical)
        q.number_eval(expand_divisors(H, H, H))
        bound_bs(q, H)
    assert len(calls) == 1


def test_parse_validate_and_blow_ups_compile_nothing(monkeypatch):
    calls = _count_compiles(monkeypatch)
    p = parse_profile(serialize_profile(_sample_profile()))
    assert p.validate() == []
    point, _ = blow_up_point(p, "X")
    curve, _ = blow_up_curve(point, "Y", 1, {"H": 1, "E": 0, "X": 2})
    for q in (point, curve):
        q.validate()
        parse_profile(serialize_profile(q))
    assert calls == []
