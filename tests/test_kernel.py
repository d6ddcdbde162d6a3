"""The public evaluations against `oracle`, their defining formulas in
plain `Fraction` loops.

`ThreefoldProfile.triple_eval` and `number_eval` multiply integers over
common denominators; chi, the four bounds, Miyaoka's inequality and the
certifiers evaluate forms built in the graded ring; `expand_product` and
both `substitute`s multiply through the ring's products.  Every result
must equal the oracle's exactly, in value and in type: a fault in the
integer kernel, in a product, in the c2 atom's pairing or in a sum shows
here as a wrong number, on a profile of a few entries.

A value cannot show an expression's form: that its keys are sorted and
its stored coefficients nonzero.  A ring sum that keeps a zero term, or a
product that leaves its keys unsorted, changes no number, so only the
canonical-form properties in `test_core` see it.
"""

from fractions import Fraction

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracle
from adjoint3 import (
    BOUND_RULES,
    ClassExpr,
    DivisorExpr,
    FlagContradictionError,
    FlagKind,
    NumberExpr,
    ThreefoldProfile,
    blow_up_curve,
    blow_up_point,
    bound_bs,
    certify_h0_adjoint,
    certify_h0_bs,
    chi_line_bundle,
    expand_divisors,
    expand_product,
    flag,
    get,
    miyaoka_c2_inequality,
    parse_profile,
    serialize_profile,
)
from adjoint3 import profile as profile_mod
from adjoint3.bounds import ROUTE_ANTICANONICAL, ROUTE_BS_CHI, ROUTE_NOT_UNIRULED
from strategies import certified_cases, classes, mappings, numbers, profile_and_divisors
from strategies import nonzero_rationals, rationals


def _same(actual, expected):
    assert type(actual) is type(expected)
    assert actual == expected


def _same_parts(expr, expected):
    """``expr``'s parts, as plain dicts and scalars, equal the oracle's,
    and every coefficient is a `Fraction`."""
    if isinstance(expr, ClassExpr):
        terms, scalars = [expr.terms], [expr.c2_atom_coeff]
        assert (expr.degree, *map(dict, terms), *scalars) == expected
    else:
        terms, scalars = [expr.cubic_terms, expr.c2_pairings], [expr.chi_o_coeff, expr.constant]
        assert (*map(dict, terms), *scalars) == expected
    assert all(type(v) is Fraction for v in (*scalars, *(v for t in terms for v in t.values())))


@settings(max_examples=150, deadline=None)
@given(profile_and_divisors(), rationals, rationals)
def test_triple_and_number_eval_match_fraction_loops(case, chi_o_coeff, constant):
    p, (d1, d2, d3) = case
    triple = oracle.triple(p, d1, d2, d3)
    _same(p.triple_eval(d1, d2, d3), triple)
    # the symmetric form gives one value in every argument order
    _same(p.triple_eval(d3, d1, d2), triple)
    _same(p.number_eval(expand_divisors(d1, d2, d3)), triple)
    number = expand_divisors(d1, d2, d3) + NumberExpr((), d2.items(), chi_o_coeff, constant)
    _same(p.number_eval(number), oracle.number(p, number))


@settings(max_examples=100, deadline=None)
@given(profile_and_divisors())
def test_bounds_chi_and_miyaoka_match_fraction_loops(case):
    p, (A, H, D) = case
    _same(chi_line_bundle(p, D), oracle.chi(p, D))
    for name, bound in BOUND_RULES.items():
        _same(bound(p, A), getattr(oracle, name.replace("-", "_"))(p, A))
    lhs, rhs, holds, _ = miyaoka_c2_inequality(p, A, H)
    expected_lhs, expected_rhs = oracle.miyaoka(p, A, H)
    _same(lhs, expected_lhs)
    _same(rhs, expected_rhs)
    assert holds == (lhs >= rhs)


# each certifier's guarded route, and the number it requires besides chi_O >= 1
_GUARDS = {
    certify_h0_adjoint: (ROUTE_ANTICANONICAL, lambda p, A: oracle.anticanonical_guard(p, A) >= 0),
    certify_h0_bs: (ROUTE_BS_CHI, lambda p, A: oracle.bs_guard(p, A) > 0),
}
# each route's bound, as the sum of oracle bounds
_ROUTE_BOUNDS = {
    (certify_h0_adjoint, ROUTE_NOT_UNIRULED): (oracle.fukuma_ka,),
    (certify_h0_adjoint, ROUTE_ANTICANONICAL): (oracle.nefbig,),
    (certify_h0_bs, ROUTE_NOT_UNIRULED): (oracle.fukuma_ka, oracle.fukuma_gap),
    (certify_h0_bs, ROUTE_BS_CHI): (oracle.bs,),
}

# P3 is uniruled and regular, with -K = 4H pseudo-effective and H ample.
# A = 5H takes both guarded routes (K+A = H, K+2A = 6H); declared only
# uniruled, with A = H, P3 takes both positive-irregularity routes.
_H, _P3 = DivisorExpr.symbol("H"), get("P3").profile
_GUARDED = _P3.with_flags(flag(FlagKind.AMPLE, 5 * _H), flag(FlagKind.NEF, 6 * _H))
_IRREGULAR = _P3.with_flags(
    flag(FlagKind.AMPLE, _H), flag(FlagKind.UNIRULED), flag(FlagKind.NEF, -2 * _H), replace=True
)


@settings(max_examples=100, deadline=None)
@given(certified_cases())
@example((_GUARDED, (5 * _H,) * 3))
@example((_IRREGULAR, (_H,) * 3))
def test_certificates_match_the_oracle(case):
    # `--hypothesis-show-statistics` tallies the routes the examples reach
    p, (A, _, _) = case
    for certify, (guarded_route, guard) in _GUARDS.items():
        guarded = p.chi_O >= 1 and guard(p, A)
        try:
            cert = certify(p, A)
        except FlagContradictionError:
            event(f"{certify.__name__}: refused")
            # the numbers the certifier refuses, the oracle's guard refuses too
            assert not guarded
            continue
        event(f"{certify.__name__}: {cert.route}")
        bounds = _ROUTE_BOUNDS.get((certify, cert.route))
        _same(cert.rational_bound, None if bounds is None else sum(b(p, A) for b in bounds))
        assert cert.route != guarded_route or guarded


@settings(max_examples=150, deadline=None)
@given(profile_and_divisors(), nonzero_rationals)
def test_expand_product_matches_fraction_loops(case, q):
    _, (d1, d2, d3) = case
    lift = ClassExpr.from_divisor
    cubic = oracle.expand(d1, d2, d3)
    _same_parts(expand_divisors(d1, d2, d3), (cubic, {}, 0, 0))
    quadratic = {k: q * v for k, v in oracle.expand(d1, d2).items()}
    _same_parts(expand_product([ClassExpr.scalar(q), lift(d1), lift(d2)]), (2, quadratic, 0))
    # the atom on the right and on the left of the linear factor
    pairings = {s: q * c for s, c in d3.items()}
    quad, atom = lift(d1) * lift(d2), ClassExpr.c2_atom(q)
    for factors in ([lift(d3), quad + atom], [atom + quad, lift(d3)]):
        _same_parts(expand_product(factors), (cubic, pairings, 0, 0))


@settings(max_examples=200, deadline=None)
@given(st.one_of(classes(), numbers()), mappings)
def test_substitute_matches_expanders(expr, mapping):
    if isinstance(expr, ClassExpr):
        expected = oracle.class_substitute(expr, mapping)
    else:
        expected = oracle.number_substitute(expr, mapping)
    _same_parts(expr.substitute(mapping), expected)


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
