import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjoint3 import (
    ClassExpr,
    DegreeOverflowError,
    DivisorExpr,
    DoubleC2AtomError,
    NumberExpr,
    expand_divisors,
    expand_product,
    format_rational,
    identity_check,
    rat,
)

import strategies
from strategies import RationalSubclass as _Rational
from strategies import nonzero_rationals, operand_pairs, term_lists

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
symbols = st.sampled_from(("A", "K", "H", "E"))
divisors = st.dictionaries(symbols, rationals, max_size=4).map(DivisorExpr)


def test_rat_accepts_exact_inputs():
    assert rat(3) == Fraction(3)
    assert rat("5/4") == Fraction(5, 4)
    assert rat(Fraction(-7, 2)) == Fraction(-7, 2)
    # so every stored coefficient, scalar and profile entry has one type
    for value in (3, "5/4", Fraction(-7, 2), _Rational(-7, 2)):
        assert type(rat(value)) is Fraction
    assert rat(_Rational(-7, 2)) == Fraction(-7, 2)


@pytest.mark.parametrize(
    "text", ["1.5", " 1 ", "1e2", "1/", "/2", "", "1_0", "0x10", "1/-2", "--1", "Infinity"]
)
def test_rat_rejects_inexact_strings(text):
    # "1.5", " 1 " and "1e2" once read as 3/2, 1 and 100
    with pytest.raises(ValueError):
        rat(text)


def test_rat_reads_signed_p_over_q():
    assert rat("-3/4") == Fraction(-3, 4)
    assert rat("+2") == Fraction(2)
    assert rat("06/4") == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


def _read(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_digits = st.one_of(
    st.text("0123456789", min_size=1, max_size=8),
    st.sampled_from(["0", "00"]),
    # around the 4300 digits int() converts by default
    st.builds(lambda d, n: d * n, st.sampled_from("0123456789"), st.integers(4295, 4310)),
)
_rational_texts = st.builds(
    lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
    st.sampled_from(["", "+", "-"]),
    _digits,
    st.none() | _digits,
)


@given(_rational_texts)
def test_rat_reads_text_as_fraction_does(text):
    # `rat` reads p/q with int(); Fraction(text) is the reading it replaced
    assert _read(rat, text) == _read(Fraction, text)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_rat_rejects_booleans(value):
    with pytest.raises(TypeError):
        rat(value)


def test_format_rational_always_writes_denominator():
    assert format_rational(Fraction(4)) == "4/1"
    assert format_rational(Fraction(-5, 3)) == "-5/3"


class TestDivisorExpr:
    def test_canonical_sparse_form(self):
        assert DivisorExpr({"H": 0}) == DivisorExpr.zero()
        h = DivisorExpr.symbol("H")
        assert (h - h).is_zero()
        assert DivisorExpr({"H": 2, "E": 0}).symbols() == {"H"}

    def test_equality_is_canonical(self):
        assert DivisorExpr({"H": 1, "E": -1}) == DivisorExpr({"E": -1, "H": 1})
        assert hash(DivisorExpr({"H": 1})) == hash(DivisorExpr.symbol("H"))

    def test_scalar_arithmetic(self):
        h, e = DivisorExpr.symbol("H"), DivisorExpr.symbol("E")
        d = 2 * (h + e) - e
        assert d.coefficient("H") == 2 and d.coefficient("E") == 1
        assert (Fraction(1, 2) * h).coefficient("H") == Fraction(1, 2)

    def test_terms_are_stored_once(self):
        # one canonical dict; `items()` and the compared tuple are read from it
        d = DivisorExpr({"H": 2, "E": Fraction(-1, 2)})
        assert DivisorExpr.__slots__ == ("_coeffs",)
        assert d.items() == (("E", Fraction(-1, 2)), ("H", Fraction(2)))
        assert d._fields() == d.items()

    def test_divisor_times_divisor_is_rejected(self):
        h = DivisorExpr.symbol("H")
        with pytest.raises(TypeError):
            h * h

    @given(divisors, divisors, divisors)
    def test_addition_group_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + DivisorExpr.zero() == a
        assert (a - a).is_zero()

    @given(divisors, rationals, rationals)
    def test_scalar_action(self, d, s, t):
        assert s * (t * d) == (s * t) * d
        assert (s + t) * d == s * d + t * d


class TestClassExpr:
    def test_degree_validation(self):
        with pytest.raises(ValueError):
            ClassExpr(4)
        with pytest.raises(ValueError):
            ClassExpr(3, {("H", "H", "H"): 1})  # top degree is a NumberExpr
        with pytest.raises(ValueError):
            ClassExpr(1, (), c2_atom_coeff=1)  # atom lives in degree 2
        with pytest.raises(ValueError):
            ClassExpr(2, {("H",): 1})

    def test_empty_symbol_is_a_malformed_monomial(self):
        with pytest.raises(ValueError):
            ClassExpr.symbol("")
        with pytest.raises(ValueError):
            ClassExpr(2, {("H", ""): 1})

    def test_mixed_degree_addition_rejected(self):
        with pytest.raises(ValueError):
            ClassExpr.symbol("H") + ClassExpr.c2_atom()
        with pytest.raises(TypeError):
            DivisorExpr.symbol("H") - ClassExpr.symbol("H")

    def test_product_of_divisor_classes(self):
        k, a = ClassExpr.symbol("K"), ClassExpr.symbol("A")
        product = expand_product([k + a, a, k + 2 * a])
        assert isinstance(product, NumberExpr)
        assert dict(product.cubic_terms) == {
            ("A", "K", "K"): Fraction(1),
            ("A", "A", "K"): Fraction(3),
            ("A", "A", "A"): Fraction(2),
        }
        assert (k * a + ClassExpr.c2_atom()).symbols() == frozenset({"A", "K"})
        assert ClassExpr.c2_atom().symbols() == frozenset()

    def test_c2_atom_pairing(self):
        k, a = ClassExpr.symbol("K"), ClassExpr.symbol("A")
        product = expand_product([ClassExpr.c2_atom(), k + 2 * a])
        assert isinstance(product, NumberExpr)
        assert not product.cubic_terms
        assert dict(product.c2_pairings) == {"K": Fraction(1), "A": Fraction(2)}

    def test_degree_overflow(self):
        d = ClassExpr.symbol("D")
        with pytest.raises(DegreeOverflowError):
            expand_product([d, d, d, d])

    def test_double_c2_atom(self):
        with pytest.raises(DoubleC2AtomError):
            expand_product([ClassExpr.c2_atom(), ClassExpr.c2_atom()])

    def test_ring_product_truncates_above_top_degree(self):
        d = ClassExpr.symbol("D")
        quadratic = d * d
        assert (quadratic * quadratic) == NumberExpr.zero()
        assert (ClassExpr.c2_atom() * quadratic) == NumberExpr.zero()

    def test_scalar_factors_and_degree_zero(self):
        d = ClassExpr.symbol("D")
        assert expand_product([ClassExpr.scalar(3), d]) == 3 * d
        top = expand_product([d, d, d, ClassExpr.scalar(2)])
        assert top == 2 * expand_product([d, d, d])
        e, q = ClassExpr.symbol("E"), Fraction(-3, 2)
        for x, y in [
            (ClassExpr.scalar(3), ClassExpr.scalar(Fraction(1, 2))),
            (d, 2 * d + e),
            (d * e, d * d),
            (d * e + ClassExpr.c2_atom(5), ClassExpr.c2_atom(Fraction(1, 3)) - d * d),
        ]:
            assert x - y == x + (-1) * y
            assert q * x == x * q and 2 * x == x * 2

    @given(st.permutations([0, 1, 2]), st.integers(0, 10**9))
    def test_expand_product_is_symmetric(self, perm, seed):
        rng = random.Random(seed)
        pool = [
            ClassExpr(
                1,
                {("A",): rng.randint(-4, 4), ("K",): rng.randint(-4, 4)},
            )
            for _ in range(2)
        ] + [
            ClassExpr(
                1,
                {("H",): Fraction(rng.randint(-4, 4), rng.randint(1, 3))},
            )
        ]
        reference = expand_product(pool)
        shuffled = expand_product([pool[i] for i in perm])
        assert reference == shuffled

    def test_product_associates_with_dunders(self):
        a, b, c = (ClassExpr.symbol(s) for s in "ABC")
        assert (a * b) * c == a * (b * c)

    def test_substitute_expands_linearly(self):
        expr = ClassExpr.symbol("A") * ClassExpr.symbol("A")
        out = expr.substitute({"A": DivisorExpr({"H": 1, "E": -1})})
        assert dict(out.terms) == {
            ("H", "H"): Fraction(1),
            ("E", "H"): Fraction(-2),
            ("E", "E"): Fraction(1),
        }


class TestNumberExpr:
    def test_linear_structure(self):
        n = NumberExpr({("A", "A", "K"): 2}, {"A": 1}, chi_o_coeff=3, constant=-1)
        doubled = 2 * n
        assert doubled.cubic_terms[("A", "A", "K")] == 4
        assert doubled.chi_o_coeff == 6 and doubled.constant == -2
        assert (n - n).is_zero()
        m = NumberExpr({("A", "K", "K"): 1}, {"K": -2}, constant=Fraction(1, 3))
        assert n - m == n + (-1) * m
        assert Fraction(-3, 2) * n == n * Fraction(-3, 2)

    def test_str_and_repr_with_all_four_parts(self):
        n = NumberExpr({("A", "A", "K"): 2}, {"A": 1}, chi_o_coeff=3, constant=-1)
        assert str(n) == "2*A*A*K + c2.A + 3*chi_O - 1"
        assert repr(n) == "NumberExpr(2*A*A*K + c2.A + 3*chi_O - 1)"

    def test_empty_pairing_symbol_rejected(self):
        # pairings and divisors share one key rule
        with pytest.raises(TypeError):
            NumberExpr(c2_pairings={"": 1})
        with pytest.raises(TypeError):
            DivisorExpr({"": 1})

    def test_fold_canonical_c2(self):
        n = NumberExpr(c2_pairings={"K": Fraction(1, 12), "A": 1})
        folded = n.fold_canonical_c2()
        assert "K" not in folded.c2_pairings
        assert folded.c2_pairings["A"] == 1
        assert folded.chi_o_coeff == Fraction(-24, 12)

    def test_substitute_is_trilinear(self):
        n = NumberExpr({("A", "A", "A"): 1})
        out = n.substitute({"A": DivisorExpr({"H": 1, "E": 1})})
        assert dict(out.cubic_terms) == {
            ("H", "H", "H"): Fraction(1),
            ("E", "H", "H"): Fraction(3),
            ("E", "E", "H"): Fraction(3),
            ("E", "E", "E"): Fraction(1),
        }

    def test_identity_check_reflexive_and_discriminating(self):
        k, a = DivisorExpr.symbol("K"), DivisorExpr.symbol("A")
        lhs = expand_divisors(k + 2 * a, a, a)
        assert identity_check(lhs, lhs)
        other = expand_divisors(k + a, a, a)
        assert not identity_check(lhs, other)

    def test_identity_check_uses_canonical_pairing(self):
        # c2.K and -24 chi_O denote the same number on every threefold
        lhs = NumberExpr(c2_pairings={"K": 1})
        rhs = NumberExpr.chi_o_atom(-24)
        assert identity_check(lhs, rhs)
        assert lhs != rhs  # distinct raw forms, equal canonical forms


# -- the normaliser's contract ---------------------------------------------------


def _reference(terms, degree):
    """Sum per sorted key in `Fraction`s, drop zeros, sort the keys."""
    sums = {}
    for key, value in terms:
        key = key if degree is None else tuple(sorted(key))
        sums[key] = sums.get(key, Fraction(0)) + Fraction(value)
    return {key: v for key, v in sorted(sums.items()) if v != 0}


def _assert_canonical(stored, terms, degree):
    expected = _reference(terms, degree)
    assert list(stored.items()) == list(expected.items())
    assert all(type(v) is Fraction for v in stored.values())


@settings(max_examples=50)
@given(term_lists(None), st.randoms(use_true_random=False))
def test_shuffled_and_repeated_terms_give_the_canonical_divisor(terms, rng):
    canonical = DivisorExpr(_reference(terms, None))
    shuffled = rng.sample(terms, len(terms))
    for built in (DivisorExpr(shuffled), Fraction(1, 2) * DivisorExpr(shuffled * 2)):
        assert built == canonical and hash(built) == hash(canonical)
        assert built.items() == canonical.items() == tuple(_reference(terms, None).items())
        assert type(built.items()) is tuple and all(type(item) is tuple for item in built.items())


@given(
    term_lists(None),
    term_lists(1),
    term_lists(2),
    term_lists(3),
    term_lists(None),
)
def test_every_expression_sums_its_terms_per_key(divisor, linear, quadratic, cubic, pairings):
    _assert_canonical(DivisorExpr(divisor).coefficients, divisor, None)
    _assert_canonical(ClassExpr(1, linear).terms, linear, 1)
    _assert_canonical(ClassExpr(2, quadratic).terms, quadratic, 2)
    number = NumberExpr(cubic, pairings)
    _assert_canonical(number.cubic_terms, cubic, 3)
    _assert_canonical(number.c2_pairings, pairings, None)


# -- the ring's operations on canonical operands ------------------------------------


def _raw_scaled(expr, q):
    """``q * expr``, built again by the constructor from raw terms."""
    if isinstance(expr, ClassExpr):
        terms = [(k, q * v) for k, v in expr.terms.items()]
        return ClassExpr(expr.degree, terms, q * expr.c2_atom_coeff)
    return NumberExpr(
        [(k, q * v) for k, v in expr.cubic_terms.items()],
        [(s, q * v) for s, v in expr.c2_pairings.items()],
        q * expr.chi_o_coeff,
        q * expr.constant,
    )


def _raw_sum(a, b):
    if isinstance(a, ClassExpr):
        terms = [*a.terms.items(), *b.terms.items()]
        return ClassExpr(a.degree, terms, a.c2_atom_coeff + b.c2_atom_coeff)
    return NumberExpr(
        [*a.cubic_terms.items(), *b.cubic_terms.items()],
        [*a.c2_pairings.items(), *b.c2_pairings.items()],
        a.chi_o_coeff + b.chi_o_coeff,
        a.constant + b.constant,
    )


def _assert_canonical_result(result, expected):
    """``result`` equals the constructor-built ``expected``, its keys sorted
    and of the right degree, every value a nonzero `Fraction`."""
    assert type(result) is type(expected) and result == expected
    if isinstance(result, ClassExpr):
        parts = [(result.terms, result.degree)]
        scalars = [result.c2_atom_coeff]
    else:
        parts = [(result.cubic_terms, 3), (result.c2_pairings, None)]
        scalars = [result.chi_o_coeff, result.constant]
    for terms, degree in parts:
        keys = list(terms)
        assert keys == sorted(keys)
        if degree is not None:
            assert all(len(k) == degree and list(k) == sorted(k) for k in keys)
        assert all(type(v) is Fraction and v != 0 for v in terms.values())
    assert all(type(v) is Fraction for v in scalars)


@settings(max_examples=100)
@given(operand_pairs(), strategies.rationals)
def test_sums_and_scalar_multiples_keep_canonical_form(pair, q):
    a, b = pair
    _assert_canonical_result(a + b, _raw_sum(a, b))
    _assert_canonical_result(b + a, _raw_sum(b, a))
    _assert_canonical_result(a - a, _raw_sum(a, _raw_scaled(a, -1)))
    for scalar in (0, -1, Fraction(-5, 3), Fraction(1, 2), q):
        expected = _raw_scaled(a, Fraction(scalar))
        _assert_canonical_result(scalar * a, expected)
        _assert_canonical_result(a * scalar, expected)


@settings(max_examples=50)
@given(term_lists(1), term_lists(1), term_lists(2), nonzero_rationals)
def test_products_keep_canonical_form(first, second, quadratic, c2):
    lin1, lin2 = ClassExpr(1, first), ClassExpr(1, second)
    quad = ClassExpr(2, quadratic, c2)
    for x, y in ((lin1, lin2), (quad, lin1), (lin1, quad)):
        poly = [(kx + ky, vx * vy) for kx, vx in x.terms.items() for ky, vy in y.terms.items()]
        if x.degree + y.degree == 2:
            expected = ClassExpr(2, poly)
        else:
            atom, linear = (x.c2_atom_coeff, y) if x.degree == 2 else (y.c2_atom_coeff, x)
            expected = NumberExpr(poly, [(s, atom * v) for (s,), v in linear.terms.items()])
        _assert_canonical_result(x * y, expected)
