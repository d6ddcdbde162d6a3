"""Profile text against the code it replaced, and inputs it once let escape.

The reference below is the `parse_divisor` before, kept verbatim, which
read each coefficient its term pattern matched again through `rat`.  Every
divisor text must give an equal `DivisorExpr`, or the same exception type
and message.  `serialize_profile` writes the outer layout and the
``triple`` records itself; its text must be the very text
``json.dumps(..., indent=2)`` lays out for the same object.
"""

import json
import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjoint3 import (
    DivisorExpr,
    FlagKind,
    ThreefoldProfile,
    blow_up_curve,
    blow_up_point,
    catalog,
    flag,
    get,
    parse_profile,
    serialize_profile,
)
from adjoint3.core import rat
from adjoint3.profile_io import (
    _TERM_RE,
    DivisorParseError,
    ProfileFormatError,
    parse_divisor,
)

# -- the reference code -----------------------------------------------------------


def reference_parse_divisor(text: str) -> DivisorExpr:
    """Parse ``coef*SYM (+|-) ...``; ``0`` denotes the zero divisor."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise DivisorParseError("empty divisor expression")
    if compact in ("0", "+0", "-0"):
        return DivisorExpr.zero()
    terms: list[tuple[str, Fraction]] = []
    pos = 0
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if m is None or m.end() == pos:
            raise DivisorParseError(f"cannot read '{text}' at position {pos}")
        sign, coef, sym = m.group("sign"), m.group("coef"), m.group("sym")
        if sym is None:
            raise DivisorParseError(
                f"term without a symbol in '{text}' at position {pos}"
            )
        try:
            value = rat(coef or "1")
        except ZeroDivisionError as exc:
            raise DivisorParseError(
                f"zero denominator in '{text}' at position {pos}"
            ) from exc
        except ValueError as exc:  # more digits than int() converts
            raise DivisorParseError(
                f"cannot read the coefficient in '{text}' at position {pos}: {exc}"
            ) from exc
        if sign == "-":
            value = -value
        terms.append((sym, value))
        pos = m.end()
    return DivisorExpr(terms)


def outcome(call):
    """The value of ``call()`` with the type of each coefficient, or the type
    and message of what it raised."""
    try:
        d = call()
    except Exception as exc:  # the test compares the exception itself
        return "raised", type(exc), str(exc)
    return "value", type(d), d, [(s, type(c), c) for s, c in d.items()]


@contextmanager
def digit_limit(digits):
    """Convert integers of at most ``digits`` digits, as outside `cli.main`."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# -- (a) divisor texts ------------------------------------------------------------

# few symbols, so that terms repeat and cancel
_SYMBOLS = ("H", "E", "F2", "x'", "_b")
_SPACE = st.sampled_from(("", "", " ", "\t", "\n ", " "))
_DIGITS = st.text("0123456789", min_size=1, max_size=12)


@st.composite
def _coefficient(draw):
    text = draw(_DIGITS)
    if draw(st.booleans()):
        text += "/" + draw(st.one_of(_DIGITS, st.just("0")))
    return text


@st.composite
def _term(draw, first):
    sign = draw(st.sampled_from(("", "+", "-") if first else ("+", "-", "+", "-", "")))
    coef = draw(st.one_of(st.just(""), st.just("0"), _coefficient()))
    star = draw(st.sampled_from(("", "*"))) if coef else ""
    symbol = draw(st.sampled_from(_SYMBOLS + ("",)))  # "": a term without a symbol
    space = [draw(_SPACE) for _ in range(4)]
    return space[0] + sign + space[1] + coef + space[2] + star + space[3] + symbol


@st.composite
def _expression(draw):
    """Terms with signs, whitespace, optional stars and bare symbols; now and
    then one term lacks its operator or its symbol, or has a zero denominator."""
    terms = [draw(_term(True))]
    terms += [draw(_term(False)) for _ in range(draw(st.integers(0, 5)))]
    return "".join(terms)


# stray characters and digits of other scripts among the grammar's own pieces
_PIECES = ("+", "-", "*", "/", " ", "0", "1", "12", "H", "E", "F2", "x'",
           "#", ".", "(", "٣", "²", "é", "１", "e")


@st.composite
def _soup(draw):
    return "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=10)))


@st.composite
def _damaged(draw):
    text = draw(_expression())
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(_PIECES)) + text[at:]


_DIVISOR_TEXTS = st.one_of(
    _expression(),
    _damaged(),
    _soup(),
    st.sampled_from(("", " ", "0", "+0", "-0", " - 0 ", "00", "0/1", "H - H", "2H-2*H+E")),
)


@settings(max_examples=250, deadline=None)
@given(_DIVISOR_TEXTS)
def test_parse_divisor_equals_the_reference(text):
    assert outcome(lambda: parse_divisor(text)) == outcome(lambda: reference_parse_divisor(text))


def test_parse_divisor_cases_the_grammar_names():
    cases = {
        "2*H - 1/2E + x'": {"H": 2, "E": Fraction(-1, 2), "x'": 1},
        " 6/4 H ": {"H": Fraction(3, 2)},
        "H - H": {},
        "-0*H": {},
        "007/014*E": {"E": Fraction(1, 2)},
        "007/002*E": {"E": Fraction(7, 2)},
        "0/5*H + E": {"E": 1},
    }
    for text, coefficients in cases.items():
        assert parse_divisor(text) == DivisorExpr(coefficients) == reference_parse_divisor(text)
    for text in ("1/2", "1/0*H", "H - 1/0*E", "2H+", "٣H", "H#", "2*H 3*E"):
        assert outcome(lambda: parse_divisor(text)) == outcome(
            lambda: reference_parse_divisor(text)
        )
        with pytest.raises(DivisorParseError):
            parse_divisor(text)


# -- (b) coefficients of more digits than int() converts ----------------------------

_LONG_COEFFICIENT = "1" * 5000


def test_long_coefficient_is_a_divisor_parse_error():
    # once a bare ValueError from Fraction, outside `cli.main`
    with digit_limit(4300):
        with pytest.raises(DivisorParseError, match="position 1"):
            parse_divisor(f"H+{_LONG_COEFFICIENT}*E")
        with pytest.raises(DivisorParseError, match="position 0"):
            parse_divisor(f"1/{_LONG_COEFFICIENT}*H")
        # the default limit: the same message as through `rat`
        for text in (f"H+{_LONG_COEFFICIENT}*E", f"1/{_LONG_COEFFICIENT}*H",
                     f"{_LONG_COEFFICIENT}H"):
            assert outcome(lambda: parse_divisor(text)) == outcome(
                lambda: reference_parse_divisor(text)
            )
    with digit_limit(0):
        assert parse_divisor(f"{_LONG_COEFFICIENT}*H") == DivisorExpr({"H": int(_LONG_COEFFICIENT)})


def _p3_object():
    return json.loads(serialize_profile(get("P3").profile))


@pytest.mark.parametrize(
    "field",
    [
        pytest.param(lambda o: o["named_divisors"].update(A=f"{_LONG_COEFFICIENT}*H"), id="named-divisor"),
        pytest.param(lambda o: o["flags"][0].update(subject=f"{_LONG_COEFFICIENT}*H"), id="flag-subject"),
        pytest.param(lambda o: o.update(canonical=f"-{_LONG_COEFFICIENT}*H"), id="canonical"),
    ],
)
def test_long_coefficient_in_every_divisor_field_is_a_format_error(field):
    # as a named divisor, the ValueError once escaped `parse_profile`
    obj = _p3_object()
    field(obj)
    with digit_limit(4300):
        with pytest.raises(ProfileFormatError):
            parse_profile(json.dumps(obj))


def test_long_json_integer_is_a_format_error():
    # json.loads raised a bare ValueError for it, outside `cli.main`
    obj = _p3_object()
    obj["triple"][0]["i"] = "LONG"
    text = json.dumps(obj).replace('"LONG"', _LONG_COEFFICIENT)
    with digit_limit(4300):
        with pytest.raises(ProfileFormatError, match="not valid JSON"):
            parse_profile(text)
    with digit_limit(0):
        with pytest.raises(ProfileFormatError, match="out of range"):
            parse_profile(text)


# -- (c) the writer ---------------------------------------------------------------


def assert_json_dumps_layout(p):
    text = serialize_profile(p)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert parse_profile(text) == p


def transform_shaped_profile(rng, n=16):
    """A dense valid profile on n symbols with two named divisors and four flags."""
    basis = [f"B{i}" for i in range(n)]
    triple = {
        (basis[i], basis[j], basis[k]): rng.randint(1, 12)
        for i in range(n) for j in range(i, n) for k in range(j, n)
    }
    k_coeffs = [rng.randint(-5, -1) for _ in range(n)]
    c2 = [Fraction(rng.randint(-10, 30)) for _ in range(n)]
    chi_o = rng.randint(-2, 3)
    c2[0] = (-24 * chi_o - sum(k * c for k, c in zip(k_coeffs[1:], c2[1:]))) / Fraction(k_coeffs[0])
    canonical = DivisorExpr(zip(basis, k_coeffs))
    a = DivisorExpr({s: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for s in basis}) - canonical
    p = ThreefoldProfile(basis, triple, dict(zip(basis, c2)), chi_o, canonical)
    return p.with_flags(
        flag(FlagKind.AMPLE, a),
        flag(FlagKind.NEF, canonical + 2 * a),
        flag(FlagKind.UNIRULED),
        flag(FlagKind.IRREGULARITY_ZERO),
    ).with_named_divisors(A=a, H=DivisorExpr({s: Fraction(1, rng.randint(1, 4)) for s in basis}))


@pytest.mark.parametrize("name", [*catalog.names(), "hypersurface(7)"])
def test_catalog_entries_have_the_json_dumps_layout(name):
    assert_json_dumps_layout(get(name).profile)


@pytest.mark.parametrize("seed", [0, 1])
def test_blown_up_profiles_have_the_json_dumps_layout(seed):
    rng = random.Random(seed)
    p = parse_profile(serialize_profile(transform_shaped_profile(rng)))
    point, _ = blow_up_point(p, "E1")
    degrees = {s: rng.randint(0, 6) for s in point.basis}
    curve, _ = blow_up_curve(point, "E2", rng.randint(0, 5), degrees)
    for profile in (p, point, curve):
        assert profile.validate() == []
        assert_json_dumps_layout(profile)


def test_bare_profiles_have_the_json_dumps_layout():
    p = transform_shaped_profile(random.Random(2), n=3)
    zero = ThreefoldProfile(["H", "E"], {("H", "H", "H"): 0, ("E", "E", "H"): 0})
    for profile in (
        p.with_flags(replace=True),
        ThreefoldProfile(p.basis, p.triple, p.c2_vector, p.chi_O, p.canonical, p.flags),
        ThreefoldProfile(p.basis, p.triple, p.c2_vector, p.chi_O, p.canonical),
        zero,
        zero.with_flags(flag(FlagKind.UNIRULED)).with_named_divisors(A={"H": 1}),
    ):
        assert_json_dumps_layout(profile)
    assert '"triple": [],' in serialize_profile(zero)
