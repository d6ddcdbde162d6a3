"""Profile construction, copies, parsing and serialization against the code they replaced.

The constructor keeps the triple tensor once, on sorted symbol triples,
and rejects two orders of one triple with different values and any
symbol off the basis.  `with_flags`, `with_named_divisors` and the
blow-ups copy the validated data instead of rebuilding it; a blow-up must
equal the profile the constructor builds from the same fields.
`profile_from_dict` reads each triple record in one loop and builds the
stored tensor itself, and the constructor checks every other field;
`serialize_profile` takes its triple records from the tensor.  The
reference functions below are those of the code before, kept verbatim
but for the checks the constructor now makes (triple keys, and the
unknown-symbol records of `reference_validate`): every result, every
rejection (type and message) and every byte must equal theirs.
"""

import json
import random
import re
from fractions import Fraction
from itertools import permutations
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adjoint3.birational as birational
from adjoint3 import (
    DivisorExpr,
    FlagKind,
    PositivityFlag,
    ThreefoldProfile,
    UnknownSymbolError,
    blow_up_curve,
    blow_up_point,
    flag,
    format_divisor,
    parse_profile,
    serialize_profile,
)
from adjoint3.core import format_rational, rat
from adjoint3.profile import VARIETY_LEVEL_KINDS
from adjoint3.profile_io import (
    PROFILE_FIELDS,
    DivisorParseError,
    ProfileFormatError,
    parse_divisor,
    profile_from_dict,
)
from conftest import assert_canonical_fields

# -- the reference code -----------------------------------------------------------


def reference_grouping(basis, items):
    """The tensor of (key, value) pairs grouped by sorted key, zeros dropped;
    None when one group holds two different values or a key names a symbol
    outside ``basis``."""
    groups = {}
    for key, value in items:
        groups.setdefault(tuple(sorted(key)), set()).add(rat(value))
    if any(len(values) > 1 for values in groups.values()):
        return None
    if any(s not in basis for key in groups for s in key):
        return None
    return {key: value for key, (value,) in groups.items() if value}


def reference_serialize(p):
    """The text of the code before."""
    return json.dumps(reference_to_dict(p), indent=2) + "\n"


def reference_flag_record(f: PositivityFlag, basis: Sequence[str]) -> dict:
    record: dict = {"kind": f.kind.value}
    record["subject"] = None if f.subject is None else format_divisor(f.subject, basis)
    return record


def reference_to_dict(p: ThreefoldProfile) -> dict:
    """JSON-ready canonical representation of a profile."""
    index = {s: i for i, s in enumerate(p.basis)}
    triple_records = []
    for key, value in p.triple.items():
        i, j, k = sorted(index[s] for s in key)
        triple_records.append({"i": i, "j": j, "k": k, "value": format_rational(value)})
    triple_records.sort(key=lambda r: (r["i"], r["j"], r["k"]))
    flags = sorted(
        (reference_flag_record(f, p.basis) for f in p.flags),
        key=lambda r: (r["kind"], r["subject"] or ""),
    )
    return {
        "basis": list(p.basis),
        "canonical": format_divisor(p.canonical, p.basis),
        "chi_O": format_rational(p.chi_O),
        "c2": [format_rational(p.c2_vector.get(s, Fraction(0))) for s in p.basis],
        "triple": triple_records,
        "flags": flags,
        "named_divisors": {
            name: format_divisor(d, p.basis)
            for name, d in sorted(p.named_divisors.items())
        },
    }


def reference_from_dict(obj: object) -> ThreefoldProfile:
    """Rebuild a profile from its JSON representation."""
    if not isinstance(obj, dict):
        raise ProfileFormatError("a profile file holds a JSON object")
    unknown = set(obj) - set(PROFILE_FIELDS)
    if unknown:
        raise ProfileFormatError(f"unknown profile fields: {sorted(unknown)}")

    basis = obj.get("basis")
    if (
        not isinstance(basis, list)
        or not basis
        or not all(isinstance(s, str) and s for s in basis)
    ):
        raise ProfileFormatError("'basis' must be a non-empty list of symbol names")

    try:
        canonical = parse_divisor(obj.get("canonical", "0"))
        chi_o = rat(obj.get("chi_O", 0))
    except (DivisorParseError, ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProfileFormatError(f"bad canonical/chi_O field: {exc}") from exc

    c2_list = obj.get("c2", ["0/1"] * len(basis))
    if not isinstance(c2_list, list) or len(c2_list) != len(basis):
        raise ProfileFormatError("'c2' must list one rational per basis symbol")
    try:
        c2_vector = {s: rat(v) for s, v in zip(basis, c2_list)}
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ProfileFormatError(f"bad c2 entry: {exc}") from exc

    triple = {}
    records = obj.get("triple", [])
    if not isinstance(records, list):
        raise ProfileFormatError("'triple' must be a list of {i, j, k, value} records")
    for record in records:
        if not isinstance(record, dict) or not {"i", "j", "k", "value"} <= set(record):
            raise ProfileFormatError(f"bad triple record: {record!r}")
        ijk = tuple(record[x] for x in ("i", "j", "k"))
        if not all(type(x) is int for x in ijk):
            raise ProfileFormatError(f"triple indices must be integers: {record!r}")
        try:
            value = rat(record["value"])
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ProfileFormatError(f"bad triple record {record!r}: {exc}") from exc
        if not all(0 <= x < len(basis) for x in ijk):
            raise ProfileFormatError(f"triple indices out of range: {record!r}")
        key = tuple(basis[x] for x in ijk)
        if key in triple:
            raise ProfileFormatError(f"duplicate triple record: {record!r}")
        triple[key] = value

    flags = []
    records = obj.get("flags", [])
    if not isinstance(records, list):
        raise ProfileFormatError("'flags' must be a list of {kind, subject} records")
    for record in records:
        if not isinstance(record, dict) or "kind" not in record:
            raise ProfileFormatError(f"bad flag record: {record!r}")
        try:
            kind = FlagKind(record["kind"])
        except ValueError as exc:
            raise ProfileFormatError(f"unknown flag kind {record['kind']!r}") from exc
        subject_text = record.get("subject")
        if subject_text is not None and not isinstance(subject_text, str):
            raise ProfileFormatError(f"flag subject must be a string: {record!r}")
        try:
            subject = None if subject_text is None else parse_divisor(subject_text)
            flags.append(PositivityFlag(kind, subject))
        except (DivisorParseError, ValueError) as exc:
            raise ProfileFormatError(f"bad flag record {record!r}: {exc}") from exc

    named = obj.get("named_divisors", {})
    if not isinstance(named, dict) or not all(isinstance(t, str) for t in named.values()):
        raise ProfileFormatError("'named_divisors' must map names to expressions")
    try:
        named_divisors = {name: parse_divisor(text) for name, text in named.items()}
    except DivisorParseError as exc:
        raise ProfileFormatError(f"bad named divisor: {exc}") from exc

    try:
        return ThreefoldProfile(
            basis=basis,
            triple=triple,
            c2_vector=c2_vector,
            chi_O=chi_o,
            canonical=canonical,
            flags=flags,
            named_divisors=named_divisors,
        )
    except (ValueError, TypeError) as exc:
        raise ProfileFormatError(str(exc)) from exc


def reference_validate(self) -> list[str]:
    """All invariant violations, as human-readable records.

    An empty list certifies: the canonical class pairs with c2 to
    -24 * chi_O, and chi_O is an integer.  Violations are data, not
    failures.  (The unknown-symbol records of the code before are gone:
    the constructor rejects every profile they were written for.)
    """
    out: list[str] = []
    lhs = self.c2_pair(self.canonical)
    rhs = -24 * self.chi_O
    if lhs != rhs:
        out.append(f"chiox inconsistency: {lhs} != {rhs}")

    if self.chi_O.denominator != 1:
        out.append(f"chi_O must be an integer, got {self.chi_O}")
    return out


# -- random profiles ------------------------------------------------------------------

# names the divisor grammar writes, in an order that is not the sorted one
GRAMMAR_SYMBOLS = ("H", "E", "F2", "G_1", "x'", "B10", "B2", "a", "Z9", "K3", "L", "M_")
# names JSON writes with escapes; no basis symbol is one, a divisor name may be
ESCAPED_SYMBOLS = ("É", 'a"b', "back\\slash", "tab\t", "☃", "new\nline")
NAMES = ("A", "D", "F", "Été", 'q"uote')
DIVISOR_KINDS = [kind for kind in FlagKind if kind not in VARIETY_LEVEL_KINDS]


def _value(rng):
    """Rational, negative and zero entries."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 12)))


def _divisor(rng, basis):
    chosen = rng.sample(basis, rng.randint(0, min(3, len(basis))))
    return DivisorExpr({s: _value(rng) for s in chosen})


def random_profile(rng, n, symbols=GRAMMAR_SYMBOLS, several=False, names=NAMES):
    """A profile on n of ``symbols``: missing entries, and with ``several``
    triples given under several permutations, each with the triple's one
    value.  Its named divisors take names from ``names``."""
    basis = rng.sample(symbols, n)
    triple = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if rng.random() < 0.2:
                    continue
                key = (basis[i], basis[j], basis[k])
                perms = sorted(set(permutations(key))) if several else [key]
                value = _value(rng)
                for perm in rng.sample(perms, rng.randint(1, min(3, len(perms)))):
                    triple[perm] = value
    flags = [
        flag(rng.choice(DIVISOR_KINDS), _divisor(rng, basis)) for _ in range(rng.randint(0, 3))
    ]
    flags += rng.sample(sorted(VARIETY_LEVEL_KINDS), rng.randint(0, 2))
    return ThreefoldProfile(
        basis=basis,
        triple=triple,
        c2_vector={s: _value(rng) for s in basis if rng.random() < 0.8},
        chi_O=rng.randint(-3, 3),
        canonical=_divisor(rng, basis),
        flags=[f if isinstance(f, PositivityFlag) else flag(f) for f in flags],
        named_divisors={
            name: _divisor(rng, basis) for name in rng.sample(names, rng.randint(0, 3))
        },
    )


def outcome(call):
    """The value of ``call()``, or the type and message of what it raised."""
    try:
        return "value", call()
    except Exception as exc:  # the test compares the exception itself
        return "raised", type(exc), str(exc)


seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 12)


# -- (a) serialization --------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(sizes, seeds, st.booleans(), st.booleans())
def test_serialize_writes_the_json_dumps_layout(n, seed, escaped, several):
    rng = random.Random(seed)
    p = random_profile(rng, n, several=several,
                       names=ESCAPED_SYMBOLS + NAMES if escaped else NAMES)
    assert serialize_profile(p) == reference_serialize(p)


def test_serialize_edge_profiles():
    empty = ThreefoldProfile(basis=["H"], triple={("H", "H", "H"): 0})
    for p in (empty, empty.with_flags(flag(FlagKind.UNIRULED)).with_named_divisors(A={"H": 1})):
        assert serialize_profile(p) == reference_serialize(p)


# -- (b) parsing ------------------------------------------------------------------------


def _mutate(rng, obj, n):
    """One malformed (or, for an int value, well-formed) change to a triple record."""
    records = obj["triple"]
    whole = [at for at, r in enumerate(records) if isinstance(r, dict) and len(r) == 4]
    if not whole:
        records.append({"i": 0, "j": 0, "k": 0, "value": "1/1"})
        whole = [len(records) - 1]
    at = rng.choice(whole)
    record = records[at]
    index = rng.choice("ijk")
    kind = rng.choice(
        ["missing", "non-dict", "bool", "float", "str", "range", "duplicate", "bad", "true", "int"]
    )
    if kind == "missing":
        del record[rng.choice(("i", "j", "k", "value"))]
    elif kind == "non-dict":
        records[at] = rng.choice(([0, 0, 0, "1/1"], "0 0 0", None, 5))
    elif kind == "bool":
        record[index] = rng.choice((True, False))
    elif kind == "float":
        record[index] = rng.choice((0.0, 1.5))
    elif kind == "str":
        record[index] = "0"
    elif kind == "range":
        record[index] = rng.choice((n, -1, n + 3))
    elif kind == "duplicate":
        records.insert(rng.randrange(len(records) + 1), dict(record, value="5/2"))
    elif kind == "bad":
        record["value"] = rng.choice(
            ("1/0", "abc", "", "1/", [1], {"a": 1}, None, 1.5, "1.5", " -3/4 ")
        )
    elif kind == "true":
        # a JSON true next to a 1, which must not share a converted value
        record["value"] = True
        records.insert(rng.randrange(len(records) + 1), dict(record, value=1))
        rng.shuffle(records)
    else:
        record["value"] = rng.randint(-5, 5)


def _same_parse(obj):
    actual = outcome(lambda: profile_from_dict(json.loads(json.dumps(obj))))
    expected = outcome(lambda: reference_from_dict(json.loads(json.dumps(obj))))
    if expected[0] == "raised":
        assert actual == expected
        return
    q, r = actual[1], expected[1]
    assert q == r
    assert list(q.triple.items()) == list(r.triple.items())
    assert serialize_profile(q) == serialize_profile(r)


@settings(max_examples=100, deadline=None)
@given(sizes, seeds, st.booleans())
def test_parse_equals_the_reference_parse(n, seed, several):
    obj = json.loads(serialize_profile(random_profile(random.Random(seed), n, several=several)))
    _same_parse(obj)


@settings(max_examples=300, deadline=None)
@given(sizes, seeds, st.integers(1, 2))
def test_malformed_records_raise_what_the_reference_raises(n, seed, changes):
    rng = random.Random(seed)
    obj = json.loads(serialize_profile(random_profile(rng, n)))
    for _ in range(changes):
        _mutate(rng, obj, n)
    _same_parse(obj)


@pytest.mark.parametrize(
    "record",
    [
        [0, 0, 0, "1/1"],
        "0 0 0 1/1",
        5,
        None,
        {"i": 0, "j": 0, "k": 1},
        {"i": 0, "j": 0, "k": 1, "value": "2/3", "note": "kept"},
        {"i": True, "j": 0, "k": 1, "value": "1/1"},
        {"i": 0, "j": 0, "k": 1, "value": [1]},
        {"i": 0, "j": 0, "k": 1, "value": 1.5},
        {"i": 0, "j": 0, "k": 1, "value": -3},
        {"i": 0, "j": 0, "k": 1, "value": "1/1"},  # a string read before
    ],
    ids=["list", "string", "number", "null", "no-value", "extra-key", "true-index",
         "list-value", "float-value", "int-value", "repeated-string"],
)
def test_each_record_shape_reads_as_the_reference_reads(record):
    obj = {"basis": ["H", "E"], "triple": [{"i": 0, "j": 0, "k": 0, "value": "1/1"}, record]}
    _same_parse(obj)


def test_true_and_one_do_not_share_a_converted_value():
    for values in ((1, True), (True, 1), ("1", 1, True)):
        obj = {
            "basis": ["H", "E"],
            "triple": [{"i": 0, "j": 0, "k": x, "value": v} for x, v in enumerate(values[:2])]
            + [{"i": 1, "j": 1, "k": 1, "value": v} for v in values[2:]],
        }
        _same_parse(obj)
        with pytest.raises(ProfileFormatError, match="bad triple record"):
            profile_from_dict(obj)


def test_constructor_values_do_not_share_a_converted_value():
    # the constructor converts each distinct int or str value once, by type and value
    keys = [("H", "H", "H"), ("E", "H", "H"), ("H", "E", "H")]
    for later in (True, 1.0):
        for key in keys[:2]:  # the same triple, or another
            with pytest.raises(TypeError, match="expected an exact rational"):
                ThreefoldProfile(["H", "E"], [(keys[0], 1), (key, later)])
    with pytest.raises(TypeError, match="expected an exact rational .* got list"):
        ThreefoldProfile(["H", "E"], [(keys[0], 1), (keys[1], [1])])

    class Half(Fraction):
        pass

    p = ThreefoldProfile(["H", "E"], [(keys[0], Half(1, 2)), (keys[1], 1), (keys[2], 1)])
    assert [type(v) for v in p.triple.values()] == [Fraction, Fraction]
    assert dict(p.triple) == {keys[0]: Fraction(1, 2), ("E", "H", "H"): 1}
    with pytest.raises(ValueError, match=r"triple \('E', 'H', 'H'\) is given two values, 1 and 2"):
        ThreefoldProfile(["H", "E"], [(keys[1], 1), (keys[2], 2)])


def _mutate_field(rng, obj):
    """One malformed change to a field other than ``triple``: an off-basis symbol
    in the canonical class, a flag subject or a named divisor, or a subject on a
    variety-level flag."""
    kind = rng.choice(["canonical", "subject", "named", "variety-level"])
    stray = f"{rng.choice((1, 2, '1/2'))}*{rng.choice(OFF_BASIS)}"
    if kind == "canonical":
        obj["canonical"] = stray if obj["canonical"] == "0" else f"{obj['canonical']} + {stray}"
    elif kind == "subject":
        obj["flags"].insert(rng.randint(0, len(obj["flags"])),
                            {"kind": rng.choice(DIVISOR_KINDS).value, "subject": stray})
    elif kind == "named":
        obj["named_divisors"][rng.choice(("S", "A", "a"))] = stray
    else:
        subject = f"1*{rng.choice(obj['basis'])}"
        obj["flags"].insert(rng.randint(0, len(obj["flags"])),
                            {"kind": rng.choice(sorted(VARIETY_LEVEL_KINDS)).value,
                             "subject": subject})


@settings(max_examples=150, deadline=None)
@given(sizes, seeds, st.integers(1, 2), st.booleans())
def test_malformed_fields_raise_what_the_reference_raises(n, seed, changes, bad_record):
    # the reader hands the constructor its stored tensor; every other field
    # must still be checked as the constructor checks it, and after the records
    rng = random.Random(seed)
    obj = json.loads(serialize_profile(random_profile(rng, n)))
    for _ in range(changes):
        _mutate_field(rng, obj)
    if bad_record:
        _mutate(rng, obj, n)
    _same_parse(obj)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("canonical", "1/1*H + 2/1*Zz", "unknown symbol 'Zz' in canonical class"),
        ("flags", [{"kind": "Nef", "subject": "1/1*Zz"}], "unknown symbol 'Zz' in flag Nef(Zz)"),
        ("named_divisors", {"A": "1/1*Zz"}, "unknown symbol 'Zz' in named divisor 'A'"),
        ("flags", [{"kind": "Uniruled", "subject": "1/1*H"}],
         "bad flag record {'kind': 'Uniruled', 'subject': '1/1*H'}: "
         "Uniruled is a variety-level flag"),
    ],
    ids=["canonical", "flag-subject", "named-divisor", "variety-level-subject"],
)
def test_each_malformed_field_reads_as_the_reference_reads(field, value, message):
    obj = {"basis": ["H", "E"], "triple": [{"i": 0, "j": 0, "k": 0, "value": "1/1"}],
           field: value}
    _same_parse(obj)
    with pytest.raises(ProfileFormatError, match=f"^{re.escape(message)}$"):
        profile_from_dict(obj)


@pytest.mark.parametrize(
    "records",
    [
        [{"i": 0, "j": 0, "k": 0, "value": "1/1"}, {"i": 2, "j": 2, "k": 2, "value": "1/1"}],
        [{"i": 0, "j": 0, "k": 0, "value": "1/1"}],
        [{"i": 0, "j": 0, "k": 0, "value": "1/0"}],
    ],
    ids=["records-that-collide", "one-record", "bad-record"],
)
def test_repeated_basis_symbol_is_reported_before_the_records(records):
    # the records of H at positions 0 and 2 were once reported as a duplicate
    # triple record; the basis is checked first, whatever the records hold
    text = json.dumps({"basis": ["H", "E", "H"], "triple": records})
    with pytest.raises(ProfileFormatError, match="^basis symbols must be distinct$"):
        parse_profile(text)


# -- (c) derived copies --------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(sizes, seeds, st.booleans())
def test_copies_equal_constructed_profiles_and_share_their_data(n, seed, replace):
    rng = random.Random(seed)
    p = random_profile(rng, n, several=True)
    new_flags = [flag(rng.choice(DIVISOR_KINDS), _divisor(rng, p.basis)), flag(FlagKind.UNIRULED)]
    named = {"A": _divisor(rng, p.basis), "N": {p.basis[0]: Fraction(1, 2)}}

    def built(flags, named_divisors):
        return ThreefoldProfile(
            p.basis, p.triple, p.c2_vector, p.chi_O, p.canonical, flags, named_divisors
        )

    flagged = p.with_flags(*new_flags, replace=replace)
    named_copy = p.with_named_divisors(**named)
    expected_flags = set(new_flags) if replace else p.flags | set(new_flags)
    cases = [
        (flagged, built(expected_flags, p.named_divisors)),
        (named_copy, built(p.flags, {**p.named_divisors, **named})),
    ]
    for copy, expected in cases:
        assert copy == expected
        assert copy.flags == expected.flags
        assert dict(copy.named_divisors) == dict(expected.named_divisors)
        assert list(copy.triple.items()) == list(expected.triple.items())
        assert copy.validate() == expected.validate() == reference_validate(copy)
        assert outcome(lambda: serialize_profile(copy)) == outcome(
            lambda: serialize_profile(expected)
        )
        assert copy.triple is p.triple
        assert copy._compiled is p._compiled
        assert list(copy.named_divisors.items()) == list(expected.named_divisors.items())
        assert_canonical_fields(copy)
    assert isinstance(named_copy.named_divisors["N"], DivisorExpr)


@settings(max_examples=80, deadline=None)
@given(sizes, seeds)
def test_c2_vector_and_named_divisors_have_one_stored_form(n, seed):
    # the c2 vector given sparse, dense, with some zeros or out of basis order,
    # as a mapping or as pairs, and the named divisors in any order, a
    # repeated name keeping its last value: one profile, one stored form
    rng = random.Random(seed)
    p = random_profile(rng, n)
    dense = list(p.c2_vector.items())
    some_zeros = [(s, v) for s, v in dense if v or rng.random() < 0.5]
    shuffled = rng.sample(some_zeros, len(some_zeros))
    named = rng.sample(list(p.named_divisors.items()), len(p.named_divisors))
    repeated = [(name, DivisorExpr.symbol(p.basis[0])) for name, _ in named] + named
    inputs = [({s: v for s, v in dense if v}, named), (dense, repeated),
              (dict(some_zeros), dict(named)), (shuffled, repeated)]
    for c2, named_divisors in inputs:
        q = ThreefoldProfile(p.basis, p.triple, c2, p.chi_O, p.canonical, p.flags, named_divisors)
        assert q == p
        assert list(q.c2_vector.items()) == list(p.c2_vector.items())
        assert list(q.named_divisors.items()) == list(p.named_divisors.items())
        assert_canonical_fields(q)
    degrees = {s: Fraction(rng.randint(-2, 4)) for s in p.basis}
    for derived in (
        parse_profile(serialize_profile(p)),
        blow_up_point(p, "Ex")[0],
        blow_up_curve(p, "Ex", rng.randint(0, 2), degrees)[0],
        p.with_flags(flag(FlagKind.UNIRULED)),
        p.with_named_divisors(Zz=DivisorExpr.symbol(p.basis[-1]), A=DivisorExpr.zero()),
    ):
        assert_canonical_fields(derived)


def test_copies_still_reject_what_the_constructor_rejects():
    p = ThreefoldProfile(basis=["H"], triple={("H", "H", "H"): 1})
    for call in (
        lambda: p.with_flags("Ample"),
        lambda: p.with_flags(flag(FlagKind.UNIRULED), 3, replace=True),
        lambda: p.with_named_divisors(A=5),
    ):
        actual = outcome(call)
        assert actual[:2] == ("raised", TypeError)
    assert outcome(lambda: p.with_flags("Ample")) == outcome(
        lambda: ThreefoldProfile(basis=["H"], triple={}, flags=["Ample"])
    )
    assert p.flags == frozenset() and dict(p.named_divisors) == {}


def reference_blown_up(p, e, entries, c2, canonical):
    """The blown-up profile as the constructor builds it from the same fields."""
    return ThreefoldProfile(
        basis=p.basis + (e,),
        triple={**p.triple, **entries},
        c2_vector=c2,
        chi_O=p.chi_O,
        canonical=canonical,
        flags=frozenset(f for f in p.flags if f.kind in VARIETY_LEVEL_KINDS),
        named_divisors=p.named_divisors,
    )


# symbols no basis holds
OFF_BASIS = ("Zz", "Yy", "E1")


def _off_basis_parent(rng, p):
    """Build ``p`` with an off-basis symbol in at least one of its c2 vector,
    canonical class, named divisors and flag subjects; return the message
    of the first offender in that order, which the constructor must raise."""
    fields = rng.sample(range(4), rng.randint(1, 4))
    symbols = {at: rng.choice(OFF_BASIS) for at in fields}

    def stray(at):
        return DivisorExpr({symbols[at]: _value(rng) or Fraction(1)})

    c2 = dict(p.c2_vector)
    if 0 in fields:
        c2.update(stray(0).coefficients)
    canonical = p.canonical + stray(1) if 1 in fields else p.canonical
    named = {**p.named_divisors, **({"S": stray(2)} if 2 in fields else {})}
    bad_flag = flag(rng.choice(DIVISOR_KINDS), stray(3)) if 3 in fields else None
    flags = p.flags | {bad_flag} if bad_flag else p.flags
    places = ("c2 vector", "canonical class", "named divisor 'S'", f"flag {bad_flag}")
    at = min(fields)
    with pytest.raises(UnknownSymbolError) as raised:
        ThreefoldProfile(p.basis, p.triple, c2, p.chi_O, canonical, flags, named)
    return str(raised.value), f"unknown symbol '{symbols[at]}' in {places[at]}"


def _curve_data(rng, p, rational):
    """A genus and degrees over ``p``'s basis: zero ones among them, and now and
    then adjusted so that 2g - 2 = K.C, which makes E^3 zero."""
    genus = rng.randint(0, 3)
    degrees = {
        s: Fraction(rng.randint(-3, 6), rng.choice((1, 2, 3)) if rational else 1)
        if rng.random() < 0.7 else Fraction(0)
        for s in p.basis
    }
    pivots = [s for s in p.basis if p.canonical.coefficients.get(s)]
    if pivots and rng.random() < 0.4:
        s = rng.choice(pivots)
        k_dot_c = sum(c * degrees[t] for t, c in p.canonical.items())
        degrees[s] += (2 * genus - 2 - k_dot_c) / p.canonical.coefficients[s]
    return genus, degrees


def assert_same_profile(actual, expected):
    """Equal as profiles, as tensors, as file bytes and as validation reports,
    with the c2 vector and the named divisors in one stored form."""
    assert actual == expected
    assert dict(actual.triple) == dict(expected.triple)
    for field in ("c2_vector", "named_divisors"):
        assert list(getattr(actual, field).items()) == list(getattr(expected, field).items())
    assert_canonical_fields(actual)
    assert outcome(lambda: serialize_profile(actual)) == outcome(
        lambda: serialize_profile(expected)
    )
    assert actual.validate() == expected.validate() == reference_validate(actual)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), seeds, st.booleans(), st.booleans())
def test_blow_ups_equal_the_constructed_profile(n, seed, off_basis, rational):
    rng = random.Random(seed)
    parent = random_profile(rng, n, several=True)
    if off_basis:  # such a parent is never built, so never blown up
        raised, expected = _off_basis_parent(rng, parent)
        assert raised == expected
        return
    e1, e2 = rng.sample(("E1", "A", "zz", "_e", "Zz"), 2)
    if e1 in parent.basis or e2 in parent.basis:
        return

    def blow_ups():
        point = outcome(lambda: blow_up_point(parent, e1)[0])
        curve = outcome(lambda: blow_up_curve(parent, e1, *curve_data[0])[0])
        then = point[1] if point[0] == "value" else None
        twice = outcome(lambda: blow_up_curve(then, e2, *curve_data[1])[0])
        return point, curve, twice

    point_parent = blow_up_point(parent, e1)[0]
    curve_data = [_curve_data(rng, parent, rational), _curve_data(rng, point_parent, rational)]
    actual = blow_ups()
    with mock.patch.object(birational, "_blown_up", reference_blown_up):
        expected = blow_ups()
    for got, want in zip(actual, expected):
        assert got[:2] == want[:2]
        if got[0] == "value":
            assert_same_profile(got[1], want[1])
            assert got[1]._compiled is not parent._compiled
        else:
            assert got == want
    # the inherited values are the parent's own objects
    point = actual[0][1]
    assert all(point.triple[key] is value for key, value in parent.triple.items())


def _clean(rng, p):
    """``p`` with chi_O and one c2 entry changed so that it validates clean."""
    chi_o = rng.randint(-3, 3) if p.canonical else 0
    c2 = dict(p.c2_vector)
    if p.canonical:
        s, k = rng.choice(p.canonical.items())
        rest = sum(c * c2.get(t, 0) for t, c in p.canonical.items() if t != s)
        c2[s] = (-24 * chi_o - rest) / k
    return ThreefoldProfile(p.basis, p.triple, c2, chi_o, p.canonical, p.flags, p.named_divisors)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), seeds, st.booleans())
def test_accepted_profiles_blow_up_without_key_errors_and_stay_clean(n, seed, rational):
    # a curve blow-up once read the degree of a canonical symbol outside the
    # basis (a KeyError), and both blow-ups of a profile whose c2 vector held
    # one validated clean; the constructor now accepts neither profile
    rng = random.Random(seed)
    parent = random_profile(rng, n, several=True)
    clean = _clean(rng, parent)
    assert clean.validate() == []
    for p in (parent, clean):
        point = blow_up_point(p, "Ex")[0]
        curve = blow_up_curve(p, "Ex", *_curve_data(rng, p, rational))[0]
        for child in (point, curve):
            assert child.validate() == p.validate()
            assert set(child.c2_vector) <= set(child.basis)
            assert set(child.canonical.symbols()) <= set(child.basis)
        assert point.c2_pair(DivisorExpr.symbol("Ex")) == 0


@pytest.mark.parametrize(
    "c2, canonical, message",
    [
        ({"H": 6, "E": 3}, {"H": -4}, "unknown symbol 'E' in c2 vector"),
        ({"H": 6}, {"H": -4, "Z": 1}, "unknown symbol 'Z' in canonical class"),
    ],
    ids=["c2-entry", "canonical"],
)
def test_profiles_blow_ups_once_mishandled_are_rejected(c2, canonical, message):
    # once built: a point blow-up turned the c2 entry of E into E.c2 = 3 and a
    # curve blow-up dropped it, each child validating clean, and a curve
    # blow-up raised a bare KeyError on the canonical class
    with pytest.raises(UnknownSymbolError, match=f"^{message}$"):
        ThreefoldProfile(["H"], {("H", "H", "H"): 1}, c2, 1, canonical)


def test_blow_up_of_a_compiled_parent_compiles_its_own_tensor():
    rng = random.Random(11)
    parent = random_profile(rng, 6, several=True)
    basis = parent.basis
    probes = [(_divisor(rng, basis), _divisor(rng, basis), _divisor(rng, basis)) for _ in range(5)]
    before = [parent.triple_eval(*d) for d in probes]  # compiles the parent
    degrees = {s: Fraction(rng.randint(-2, 4), 2) for s in basis}
    children = [blow_up_point(parent, "Ex")[0], blow_up_curve(parent, "Ex", 1, degrees)[0]]
    with mock.patch.object(birational, "_blown_up", reference_blown_up):
        expected = [blow_up_point(parent, "Ex")[0], blow_up_curve(parent, "Ex", 1, degrees)[0]]
    E = DivisorExpr.symbol("Ex")
    for child, built in zip(children, expected):
        for d1, d2, d3 in probes + [(E, E, E)]:
            for args in ((d1, d2, d3), (d1 + E, d2 - 2 * E, E), (E, E, d3)):
                assert child.triple_eval(*args) == built.triple_eval(*args)
        assert child.triple_eval(E, E, E) == built.triple.get(("Ex", "Ex", "Ex"), 0)
    assert [parent.triple_eval(*d) for d in probes] == before
    assert parent._tensor().position == {s: i for i, s in enumerate(basis)}


def test_extension_rejects_entries_that_could_replace_inherited_ones():
    p = ThreefoldProfile(basis=["H"], triple={("H", "H", "H"): 1})
    c2 = {**p.c2_vector, "E": Fraction(0)}
    for key in (("H", "H", "H"), ("H", "E", "E"), ("E", "E", "Q")):
        with pytest.raises(ValueError, match="is not sorted basis symbols with 'E'"):
            p._extended("E", {key: Fraction(1)}, c2, p.canonical, frozenset())
    q = p._extended("E", {("E", "H", "H"): Fraction(0), ("E", "E", "E"): Fraction(2)},
                    c2, p.canonical, frozenset())
    assert dict(q.triple) == {("H", "H", "H"): 1, ("E", "E", "E"): 2}
    assert dict(p.triple) == {("H", "H", "H"): 1} and p.basis == ("H",)


# -- (d) the tensor and validation --------------------------------------------------------


def _value_text(rng, value):
    """``value`` as one of the inputs `rat` reads."""
    return rng.choice((value, format_rational(value), Fraction(value)))


@settings(max_examples=200, deadline=None)
@given(sizes, seeds, st.booleans(), st.booleans())
def test_constructor_rejects_exactly_conflicting_or_off_basis_keys(n, seed, conflicts, off_basis):
    rng = random.Random(seed)
    basis = rng.sample(GRAMMAR_SYMBOLS, n)
    symbols = basis + ["Zz", "Yy"] if off_basis else basis
    one_value = {}  # sorted key -> its value, when orders must agree
    pairs = []
    for _ in range(rng.randint(0, 3 * n)):
        key = tuple(rng.choice(symbols) for _ in range(3))
        value = one_value.setdefault(tuple(sorted(key)), rng.randint(-2, 2))
        if conflicts and rng.random() < 0.3:
            value = rng.randint(-2, 2)
        pairs.append((key, _value_text(rng, Fraction(value, 1))))
    # the same keys under other orders, and exact repeats
    for key, value in rng.sample(pairs, min(len(pairs), 4)):
        pairs.append((tuple(rng.sample(key, 3)), value))
    rng.shuffle(pairs)
    for triple in (pairs, dict(pairs)):
        items = triple.items() if isinstance(triple, dict) else triple
        expected = reference_grouping(basis, items)
        if expected is None:
            with pytest.raises(ValueError):
                ThreefoldProfile(basis, triple)
        else:
            assert dict(ThreefoldProfile(basis, triple).triple) == expected


@settings(max_examples=120, deadline=None)
@given(sizes, seeds, st.booleans())
def test_symmetrised_view_and_validate_equal_the_reference(n, seed, several):
    rng = random.Random(seed)
    p = random_profile(rng, n, several=several)
    assert dict(p.triple) == reference_grouping(p.basis, p.triple.items())
    assert all(a <= b <= c for a, b, c in p.triple)
    assert p.validate() == reference_validate(p)
    # the same entries given as pairs under other orders, some keys repeated
    pairs = [(tuple(rng.sample(key, 3)), value) for key, value in p.triple.items()]
    pairs += rng.sample(pairs, min(len(pairs), 4))
    rng.shuffle(pairs)
    q = ThreefoldProfile(p.basis, pairs, p.c2_vector, p.chi_O, p.canonical, p.flags)
    assert dict(q.triple) == dict(p.triple)
    assert q.validate() == reference_validate(q)


def test_conflicting_permutations_are_rejected():
    H, E = DivisorExpr.symbol("H"), DivisorExpr.symbol("E")
    triple = {("H", "E", "H"): 2, ("E", "H", "H"): 1, ("H", "H", "E"): 3, ("E", "E", "E"): 1}
    with pytest.raises(ValueError, match=r"triple \('E', 'H', 'H'\) is given two values, 2 and 1"):
        ThreefoldProfile(basis=["H", "E"], triple=triple)
    with pytest.raises(ValueError, match=r"triple \('H', 'H', 'H'\) is given two values, 1 and 2"):
        ThreefoldProfile(basis=["H"], triple=[(("H", "H", "H"), 1), (("H", "H", "H"), "2/1")])
    # agreeing orders are one entry, and a zero is dropped after the check
    p = ThreefoldProfile(
        basis=["H", "E"],
        triple={("H", "E", "H"): 1, ("E", "H", "H"): "1/1", ("H", "H", "E"): Fraction(2, 2),
                ("E", "E", "H"): 0, ("E", "H", "E"): 0},
    )
    assert dict(p.triple) == {("E", "H", "H"): 1}
    assert parse_profile(serialize_profile(p)).triple_eval(H, H, E) == 1
    with pytest.raises(ValueError, match="is given two values, 0 and 1"):
        ThreefoldProfile(basis=["H", "E"], triple={("E", "E", "H"): 0, ("E", "H", "E"): 1})

