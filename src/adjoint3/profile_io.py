"""Profile files and the divisor-expression grammar.

Profiles are stored as JSON with exact rationals rendered as ``p/q``
strings (never floating point), the triple tensor as records
``{i, j, k, value}`` with basis indices i <= j <= k (an unsorted record is
a `ProfileFormatError`), and flags as ``{kind, subject}`` records.
Serialization is canonical: re-serializing a parsed file reproduces it
byte for byte.

The canonical text is the layout ``json.dumps(obj, indent=2) + "\n"`` gives
the object of the seven fields in `PROFILE_FIELDS` order, and the writer
reproduces it without handing the whole object to json.dumps, whose
indenting encoder is pure Python.  It writes the outer object itself and
each field but ``triple`` as ``json.dumps(value, indent=2)`` indented one
level.  Each triple record takes one pass each way.  The writer sorts
each stored key's basis positions, formats each distinct value once,
sorts the rows once and writes each with one ``%`` template.  The reader,
once the basis is checked, reads a record's four fields with one lookup,
converts each distinct value once and builds the stored tensor itself,
which the constructor takes as given; a divisor text repeated in a file
is parsed once.  A file that is not UTF-8 text or not JSON, nested too
deep to read included, is a `ProfileFormatError`.

Divisor expressions use the grammar ``coef*SYM (+|-) ...`` with rational
coefficients ``p/q``; whitespace is insignificant, the star is optional,
and a bare symbol means coefficient one.  `parse_divisor` converts the
``p/q`` text its term pattern matched as ``Fraction(int(p), int(q))``,
without matching it again, and raises `DivisorParseError` for a zero
denominator or for a number of more digits than `int` converts.
`resolve_divisor` additionally accepts names of stored divisors and the
canonical class ``K``.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .core import (
    _UNSIGNED_RATIONAL,
    DivisorExpr,
    MalformedInputError,
    UnknownSymbolError,
    _signed_sum,
    format_rational,
    rat,
)
from .profile import _SYMBOL, FlagKind, PositivityFlag, ThreefoldProfile, _is_symbol

PROFILE_FIELDS = ("basis", "canonical", "chi_O", "c2", "triple", "flags", "named_divisors")


class ProfileFormatError(MalformedInputError):
    """A profile file does not follow the documented JSON layout."""


class DivisorParseError(MalformedInputError):
    """A divisor expression does not follow the grammar."""


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?"
    rf"(?:(?P<coef>{_UNSIGNED_RATIONAL})\*?)?"
    rf"(?P<sym>{_SYMBOL})?"
)


def parse_divisor(text: str) -> DivisorExpr:
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
        numerator, _, denominator = (coef or "1").partition("/")
        try:
            value = Fraction(int(numerator), int(denominator or 1))
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


def format_divisor(d: DivisorExpr, basis: Sequence[str] | None = None) -> str:
    """Canonical rendering: ``p/q*SYM`` terms in basis order, or ``0``."""
    coeffs = d.coefficients
    if basis:
        order = {s: i for i, s in enumerate(basis)}
        symbols = sorted(coeffs, key=lambda s: (order.get(s, len(order)), s))
    else:
        symbols = sorted(coeffs)
    return _signed_sum((coeffs[s], f"{format_rational(abs(coeffs[s]))}*{s}") for s in symbols)


def resolve_divisor(p: ThreefoldProfile, text: str) -> DivisorExpr:
    """Resolve a name or expression against a profile.

    Stored divisor names are looked up first; inside expressions, symbols
    that are not basis symbols are substituted from the stored divisors,
    and ``K`` denotes the canonical class unless shadowed.
    """
    name = text.strip()
    if name in p.named_divisors:
        return p.named_divisors[name]
    parsed = parse_divisor(text)
    out = DivisorExpr.zero()
    for sym, coeff in parsed.items():
        if sym in p.basis:
            out = out + DivisorExpr.symbol(sym, coeff)
        elif sym in p.named_divisors:
            out = out + coeff * p.named_divisors[sym]
        elif sym == "K":
            out = out + coeff * p.canonical
        else:
            raise UnknownSymbolError(sym, f"divisor expression '{text}'")
    return out


def _flag_record(f: PositivityFlag, basis: Sequence[str]) -> dict:
    record: dict = {"kind": f.kind.value}
    record["subject"] = None if f.subject is None else format_divisor(f.subject, basis)
    return record


def profile_from_dict(obj: object) -> ThreefoldProfile:
    """Rebuild a profile from its JSON representation."""
    if not isinstance(obj, dict):
        raise ProfileFormatError("a profile file holds a JSON object")
    unknown = set(obj) - set(PROFILE_FIELDS)
    if unknown:
        raise ProfileFormatError(f"unknown profile fields: {sorted(unknown)}")

    basis = obj.get("basis")
    if not isinstance(basis, list) or not basis or not all(map(_is_symbol, basis)):
        raise ProfileFormatError(
            f"'basis' must be a non-empty list of symbol names matching {_SYMBOL}"
        )
    if len(set(basis)) != len(basis):  # before the records, which a repeat would confuse
        raise ProfileFormatError("basis symbols must be distinct")

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

    triple: dict[tuple[str, str, str], Fraction] = {}
    records = obj.get("triple", [])
    if not isinstance(records, list):
        raise ProfileFormatError("'triple' must be a list of {i, j, k, value} records")
    n = len(basis)
    values: dict[str | int, Fraction] = {}  # each distinct str or int value, converted once
    read_record = itemgetter("i", "j", "k", "value")
    for record in records:
        try:
            i, j, k, text = read_record(record)
        except (TypeError, KeyError) as exc:  # not a JSON object, or a field missing
            raise ProfileFormatError(f"bad triple record: {record!r}") from exc
        if type(i) is not int or type(j) is not int or type(k) is not int:
            raise ProfileFormatError(f"triple indices must be integers: {record!r}")
        # a JSON true or 1.0 equals 1 as a key, and `rat` refuses it
        value = values.get(text) if type(text) is str or type(text) is int else None
        if value is None:
            try:
                value = values[text] = rat(text)
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise ProfileFormatError(f"bad triple record {record!r}: {exc}") from exc
        if not 0 <= i <= j <= k < n:
            in_range = 0 <= min(i, j, k) and max(i, j, k) < n
            what = "must be sorted, i <= j <= k" if in_range else "out of range"
            raise ProfileFormatError(f"triple indices {what}: {record!r}")
        a, b, c = basis[i], basis[j], basis[k]  # the key, name-sorted by compare-and-swap
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        key = (a, b, c)
        if key in triple:
            raise ProfileFormatError(f"duplicate triple record: {record!r}")
        triple[key] = value
    if not all(values.values()):
        triple = {key: v for key, v in triple.items() if v}

    divisor = functools.cache(parse_divisor)  # each subject or named divisor text read once
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
            subject = None if subject_text is None else divisor(subject_text)
            flags.append(PositivityFlag(kind, subject))
        except (DivisorParseError, ValueError) as exc:
            raise ProfileFormatError(f"bad flag record {record!r}: {exc}") from exc

    named = obj.get("named_divisors", {})
    if not isinstance(named, dict) or not all(isinstance(t, str) for t in named.values()):
        raise ProfileFormatError("'named_divisors' must map names to expressions")
    try:
        named_divisors = {name: divisor(text) for name, text in named.items()}
    except DivisorParseError as exc:
        raise ProfileFormatError(f"bad named divisor: {exc}") from exc

    try:
        return ThreefoldProfile._parsed(
            basis, triple, c2_vector, chi_o, canonical, flags, named_divisors
        )
    except (ValueError, TypeError) as exc:
        raise ProfileFormatError(str(exc)) from exc


# one ``triple`` record as json.dumps(..., indent=2) lays it out two levels deep
_TRIPLE_RECORD = (
    '    {\n      "i": %d,\n      "j": %d,\n      "k": %d,\n      "value": "%s"\n    }'
)


def _triple_text(p: ThreefoldProfile) -> str:
    """The ``triple`` field's text: one `_TRIPLE_RECORD` per entry in index order, or ``[]``."""
    index = {s: i for i, s in enumerate(p.basis)}
    # each distinct value object formatted once; keyed by identity, since a
    # parsed profile holds one Fraction per distinct value string, and a
    # Fraction's hash costs more than formatting it
    texts: dict[int, str] = {}
    rows = []
    for (a, b, c), value in p.triple.items():
        i, j, k = index[a], index[b], index[c]  # sorted by compare-and-swap
        if i > j:
            i, j = j, i
        if j > k:
            j, k = k, j
            if i > j:
                i, j = j, i
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = format_rational(value)
        rows.append((i, j, k, text))
    if not rows:
        return "[]"
    rows.sort()  # the index triples are distinct, so no text is compared
    return "[\n" + ",\n".join([_TRIPLE_RECORD % row for row in rows]) + "\n  ]"


def _field_text(value) -> str:
    """``json.dumps(value, indent=2)`` one level deeper.  json.dumps escapes
    every newline inside a string, so each newline of its text is a line break."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def serialize_profile(p: ThreefoldProfile) -> str:
    """Canonical JSON text for a profile (deterministic byte for byte)."""
    basis = p.basis
    flags = sorted(
        (_flag_record(f, basis) for f in p.flags),
        key=lambda r: (r["kind"], r["subject"] or ""),
    )
    named = {name: format_divisor(d, basis) for name, d in p.named_divisors.items()}
    fields = (
        ("basis", _field_text(list(basis))),
        ("canonical", _field_text(format_divisor(p.canonical, basis))),
        ("chi_O", _field_text(format_rational(p.chi_O))),
        ("c2", _field_text([format_rational(v) for v in p.c2_vector.values()])),
        ("triple", _triple_text(p)),
        ("flags", _field_text(flags)),
        ("named_divisors", _field_text(named)),
    )
    return "{\n" + ",\n".join(f'  "{name}": {text}' for name, text in fields) + "\n}\n"


def parse_profile(text: str) -> ThreefoldProfile:
    try:
        obj = json.loads(text)
    # a ValueError: an integer of more digits than int() converts;
    # a RecursionError: arrays or objects nested too deep to read
    except (ValueError, RecursionError) as exc:
        raise ProfileFormatError(f"not valid JSON: {exc}") from exc
    return profile_from_dict(obj)


def load_profile(path) -> ThreefoldProfile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ProfileFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_profile(text)


def save_profile(p: ThreefoldProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_profile(p))
