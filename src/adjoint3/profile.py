"""Numerical threefold profiles: intersection data, positivity flags, evaluation.

A profile is the finite numerical shadow of a smooth projective threefold:
an ordered basis of divisor symbols, the symmetric triple-intersection
tensor on that basis, the pairing of each basis symbol with the second
Chern class, the Euler characteristic of the structure sheaf, the canonical
class, and a set of trusted positivity assertions (flags).

Positivity is not decidable from this data, so flags are declarations
supplied with the profile.  Operations may check numeric consequences of a
flag (and fail hard on contradictions) but never infer one.  A declared
flag also certifies the weaker properties of the same divisor: ample
implies nef-and-big, nef-and-big implies nef and big, nef or big imply
pseudo-effective, pseudo-effective implies generically nef, and a
numerically trivial class is nef.  Subjects are matched exactly as
canonical divisor expressions; no rescaling is applied.  When several
declared flags certify the same property, `ThreefoldProfile.find_flag`
picks one by a fixed rule, so certificates do not depend on set order.

The constructor is the one door for basis symbols: a triple key that is
not three basis symbols raises `ValueError`, and a c2 key, canonical
class, named divisor (by name) or flag subject (by text) naming another
symbol raises `UnknownSymbolError`, for the first offender in that order;
a named divisor whose name is not a string raises `ValueError`, as a basis
symbol outside the grammar does.  So `validate` checks only the numeric
rules.  Each field has one stored form.  The triple tensor is kept on
sorted symbol triples, zeros dropped; the constructor accepts a triple
under any of its orders, and raises `ValueError` when two orders of one
triple carry different values.  The c2 vector is kept over every basis
symbol in basis order, zero where the input leaves one out, and the named
divisors in name order, a repeated name keeping its last value.  On first
evaluation the tensor is compiled into an `IntegerTensor`: one common
denominator L and a dense integer tensor T on basis positions, where
T[i][j][k] / L is the value of the triple in every order of i, j and k.
Evaluations multiply integers and build one `Fraction` at the end, so they
return the very rationals the `Fraction` arithmetic would.  Copies made
by `with_flags` and `with_named_divisors` share all validated data, the
compiled form included, and check only the flags and divisors they add.
Two more paths skip the constructor's triple loop.  The reader
(`profile_io`) builds the stored tensor from a file's records itself and
hands it to `_parsed`, which runs the constructor on every other field.
A blow-up (`birational`) extends its parent in `_extended`: it takes its
c2 vector (the exceptional symbol last) and canonical class as given, and
checks only the exceptional triple entries it adds, whose sorted keys
must name the new symbol, so none replaces an inherited one; the grown
basis gets a compiled form of its own.  Construction, parsing,
validation, serialization and blow-ups never compile.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import (
    CalcError,
    DivisorExpr,
    NumberExpr,
    RationalInput,
    UnknownSymbolError,
    _Record,
    rat,
    scaled_to_integers,
)

_ZERO = Fraction(0)

# a symbol name the divisor grammar can write; every basis symbol is one, so
# that a profile file reads back as the same profile
_SYMBOL = r"[A-Za-z_][A-Za-z0-9_']*"
_SYMBOL_RE = re.compile(_SYMBOL)


def _is_symbol(name: object) -> bool:
    return isinstance(name, str) and _SYMBOL_RE.fullmatch(name) is not None


class FlagKind(str, Enum):
    AMPLE = "Ample"
    NEF = "Nef"
    BIG = "Big"
    NEF_AND_BIG = "NefAndBig"
    PSEUDO_EFFECTIVE = "PseudoEffective"
    GENERICALLY_NEF = "GenericallyNefDivisor"
    NUMERICALLY_TRIVIAL = "NumericallyTrivial"
    NOT_UNIRULED = "NotUniruled"
    UNIRULED = "Uniruled"
    IRREGULARITY_ZERO = "IrregularityZero"
    COTANGENT_GENERICALLY_NEF = "CotangentGenericallyNef"


VARIETY_LEVEL_KINDS = frozenset(
    {
        FlagKind.NOT_UNIRULED,
        FlagKind.UNIRULED,
        FlagKind.IRREGULARITY_ZERO,
        FlagKind.COTANGENT_GENERICALLY_NEF,
    }
)

# a declared flag of the key kind also certifies the value kinds directly,
# for the same subject divisor
_DIRECT_IMPLIES: dict[FlagKind, tuple[FlagKind, ...]] = {
    FlagKind.AMPLE: (FlagKind.NEF_AND_BIG,),
    FlagKind.NEF_AND_BIG: (FlagKind.NEF, FlagKind.BIG),
    FlagKind.NEF: (FlagKind.PSEUDO_EFFECTIVE,),
    FlagKind.BIG: (FlagKind.PSEUDO_EFFECTIVE,),
    FlagKind.PSEUDO_EFFECTIVE: (FlagKind.GENERICALLY_NEF,),
    FlagKind.NUMERICALLY_TRIVIAL: (FlagKind.NEF,),
}


def _implied(kind: FlagKind) -> frozenset[FlagKind]:
    direct = _DIRECT_IMPLIES.get(kind, ())
    return frozenset(direct).union(*map(_implied, direct))


# the transitive closure: every kind a declared flag of the key kind certifies
_KIND_IMPLIES = {kind: _implied(kind) for kind in _DIRECT_IMPLIES}


class PositivityFlag(_Record):
    """A trusted positivity assertion: a kind plus an optional subject.

    Variety-level kinds (uniruledness, irregularity, generic nefness of the
    cotangent bundle) carry no subject; all others assert a property of one
    divisor expression.  Instances are immutable, equal when kind and
    subject are, and hash accordingly.
    """

    __slots__ = ("kind", "subject")

    def __init__(self, kind: FlagKind | str, subject: DivisorExpr | None = None):
        self.kind = kind = FlagKind(kind)
        self.subject = subject
        if kind in VARIETY_LEVEL_KINDS:
            if subject is not None:
                raise ValueError(f"{kind.value} is a variety-level flag")
        elif not isinstance(subject, DivisorExpr):
            raise ValueError(f"{kind.value} requires a divisor subject")

    def implies(self, kind: FlagKind) -> bool:
        return kind == self.kind or kind in _KIND_IMPLIES.get(self.kind, frozenset())

    def __str__(self) -> str:
        if self.subject is None:
            return self.kind.value
        return f"{self.kind.value}({self.subject})"


def flag(kind: FlagKind | str, subject: DivisorExpr | None = None) -> PositivityFlag:
    """Convenience constructor accepting the kind by name."""
    return PositivityFlag(FlagKind(kind), subject)


class MissingFlagError(CalcError):
    """An operation requires a declared flag that the profile lacks."""

    def __init__(self, kind: FlagKind, subject: DivisorExpr | None = None):
        self.kind = FlagKind(kind)
        self.subject = subject
        what = self.kind.value if subject is None else f"{self.kind.value}({subject})"
        super().__init__(f"missing required flag {what}")


class FlagContradictionError(CalcError):
    """A declared flag contradicts a computed intersection number."""


class NonIntegerChiError(CalcError):
    """chi came out non-integral; the profile is not an actual threefold."""


def _coerce_divisor(value) -> DivisorExpr:
    if isinstance(value, DivisorExpr):
        return value
    if isinstance(value, Mapping):
        return DivisorExpr(value)
    raise TypeError("expected a DivisorExpr or a symbol->rational mapping")


def _checked_flags(flags: Iterable[PositivityFlag]) -> frozenset[PositivityFlag]:
    flags = frozenset(flags)
    for f in flags:
        if not isinstance(f, PositivityFlag):
            raise TypeError("flags must be PositivityFlag instances")
    return flags


class IntegerTensor(NamedTuple):
    """The symmetrised triple tensor as integers over one common denominator.

    ``entries[i][j][k] / denominator`` is the value on the basis symbols at
    positions i, j and k, in any order; ``position`` maps each basis symbol
    to its index.
    """

    position: dict[str, int]
    denominator: int
    entries: list[list[list[int]]]


def _compile_tensor(
    basis: tuple[str, ...], triple: Mapping[tuple[str, str, str], Fraction]
) -> IntegerTensor:
    position = {s: i for i, s in enumerate(basis)}
    n = len(basis)
    denominator, scaled = scaled_to_integers(triple)
    entries = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (a, b, c), v in scaled:
        i, j, k = position[a], position[b], position[c]
        entries[i][j][k] = entries[i][k][j] = entries[j][i][k] = v
        entries[j][k][i] = entries[k][i][j] = entries[k][j][i] = v
    return IntegerTensor(position, denominator, entries)


class ThreefoldProfile(_Record):
    """Finite intersection-theoretic model of a smooth projective threefold.

    Fields: ``basis`` (ordered symbol names), ``triple`` (the trilinear
    form on sorted symbol triples, zeros dropped), ``c2_vector`` (pairing
    of each basis symbol with the second Chern class, in basis order),
    ``chi_O``, ``canonical`` (the canonical class over the basis),
    ``flags`` and ``named_divisors`` (in name order).

    Instances are immutable; use `with_flags` / `with_named_divisors` to
    derive modified copies.
    """

    __slots__ = (
        "basis",
        "triple",
        "c2_vector",
        "chi_O",
        "canonical",
        "flags",
        "named_divisors",
        "_symbols",
        "_compiled",
    )

    def __init__(
        self,
        basis: Sequence[str],
        triple: Mapping[Sequence[str], RationalInput]
        | Iterable[tuple[Sequence[str], RationalInput]],
        c2_vector: Mapping[str, RationalInput] = (),
        chi_O: RationalInput = 0,
        canonical: DivisorExpr | Mapping[str, RationalInput] = DivisorExpr.zero(),
        flags: Iterable[PositivityFlag] = (),
        named_divisors: Mapping[str, DivisorExpr] = (),
    ):
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("basis symbols must be distinct")
        for s in self.basis:
            if not _is_symbol(s):
                raise ValueError(f"basis symbol {s!r} does not match {_SYMBOL}")

        items = triple.items() if isinstance(triple, Mapping) else triple
        self._symbols = symbols = frozenset(self.basis)
        stored: dict[tuple[str, str, str], Fraction] = {}
        converted: dict = {}  # each distinct int or str value, by (type, value), converted once
        for key, value in items:
            key = tuple(key)
            a, b, c = key if len(key) == 3 else (None, None, None)
            if not (a in symbols and b in symbols and c in symbols):
                raise ValueError(f"triple key {key!r} is not three basis symbols")
            if a > b:  # name-sorted by compare-and-swap
                a, b = b, a
            if b > c:
                b, c = c, b
                if a > b:
                    a, b = b, a
            key = (a, b, c)
            kind = type(value)
            if kind is int or kind is str:
                at = (kind, value)
                value = converted[at] if at in converted else converted.setdefault(at, rat(value))
            elif kind is not Fraction:
                value = rat(value)
            known = stored.setdefault(key, value)
            if known is not value and known != value:
                raise ValueError(f"triple {key} is given two values, {known} and {value}")
        # zeros go after the loop, which compares them too; testing for one
        # first spares the copy, since no profile file stores a zero
        if not all(stored.values()):
            stored = {key: v for key, v in stored.items() if v}
        self.triple = MappingProxyType(stored)

        c2_items = c2_vector.items() if isinstance(c2_vector, Mapping) else c2_vector
        c2 = {s: rat(v) for s, v in c2_items}
        self.c2_vector = MappingProxyType({s: c2.get(s, _ZERO) for s in self.basis})
        self.chi_O = rat(chi_O)
        self.canonical = _coerce_divisor(canonical)
        self.flags = _checked_flags(flags)
        named = named_divisors.items() if isinstance(named_divisors, Mapping) else named_divisors
        named = {n: _coerce_divisor(d) for n, d in named}
        for n in named:
            if not isinstance(n, str):
                raise ValueError(f"named divisor name {n!r} is not a string")
        self.named_divisors = MappingProxyType(dict(sorted(named.items())))
        self._check_symbols(c2, "c2 vector")
        self._check_symbols(self.canonical.symbols(), "canonical class")
        self._check_subjects(self.named_divisors, self.flags)
        # the IntegerTensor of `triple`, made on first use; shared with derived copies
        self._compiled: list[IntegerTensor | None] = [None]

    # -- evaluation ---------------------------------------------------

    def _check_symbols(self, symbols: Iterable[str], where: str) -> None:
        # one set test; the first unknown symbol, in the order given or a set's
        # sorted order, is looked for only on failure
        known = self._symbols
        if not known.issuperset(symbols):
            ordered = sorted(symbols) if isinstance(symbols, frozenset) else symbols
            raise UnknownSymbolError(next(s for s in ordered if s not in known), where)

    def _check_subjects(self, named: Mapping[str, DivisorExpr], flags) -> None:
        # named divisors by name, then flags by text: the first offender raises,
        # and only offenders are sorted
        known = self._symbols.issuperset
        for name in sorted(n for n, d in named.items() if not known(d.symbols())):
            self._check_symbols(named[name].symbols(), f"named divisor '{name}'")
        bad = [f for f in flags if f.subject is not None and not known(f.subject.symbols())]
        for f in sorted(bad, key=str):
            self._check_symbols(f.subject.symbols(), f"flag {f}")

    def _tensor(self) -> IntegerTensor:
        cell = self._compiled
        if cell[0] is None:
            cell[0] = _compile_tensor(self.basis, self.triple)
        return cell[0]

    def triple_eval(
        self, d1: DivisorExpr, d2: DivisorExpr, d3: DivisorExpr
    ) -> Fraction:
        """Trilinear, symmetric extension of the stored tensor."""
        for i, d in enumerate((d1, d2, d3), start=1):
            self._check_symbols(d.symbols(), f"triple_eval argument {i}")
        position, denominator, entries = self._tensor()
        vectors = []
        for d in (d1, d2, d3):
            scale, scaled = scaled_to_integers(d.coefficients)
            denominator *= scale
            vectors.append([(position[s], v) for s, v in scaled])
        # the tensor is symmetric: the two sparsest divisors pick the rows,
        # and each row is dotted with the densest one
        a, b, c = sorted(vectors, key=len)
        dense = [0] * len(position)
        for k, v in c:
            dense[k] = v
        total = 0
        for i, v in a:
            rows = entries[i]
            total += v * sum(w * sum(map(mul, rows[j], dense)) for j, w in b)
        return Fraction(total, denominator)

    def c2_pair(self, d: DivisorExpr) -> Fraction:
        """Linear extension of the c2 pairing vector."""
        self._check_symbols(d.symbols(), "c2 pairing")
        return sum((c * self.c2_vector[s] for s, c in d.items()), _ZERO)

    def number_eval(self, n: NumberExpr) -> Fraction:
        """Evaluate a symbolic number against this profile."""
        self._check_symbols(n.symbols(), "number_eval")
        total = n.constant + n.chi_o_coeff * self.chi_O
        for s, v in n.c2_pairings.items():
            total += v * self.c2_vector[s]
        if n.cubic_terms:
            position, denominator, entries = self._tensor()
            scale, scaled = scaled_to_integers(n.cubic_terms)
            cubic = 0
            for (a, b, c), v in scaled:
                cubic += v * entries[position[a]][position[b]][position[c]]
            total += Fraction(cubic, scale * denominator)
        return total

    # -- flags ----------------------------------------------------------

    def find_flag(
        self, kind: FlagKind | str, subject: DivisorExpr | None = None
    ) -> PositivityFlag | None:
        """A declared flag certifying ``kind`` for ``subject``, if any.

        An exact declaration wins; otherwise, of the declared flags on the
        same subject whose kind implies the requested one, the one whose
        ``str`` sorts first.
        """
        kind = FlagKind(kind)
        implying = []
        for f in self.flags:
            if f.subject == subject and f.implies(kind):
                if f.kind == kind:
                    return f
                implying.append(f)
        if len(implying) > 1:  # rare; spares the str of a lone candidate
            implying.sort(key=str)
        return implying[0] if implying else None

    def require_flag(
        self, kind: FlagKind | str, subject: DivisorExpr | None = None
    ) -> PositivityFlag:
        """The flag `find_flag` returns; `MissingFlagError` when there is none."""
        found = self.find_flag(kind, subject)
        if found is None:
            raise MissingFlagError(kind, subject)
        return found

    def satisfies(self, kind: FlagKind | str, subject: DivisorExpr | None = None) -> bool:
        return self.find_flag(kind, subject) is not None

    # -- derived copies ---------------------------------------------------

    def _derived(self, flags, named_divisors) -> "ThreefoldProfile":
        # a copy sharing all validated data; the callers check what they add
        copy = object.__new__(ThreefoldProfile)
        for name in ThreefoldProfile.__slots__:
            setattr(copy, name, getattr(self, name))
        copy.flags = flags
        copy.named_divisors = named_divisors
        return copy

    def _extended(
        self,
        symbol: str,
        entries: Mapping[tuple[str, str, str], Fraction],
        c2_vector: dict[str, Fraction],
        canonical: DivisorExpr,
        flags: frozenset[PositivityFlag],
    ) -> "ThreefoldProfile":
        # a blow-up of this profile (see the module docstring); the caller
        # checks that ``symbol`` is a new grammar symbol
        copy = self._derived(flags, self.named_divisors)
        copy.basis = basis = self.basis + (symbol,)
        copy._symbols = symbols = frozenset(basis)
        triple = self.triple.copy()  # the dict's own copy; dict(proxy) reads item by item
        for key, value in entries.items():
            a, b, c = key
            if not (symbol in key and a <= b <= c and symbols.issuperset(key)):
                raise ValueError(f"triple key {key!r} is not sorted basis symbols with {symbol!r}")
            if value:
                triple[key] = value
        copy.triple = MappingProxyType(triple)
        copy.c2_vector = MappingProxyType(c2_vector)
        copy.canonical = canonical
        copy._compiled = [None]
        return copy

    @classmethod
    def _parsed(cls, basis, triple, *fields) -> "ThreefoldProfile":
        # a profile file's fields in the constructor's order, the triple in its
        # stored form (profile_io): the constructor checks every other field
        p = cls(basis, (), *fields)
        p.triple = MappingProxyType(triple)
        return p

    def with_flags(self, *new_flags: PositivityFlag, replace: bool = False):
        new = _checked_flags(new_flags)
        self._check_subjects({}, new)
        return self._derived(new if replace else self.flags | new, self.named_divisors)

    def with_named_divisors(self, **named: DivisorExpr):
        added = {n: _coerce_divisor(d) for n, d in named.items()}
        self._check_subjects(added, ())
        merged = {**self.named_divisors, **added}
        return self._derived(self.flags, MappingProxyType(dict(sorted(merged.items()))))

    # -- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """All invariant violations, as human-readable records.

        An empty list certifies that the canonical class pairs with c2 to
        -24 * chi_O and that chi_O is an integer.  Violations are data, not
        failures; an unknown symbol is none, since the constructor rejects it.
        """
        lhs, rhs = self.c2_pair(self.canonical), -24 * self.chi_O
        out = [] if lhs == rhs else [f"chiox inconsistency: {lhs} != {rhs}"]
        if self.chi_O.denominator != 1:
            out.append(f"chi_O must be an integer, got {self.chi_O}")
        return out

    # -- structural equality ----------------------------------------------

    def _fields(self) -> tuple:
        return (
            self.basis,
            tuple(sorted(self.triple.items())),
            tuple(self.c2_vector.items()),
            self.chi_O,
            self.canonical,
            self.flags,
            tuple(self.named_divisors.items()),
        )

    def __repr__(self) -> str:
        return (
            f"ThreefoldProfile(basis={list(self.basis)}, K={self.canonical}, "
            f"chi_O={self.chi_O})"
        )

