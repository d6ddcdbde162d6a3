"""Exact symbolic core: divisor expressions and a truncated graded ring.

Scalars are exact rationals (`fractions.Fraction`); floats are rejected
everywhere.  Divisor classes are formal rational linear combinations of
named symbols.  Products live in the free graded-commutative ring on those
symbols, truncated above degree three (the threefold dimension), enlarged
by two formal atoms:

* a degree-two class ``c2`` -- the second Chern class of the tangent
  bundle, which only ever enters through its pairings with divisors;
* a degree-zero scalar ``chi_O`` -- the Euler characteristic of the
  structure sheaf.

`ClassExpr` holds the homogeneous classes of degree 0, 1 and 2; every
product of top degree three is a `NumberExpr`.

Every expression is kept in one canonical form: its terms are a dict from
keys (a symbol name, or a sorted tuple of names for a monomial) to nonzero
`Fraction` coefficients, sorted by key.  One function, `_canonical`,
establishes it for terms that come from outside the ring: the constructors
(`DivisorExpr`, the monomials of `ClassExpr`, and the cubic part and the c2
pairings of `NumberExpr`), both `substitute` methods, and `DivisorExpr`
arithmetic.  The ring's own operations on `ClassExpr` and `NumberExpr` --
sums, scalar multiples and `_mul_class` -- start from canonical operands
and build canonical results directly: `_merged` adds two term dicts,
`_scaled` multiplies one by a scalar, and a product sorts its keys once.
Equal expressions therefore have equal terms, and equality decides
identities.

`_Record` is the one equality and hash protocol of the package: every
immutable value type (the three expressions here, `PositivityFlag`,
`ThreefoldProfile`, `Certificate` and `QTwistedBundle`) compares and hashes
the tuple its `_fields` returns.  An expression's tuple holds its terms as
item tuples in dict order, which is exact only because every expression's
keys are sorted: equal expressions list equal items in the same order.
`_Linear`, the base of the three expressions, adds ``zero()``, ``-``,
negation and the scalar on the left to each type's own ``+`` and ``*``.

`CalcError` is the base of every calculator error, and `MalformedInputError`
of those the command line reports with exit code 2 rather than 1.  A
`MalformedInputError` is also a `ValueError`, so a library caller that
catches the bad value it passed catches it too.

Symbol names are non-empty strings.  By convention the name ``K`` denotes
the canonical class in profile-independent identities; `identity_check`
folds the pairing ``c2 . K`` into ``-24 * chi_O`` on both sides before
comparing, which is the relation tying the two atoms together on any
threefold.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, TypeVar, Union

Rational = Fraction
RationalInput = Union[Fraction, int, str]
_K = TypeVar("_K")
_Terms = Union[Mapping[_K, RationalInput], Iterable[tuple[_K, RationalInput]]]

_ZERO = Fraction(0)

# a rational as text in ASCII digits: the coefficients of the divisor grammar,
# and with an optional sign the one string form `rat` reads
_UNSIGNED_RATIONAL = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_TEXT = re.compile(rf"[+-]?{_UNSIGNED_RATIONAL}")


class CalcError(Exception):
    """Base class for all calculator errors."""


class MalformedInputError(CalcError, ValueError):
    """Input from outside the program that does not follow its grammar or
    names something that does not exist."""


class UnknownSymbolError(MalformedInputError):
    """A divisor symbol is not part of the profile basis."""

    def __init__(self, symbol: str, where: str = ""):
        self.symbol = symbol
        suffix = f" in {where}" if where else ""
        super().__init__(f"unknown symbol '{symbol}'{suffix}")


class DegreeOverflowError(CalcError):
    """A product would exceed the top degree of the truncated ring."""


class DoubleC2AtomError(CalcError):
    """Two factors carry the c2 atom; their product exceeds degree three."""


def rat(value: RationalInput) -> Fraction:
    """Coerce to an exact rational. Floats and booleans are rejected, never coerced.

    The result is always a plain `Fraction`, a `Fraction` subclass included.
    A string must read exactly ``p`` or ``p/q`` with an optional sign:
    decimals, exponents and surrounding whitespace raise `ValueError`, and
    a zero denominator raises `ZeroDivisionError`.
    """
    if isinstance(value, Fraction):
        return value if type(value) is Fraction else Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if _RATIONAL_TEXT.fullmatch(value) is None:
            raise ValueError(f"{value!r} is not an exact rational p/q")
        numerator, _, denominator = value.partition("/")
        return Fraction(int(numerator), int(denominator or 1))
    raise TypeError(
        f"expected an exact rational (int, Fraction or 'p/q' string), "
        f"got {type(value).__name__}"
    )


def scaled_to_integers(
    coeffs: Mapping[_K, Fraction],
) -> tuple[int, list[tuple[_K, int]]]:
    """The lcm L of the coefficients' denominators and each coefficient times L.

    Exact sums of products of the integers, divided once at the end, equal
    the same sums taken in `Fraction`s.
    """
    scale = math.lcm(*(v.denominator for v in coeffs.values()))
    return scale, [(k, v.numerator * (scale // v.denominator)) for k, v in coeffs.items()]


def format_rational(value: Fraction) -> str:
    """Canonical ``p/q`` rendering, denominator always written."""
    return f"{value.numerator}/{value.denominator}"


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _signed_sum(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, body) terms as ``a - b + c``, or ``0`` when empty.

    Each body renders its coefficient's absolute value; the sign is written
    here, leading on the first term and as ``+ ``/``- `` on the rest.
    """
    chunks: list[str] = []
    for coeff, body in terms:
        if chunks:
            chunks.append(f"{'+' if coeff > 0 else '-'} {body}")
        else:
            chunks.append(body if coeff > 0 else f"-{body}")
    return " ".join(chunks) or "0"


def _pretty_terms(parts: list[tuple[Fraction, str]]) -> str:
    # parts: (coefficient, rendered monomial); monomial "" means a constant
    terms = []
    for coeff, mono in parts:
        mag = abs(coeff)
        if mono == "":
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        terms.append((coeff, body))
    return _signed_sum(terms)


def _canonical(terms: _Terms[_K], degree: int | None = None) -> dict[_K, Fraction]:
    """The canonical form of a sum of (key, value) terms from outside the ring.

    The constructors, both `substitute` methods and `DivisorExpr`
    arithmetic come here; the ring's sums, scalar multiples and products
    of canonical operands do not (`_merged`, `_scaled`, `_mul_class`).
    Each value is converted once with `rat` and added only when its key
    repeats; zero sums are dropped and keys sorted.
    Each key is checked as it comes: with an integer ``degree`` it is a
    monomial, stored as the sorted tuple of its ``degree`` symbol names;
    otherwise it is a symbol name.  Symbol names are non-empty strings.
    """
    acc: dict = {}
    for key, value in terms.items() if isinstance(terms, Mapping) else terms:
        if degree is not None:
            mono = tuple(sorted(key))
            if len(mono) != degree or not all(isinstance(s, str) and s for s in mono):
                raise ValueError(f"monomial {key!r} does not have degree {degree}")
            key = mono
        elif not isinstance(key, str) or not key:
            raise TypeError("symbol names must be non-empty strings")
        value = rat(value)
        if key in acc:
            acc[key] += value
        else:
            acc[key] = value
    return {k: v for k, v in sorted(acc.items()) if v != 0}


def _merged(a: dict[_K, Fraction], b: dict[_K, Fraction]) -> dict[_K, Fraction]:
    """The canonical sum of two canonical term dicts.

    A value is added only where a key is in both, a zero sum is dropped,
    and the keys are sorted once.  The result may be one of the operands,
    which no expression ever mutates.
    """
    if not b:
        return a
    if not a:
        return b
    acc = dict(a)
    for key, value in b.items():
        if key in acc:
            total = acc[key] + value
            if total:
                acc[key] = total
            else:
                del acc[key]
        else:
            acc[key] = value
    return dict(sorted(acc.items()))


def _scaled(terms: dict[_K, Fraction], q: Fraction) -> dict[_K, Fraction]:
    """The canonical terms ``q`` times canonical ``terms``: none when q = 0."""
    return {k: v * q for k, v in terms.items()} if q else {}


class _Record:
    """Value equality, hashing and repr of the package's immutable types.

    Two instances are equal when they are of the same class and their
    `_fields` tuples are equal, and the hash is the hash of that tuple.
    `_fields` reads the slots in order unless a subclass says otherwise.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"{type(self).__qualname__}({fields})"


class _Linear(_Record):
    """The operations of a rational vector space that follow from ``+`` and
    scalar ``*``, which each expression type writes for itself."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls()

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __rmul__(self, other):
        return self * other


class DivisorExpr(_Linear):
    """Formal rational linear combination of divisor symbols.

    Kept in canonical sparse form (zero coefficients dropped, symbols
    sorted), so equality and hashing are structural. Instances are
    immutable; all arithmetic returns new objects.
    """

    # the terms are stored once, as the canonical dict; `items()` and the
    # tuple `==` and `hash` compare are built from it on demand
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: _Terms[str] = ()):
        self._coeffs = _canonical(coeffs)

    @classmethod
    def symbol(cls, name: str, coeff: RationalInput = 1) -> "DivisorExpr":
        return cls(((name, coeff),))

    @property
    def coefficients(self) -> Mapping[str, Fraction]:
        return MappingProxyType(self._coeffs)

    def coefficient(self, symbol: str) -> Fraction:
        return self._coeffs.get(symbol, _ZERO)

    def symbols(self) -> frozenset[str]:
        return frozenset(self._coeffs)

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "DivisorExpr") -> "DivisorExpr":
        if not isinstance(other, DivisorExpr):
            return NotImplemented
        return DivisorExpr((*self._coeffs.items(), *other._coeffs.items()))

    def __mul__(self, scalar: RationalInput) -> "DivisorExpr":
        if isinstance(scalar, DivisorExpr):
            raise TypeError(
                "divisor * divisor is a degree-2 class; lift the factors "
                "with ClassExpr.from_divisor first"
            )
        q = rat(scalar)
        return DivisorExpr({s: c * q for s, c in self._coeffs.items()})

    def _fields(self) -> tuple:
        return tuple(self._coeffs.items())

    def __str__(self) -> str:
        return _pretty_terms([(c, s) for s, c in self._coeffs.items()])

    def __repr__(self) -> str:
        return f"DivisorExpr({self})"


class ClassExpr(_Linear):
    """Homogeneous symbolic class of degree 0, 1 or 2.

    Degree-two classes may additionally carry the formal ``c2`` atom.
    Products truncate above degree three; a top-degree (three) product is
    returned as a `NumberExpr`.
    """

    __slots__ = ("_degree", "_terms", "_c2")

    def __init__(
        self,
        degree: int,
        terms: _Terms[Sequence[str]] = (),
        c2_atom_coeff: RationalInput = 0,
    ):
        if degree not in (0, 1, 2):
            raise ValueError(f"class degree must be 0..2, got {degree}")
        self._degree = degree
        self._terms = _canonical(terms, degree)
        c2 = rat(c2_atom_coeff)
        if c2 != 0 and degree != 2:
            raise ValueError("the c2 atom is a degree-2 class")
        self._c2 = c2

    @classmethod
    def _built(cls, degree: int, terms: dict, c2: Fraction) -> "ClassExpr":
        """A class from parts already in canonical form, set without checks."""
        new = object.__new__(cls)
        new._degree, new._terms, new._c2 = degree, terms, c2
        return new

    @classmethod
    def scalar(cls, value: RationalInput) -> "ClassExpr":
        return cls(0, (((), value),))

    @classmethod
    def from_divisor(cls, d: DivisorExpr) -> "ClassExpr":
        return cls(1, (((s,), c) for s, c in d.items()))

    @classmethod
    def symbol(cls, name: str) -> "ClassExpr":
        return cls(1, (((name,), 1),))

    @classmethod
    def c2_atom(cls, coeff: RationalInput = 1) -> "ClassExpr":
        return cls(2, (), coeff)

    @classmethod
    def zero(cls, degree: int = 0) -> "ClassExpr":
        return cls(degree)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def terms(self) -> Mapping[tuple[str, ...], Fraction]:
        return MappingProxyType(self._terms)

    @property
    def c2_atom_coeff(self) -> Fraction:
        return self._c2

    def scalar_value(self) -> Fraction:
        if self._degree != 0:
            raise ValueError("scalar_value is defined for degree-0 classes only")
        return self._terms.get((), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms and self._c2 == 0

    def symbols(self) -> frozenset[str]:
        return frozenset(s for key in self._terms for s in key)

    def __add__(self, other: "ClassExpr") -> "ClassExpr":
        if not isinstance(other, ClassExpr):
            return NotImplemented
        if self._degree != other._degree:
            raise ValueError(
                f"cannot add classes of degrees {self._degree} and {other._degree}"
            )
        return ClassExpr._built(
            self._degree, _merged(self._terms, other._terms), self._c2 + other._c2
        )

    def __mul__(self, other):
        if isinstance(other, ClassExpr):
            return self._mul_class(other)
        if isinstance(other, NumberExpr):
            raise TypeError("a NumberExpr has top degree; multiply by scalars only")
        q = rat(other)
        return ClassExpr._built(self._degree, _scaled(self._terms, q), self._c2 * q)

    def _mul_class(self, other: "ClassExpr"):
        if self._degree == 0:
            return other * self.scalar_value()
        if other._degree == 0:
            return self * other.scalar_value()
        total = self._degree + other._degree
        if total > 3:
            # everything above the threefold dimension is the zero class
            return NumberExpr.zero()
        # integer products over l1 * l2, one Fraction per monomial
        l1, left = scaled_to_integers(self._terms)
        l2, right = scaled_to_integers(other._terms)
        acc: dict[tuple[str, ...], int] = {}
        for k1, v1 in left:
            for k2, v2 in right:
                key = tuple(sorted(k1 + k2))
                acc[key] = acc.get(key, 0) + v1 * v2
        scale = l1 * l2
        poly = {key: Fraction(v, scale) for key, v in sorted(acc.items()) if v}
        if total <= 2:
            # degrees here are 1+1, so neither factor can carry the atom
            return ClassExpr._built(total, poly, _ZERO)
        # degrees here are 1+2: only the quadratic factor can carry the atom,
        # and it pairs with the sorted, nonzero terms of the linear one
        atom, linear = (self._c2, other) if self._degree == 2 else (other._c2, self)
        pairings = {s: atom * v for (s,), v in linear._terms.items()} if atom else {}
        return NumberExpr._built(poly, pairings, _ZERO, _ZERO)

    def substitute(self, mapping: Mapping[str, DivisorExpr]) -> "ClassExpr":
        """Replace symbols by divisor expressions; the c2 atom is untouched."""
        terms = [
            item
            for key, v in self._terms.items()
            for item in _substituted(mapping, ClassExpr.scalar(v), key).terms.items()
        ]
        return ClassExpr(self._degree, terms, self._c2)

    def _fields(self) -> tuple:
        return (self._degree, tuple(self._terms.items()), self._c2)

    def __str__(self) -> str:
        parts = [(v, "*".join(k) if k else "") for k, v in self._terms.items()]
        if self._c2 != 0:
            parts.append((self._c2, "c2"))
        return _pretty_terms(parts)

    def __repr__(self) -> str:
        return f"ClassExpr[{self._degree}]({self})"


class NumberExpr(_Linear):
    """Top-degree symbolic number: cubic monomials plus formal atoms.

    The atoms are the pairings ``c2 . b`` against single symbols, the scalar
    ``chi_O``, and a rational constant. Canonical form (sorted keys, zero
    coefficients dropped) makes equality a decision procedure.
    """

    __slots__ = ("_cubic", "_pairings", "_chi_o", "_const")

    def __init__(
        self,
        cubic: _Terms[Sequence[str]] = (),
        c2_pairings: _Terms[str] = (),
        chi_o_coeff: RationalInput = 0,
        constant: RationalInput = 0,
    ):
        self._cubic = _canonical(cubic, 3)
        self._pairings = _canonical(c2_pairings)
        self._chi_o = rat(chi_o_coeff)
        self._const = rat(constant)

    @classmethod
    def _built(
        cls, cubic: dict, pairings: dict, chi_o: Fraction, const: Fraction
    ) -> "NumberExpr":
        """A number from parts already in canonical form, set without checks."""
        new = object.__new__(cls)
        new._cubic, new._pairings, new._chi_o, new._const = cubic, pairings, chi_o, const
        return new

    @classmethod
    def chi_o_atom(cls, coeff: RationalInput = 1) -> "NumberExpr":
        return cls(chi_o_coeff=coeff)

    @classmethod
    def const(cls, value: RationalInput) -> "NumberExpr":
        return cls(constant=value)

    @property
    def cubic_terms(self) -> Mapping[tuple[str, ...], Fraction]:
        return MappingProxyType(self._cubic)

    @property
    def c2_pairings(self) -> Mapping[str, Fraction]:
        return MappingProxyType(self._pairings)

    @property
    def chi_o_coeff(self) -> Fraction:
        return self._chi_o

    @property
    def constant(self) -> Fraction:
        return self._const

    def is_zero(self) -> bool:
        return (
            not self._cubic
            and not self._pairings
            and self._chi_o == 0
            and self._const == 0
        )

    def symbols(self) -> frozenset[str]:
        return frozenset(s for key in self._cubic for s in key) | frozenset(
            self._pairings
        )

    def __add__(self, other: "NumberExpr") -> "NumberExpr":
        if not isinstance(other, NumberExpr):
            return NotImplemented
        return NumberExpr._built(
            _merged(self._cubic, other._cubic),
            _merged(self._pairings, other._pairings),
            self._chi_o + other._chi_o,
            self._const + other._const,
        )

    def __mul__(self, scalar):
        if isinstance(scalar, (ClassExpr, NumberExpr, DivisorExpr)):
            raise TypeError("a NumberExpr has top degree; multiply by scalars only")
        q = rat(scalar)
        return NumberExpr._built(
            _scaled(self._cubic, q),
            _scaled(self._pairings, q),
            self._chi_o * q,
            self._const * q,
        )

    def fold_canonical_c2(self) -> "NumberExpr":
        """Rewrite the pairing ``c2 . K`` as ``-24 * chi_O``.

        This is the canonical form used by `identity_check`: on any
        threefold the canonical class pairs with c2 to -24 times the Euler
        characteristic of the structure sheaf.
        """
        t = self._pairings.get("K")
        if t is None:
            return self
        pairings = {s: v for s, v in self._pairings.items() if s != "K"}
        return NumberExpr(self._cubic, pairings, self._chi_o - 24 * t, self._const)

    def substitute(self, mapping: Mapping[str, DivisorExpr]) -> "NumberExpr":
        """Replace symbols by divisor expressions (trilinear expansion)."""
        products = [
            _substituted(mapping, ClassExpr.scalar(v), key)
            for key, v in self._cubic.items()
        ] + [
            _substituted(mapping, ClassExpr.c2_atom(v), (s,))
            for s, v in self._pairings.items()
        ]
        return NumberExpr(
            [item for n in products for item in n.cubic_terms.items()],
            [item for n in products for item in n.c2_pairings.items()],
            self._chi_o,
            self._const,
        )

    def _fields(self) -> tuple:
        return (
            tuple(self._cubic.items()),
            tuple(self._pairings.items()),
            self._chi_o,
            self._const,
        )

    def __str__(self) -> str:
        parts = [(v, "*".join(k)) for k, v in self._cubic.items()]
        parts += [(v, f"c2.{s}") for s, v in self._pairings.items()]
        if self._chi_o != 0:
            parts.append((self._chi_o, "chi_O"))
        if self._const != 0:
            parts.append((self._const, ""))
        return _pretty_terms(parts)

    def __repr__(self) -> str:
        return f"NumberExpr({self})"


def expand_product(factors: Sequence[ClassExpr]) -> ClassExpr | NumberExpr:
    """Multiply out homogeneous classes in the truncated graded ring.

    Returns a `ClassExpr` for total degree <= 2 and a `NumberExpr` for
    total degree 3.  Raises `DoubleC2AtomError` if two factors carry the
    c2 atom and `DegreeOverflowError` if the total degree exceeds three.
    """
    factors = list(factors)
    carriers = sum(1 for f in factors if f.c2_atom_coeff != 0)
    if carriers > 1:
        raise DoubleC2AtomError(
            "at most one factor may carry the c2 atom; a product of two "
            "c2 atoms exceeds degree 3"
        )
    total = sum(f.degree for f in factors)
    if total > 3:
        raise DegreeOverflowError(
            f"product of total degree {total} exceeds the threefold dimension"
        )
    acc: ClassExpr | NumberExpr = ClassExpr.scalar(1)
    for f in factors:
        if isinstance(acc, NumberExpr):
            acc = acc * f.scalar_value()
        else:
            acc = acc * f
    return acc


def _substituted(
    mapping: Mapping[str, DivisorExpr], coeff: ClassExpr, key: Sequence[str]
) -> ClassExpr | NumberExpr:
    """``coeff`` times the product of the symbols in ``key``, each replaced
    by its divisor in ``mapping`` where it has one."""
    lifts = [
        ClassExpr.from_divisor(mapping[s]) if s in mapping else ClassExpr.symbol(s)
        for s in key
    ]
    return expand_product([coeff, *lifts])


def expand_divisors(*divisors: DivisorExpr) -> ClassExpr | NumberExpr:
    """Shorthand: lift divisors to degree-one classes and expand."""
    return expand_product([ClassExpr.from_divisor(d) for d in divisors])


def identity_check(lhs: NumberExpr, rhs: NumberExpr) -> bool:
    """Decide a symbolic identity by canonical-form comparison.

    Both sides are first rewritten with ``c2 . K`` folded into the chi_O
    atom; agreement of the resulting canonical forms proves the identity
    on every threefold profile.
    """
    return lhs.fold_canonical_c2() == rhs.fold_canonical_c2()
