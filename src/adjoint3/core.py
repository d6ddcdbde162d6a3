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

Symbol names are free.  By convention the name ``K`` denotes the canonical
class in profile-independent identities; `identity_check` folds the pairing
``c2 . K`` into ``-24 * chi_O`` on both sides before comparing, which is
the relation tying the two atoms together on any threefold.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, TypeVar, Union

Rational = Fraction
RationalInput = Union[Fraction, int, str]
_K = TypeVar("_K")

_ZERO = Fraction(0)


class CalcError(Exception):
    """Base class for all calculator errors."""


class UnknownSymbolError(CalcError):
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
    """Coerce to an exact rational. Floats and booleans are rejected, never coerced."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
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


def _pretty_terms(parts: list[tuple[Fraction, str]]) -> str:
    # parts: (coefficient, rendered monomial); monomial "" means a constant
    if not parts:
        return "0"
    chunks: list[str] = []
    for i, (coeff, mono) in enumerate(parts):
        mag = abs(coeff)
        if mono == "":
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        if i == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(chunks)


class DivisorExpr:
    """Formal rational linear combination of divisor symbols.

    Kept in canonical sparse form (zero coefficients dropped, symbols
    sorted), so equality and hashing are structural. Instances are
    immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_coeffs",)

    def __init__(
        self,
        coeffs: Mapping[str, RationalInput] | Iterable[tuple[str, RationalInput]] = (),
    ):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[str, Fraction] = {}
        for sym, value in items:
            if not isinstance(sym, str) or not sym:
                raise TypeError("divisor symbols must be non-empty strings")
            acc[sym] = acc.get(sym, _ZERO) + rat(value)
        self._coeffs = {s: q for s, q in sorted(acc.items()) if q != 0}

    @classmethod
    def symbol(cls, name: str, coeff: RationalInput = 1) -> "DivisorExpr":
        return cls(((name, coeff),))

    @classmethod
    def zero(cls) -> "DivisorExpr":
        return cls()

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
        merged = dict(self._coeffs)
        for s, q in other._coeffs.items():
            merged[s] = merged.get(s, _ZERO) + q
        return DivisorExpr(merged)

    def __sub__(self, other: "DivisorExpr") -> "DivisorExpr":
        if not isinstance(other, DivisorExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DivisorExpr":
        return DivisorExpr({s: -q for s, q in self._coeffs.items()})

    def __mul__(self, scalar: RationalInput) -> "DivisorExpr":
        if isinstance(scalar, DivisorExpr):
            raise TypeError(
                "divisor * divisor is a degree-2 class; lift the factors "
                "with ClassExpr.from_divisor first"
            )
        q = rat(scalar)
        return DivisorExpr({s: c * q for s, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DivisorExpr):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.items()))

    def __str__(self) -> str:
        return _pretty_terms([(c, s) for s, c in self._coeffs.items()])

    def __repr__(self) -> str:
        return f"DivisorExpr({self})"


def _normalize_terms(
    degree: int,
    terms: Mapping[Sequence[str], RationalInput]
    | Iterable[tuple[Sequence[str], RationalInput]],
) -> dict[tuple[str, ...], Fraction]:
    items = terms.items() if isinstance(terms, Mapping) else terms
    acc: dict[tuple[str, ...], Fraction] = {}
    for key, value in items:
        mono = tuple(sorted(key))
        if len(mono) != degree or not all(isinstance(s, str) for s in mono):
            raise ValueError(f"monomial {key!r} does not have degree {degree}")
        acc[mono] = acc.get(mono, _ZERO) + rat(value)
    return {k: v for k, v in sorted(acc.items()) if v != 0}


class ClassExpr:
    """Homogeneous symbolic class of degree 0..3.

    Degree-two classes may additionally carry the formal ``c2`` atom.
    Products truncate above degree three; a top-degree (three) product is
    returned as a `NumberExpr`.
    """

    __slots__ = ("_degree", "_terms", "_c2")

    def __init__(
        self,
        degree: int,
        terms: Mapping[Sequence[str], RationalInput]
        | Iterable[tuple[Sequence[str], RationalInput]] = (),
        c2_atom_coeff: RationalInput = 0,
    ):
        if degree not in (0, 1, 2, 3):
            raise ValueError(f"class degree must be 0..3, got {degree}")
        self._degree = degree
        self._terms = _normalize_terms(degree, terms)
        c2 = rat(c2_atom_coeff)
        if c2 != 0 and degree != 2:
            raise ValueError("the c2 atom is a degree-2 class")
        self._c2 = c2

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
        merged: dict[tuple[str, ...], Fraction] = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged.get(k, _ZERO) + v
        return ClassExpr(self._degree, merged, self._c2 + other._c2)

    def __sub__(self, other: "ClassExpr") -> "ClassExpr":
        if not isinstance(other, ClassExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ClassExpr":
        return ClassExpr(
            self._degree, {k: -v for k, v in self._terms.items()}, -self._c2
        )

    def __mul__(self, other):
        if isinstance(other, ClassExpr):
            return self._mul_class(other)
        if isinstance(other, NumberExpr):
            raise TypeError("a NumberExpr has top degree; multiply by scalars only")
        q = rat(other)
        return ClassExpr(
            self._degree, {k: v * q for k, v in self._terms.items()}, self._c2 * q
        )

    def __rmul__(self, other):
        return self.__mul__(other)

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
        poly = {key: Fraction(v, scale) for key, v in acc.items() if v}
        if total <= 2:
            # degrees here are 1+1, so neither factor can carry the atom
            return ClassExpr(total, poly)
        pairings: dict[str, Fraction] = {}
        if self._c2 != 0:
            for (s,), v in other._terms.items():
                pairings[s] = pairings.get(s, _ZERO) + self._c2 * v
        if other._c2 != 0:
            for (s,), v in self._terms.items():
                pairings[s] = pairings.get(s, _ZERO) + other._c2 * v
        return NumberExpr(poly, pairings)

    def as_number(self) -> "NumberExpr":
        """View a degree-3 (or degree-0) class as a NumberExpr."""
        if self._degree == 3:
            return NumberExpr(self._terms)
        if self._degree == 0:
            return NumberExpr(constant=self.scalar_value())
        raise ValueError(f"degree-{self._degree} classes are not numbers")

    def substitute(self, mapping: Mapping[str, DivisorExpr]) -> "ClassExpr":
        """Replace symbols by divisor expressions; the c2 atom is untouched."""
        acc: dict[tuple[str, ...], Fraction] = {}

        def expand(key: tuple[str, ...], coeff: Fraction, done: tuple[str, ...]):
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

        for key, v in self._terms.items():
            expand(key, v, ())
        return ClassExpr(self._degree, acc, self._c2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassExpr):
            return NotImplemented
        return (
            self._degree == other._degree
            and self._terms == other._terms
            and self._c2 == other._c2
        )

    def __hash__(self) -> int:
        return hash((self._degree, tuple(self._terms.items()), self._c2))

    def __str__(self) -> str:
        parts = [(v, "*".join(k) if k else "") for k, v in self._terms.items()]
        if self._c2 != 0:
            parts.append((self._c2, "c2"))
        return _pretty_terms(parts)

    def __repr__(self) -> str:
        return f"ClassExpr[{self._degree}]({self})"


class NumberExpr:
    """Top-degree symbolic number: cubic monomials plus formal atoms.

    The atoms are the pairings ``c2 . b`` against single symbols, the scalar
    ``chi_O``, and a rational constant. Canonical form (sorted keys, zero
    coefficients dropped) makes equality a decision procedure.
    """

    __slots__ = ("_cubic", "_pairings", "_chi_o", "_const")

    def __init__(
        self,
        cubic: Mapping[Sequence[str], RationalInput]
        | Iterable[tuple[Sequence[str], RationalInput]] = (),
        c2_pairings: Mapping[str, RationalInput]
        | Iterable[tuple[str, RationalInput]] = (),
        chi_o_coeff: RationalInput = 0,
        constant: RationalInput = 0,
    ):
        self._cubic = _normalize_terms(3, cubic)
        items = (
            c2_pairings.items() if isinstance(c2_pairings, Mapping) else c2_pairings
        )
        acc: dict[str, Fraction] = {}
        for sym, value in items:
            if not isinstance(sym, str):
                raise TypeError("c2 pairings are keyed by symbol names")
            acc[sym] = acc.get(sym, _ZERO) + rat(value)
        self._pairings = {s: v for s, v in sorted(acc.items()) if v != 0}
        self._chi_o = rat(chi_o_coeff)
        self._const = rat(constant)

    @classmethod
    def zero(cls) -> "NumberExpr":
        return cls()

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
        cubic = dict(self._cubic)
        for k, v in other._cubic.items():
            cubic[k] = cubic.get(k, _ZERO) + v
        pairings = dict(self._pairings)
        for s, v in other._pairings.items():
            pairings[s] = pairings.get(s, _ZERO) + v
        return NumberExpr(
            cubic, pairings, self._chi_o + other._chi_o, self._const + other._const
        )

    def __sub__(self, other: "NumberExpr") -> "NumberExpr":
        if not isinstance(other, NumberExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NumberExpr":
        return NumberExpr(
            {k: -v for k, v in self._cubic.items()},
            {s: -v for s, v in self._pairings.items()},
            -self._chi_o,
            -self._const,
        )

    def __mul__(self, scalar):
        if isinstance(scalar, (ClassExpr, NumberExpr, DivisorExpr)):
            raise TypeError("a NumberExpr has top degree; multiply by scalars only")
        q = rat(scalar)
        return NumberExpr(
            {k: v * q for k, v in self._cubic.items()},
            {s: v * q for s, v in self._pairings.items()},
            self._chi_o * q,
            self._const * q,
        )

    __rmul__ = __mul__

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
        cubic: dict[tuple[str, ...], Fraction] = {}
        for (a, b, c), v in self._cubic.items():
            da = mapping.get(a, DivisorExpr.symbol(a))
            db = mapping.get(b, DivisorExpr.symbol(b))
            dc = mapping.get(c, DivisorExpr.symbol(c))
            for s1, c1 in da.items():
                for s2, c2 in db.items():
                    for s3, c3 in dc.items():
                        key = tuple(sorted((s1, s2, s3)))
                        cubic[key] = cubic.get(key, _ZERO) + v * c1 * c2 * c3
        pairings: dict[str, Fraction] = {}
        for s, v in self._pairings.items():
            div = mapping.get(s)
            if div is None:
                pairings[s] = pairings.get(s, _ZERO) + v
            else:
                for b, c in div.items():
                    pairings[b] = pairings.get(b, _ZERO) + v * c
        return NumberExpr(cubic, pairings, self._chi_o, self._const)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumberExpr):
            return NotImplemented
        return (
            self._cubic == other._cubic
            and self._pairings == other._pairings
            and self._chi_o == other._chi_o
            and self._const == other._const
        )

    def __hash__(self) -> int:
        return hash(
            (
                tuple(self._cubic.items()),
                tuple(self._pairings.items()),
                self._chi_o,
                self._const,
            )
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
    if total == 3 and isinstance(acc, ClassExpr):
        acc = acc.as_number()
    return acc


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
