"""Chern classes of rationally twisted vector bundles.

A twisted bundle is a pure Chern-data record: a rank, the first and second
Chern classes, and a rational divisor class used as the twist.  Only the
first two Chern classes are modelled; nothing here touches sheaves or
sections.  The dimension enters as an integer parameter so the twisted
cotangent computation works on n-folds, even though numerical profiles are
threefolds.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ClassExpr, _Record


class QTwistedBundle(_Record):
    """Chern data of a vector bundle twisted by a rational divisor class.

    Instances are immutable, equal when all four fields are, and hash
    accordingly.
    """

    __slots__ = ("rank", "c1", "c2", "twist")

    def __init__(self, rank: int, c1: ClassExpr, c2: ClassExpr, twist: ClassExpr):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank}")
        if c1.degree != 1:
            raise ValueError("c1 must have degree 1")
        if c2.degree != 2:
            raise ValueError("c2 must have degree 2")
        if twist.degree != 1:
            raise ValueError("the twist must have degree 1")
        self.rank, self.c1, self.c2, self.twist = rank, c1, c2, twist


def twist_c1(b: QTwistedBundle) -> ClassExpr:
    """First Chern class of the twisted bundle: c1 + rank * twist."""
    return b.c1 + b.rank * b.twist


def twist_c2(b: QTwistedBundle) -> ClassExpr:
    """Second Chern class of the twisted bundle.

    c2 + (rank - 1) * c1 * twist + rank(rank - 1)/2 * twist^2.
    """
    r = b.rank
    quadratic = (b.c1 * b.twist) * (r - 1) + (b.twist * b.twist) * Fraction(
        r * (r - 1), 2
    )
    return b.c2 + quadratic


def cotangent_twisted_c2(n: int, K: ClassExpr, A: ClassExpr) -> ClassExpr:
    """Second Chern class of the cotangent bundle twisted by A/n on an n-fold.

    The rank-n cotangent bundle has c1 = K and c2 the formal c2 atom;
    twisting by A/n gives c2 + (n-1)/n * K * A + (n-1)/(2n) * A^2, whose
    first Chern class is K + A.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"the dimension must be an integer >= 2, got {n}")
    bundle = QTwistedBundle(
        rank=n, c1=K, c2=ClassExpr.c2_atom(), twist=A * Fraction(1, n)
    )
    return twist_c2(bundle)
