import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adjoint3 import ClassExpr, QTwistedBundle, cotangent_twisted_c2, twist_c1, twist_c2

K = ClassExpr.symbol("K")
A = ClassExpr.symbol("A")
D = ClassExpr.symbol("D")
DELTA = ClassExpr.symbol("d")
ZERO1 = ClassExpr.zero(1)
ZERO2 = ClassExpr.zero(2)


def random_one_class(rng: random.Random) -> ClassExpr:
    return ClassExpr(
        1,
        {
            ("A",): Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            ("K",): Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            ("H",): Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        },
    )


class TestBundleValidation:
    def test_equality_hash_and_repr_are_those_of_the_record(self):
        # as they were while QTwistedBundle was a frozen dataclass
        b = QTwistedBundle(2, K, ClassExpr.c2_atom(), A)
        assert b == QTwistedBundle(2, K, ClassExpr.c2_atom(), A) != QTwistedBundle(3, K, ZERO2, A)
        assert hash(b) == hash((2, K, ClassExpr.c2_atom(), A))
        assert repr(b) == (
            "QTwistedBundle(rank=2, c1=ClassExpr[1](K), c2=ClassExpr[2](c2), twist=ClassExpr[1](A))"
        )

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            QTwistedBundle(0, K, ZERO2, ZERO1)

    def test_degrees_are_checked(self):
        with pytest.raises(ValueError):
            QTwistedBundle(2, ClassExpr.c2_atom(), ZERO2, ZERO1)
        with pytest.raises(ValueError):
            QTwistedBundle(2, K, K, ZERO1)
        with pytest.raises(ValueError):
            QTwistedBundle(2, K, ZERO2, ZERO2)


class TestTwistC1:
    def test_cotangent_first_class(self):
        b = QTwistedBundle(3, K, ClassExpr.c2_atom(), Fraction(1, 3) * A)
        assert twist_c1(b) == K + A

    def test_zero_twist(self):
        b = QTwistedBundle(3, K, ZERO2, ZERO1)
        assert twist_c1(b) == K

    def test_line_bundle(self):
        b = QTwistedBundle(1, D, ZERO2, DELTA)
        assert twist_c1(b) == D + DELTA


class TestTwistC2:
    def test_cotangent_second_class(self):
        b = QTwistedBundle(3, K, ClassExpr.c2_atom(), Fraction(1, 3) * A)
        expected = (
            ClassExpr.c2_atom()
            + Fraction(2, 3) * (K * A)
            + Fraction(1, 3) * (A * A)
        )
        assert twist_c2(b) == expected

    def test_zero_twist(self):
        b = QTwistedBundle(3, K, ClassExpr.c2_atom(), ZERO1)
        assert twist_c2(b) == ClassExpr.c2_atom()

    def test_rank_two(self):
        b = QTwistedBundle(2, D, ZERO2, DELTA)
        assert twist_c2(b) == D * DELTA + DELTA * DELTA

    def test_line_bundle_keeps_trivial_c2(self):
        b = QTwistedBundle(1, D, ZERO2, DELTA)
        assert twist_c2(b).is_zero()

    @given(st.integers(1, 5), st.integers(0, 10**9))
    def test_documented_polynomial_shape(self, rank, seed):
        # twisting with c2 = 0 leaves exactly (r-1) c1.delta + r(r-1)/2 delta^2
        rng = random.Random(seed)
        c1, delta = random_one_class(rng), random_one_class(rng)
        b = QTwistedBundle(rank, c1, ZERO2, delta)
        expected = (rank - 1) * (c1 * delta) + Fraction(rank * (rank - 1), 2) * (
            delta * delta
        )
        assert twist_c2(b) == expected

    def test_linear_in_the_c2_field(self):
        c2_part = ClassExpr.c2_atom(3) + 2 * (K * A)
        with_c2 = QTwistedBundle(4, K, c2_part, DELTA)
        without = QTwistedBundle(4, K, ZERO2, DELTA)
        assert twist_c2(with_c2) == c2_part + twist_c2(without)


class TestComposition:
    @given(st.integers(1, 5), st.integers(0, 10**9))
    def test_sequential_twists_compose_additively(self, rank, seed):
        rng = random.Random(seed)
        c1 = random_one_class(rng)
        c2 = ClassExpr.c2_atom(Fraction(rng.randint(-3, 3))) + random_one_class(
            rng
        ) * random_one_class(rng)
        first, second = random_one_class(rng), random_one_class(rng)
        b = QTwistedBundle(rank, c1, c2, first)
        once = QTwistedBundle(rank, twist_c1(b), twist_c2(b), second)
        combined = QTwistedBundle(rank, c1, c2, first + second)
        assert twist_c1(once) == twist_c1(combined)
        assert twist_c2(once) == twist_c2(combined)


class TestCotangentTwist:
    def test_threefold_case(self):
        out = cotangent_twisted_c2(3, K, A)
        assert out == ClassExpr.c2_atom() + Fraction(2, 3) * (K * A) + Fraction(
            1, 3
        ) * (A * A)

    def test_surface_case(self):
        out = cotangent_twisted_c2(2, K, A)
        assert out == ClassExpr.c2_atom() + Fraction(1, 2) * (K * A) + Fraction(
            1, 4
        ) * (A * A)

    def test_zero_twist_leaves_atom(self):
        assert cotangent_twisted_c2(3, K, ZERO1) == ClassExpr.c2_atom()

    def test_dimension_lower_bound(self):
        with pytest.raises(ValueError):
            cotangent_twisted_c2(1, K, A)
