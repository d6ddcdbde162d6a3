import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adjoint3 import (
    DivisorExpr,
    FlagKind,
    MissingFlagError,
    NonIntegerChiError,
    ThreefoldProfile,
    chi_O_consistency,
    chi_class,
    chi_expression,
    chi_identity_suite,
    chi_line_bundle,
    flag,
    get,
    h0_lower_bound_from_chi,
)
from adjoint3.core import ClassExpr

from conftest import random_divisor, random_valid_profile

H = DivisorExpr.symbol("H")


class TestChiLineBundle:
    def test_hyperplane_on_p3(self):
        p = get("P3").profile
        assert chi_line_bundle(p, H) == 4

    def test_quadric_on_p3(self):
        p = get("P3").profile
        assert chi_line_bundle(p, 2 * H) == 10

    def test_zero_divisor_gives_chi_o(self):
        for name in ("P3", "Q5", "BlLineP3", "hypersurface(6)"):
            p = get(name).profile
            assert chi_line_bundle(p, DivisorExpr.zero()) == p.chi_O

    def test_hyperplane_on_quintic(self):
        # sections of the hyperplane bundle on a quintic in P4
        assert chi_line_bundle(get("Q5").profile, H) == 5

    @given(st.integers(0, 10**9))
    def test_chi_expression_matches_direct_evaluation(self, seed):
        rng = random.Random(seed)
        p = random_valid_profile(rng)
        d = random_divisor(rng, p.basis)
        symbolic = chi_class(ClassExpr.symbol("D"), ClassExpr.symbol("K"))
        substituted = symbolic.substitute({"D": d, "K": p.canonical})
        assert p.number_eval(substituted) == chi_line_bundle(p, d)

    @pytest.mark.parametrize(
        "name", ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5", "hypersurface(6)")
    )
    def test_symbolic_chi_agrees_on_catalog_profiles(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        p = get(name).profile
        symbolic = chi_class(ClassExpr.symbol("D"), ClassExpr.symbol("K"))
        for _ in range(20):
            d = random_divisor(rng, p.basis)
            substituted = symbolic.substitute({"D": d, "K": p.canonical})
            assert p.number_eval(substituted) == chi_line_bundle(p, d)

    @given(st.integers(0, 10**9))
    def test_serre_duality_numerically(self, seed):
        rng = random.Random(seed)
        p = random_valid_profile(rng)
        d = random_divisor(rng, p.basis)
        assert chi_line_bundle(p, p.canonical - d) == -chi_line_bundle(p, d)

    def test_chi_class_takes_degree_one_classes(self):
        K = ClassExpr.symbol("K")
        for D, canonical in ((ClassExpr.c2_atom(), K), (K, K * K)):
            with pytest.raises(ValueError, match="chi_class expects degree-one classes"):
                chi_class(D, canonical)

    def test_chi_expression_records_divisor(self):
        p = get("P3").profile
        expr = chi_expression(H, p.canonical)
        assert expr.divisor == H
        assert p.number_eval(expr.expr) == 4


class TestChiOConsistency:
    def test_p3(self):
        assert chi_O_consistency(get("P3").profile) == (1, 1)

    def test_quintic(self):
        assert chi_O_consistency(get("Q5").profile) == (0, 0)

    def test_corrupted_profile_mismatch(self):
        p = ThreefoldProfile(
            basis=("H",),
            triple={("H", "H", "H"): 1},
            c2_vector={"H": 6},
            chi_O=2,
            canonical=-4 * H,
        )
        lhs, rhs = chi_O_consistency(p)
        assert (lhs, rhs) == (2, 1)


class TestH0FromChi:
    def test_kodaira_route_on_p3(self):
        p = get("P3").profile.with_flags(flag(FlagKind.AMPLE, 5 * H))
        assert h0_lower_bound_from_chi(p, p.canonical + 5 * H) == 4

    def test_missing_flag(self):
        p = get("P3").profile
        with pytest.raises(MissingFlagError):
            h0_lower_bound_from_chi(p, p.canonical + 5 * H)

    def test_quintic_hyperplane(self):
        p = get("Q5").profile
        assert h0_lower_bound_from_chi(p, p.canonical + H) == 5

    def test_kawamata_viehweg_flag_accepted(self):
        p = get("P3").profile.with_flags(flag(FlagKind.NEF_AND_BIG, 5 * H))
        assert h0_lower_bound_from_chi(p, p.canonical + 5 * H) == 4

    def test_non_integer_chi_is_an_error(self):
        # deliberately inconsistent pairing makes chi fractional
        p = ThreefoldProfile(
            basis=("H",),
            triple={("H", "H", "H"): 1},
            c2_vector={"H": 5},
            chi_O=1,
            canonical=-4 * H,
            flags=(flag(FlagKind.AMPLE, 5 * H),),
        )
        with pytest.raises(NonIntegerChiError):
            h0_lower_bound_from_chi(p, p.canonical + 5 * H)


class TestIdentitySuite:
    def test_all_six_identities_hold(self):
        results = chi_identity_suite()
        assert len(results) == 6
        assert all(ok for _, ok in results), results

    def test_expected_names(self):
        names = [name for name, _ in chi_identity_suite()]
        assert names == [
            "chi(K+A)-chi(2K+A)",
            "chi(K+2A)-2chi(K+A)",
            "chi(K+2A)-chi(K+A)",
            "c2-elimination-adjoint",
            "c2-elimination-gap",
            "serre-duality-sign",
        ]

    @given(st.integers(0, 10**9))
    def test_identities_hold_numerically(self, seed):
        # spot-check the canonical-form proofs against random profiles
        rng = random.Random(seed)
        p = random_valid_profile(rng)
        a = random_divisor(rng, p.basis)
        k = p.canonical
        chi = lambda d: chi_line_bundle(p, d)
        half = Fraction(1, 2)
        assert chi(k + a) - chi(2 * k + a) == -half * p.triple_eval(
            k, k + a, k + a
        ) + 2 * p.chi_O
        assert chi(k + 2 * a) - 2 * chi(k + a) == half * p.triple_eval(
            k + 2 * a, a, a
        ) + p.chi_O
