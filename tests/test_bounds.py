import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adjoint3 import (
    BASEPOINTFREE,
    CH02_THM42,
    Certificate,
    ClassExpr,
    Conclusion,
    DivisorExpr,
    FANO_TRIVIAL,
    FlagContradictionError,
    FlagKind,
    KA00_THM31,
    MissingFlagError,
    bound_bs,
    bound_fukuma_gap,
    bound_fukuma_ka,
    bound_nefbig,
    certify_h0_adjoint,
    certify_h0_bs,
    chi_line_bundle,
    expand_divisors,
    flag,
    generic_nef_pairing_test,
    get,
    identity_check,
    miyaoka_c2_inequality,
    miyaoka_correction,
)
from adjoint3.bounds import (
    ROUTE_ANTICANONICAL,
    ROUTE_BS_CHI,
    ROUTE_FANO_TRIVIAL,
    ROUTE_NEF_NOT_BIG,
    ROUTE_NONE,
    ROUTE_NOT_UNIRULED,
    ROUTE_POSITIVE_IRREGULARITY,
)

from conftest import random_divisor, random_valid_profile

H = DivisorExpr.symbol("H")
E = DivisorExpr.symbol("E")


class TestGenericNefPairing:
    def test_trivial_canonical_class(self):
        q5 = get("Q5").profile
        assert generic_nef_pairing_test(q5, q5.canonical, H, H) == (0, True)

    def test_anticanonical_on_p3(self):
        p3 = get("P3").profile
        assert generic_nef_pairing_test(p3, -p3.canonical, H, H) == (4, True)

    def test_bad_anticanonical_witness_class(self):
        pencil = get("Pencil5").profile
        a_eps = pencil.named_divisors["A_eps"]
        value, holds = generic_nef_pairing_test(pencil, -pencil.canonical, a_eps, a_eps)
        assert value < 0 and not holds

    def test_zero_class_always_passes(self):
        p3 = get("P3").profile
        assert generic_nef_pairing_test(p3, DivisorExpr.zero(), H, H).holds

    def test_requires_declared_ample_flags(self):
        p3 = get("P3").profile
        with pytest.raises(MissingFlagError):
            generic_nef_pairing_test(p3, H, 2 * H, H)


class TestMiyaokaInequality:
    def test_correction_is_derived_from_the_twisted_cotangent_bundle(self):
        K, A = ClassExpr.symbol("K"), ClassExpr.symbol("A")
        assert miyaoka_correction(K, A) == Fraction(2, 3) * (K * A) + Fraction(1, 3) * (A * A)

    def test_quintic(self):
        q5 = get("Q5").profile
        out = miyaoka_c2_inequality(q5, H, H)
        assert out == (50, Fraction(-5, 3), True, True)

    def test_p3_holds_without_hypotheses(self):
        p3 = get("P3").profile
        out = miyaoka_c2_inequality(p3, H, H)
        assert out == (6, Fraction(7, 3), True, False)

    def test_zero_twist_reduces_to_c2_sign(self):
        p3 = get("P3").profile
        out = miyaoka_c2_inequality(p3, DivisorExpr.zero(), H)
        assert out.rhs == 0 and out.holds


class TestBoundValues:
    def test_fukuma_ka(self):
        assert bound_fukuma_ka(get("Q5").profile, H) == Fraction(25, 36)
        assert bound_fukuma_ka(get("P3").profile, 5 * H) == Fraction(15, 4)

    def test_fukuma_gap(self):
        q5 = get("Q5").profile
        assert bound_fukuma_gap(q5, H) == Fraction(205, 36)
        gap = chi_line_bundle(q5, 2 * H) - chi_line_bundle(q5, H)
        assert gap == 10 and gap >= Fraction(205, 36)

    def test_nefbig(self):
        assert bound_nefbig(get("P3").profile, 5 * H) == 4
        assert bound_nefbig(get("Q5").profile, H) == 0
        assert bound_nefbig(get("hypersurface(6)").profile, H) == -20

    def test_bs(self):
        assert bound_bs(get("P3").profile, 3 * H) == 10
        assert bound_bs(get("Q5").profile, H) == 5

    def test_bs_with_numerically_trivial_adjoint(self):
        blp3 = get("BlP3").profile
        a = blp3.named_divisors["A2"]
        assert blp3.canonical + 2 * a == DivisorExpr.zero()
        assert bound_bs(blp3, a) == blp3.chi_O

    def test_sharpness_on_p3(self):
        p3 = get("P3").profile
        assert bound_nefbig(p3, 5 * H) == chi_line_bundle(p3, p3.canonical + 5 * H)
        assert bound_bs(p3, 3 * H) == chi_line_bundle(p3, p3.canonical + 6 * H)

    @given(st.integers(0, 10**9))
    def test_bounds_agree_with_chi_differences(self, seed):
        # each bound is a chi difference in disguise; check numerically
        rng = random.Random(seed)
        p = random_valid_profile(rng)
        a = random_divisor(rng, p.basis)
        k = p.canonical
        chi = lambda d: chi_line_bundle(p, d)
        assert bound_nefbig(p, a) == chi(k + a) - chi(2 * k + a)
        assert bound_bs(p, a) == chi(k + 2 * a) - 2 * chi(k + a)
        gap_with_c2 = Fraction(1, 12) * (
            p.triple_eval(k + 2 * a, a, k + 7 * a) + p.c2_pair(a)
        )
        assert chi(k + 2 * a) - chi(k + a) == gap_with_c2
        # the c2-eliminated bounds against their product forms, evaluated
        # directly on the tensor rather than through the symbolic ring
        assert bound_fukuma_ka(p, a) == Fraction(1, 18) * p.triple_eval(
            k + 2 * a, a, k + Fraction(5, 4) * a
        )
        assert bound_fukuma_gap(p, a) == Fraction(1, 12) * (
            p.triple_eval(a, k + 2 * a, k + Fraction(19, 3) * a) + p.triple_eval(a, a, a)
        )

    def test_refined_lower_bound_identity(self):
        # 1/18 (K+2A).A.(K+5/4 A) = 5/36 A^3 + 1/8 K.A^2 + 1/18 K.(K+A).A
        k, a = DivisorExpr.symbol("K"), DivisorExpr.symbol("A")
        lhs = Fraction(1, 18) * expand_divisors(k + 2 * a, a, k + Fraction(5, 4) * a)
        rhs = (
            Fraction(5, 36) * expand_divisors(a, a, a)
            + Fraction(1, 8) * expand_divisors(k, a, a)
            + Fraction(1, 18) * expand_divisors(k, k + a, a)
        )
        assert identity_check(lhs, rhs)


class TestCertificateInvariants:
    def test_integer_bound_is_ceiling(self):
        with pytest.raises(ValueError):
            Certificate(
                Conclusion.INCONCLUSIVE,
                ROUTE_NONE,
                rational_bound=Fraction(1, 2),
                integer_bound=0,
            )

    @pytest.mark.parametrize("bound, ceiling", [(Fraction(1, 2), 1), (Fraction(-3, 2), -1)])
    def test_omitted_integer_bound_is_the_ceiling(self, bound, ceiling):
        cert = Certificate(Conclusion.INCONCLUSIVE, ROUTE_NONE, bound)
        assert cert.integer_bound == ceiling

    def test_integer_bound_needs_a_rational_bound(self):
        with pytest.raises(ValueError):
            Certificate(Conclusion.INCONCLUSIVE, ROUTE_NONE, integer_bound=1)

    def test_non_vanishing_needs_positive_bound(self):
        with pytest.raises(ValueError):
            Certificate(Conclusion.NON_VANISHING, ROUTE_NOT_UNIRULED)

    def test_fano_route_may_omit_bound(self):
        cert = Certificate(Conclusion.NON_VANISHING, ROUTE_FANO_TRIVIAL)
        assert cert.rational_bound is None

    def test_equality_hash_and_repr_are_those_of_the_record(self):
        # as they were while Certificate was a frozen dataclass
        ample = flag(FlagKind.AMPLE, H)
        cert = Certificate(Conclusion.INCONCLUSIVE, ROUTE_NONE, Fraction(1, 2), 1, (ample,))
        same = Certificate(Conclusion.INCONCLUSIVE, ROUTE_NONE, Fraction(1, 2), 1, (ample,))
        assert cert == same and hash(cert) == hash(same)
        assert cert != Certificate(Conclusion.INCONCLUSIVE, ROUTE_NONE)
        assert cert != (Conclusion.INCONCLUSIVE, ROUTE_NONE, Fraction(1, 2), 1, (ample,), ())
        assert repr(cert) == (
            "Certificate(conclusion=<Conclusion.INCONCLUSIVE: 'Inconclusive'>, "
            "route='none', rational_bound=Fraction(1, 2), integer_bound=1, "
            "hypotheses_used=(PositivityFlag(kind=<FlagKind.AMPLE: 'Ample'>, "
            "subject=DivisorExpr(H)),), citations=())"
        )


class TestCertifyAdjoint:
    def test_not_uniruled_route_on_quintic(self):
        q5 = get("Q5").profile.with_flags(
            flag(FlagKind.AMPLE, H), flag(FlagKind.NOT_UNIRULED), replace=True
        )
        cert = certify_h0_adjoint(q5, H)
        assert cert.route == ROUTE_NOT_UNIRULED
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert cert.rational_bound == Fraction(25, 36)
        assert cert.integer_bound == 1

    def test_pseudo_effective_canonical_also_fires_route_a(self):
        q5 = get("Q5").profile.with_flags(
            flag(FlagKind.AMPLE, H),
            flag(FlagKind.PSEUDO_EFFECTIVE, DivisorExpr.zero()),
            replace=True,
        )
        assert certify_h0_adjoint(q5, H).route == ROUTE_NOT_UNIRULED

    def test_anticanonical_route_on_p3(self):
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, 5 * H),
            flag(FlagKind.UNIRULED),
            flag(FlagKind.IRREGULARITY_ZERO),
            flag(FlagKind.PSEUDO_EFFECTIVE, 4 * H),
            flag(FlagKind.NEF_AND_BIG, H),
            replace=True,
        )
        cert = certify_h0_adjoint(p3, 5 * H)
        assert cert.route == ROUTE_ANTICANONICAL
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert cert.rational_bound == 4 and cert.integer_bound == 4

    def test_insufficient_flags_are_inconclusive(self):
        p3 = get("P3").profile.with_flags(flag(FlagKind.AMPLE, H), replace=True)
        cert = certify_h0_adjoint(p3, H)
        assert cert.conclusion is Conclusion.INCONCLUSIVE
        assert cert.route == ROUTE_NONE

    def test_nef_not_big_external_route(self):
        # K + 4H = 0 on P3: nef, and not big, its cube being 0
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, 4 * H),
            flag(FlagKind.UNIRULED),
            flag(FlagKind.NEF, DivisorExpr.zero()),
            replace=True,
        )
        adjoint = p3.canonical + 4 * H
        assert adjoint == DivisorExpr.zero() and p3.triple_eval(adjoint, adjoint, adjoint) == 0
        cert = certify_h0_adjoint(p3, 4 * H)
        assert cert.route == ROUTE_NEF_NOT_BIG
        assert cert.conclusion is Conclusion.NON_VANISHING_EXTERNAL
        assert cert.citations == (KA00_THM31,)
        assert cert.rational_bound is None

    def test_nef_and_big_does_not_reach_external_route(self):
        # K + 5H = H on P3, nef and big with H^3 = 1
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, 5 * H),
            flag(FlagKind.NEF_AND_BIG, H),
            replace=True,
        )
        assert certify_h0_adjoint(p3, 5 * H).route == ROUTE_NONE

    def test_positive_irregularity_route(self):
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, H), flag(FlagKind.UNIRULED), replace=True
        )
        cert = certify_h0_adjoint(p3, H)
        assert cert.route == ROUTE_POSITIVE_IRREGULARITY
        assert cert.citations == (CH02_THM42,)

    def test_requires_ample_flag(self):
        p3 = get("P3").profile.with_flags(replace=True)
        with pytest.raises(MissingFlagError):
            certify_h0_adjoint(p3, H)

    def test_chi_sign_contradiction(self):
        # chi_O = -4 cannot support the anticanonical route; K = 2H carries
        # no flag, so no earlier route intercepts
        from adjoint3 import ThreefoldProfile

        rigged = ThreefoldProfile(
            basis=("H",),
            triple={("H", "H", "H"): 1},
            c2_vector={"H": 48},
            chi_O=-4,
            canonical=2 * H,
            flags=(
                flag(FlagKind.AMPLE, H),
                flag(FlagKind.IRREGULARITY_ZERO),
                flag(FlagKind.GENERICALLY_NEF, -2 * H),
                flag(FlagKind.NEF_AND_BIG, 3 * H),
            ),
        )
        assert not rigged.validate()
        with pytest.raises(FlagContradictionError, match="chi_O"):
            certify_h0_adjoint(rigged, H)

    def test_pairing_sign_contradiction(self):
        # -K.(K+A)^2 = -18 < 0 while -K is declared generically nef
        from adjoint3 import ThreefoldProfile

        contradictory = ThreefoldProfile(
            basis=("H",),
            triple={("H", "H", "H"): 1},
            c2_vector={"H": -12},
            chi_O=1,
            canonical=2 * H,
            flags=(
                flag(FlagKind.AMPLE, H),
                flag(FlagKind.IRREGULARITY_ZERO),
                flag(FlagKind.GENERICALLY_NEF, -2 * H),
                flag(FlagKind.NEF_AND_BIG, 3 * H),
            ),
        )
        assert not contradictory.validate()
        with pytest.raises(FlagContradictionError, match="generically nef"):
            certify_h0_adjoint(contradictory, H)

    def test_negative_bound_stays_inconclusive(self):
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, -1 * H), flag(FlagKind.NOT_UNIRULED), replace=True
        )
        cert = certify_h0_adjoint(p3, -1 * H)
        assert cert.conclusion is Conclusion.INCONCLUSIVE
        assert cert.rational_bound is not None and cert.rational_bound < 0


class TestCertifyBs:
    def test_uniruled_regular_route_on_p3(self):
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, 3 * H),
            flag(FlagKind.NEF, 2 * H),
            flag(FlagKind.UNIRULED),
            flag(FlagKind.IRREGULARITY_ZERO),
            replace=True,
        )
        cert = certify_h0_bs(p3, 3 * H)
        assert cert.route == ROUTE_BS_CHI
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert cert.rational_bound == 10 and cert.integer_bound == 10
        assert cert.citations == (BASEPOINTFREE,)

    def test_fano_trivial_route_on_blown_up_p3(self):
        blp3 = get("BlP3").profile
        a = blp3.named_divisors["A2"]
        rigged = blp3.with_flags(
            flag(FlagKind.AMPLE, a),
            flag(FlagKind.NUMERICALLY_TRIVIAL, DivisorExpr.zero()),
            replace=True,
        )
        cert = certify_h0_bs(rigged, a)
        assert cert.route == ROUTE_FANO_TRIVIAL
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert cert.rational_bound is None
        assert cert.citations == (FANO_TRIVIAL,)

    def test_not_uniruled_route_on_quintic(self):
        q5 = get("Q5").profile.with_flags(
            flag(FlagKind.AMPLE, H),
            flag(FlagKind.NEF, 2 * H),
            flag(FlagKind.NOT_UNIRULED),
            replace=True,
        )
        cert = certify_h0_bs(q5, H)
        assert cert.route == ROUTE_NOT_UNIRULED
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert cert.rational_bound == Fraction(25, 36) + Fraction(205, 36)

    def test_positive_irregularity_route(self):
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, 3 * H),
            flag(FlagKind.NEF, 2 * H),
            flag(FlagKind.UNIRULED),
            replace=True,
        )
        cert = certify_h0_bs(p3, 3 * H)
        assert cert.route == ROUTE_POSITIVE_IRREGULARITY
        assert cert.citations == (CH02_THM42,)

    def test_insufficient_flags_are_inconclusive(self):
        p3 = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, 3 * H), flag(FlagKind.NEF, 2 * H), replace=True
        )
        cert = certify_h0_bs(p3, 3 * H)
        assert cert.conclusion is Conclusion.INCONCLUSIVE
        assert cert.route == ROUTE_NONE

    def test_requires_nef_adjoint_flag(self):
        p3 = get("P3").profile  # Ample(H) declared, no Nef(K+2H)
        with pytest.raises(MissingFlagError):
            certify_h0_bs(p3, H)

    def test_chi_sign_contradiction(self):
        # chi_O = -4 < 1 on the uniruled-regular route; K = 2H is unflagged
        from adjoint3 import ThreefoldProfile

        rigged = ThreefoldProfile(
            basis=("H",),
            triple={("H", "H", "H"): 1},
            c2_vector={"H": 48},
            chi_O=-4,
            canonical=2 * H,
            flags=(
                flag(FlagKind.AMPLE, H),
                flag(FlagKind.NEF, 4 * H),
                flag(FlagKind.UNIRULED),
                flag(FlagKind.IRREGULARITY_ZERO),
            ),
        )
        assert not rigged.validate()
        with pytest.raises(FlagContradictionError, match="chi_O"):
            certify_h0_bs(rigged, H)

    def test_positivity_contradiction(self):
        # (K+2A).A^2 = -2 <= 0 while K+2A is declared nef and not trivial
        p = get("P3").profile.with_flags(
            flag(FlagKind.AMPLE, H),
            flag(FlagKind.NEF, -2 * H),
            flag(FlagKind.UNIRULED),
            flag(FlagKind.IRREGULARITY_ZERO),
            replace=True,
        )
        with pytest.raises(FlagContradictionError, match="semiample"):
            certify_h0_bs(p, H)

    @given(st.integers(0, 10**9))
    def test_no_non_vanishing_with_nonpositive_bound(self, seed):
        # randomized sweep over the bound routes; the Fano route is the only
        # NonVanishing certificate without a positive rational bound
        rng = random.Random(seed)
        p = random_valid_profile(rng)
        a = random_divisor(rng, p.basis)
        p = p.with_flags(
            flag(FlagKind.AMPLE, a),
            flag(FlagKind.NOT_UNIRULED),
            flag(FlagKind.NEF, p.canonical + 2 * a),
        )
        for cert in (certify_h0_adjoint(p, a), certify_h0_bs(p, a)):
            if cert.conclusion is Conclusion.NON_VANISHING:
                assert cert.route == ROUTE_FANO_TRIVIAL or cert.rational_bound > 0
            if cert.rational_bound is not None:
                import math

                assert cert.integer_bound == math.ceil(cert.rational_bound)
