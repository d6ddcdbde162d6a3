"""Acceptance suite: every check is exact (tolerance zero).

Each criterion prints one pass/fail line; run with ``pytest -v -s`` to see
them inline.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from adjoint3 import (
    ClassExpr,
    Conclusion,
    DivisorExpr,
    FlagContradictionError,
    FlagKind,
    QTwistedBundle,
    ThreefoldProfile,
    bad_anticanonical_witness,
    blow_up_curve,
    blow_up_point,
    blowdown_invariance_check,
    bound_bs,
    bound_fukuma_gap,
    bound_fukuma_ka,
    bound_nefbig,
    certify_h0_adjoint,
    certify_h0_bs,
    chi_identity_suite,
    chi_line_bundle,
    flag,
    generic_nef_pairing_test,
    get,
    h0_lower_bound_from_chi,
    miyaoka_c2_inequality,
    parse_profile,
    pull_back,
    serialize_profile,
    twist_c1,
    twist_c2,
)
from adjoint3.bounds import (
    ROUTE_ANTICANONICAL,
    ROUTE_BS_CHI,
    ROUTE_FANO_TRIVIAL,
    ROUTE_NONE,
    ROUTE_NOT_UNIRULED,
)

from conftest import assert_canonical_fields, random_divisor, random_valid_profile

H = DivisorExpr.symbol("H")
E = DivisorExpr.symbol("E")


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL  {label}")
        raise
    print(f"criterion {number} PASS  {label}")


def test_criterion_1_nefbig_bound_is_sharp_on_p3():
    with criterion(1, "nef-and-big bound sharp on P3 with A = 5H"):
        p3 = get("P3").profile
        a = 5 * H
        adjoint = p3.canonical + a
        bound = bound_nefbig(p3, a)
        chi = chi_line_bundle(p3, adjoint)
        h0 = h0_lower_bound_from_chi(p3.with_flags(flag(FlagKind.AMPLE, a)), adjoint)
        assert bound == chi == h0 == 4


def test_criterion_2_bs_bound_is_sharp_on_p3():
    with criterion(2, "two-adjoint bound sharp on P3 with A = 3H"):
        p3 = get("P3").profile
        a = 3 * H
        adjoint = p3.canonical + 2 * a
        bound = bound_bs(p3, a)
        chi = chi_line_bundle(p3, adjoint)
        h0 = h0_lower_bound_from_chi(
            p3.with_flags(flag(FlagKind.AMPLE, 2 * a)), adjoint
        )
        assert bound == chi == h0 == 10


def test_criterion_3_identity_suite():
    with criterion(3, "all six symbolic identities hold profile-independently"):
        results = chi_identity_suite()
        assert len(results) == 6
        failures = [name for name, ok in results if not ok]
        assert not failures, failures


def test_criterion_4_twist_composition():
    with criterion(4, "sequential twists equal the combined twist, ranks 1..5"):
        rng = random.Random(20240)

        def rand_one():
            return ClassExpr(
                1,
                {
                    ("A",): Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                    ("K",): Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                },
            )

        for rank in range(1, 6):
            for _ in range(100):
                c1, first, second = rand_one(), rand_one(), rand_one()
                c2 = ClassExpr.c2_atom(Fraction(rng.randint(-3, 3))) + rand_one() * rand_one()
                bundle = QTwistedBundle(rank, c1, c2, first)
                after_first = QTwistedBundle(
                    rank, twist_c1(bundle), twist_c2(bundle), second
                )
                combined = QTwistedBundle(rank, c1, c2, first + second)
                assert twist_c1(after_first) == twist_c1(combined)
                assert twist_c2(after_first) == twist_c2(combined)


def test_criterion_5_blowup_coherence():
    with criterion(5, "blow-up rules match oracles and chi is pull-back invariant"):
        p3 = get("P3").profile
        blown, point_map = blow_up_point(p3, "E")
        k = blown.canonical
        assert blown.triple_eval(k, k, k) == -56
        assert blown.validate() == []

        line_blown, _ = blow_up_curve(p3, "E", genus=0, degrees={"H": 1})
        mk = line_blown.canonical
        assert line_blown.triple_eval(-mk, -mk, -mk) == 54
        # independent oracle: P(O+O+O(1)) over the projective line, from
        # the Grothendieck relation xi^3 = xi^2.f and the Euler sequence
        bundle_oracle = ThreefoldProfile(
            basis=("xi", "f"),
            triple={("xi", "xi", "xi"): 1, ("f", "xi", "xi"): 1},
            c2_vector={"xi": 7, "f": 3},
            chi_O=1,
            canonical=DivisorExpr({"xi": -3, "f": -1}),
        )
        assert bundle_oracle.validate() == []
        ok = bundle_oracle.canonical
        assert bundle_oracle.triple_eval(-ok, -ok, -ok) == 54

        rng = random.Random(20241)
        for _ in range(50):
            profile = random_valid_profile(rng, max_basis=2)
            source, bmap = blow_up_point(profile, "X")
            d = random_divisor(rng, profile.basis)
            assert chi_line_bundle(source, pull_back(bmap, d)) == chi_line_bundle(
                profile, d
            )
            assert blowdown_invariance_check(bmap, random_divisor(rng, profile.basis)) == (
                True,
                True,
            )


def test_criterion_6_quintic_bounds():
    with criterion(6, "c2-elimination bounds and c2 inequality on the quintic"):
        q5 = get("Q5").profile
        ka = bound_fukuma_ka(q5, H)
        assert ka == Fraction(25, 36)
        assert -(-ka.numerator // ka.denominator) == 1  # ceiling
        chi_adjoint = chi_line_bundle(q5, q5.canonical + H)
        assert chi_adjoint == 5 and ka <= chi_adjoint

        gap = bound_fukuma_gap(q5, H)
        assert gap == Fraction(205, 36)
        chi_gap = chi_line_bundle(q5, q5.canonical + 2 * H) - chi_adjoint
        assert chi_gap == 10 and gap <= chi_gap

        lhs, rhs, holds, met = miyaoka_c2_inequality(q5, H, H)
        assert (lhs, rhs, holds, met) == (50, Fraction(-5, 3), True, True)


def test_criterion_7_bad_anticanonical_witness():
    with criterion(7, "quintic pencil witnesses a non generically nef -K"):
        entry = get("Pencil5")
        p = entry.profile
        f = p.named_divisors["F"]
        assert p.triple_eval(p.canonical, f, H) == 5
        assert p.triple_eval(p.canonical, f, f) == 0
        eps, value = bad_anticanonical_witness(entry)
        assert value == 10 * eps - 4 * eps**2 and value > 0
        a_eps = f + eps * H
        assert a_eps == p.named_divisors["A_eps"]
        pairing = generic_nef_pairing_test(p, -p.canonical, a_eps, a_eps)
        assert pairing.value == -value and not pairing.holds


def test_criterion_8_certification_routes():
    with criterion(8, "worked certificates route exactly; contradictions fail hard"):
        q5 = get("Q5").profile.with_flags(
            flag(FlagKind.AMPLE, H), flag(FlagKind.NOT_UNIRULED), replace=True
        )
        cert = certify_h0_adjoint(q5, H)
        assert cert.route == ROUTE_NOT_UNIRULED
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert (cert.rational_bound, cert.integer_bound) == (Fraction(25, 36), 1)

        p3 = get("P3").profile
        adjoint_flags = p3.with_flags(
            flag(FlagKind.AMPLE, 5 * H),
            flag(FlagKind.UNIRULED),
            flag(FlagKind.IRREGULARITY_ZERO),
            flag(FlagKind.PSEUDO_EFFECTIVE, 4 * H),
            flag(FlagKind.NEF_AND_BIG, H),
            replace=True,
        )
        cert = certify_h0_adjoint(adjoint_flags, 5 * H)
        assert cert.route == ROUTE_ANTICANONICAL
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert (cert.rational_bound, cert.integer_bound) == (Fraction(4), 4)

        bare = p3.with_flags(flag(FlagKind.AMPLE, H), replace=True)
        cert = certify_h0_adjoint(bare, H)
        assert cert.conclusion is Conclusion.INCONCLUSIVE and cert.route == ROUTE_NONE

        bs_flags = p3.with_flags(
            flag(FlagKind.AMPLE, 3 * H),
            flag(FlagKind.NEF, 2 * H),
            flag(FlagKind.UNIRULED),
            flag(FlagKind.IRREGULARITY_ZERO),
            replace=True,
        )
        cert = certify_h0_bs(bs_flags, 3 * H)
        assert cert.route == ROUTE_BS_CHI
        assert (cert.rational_bound, cert.integer_bound) == (Fraction(10), 10)

        blp3 = get("BlP3").profile
        fano_a = blp3.named_divisors["A2"]
        fano = blp3.with_flags(
            flag(FlagKind.AMPLE, fano_a),
            flag(FlagKind.NUMERICALLY_TRIVIAL, DivisorExpr.zero()),
            replace=True,
        )
        cert = certify_h0_bs(fano, fano_a)
        assert cert.route == ROUTE_FANO_TRIVIAL
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert cert.rational_bound is None

        q5_bs = get("Q5").profile.with_flags(
            flag(FlagKind.AMPLE, H),
            flag(FlagKind.NEF, 2 * H),
            flag(FlagKind.NOT_UNIRULED),
            replace=True,
        )
        cert = certify_h0_bs(q5_bs, H)
        assert cert.route == ROUTE_NOT_UNIRULED
        assert cert.conclusion is Conclusion.NON_VANISHING
        assert cert.rational_bound == Fraction(115, 18)

        # chi_O <= 0 on the chi-based routes is a hard sign contradiction
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
        assert rigged.validate() == []
        with pytest.raises(FlagContradictionError):
            certify_h0_adjoint(rigged, H)
        rigged_bs = rigged.with_flags(
            flag(FlagKind.AMPLE, H),
            flag(FlagKind.NEF, 4 * H),
            flag(FlagKind.UNIRULED),
            flag(FlagKind.IRREGULARITY_ZERO),
            replace=True,
        )
        with pytest.raises(FlagContradictionError):
            certify_h0_bs(rigged_bs, H)


def test_criterion_9_round_trip():
    with criterion(9, "serialize-parse identity on all catalog entries"):
        for name in ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5", "hypersurface(6)"):
            profile = get(name).profile
            text = serialize_profile(profile)
            reparsed = parse_profile(text)
            assert reparsed == profile
            assert serialize_profile(reparsed) == text
            assert_canonical_fields(profile)
