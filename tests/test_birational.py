import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adjoint3
from adjoint3 import (
    DivisorExpr,
    MissingCurveDegreeError,
    SymbolCollisionError,
    ThreefoldProfile,
    UnknownSymbolError,
    blow_up_curve,
    blow_up_point,
    blowdown_invariance_check,
    chi_line_bundle,
    get,
    parse_profile,
    pull_back,
    serialize_profile,
)
from adjoint3.profile_io import DivisorParseError

import oracle
from conftest import assert_canonical_fields, random_divisor, random_valid_profile
from strategies import blow_up_chains, divisors

H = DivisorExpr.symbol("H")
E = DivisorExpr.symbol("E")


def projective_bundle_over_plane() -> ThreefoldProfile:
    """P(O + O(1)) over the projective plane, from the bundle relations.

    With xi the tautological class and h the pulled-back line, the
    Grothendieck relation gives xi^2 = xi.h, so the nonzero triples are
    xi^3 = xi^2.h = xi.h^2 = 1.  The relative Euler sequence gives
    c(T) = (1+xi)(1+xi-h)(1+3h+3h^2), hence K = -2xi - 2h and
    c2 = 6*xi.h.  This is the blow-up of a point in P3, derived
    independently of the blow-up rules.
    """
    return ThreefoldProfile(
        basis=("xi", "h"),
        triple={
            ("xi", "xi", "xi"): 1,
            ("h", "xi", "xi"): 1,
            ("h", "h", "xi"): 1,
            ("h", "h", "h"): 0,
        },
        c2_vector={"xi": 6, "h": 6},
        chi_O=1,
        canonical=DivisorExpr({"xi": -2, "h": -2}),
    )


def projective_bundle_over_line() -> ThreefoldProfile:
    """P(O + O + O(1)) over the projective line, from the bundle relations.

    With xi tautological and f the pulled-back point class, the
    Grothendieck relation gives xi^3 = xi^2.f = 1 and f^2 = 0; the Euler
    sequence gives c(T) = (1+xi)^2(1+xi-f)(1+2f), hence K = -3xi - f and
    c2 = 3xi^2 + 4xi.f.  This is the blow-up of a line in P3, derived
    independently of the blow-up rules.
    """
    return ThreefoldProfile(
        basis=("xi", "f"),
        triple={
            ("xi", "xi", "xi"): 1,
            ("f", "xi", "xi"): 1,
            ("f", "f", "xi"): 0,
            ("f", "f", "f"): 0,
        },
        c2_vector={"xi": 7, "f": 3},
        chi_O=1,
        canonical=DivisorExpr({"xi": -3, "f": -1}),
    )


class TestPointBlowup:
    def test_canonical_degree_drops_by_eight(self):
        p3 = get("P3").profile
        bl, _ = blow_up_point(p3, "E")
        k = bl.canonical
        assert bl.triple_eval(k, k, k) == -56
        assert bl.validate() == []

    def test_matches_projective_bundle_oracle(self):
        oracle = projective_bundle_over_plane()
        assert oracle.validate() == []
        mk = oracle.canonical
        assert oracle.triple_eval(-mk, -mk, -mk) == 56
        bl, _ = blow_up_point(get("P3").profile, "E")
        k = bl.canonical
        assert bl.triple_eval(-k, -k, -k) == 56

    def test_exceptional_rules(self):
        bl, _ = blow_up_point(get("P3").profile, "E")
        assert bl.triple_eval(E, E, E) == 1
        assert bl.triple_eval(H, E, E) == 0
        assert bl.triple_eval(H, H, E) == 0
        assert bl.c2_pair(E) == 0
        assert bl.c2_pair(bl.canonical) == -24

    def test_blowdown_direction_of_cube(self):
        # A = f*A' - E loses exactly one from the cube: A'^3 = A^3 + 1
        bl, _ = blow_up_point(get("P3").profile, "E")
        a = 3 * H - E
        assert bl.triple_eval(a, a, a) == 26

    def test_symbol_collision(self):
        with pytest.raises(SymbolCollisionError):
            blow_up_point(get("P3").profile, "H")

    @pytest.mark.parametrize("symbol", ["", "E 1", "1E", "\u00c9", "E+F", "E\n", 5])
    def test_exceptional_symbol_is_a_grammar_symbol(self, symbol):
        # a profile file names its symbols in the divisor grammar
        p3 = get("P3").profile
        with pytest.raises(DivisorParseError):
            blow_up_point(p3, symbol)
        with pytest.raises(DivisorParseError):
            blow_up_curve(p3, symbol, genus=0, degrees={"H": 1})

    def test_grammar_symbol_round_trips(self):
        bl, _ = blow_up_point(get("P3").profile, "E_1'")
        assert parse_profile(serialize_profile(bl)) == bl
        # the exceptional pairing is stored, zero as it is, after the parent's
        assert list(bl.c2_vector.items()) == [("H", 6), ("E_1'", 0)]
        assert_canonical_fields(bl)

    @given(st.integers(0, 10**9))
    def test_preserves_validity_and_shifts_cube(self, seed):
        rng = random.Random(seed)
        p = random_valid_profile(rng, max_basis=2)
        bl, _ = blow_up_point(p, "X")
        assert bl.validate() == []
        assert bl.chi_O == p.chi_O
        k_new, k_old = bl.canonical, p.canonical
        assert bl.triple_eval(k_new, k_new, k_new) == p.triple_eval(
            k_old, k_old, k_old
        ) + 8


class TestCurveBlowup:
    def test_line_in_p3(self):
        bl, _ = blow_up_curve(get("P3").profile, "E", genus=0, degrees={"H": 1})
        k = bl.canonical
        assert bl.triple_eval(E, E, E) == -2
        assert bl.triple_eval(k, k, k) == -54
        assert bl.c2_pair(H) == 7
        assert bl.c2_pair(E) == 4
        assert bl.validate() == []

    def test_line_matches_projective_bundle_oracle(self):
        oracle = projective_bundle_over_line()
        assert oracle.validate() == []
        mk = oracle.canonical
        assert oracle.triple_eval(-mk, -mk, -mk) == 54

    def test_quintic_pencil_base_curve(self):
        bl, _ = blow_up_curve(get("P3").profile, "E", genus=76, degrees={"H": 25})
        assert bl.triple_eval(E, E, E) == -250
        assert bl.c2_pair(H) == 31
        assert bl.c2_pair(E) == 100
        assert bl.c2_pair(bl.canonical) == -24
        assert bl.validate() == []

    def test_missing_degree(self):
        with pytest.raises(MissingCurveDegreeError):
            blow_up_curve(get("P3").profile, "E", genus=0, degrees={})

    def test_unknown_degree_symbol(self):
        with pytest.raises(UnknownSymbolError):
            blow_up_curve(get("P3").profile, "E", genus=0, degrees={"H": 1, "X": 2})

    def test_unknown_degree_symbol_before_missing_degree(self):
        # X once went unreported: the missing degree of H was raised first
        with pytest.raises(UnknownSymbolError, match="'X'"):
            blow_up_curve(get("P3").profile, "E", genus=0, degrees={"X": 1})

    def test_negative_genus(self):
        with pytest.raises(ValueError):
            blow_up_curve(get("P3").profile, "E", genus=-1, degrees={"H": 1})

    @given(st.integers(0, 10**9))
    def test_preserves_validity(self, seed):
        rng = random.Random(seed)
        p = random_valid_profile(rng, max_basis=2)
        degrees = {s: Fraction(rng.randint(-4, 8)) for s in p.basis}
        bl, _ = blow_up_curve(p, "X", genus=rng.randint(0, 10), degrees=degrees)
        assert bl.validate() == []
        assert bl.chi_O == p.chi_O


class TestPullBack:
    def test_coefficient_transport(self):
        _, m = blow_up_point(get("P3").profile, "E")
        assert pull_back(m, 2 * H) == 2 * H
        assert pull_back(m, DivisorExpr.zero()).is_zero()

    def test_rejects_source_only_symbols(self):
        _, m = blow_up_point(get("P3").profile, "E")
        with pytest.raises(UnknownSymbolError):
            pull_back(m, E)

    def test_unknown_symbol_does_not_depend_on_hash_seed(self):
        # the symbol named was once the first in frozenset order: X, Z, Y, Z, Z, Z
        # under seeds 1 to 6
        script = (
            "from adjoint3 import DivisorExpr, blow_up_point, get, pull_back\n"
            "X, Y, Z = map(DivisorExpr.symbol, 'XYZ')\n"
            "_, m = blow_up_point(get('P3').profile, 'E')\n"
            "try:\n"
            "    pull_back(m, X + Y + Z)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(adjoint3.__file__).resolve().parents[1])
        for seed in "123456":
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert proc.stdout == "unknown symbol 'X' in pull_back\n"

    @given(st.integers(0, 10**9))
    @settings(deadline=None)
    def test_chi_is_invariant_under_pull_back(self, seed):
        # this single property pins all the c2 transform rules
        rng = random.Random(seed)
        p = random_valid_profile(rng, max_basis=2)
        d = random_divisor(rng, p.basis)
        point_source, point_map = blow_up_point(p, "X")
        assert chi_line_bundle(point_source, pull_back(point_map, d)) == chi_line_bundle(p, d)
        degrees = {s: Fraction(rng.randint(-4, 8)) for s in p.basis}
        curve_source, curve_map = blow_up_curve(
            p, "X", genus=rng.randint(0, 6), degrees=degrees
        )
        assert chi_line_bundle(curve_source, pull_back(curve_map, d)) == chi_line_bundle(p, d)


@settings(max_examples=40, deadline=None)
@given(blow_up_chains(), st.data())
def test_chains_keep_pulled_back_products_and_chi(maps, data):
    # each step against the oracle: pulled-back triple products stay, and so
    # does chi(pi*D + kE) for the k with R pi_* O(kE) = O; chi(pi*D) -
    # chi(pi*D - E) is chi(O_E(pi*D)), as E is a plane over a point and a
    # ruled surface over a curve C of genus g (D.C + 1 - g)
    for m in maps:
        D1, D2, D3 = (data.draw(divisors(m.target.basis)) for _ in range(3))
        pulled = [pull_back(m, D) for D in (D1, D2, D3)]
        assert oracle.triple(m.source, *pulled) == oracle.triple(m.target, D1, D2, D3)
        E = {m.exceptional: 1}
        if m.center is None:
            ks, on_e = (0, 1, 2), 1
        else:
            degrees = dict(m.center.degrees)
            ks, on_e = (0, 1), sum(c * degrees[s] for s, c in D1.items()) + 1 - m.center.genus
        chi = oracle.chi(m.target, D1)
        for k in ks:
            assert oracle.chi(m.source, oracle.comb((1, D1), (k, E))) == chi
        assert chi - oracle.chi(m.source, oracle.comb((1, D1), (-1, E))) == on_e


class TestBlowdownInvariance:
    def test_p3_with_ample_triple(self):
        p3 = get("P3").profile
        _, m = blow_up_point(p3, "E")
        assert blowdown_invariance_check(m, 3 * H) == (True, True)
        value = p3.triple_eval(
            p3.canonical + 6 * H, 3 * H, p3.canonical + Fraction(15, 4) * H
        )
        assert value == Fraction(-3, 2)

    def test_numerically_trivial_adjoint_case(self):
        p3 = get("P3").profile
        _, m = blow_up_point(p3, "E")
        assert blowdown_invariance_check(m, 2 * H) == (True, True)
        assert p3.triple_eval(
            p3.canonical + 4 * H, 2 * H, p3.canonical + Fraction(10, 4) * H
        ) == 0

    def test_rejects_curve_maps(self):
        _, m = blow_up_curve(get("P3").profile, "E", genus=0, degrees={"H": 1})
        with pytest.raises(ValueError):
            blowdown_invariance_check(m, H)

    @given(st.integers(0, 10**9))
    def test_always_true_on_random_profiles(self, seed):
        rng = random.Random(seed)
        p = random_valid_profile(rng, max_basis=2)
        _, m = blow_up_point(p, "X")
        a = random_divisor(rng, p.basis)
        assert blowdown_invariance_check(m, a) == (True, True)


class TestFlagAndNameTransport:
    def test_variety_flags_survive_divisor_flags_drop(self):
        p3 = get("P3").profile  # Uniruled, IrregularityZero, Ample(H), psef(4H)
        bl, _ = blow_up_point(p3, "E")
        kinds = {f.kind.value for f in bl.flags}
        assert kinds == {"Uniruled", "IrregularityZero"}

    def test_named_divisors_transport_as_pull_backs(self):
        p3 = get("P3").profile
        bl, _ = blow_up_point(p3, "E")
        assert bl.named_divisors["H"] == H
