import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import adjoint3
from adjoint3 import profile as profile_module
from adjoint3 import (
    DivisorExpr,
    FlagKind,
    MissingFlagError,
    NumberExpr,
    ProfileFormatError,
    ThreefoldProfile,
    UnknownSymbolError,
    expand_divisors,
    flag,
    format_divisor,
    get,
    parse_profile,
    resolve_divisor,
    serialize_profile,
)

from conftest import random_divisor, random_valid_profile

H = DivisorExpr.symbol("H")
E = DivisorExpr.symbol("E")


def p3_profile(**overrides):
    fields = dict(
        basis=("H",),
        triple={("H", "H", "H"): 1},
        c2_vector={"H": 6},
        chi_O=1,
        canonical=-4 * H,
    )
    fields.update(overrides)
    return ThreefoldProfile(**fields)


class TestValidation:
    def test_consistent_profile_is_clean(self):
        assert p3_profile().validate() == []

    def test_chiox_violation(self):
        violations = p3_profile(chi_O=2).validate()
        assert violations == ["chiox inconsistency: -24 != -48"]

    def test_symmetry_violation(self):
        # two orders of one triple with different values are rejected at the door
        with pytest.raises(ValueError, match=r"triple \('E', 'H', 'H'\) is given two values, 1 and 2"):
            ThreefoldProfile(
                basis=("H", "E"),
                triple={("H", "H", "E"): 1, ("H", "E", "H"): 2},
                c2_vector={"H": 6},
                chi_O=1,
                canonical=-4 * H,
            )

    def test_non_integer_chi(self):
        p = p3_profile(chi_O=Fraction(1, 2), c2_vector={"H": 3})
        assert any("integer" in v for v in p.validate())

    def test_unknown_symbols_reported(self):
        # the constructor rejects a profile naming a symbol outside its basis,
        # naming the first offender in the order validate once listed them
        X, Y, Z, W = (DivisorExpr.symbol(s) for s in "XYZW")
        clean = dict(c2_vector={"H": 6}, canonical=-4 * H, named_divisors={}, flags=())
        stray = dict(
            c2_vector={"H": 6, "Y": 1, "X": 1},  # in the mapping's order
            canonical=-4 * H + Z + X,  # a divisor's symbols in sorted order
            named_divisors={"ok": H, "b": W, "a": Y + X},  # by name
            flags=[flag(FlagKind.NEF, 2 * X), flag(FlagKind.BIG, H + W)],  # by text
        )
        expected = [
            "unknown symbol 'Y' in c2 vector",
            "unknown symbol 'X' in canonical class",
            "unknown symbol 'X' in named divisor 'a'",
            "unknown symbol 'W' in flag Big(H + W)",
        ]
        for at, message in enumerate(expected):
            # the offending fields from this one on; the ones before are clean
            fields = {name: stray[name] if i >= at else value
                      for i, (name, value) in enumerate(clean.items())}
            with pytest.raises(UnknownSymbolError) as raised:
                p3_profile(**fields)
            assert str(raised.value) == message
            assert isinstance(raised.value, ValueError)
        # an off-basis triple key is rejected too, before any other field
        with pytest.raises(ValueError, match=r"triple key \('H', 'H', 'X'\) is not three basis symbols"):
            ThreefoldProfile(basis=("H",), triple={("H", "H", "X"): 1}, canonical=Z)

    def test_unknown_symbol_in_a_flag_subject(self):
        # copies check what they add, as the constructor checks it; only the
        # offending flags are sorted, by their text
        X, Y = DivisorExpr.symbol("X"), DivisorExpr.symbol("Y")
        p3 = get("P3").profile
        flags = (
            flag(FlagKind.NEF, 2 * X),
            flag(FlagKind.NEF_AND_BIG, 2 * H),
            flag(FlagKind.BIG, H + Y + X),
        )
        message = "unknown symbol 'X' in flag Big(H + X + Y)"
        for call in (
            lambda: p3.with_flags(*flags, replace=True),
            lambda: p3.with_flags(*flags),
            lambda: p3_profile(flags=flags),
        ):
            with pytest.raises(UnknownSymbolError) as raised:
                call()
            assert str(raised.value) == message
        with pytest.raises(UnknownSymbolError, match=r"^unknown symbol 'X' in flag Ample\(H \+ X\)$"):
            p3.with_flags(flag(FlagKind.AMPLE, H + X))
        with pytest.raises(UnknownSymbolError, match=r"^unknown symbol 'X' in named divisor 'a'$"):
            p3.with_named_divisors(b=Y, a=X, c=H)
        # a clean flag or divisor adds nothing, and the parent is unchanged
        assert p3.with_flags(flags[1]).validate() == []
        assert p3.with_named_divisors(a=2 * H).named_divisors["a"] == 2 * H
        assert "a" not in p3.named_divisors and flags[1] not in p3.flags

    @pytest.mark.parametrize("names", [[1], ["A", 1]], ids=["int", "mixed"])
    def test_named_divisor_name_that_is_not_a_string_rejected(self, names):
        # an int name once serialized under "1" and read back as another
        # profile; names of mixed types raised a bare TypeError from the sort
        with pytest.raises(ValueError, match=r"^named divisor name 1 is not a string$"):
            p3_profile(named_divisors={name: H for name in names})
        # the name as a profile file holds it reads back as the same profile
        p = p3_profile(named_divisors={"1": H})
        assert parse_profile(serialize_profile(p)) == p

    def test_duplicate_basis_rejected(self):
        with pytest.raises(ValueError):
            ThreefoldProfile(basis=("H", "H"), triple={})

    @pytest.mark.parametrize("symbol", ["\u00c9", "E 1", "1E"])
    def test_basis_symbol_outside_the_grammar_rejected(self, symbol):
        # each once made a profile whose file did not read back: the text of
        # '\u00c9' failed to parse, and that of 'E 1' read K back on 'E1'
        with pytest.raises(ValueError, match="does not match"):
            ThreefoldProfile(
                basis=(symbol,),
                triple={(symbol,) * 3: 1},
                canonical=DivisorExpr.symbol(symbol, -4),
            )
        obj = json.loads(serialize_profile(get("P3").profile))
        obj["basis"] = [symbol]
        with pytest.raises(ProfileFormatError, match="'basis' must"):
            parse_profile(json.dumps(obj))


class TestEvaluation:
    def test_triple_eval_on_p3(self):
        p = p3_profile()
        assert p.triple_eval(H, H, H) == 1
        k = p.canonical
        assert p.triple_eval(k, k, k) == -64

    def test_triple_eval_zero_argument(self):
        p = p3_profile()
        assert p.triple_eval(DivisorExpr.zero(), H, H) == 0

    def test_triple_eval_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            p3_profile().triple_eval(E, H, H)

    def test_unknown_symbol_named_is_the_first_in_order(self):
        # frozenset order once picked X, Z or Y depending on PYTHONHASHSEED
        src = str(Path(adjoint3.__file__).resolve().parents[1])
        script = (
            "from adjoint3 import DivisorExpr, NumberExpr, UnknownSymbolError, get\n"
            "p = get('P3').profile\n"
            "d = DivisorExpr({'X': 1, 'Y': 1, 'Z': 1})\n"
            "for call in (lambda: p.number_eval(NumberExpr({('X', 'Y', 'Z'): 1})),\n"
            "             lambda: p.triple_eval(d, d, d)):\n"
            "    try:\n"
            "        call()\n"
            "    except UnknownSymbolError as exc:\n"
            "        print(exc)\n"
        )
        for seed in ("1", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert proc.stdout.splitlines() == [
                "unknown symbol 'X' in number_eval",
                "unknown symbol 'X' in triple_eval argument 1",
            ]

    def test_c2_pairing(self):
        p = p3_profile()
        assert p.c2_pair(H) == 6
        assert p.c2_pair(p.canonical) == -24
        assert p.c2_pair(DivisorExpr.zero()) == 0

    def test_number_eval_atoms(self):
        p = p3_profile()
        assert p.number_eval(NumberExpr.chi_o_atom()) == 1
        assert p.number_eval(NumberExpr.zero()) == 0
        assert p.number_eval(NumberExpr.const(Fraction(7, 2))) == Fraction(7, 2)

    @given(st.integers(0, 10**9))
    def test_triple_eval_symmetric_and_trilinear(self, seed):
        rng = random.Random(seed)
        p = random_valid_profile(rng)
        d1, d2, d3 = (random_divisor(rng, p.basis) for _ in range(3))
        value = p.triple_eval(d1, d2, d3)
        assert value == p.triple_eval(d3, d1, d2) == p.triple_eval(d2, d3, d1)
        s = Fraction(rng.randint(-3, 3))
        extra = random_divisor(rng, p.basis)
        assert p.triple_eval(s * d1 + extra, d2, d3) == s * value + p.triple_eval(
            extra, d2, d3
        )

    @given(st.integers(0, 10**9))
    def test_symbolic_numeric_soundness(self, seed):
        # an identity accepted symbolically evaluates equal on any profile
        rng = random.Random(seed)
        p = random_valid_profile(rng)
        a = random_divisor(rng, p.basis)
        k_cls = DivisorExpr.symbol("K")
        a_cls = DivisorExpr.symbol("A")
        lhs = expand_divisors(k_cls + 2 * a_cls, a_cls, a_cls)
        rhs = (
            expand_divisors(a_cls, a_cls, k_cls)
            + 2 * expand_divisors(a_cls, a_cls, a_cls)
        )
        mapping = {"K": p.canonical, "A": a}
        assert p.number_eval(lhs.substitute(mapping)) == p.number_eval(
            rhs.substitute(mapping)
        )


class TestFlags:
    def test_equality_hash_and_repr_are_those_of_the_record(self):
        # as they were while PositivityFlag was a frozen dataclass
        ample = flag(FlagKind.AMPLE, H)
        assert ample == flag("Ample", DivisorExpr.symbol("H")) and ample != flag(FlagKind.NEF, H)
        assert hash(ample) == hash((FlagKind.AMPLE, H))
        assert ample != (FlagKind.AMPLE, H)
        assert repr(ample) == "PositivityFlag(kind=<FlagKind.AMPLE: 'Ample'>, subject=DivisorExpr(H))"
        assert (str(ample), str(flag(FlagKind.UNIRULED))) == ("Ample(H)", "Uniruled")

    def test_variety_level_flags_take_no_subject(self):
        with pytest.raises(ValueError):
            flag(FlagKind.UNIRULED, H)
        with pytest.raises(ValueError):
            flag(FlagKind.AMPLE)

    def test_satisfaction_closure(self):
        p = p3_profile(flags=(flag(FlagKind.AMPLE, H),))
        for kind in (
            FlagKind.AMPLE,
            FlagKind.NEF,
            FlagKind.BIG,
            FlagKind.NEF_AND_BIG,
            FlagKind.PSEUDO_EFFECTIVE,
            FlagKind.GENERICALLY_NEF,
        ):
            assert p.satisfies(kind, H)
        assert not p.satisfies(FlagKind.NUMERICALLY_TRIVIAL, H)
        assert not p.satisfies(FlagKind.AMPLE, 2 * H)  # no rescaling closure

    def test_numerically_trivial_implies_nef(self):
        p = p3_profile(flags=(flag(FlagKind.NUMERICALLY_TRIVIAL, DivisorExpr.zero()),))
        assert p.satisfies(FlagKind.NEF, DivisorExpr.zero())
        assert p.satisfies(FlagKind.PSEUDO_EFFECTIVE, DivisorExpr.zero())

    def test_nef_flag_does_not_imply_big(self):
        p = p3_profile(flags=(flag(FlagKind.NEF, H),))
        assert not p.satisfies(FlagKind.BIG, H)
        assert not p.satisfies(FlagKind.NEF_AND_BIG, H)

    def test_find_flag_prefers_exact_kind(self):
        declared_nef = flag(FlagKind.NEF, H)
        p = p3_profile(flags=(flag(FlagKind.AMPLE, H), declared_nef))
        assert p.find_flag(FlagKind.NEF, H) == declared_nef

    def test_find_flag_picks_the_implying_flag_that_sorts_first(self):
        # once the first implying flag met in frozenset order, which moves
        # with PYTHONHASHSEED; several subjects make a lucky pass unlikely
        implying = (
            FlagKind.NUMERICALLY_TRIVIAL,
            FlagKind.NEF,
            FlagKind.BIG,
            FlagKind.NEF_AND_BIG,
            FlagKind.AMPLE,
        )
        subjects = [k * H for k in range(1, 5)]
        p = p3_profile(flags=[flag(kind, s) for s in subjects for kind in implying])
        for s in subjects:
            assert p.find_flag(FlagKind.PSEUDO_EFFECTIVE, s) == flag(FlagKind.AMPLE, s)
            assert p.find_flag(FlagKind.NEF, s) == flag(FlagKind.NEF, s)
            assert p.find_flag(FlagKind.BIG, s) == flag(FlagKind.BIG, s)
        assert p.find_flag(FlagKind.PSEUDO_EFFECTIVE, 5 * H) is None

    def test_find_flag_matches_an_equal_but_distinct_subject(self):
        declared = flag(FlagKind.NEF, DivisorExpr({"H": Fraction(3, 2)}))
        p = p3_profile(flags=(declared,))
        for subject in (H + Fraction(1, 2) * H, DivisorExpr([("H", 1), ("H", "1/2")])):
            assert subject is not declared.subject
            assert p.find_flag(FlagKind.NEF, subject) is declared
            assert p.find_flag(FlagKind.PSEUDO_EFFECTIVE, subject) is declared

    def test_derived_implications_equal_the_written_table(self):
        # the hand-written table the derived closure replaced
        reference = {
            FlagKind.AMPLE: {
                FlagKind.NEF_AND_BIG,
                FlagKind.NEF,
                FlagKind.BIG,
                FlagKind.PSEUDO_EFFECTIVE,
                FlagKind.GENERICALLY_NEF,
            },
            FlagKind.NEF_AND_BIG: {
                FlagKind.NEF,
                FlagKind.BIG,
                FlagKind.PSEUDO_EFFECTIVE,
                FlagKind.GENERICALLY_NEF,
            },
            FlagKind.NEF: {FlagKind.PSEUDO_EFFECTIVE, FlagKind.GENERICALLY_NEF},
            FlagKind.BIG: {FlagKind.PSEUDO_EFFECTIVE, FlagKind.GENERICALLY_NEF},
            FlagKind.PSEUDO_EFFECTIVE: {FlagKind.GENERICALLY_NEF},
            FlagKind.NUMERICALLY_TRIVIAL: {
                FlagKind.NEF,
                FlagKind.PSEUDO_EFFECTIVE,
                FlagKind.GENERICALLY_NEF,
            },
        }
        assert profile_module._KIND_IMPLIES == {k: frozenset(v) for k, v in reference.items()}

    def test_require_flag(self):
        ample = flag(FlagKind.AMPLE, H)
        p = p3_profile(flags=(ample,))
        assert p.require_flag(FlagKind.NEF, H) == ample
        with pytest.raises(MissingFlagError) as info:
            p.require_flag(FlagKind.NEF, 2 * H)
        assert (info.value.kind, info.value.subject) == (FlagKind.NEF, 2 * H)
        with pytest.raises(MissingFlagError) as info:
            p.require_flag("NotUniruled")
        assert (info.value.kind, info.value.subject) == (FlagKind.NOT_UNIRULED, None)

    def test_with_flags_copies(self):
        p = p3_profile()
        augmented = p.with_flags(flag(FlagKind.UNIRULED))
        assert flag(FlagKind.UNIRULED) in augmented.flags
        assert not p.flags
        replaced = augmented.with_flags(flag(FlagKind.AMPLE, H), replace=True)
        assert flag(FlagKind.UNIRULED) not in replaced.flags


class TestStructuralEquality:
    def test_profiles_compare_by_content(self):
        assert p3_profile() == p3_profile()
        assert p3_profile() != p3_profile(chi_O=0, c2_vector={"H": 0})
        assert get("P3").profile == get("hypersurface(1)").profile

    def test_symmetrised_storage_does_not_affect_equality(self):
        a = ThreefoldProfile(
            basis=("H", "E"),
            triple={("E", "H", "H"): 2},
            c2_vector={},
            chi_O=0,
            canonical=DivisorExpr.zero(),
        )
        b = ThreefoldProfile(
            basis=("H", "E"),
            triple={("H", "E", "H"): 2},
            c2_vector={},
            chi_O=0,
            canonical=DivisorExpr.zero(),
        )
        assert a == b


def _k_in_the_basis() -> ThreefoldProfile:
    return ThreefoldProfile(basis=("H", "K"), triple={("H", "H", "H"): 1}, canonical={"H": -4})


@pytest.mark.parametrize(
    "profile, text, expected",
    [
        pytest.param(lambda: get("P3").profile, "K", "-4/1*H", id="P3-K"),
        pytest.param(lambda: get("P3").profile, "2K + H", "-7/1*H", id="P3-expression"),
        pytest.param(_k_in_the_basis, "K", "1/1*K", id="basis-K"),
        pytest.param(_k_in_the_basis, "2K + H", "1/1*H + 2/1*K", id="basis-K-expression"),
        pytest.param(
            lambda: get("P3").profile.with_named_divisors(K={"H": 2}), "K", "2/1*H", id="named-K"
        ),
        pytest.param(
            lambda: get("P3").profile.with_named_divisors(K={"H": 2}),
            "2K + H",
            "5/1*H",
            id="named-K-expression",
        ),
        pytest.param(lambda: get("BlP3").profile, "2*A2 + H", "5/1*H - 2/1*E", id="named-in-expression"),
    ],
)
def test_resolve_divisor(profile, text, expected):
    # K is the canonical class unless a basis symbol or a named divisor takes the name
    p = profile()
    assert format_divisor(resolve_divisor(p, text), p.basis) == expected
