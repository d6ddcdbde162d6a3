from fractions import Fraction

import pytest

from adjoint3 import (
    DivisorExpr,
    UnknownEntryError,
    WitnessNotFoundError,
    bad_anticanonical_witness,
    check_expected,
    get,
    hypersurface,
    names,
)

H = DivisorExpr.symbol("H")
E = DivisorExpr.symbol("E")

ALL_NAMES = ("P3", "Q5", "BlP3", "BlLineP3", "Pencil5", "hypersurface(6)")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_entry_validates(name):
    assert get(name).profile.validate() == []


@pytest.mark.parametrize("name", ALL_NAMES)
def test_expected_values_hold(name):
    assert check_expected(get(name)) == []


def test_unreadable_descriptions_are_reported():
    entry = get("P3")._replace(expected_values=(("nonsense", 1), ("chi(H", 1), ("chi(H)", 4)))
    assert check_expected(entry) == [
        "P3: unreadable description 'nonsense'",
        "P3: unreadable description 'chi(H'",
    ]


def test_hypersurface_degree_one_is_p3():
    assert get("hypersurface(1)").profile == get("P3").profile


def test_hypersurface_family_values():
    q5 = hypersurface(5)
    assert q5.profile.canonical.is_zero()
    assert q5.profile.chi_O == 0
    assert q5.profile.c2_vector["H"] == 50
    sextic = hypersurface(6)
    assert sextic.profile.canonical == H
    assert sextic.profile.chi_O == -4
    assert sextic.profile.c2_vector["H"] == 96


def test_hypersurface_rejects_bad_degrees():
    with pytest.raises(ValueError):
        hypersurface(0)


def test_q5_alias():
    assert get("Q5").profile == get("hypersurface(5)").profile


def test_unknown_entry():
    with pytest.raises(UnknownEntryError):
        get("P4")


def test_names_are_resolvable():
    for name in names():
        assert get(name).profile.validate() == []


class TestPencilFiberClass:
    def test_fiber_numerics(self):
        p = get("Pencil5").profile
        f = p.named_divisors["F"]
        assert f == 5 * H - E
        assert p.triple_eval(f, f, f) == 0
        assert p.triple_eval(f, f, H) == 0
        assert p.triple_eval(p.canonical, f, H) == 5
        assert p.triple_eval(p.canonical, f, f) == 0
        assert p.triple_eval(p.canonical, H, H) == -4

    def test_witness_default_scan(self):
        entry = get("Pencil5")
        eps, value = bad_anticanonical_witness(entry)
        assert (eps, value) == (Fraction(1, 2), 4)
        # K.(F+eps H)^2 = 10 eps - 4 eps^2 for this profile
        assert value == 10 * eps - 4 * eps * eps

    def test_witness_explicit_eps(self):
        entry = get("Pencil5")
        eps, value = bad_anticanonical_witness(entry, [Fraction(1, 10)])
        assert (eps, value) == (Fraction(1, 10), Fraction(24, 25))

    def test_witness_rejects_nonpositive_eps(self):
        # eps = 0 once reported K.F^2 as a witness, with no ample class behind it
        for eps in (0, Fraction(-1, 2)):
            with pytest.raises(ValueError):
                bad_anticanonical_witness(get("Pencil5"), [Fraction(1, 2), eps])

    def test_witness_scan_can_fail(self):
        p3 = get("P3").profile.with_named_divisors(F=-1 * H)
        # K.(F + eps H)^2 = -4 (eps - 1)^2 <= 0 for every eps
        with pytest.raises(WitnessNotFoundError):
            bad_anticanonical_witness(p3)

    def test_witness_requires_fiber_name(self):
        with pytest.raises(UnknownEntryError):
            bad_anticanonical_witness(get("P3").profile)

    def test_expansion_shape_of_the_pairing(self):
        # K.(F+eps H)^2 = K.F^2 + 2 eps K.F.H + eps^2 K.H^2, and K.F^2 = 0
        p = get("Pencil5").profile
        f, k = p.named_divisors["F"], p.canonical
        for eps in (Fraction(1, 2), Fraction(1, 7), Fraction(3, 5)):
            candidate = f + eps * H
            assert p.triple_eval(k, candidate, candidate) == 10 * eps - 4 * eps**2

    def test_expansion_shape_is_a_symbolic_identity(self):
        # the trinomial expansion behind the witness scan, proved in the ring
        from adjoint3 import expand_divisors, identity_check

        k = DivisorExpr.symbol("K")
        f = DivisorExpr.symbol("F")
        for eps in (Fraction(1, 2), Fraction(2, 9)):
            lhs = expand_divisors(k, f + eps * H, f + eps * H)
            rhs = (
                expand_divisors(k, f, f)
                + (2 * eps) * expand_divisors(k, f, H)
                + eps**2 * expand_divisors(k, H, H)
            )
            assert identity_check(lhs, rhs)


def test_provenance_is_informative():
    for name in ALL_NAMES:
        entry = get(name)
        assert len(entry.provenance) > 40
        assert entry.expected_values
