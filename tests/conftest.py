import json
import random
from fractions import Fraction

from hypothesis import Phase, settings

from adjoint3 import DivisorExpr, ThreefoldProfile, parse_profile, serialize_profile
from adjoint3.core import rat

# Hypothesis's explain phase re-runs a shrunk failing example hundreds of
# times to mark the parts that may vary; that took about 40 s a failing
# test, against seconds for finding and shrinking it.  The shrunk example
# is reported without it.
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")

BASIS_POOL = ("H", "E", "G")


def random_valid_profile(rng: random.Random, max_basis: int = 3) -> ThreefoldProfile:
    """A random profile that passes validation.

    The triple tensor, canonical class and chi_O are drawn freely; one c2
    coordinate is then solved from the canonical pairing so the profile is
    consistent.  A zero canonical class forces chi_O = 0.
    """
    n = rng.randint(1, max_basis)
    basis = BASIS_POOL[:n]
    triple = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                triple[(basis[i], basis[j], basis[k])] = Fraction(rng.randint(-6, 6))
    k_coeffs = [rng.randint(-5, 5) for _ in range(n)]
    c2 = [Fraction(rng.randint(-10, 10)) for _ in range(n)]
    if any(k_coeffs):
        chi = rng.randint(-3, 3)
        pivot = next(i for i, c in enumerate(k_coeffs) if c != 0)
        rest = sum(Fraction(k_coeffs[i]) * c2[i] for i in range(n) if i != pivot)
        c2[pivot] = (Fraction(-24 * chi) - rest) / k_coeffs[pivot]
    else:
        chi = 0
    return ThreefoldProfile(
        basis=basis,
        triple=triple,
        c2_vector=dict(zip(basis, c2)),
        chi_O=chi,
        canonical=DivisorExpr(zip(basis, k_coeffs)),
    )


def random_divisor(rng: random.Random, basis, span: int = 5) -> DivisorExpr:
    return DivisorExpr(
        {
            s: Fraction(rng.randint(-span, span), rng.randint(1, 4))
            for s in basis
        }
    )


def assert_canonical_fields(p: ThreefoldProfile) -> None:
    """``p`` keeps its c2 vector over the whole basis, in basis order, with the
    values its file's ``c2`` list holds, and its named divisors by name; the
    profile read back from its file holds both items in the same order."""
    assert list(p.c2_vector) == list(p.basis)
    text = serialize_profile(p)
    assert [rat(v) for v in json.loads(text)["c2"]] == list(p.c2_vector.values())
    assert list(p.named_divisors) == sorted(p.named_divisors)
    back = parse_profile(text)
    assert list(back.c2_vector.items()) == list(p.c2_vector.items())
    assert list(back.named_divisors.items()) == list(p.named_divisors.items())
