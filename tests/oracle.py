"""Each public evaluation of a profile, written from its defining formula.

Plain `Fraction` loops over the stored data: the triple tensor `p.triple`
(each key name-sorted, standing for every order of its symbols), the c2
vector and chi_O.  A divisor is read as a plain symbol -> coefficient
mapping, and linear combinations of divisors are taken here, so nothing
below goes through the ring, the integer kernel or the library's own
divisor arithmetic.  Products of divisors and substitutions into ring
expressions are expanded term by term here too, into plain dicts.  The
tests compare the library's results with these, value and type.
"""

from fractions import Fraction
from itertools import permutations, product
from math import prod

_ZERO = Fraction(0)


def _coeffs(d):
    """A divisor (`DivisorExpr` or mapping) as a plain mapping."""
    return getattr(d, "coefficients", d)


def comb(*terms):
    """The sum of ``q * d`` over ``(q, d)`` pairs, as a plain dict."""
    out = {}
    for q, d in terms:
        for s, c in _coeffs(d).items():
            out[s] = out.get(s, _ZERO) + q * c
    return out


def triple(p, d1, d2, d3):
    """D1.D2.D3: the trilinear extension of the stored tensor."""
    d1, d2, d3 = map(_coeffs, (d1, d2, d3))
    total = _ZERO
    for key, v in p.triple.items():
        for x, y, z in set(permutations(key)):
            total += d1.get(x, 0) * d2.get(y, 0) * d3.get(z, 0) * v
    return total


def c2(p, d):
    """c2.D: the linear extension of the c2 vector."""
    return sum((c * p.c2_vector[s] for s, c in _coeffs(d).items()), _ZERO)


def number(p, n):
    """A `NumberExpr` on ``p``: its cubic monomials, c2 pairings, chi_O
    multiple and constant, term by term."""
    total = n.constant + n.chi_o_coeff * p.chi_O
    for key, v in n.cubic_terms.items():
        total += v * p.triple.get(key, _ZERO)
    for s, v in n.c2_pairings.items():
        total += v * p.c2_vector[s]
    return total


def chi(p, D):
    """chi(D) = D^3/6 - K.D^2/4 + (K^2 + c2).D/12 + chi_O."""
    K = p.canonical
    return (
        triple(p, D, D, D) / 6
        - triple(p, K, D, D) / 4
        + (triple(p, K, K, D) + c2(p, D)) / 12
        + p.chi_O
    )


# the four bounds, as their docstrings in `bounds.py` state them, and the
# numbers the certifiers' guarded routes need, besides chi_O >= 1: -K.(K+A)^2
# nonnegative (anticanonical) and (K+2A).A^2 positive (uniruled and regular)


def anticanonical_guard(p, A):
    """-K.(K+A)^2."""
    ka = comb((1, p.canonical), (1, A))
    return triple(p, comb((-1, p.canonical)), ka, ka)


def bs_guard(p, A):
    """(K+2A).A^2."""
    return triple(p, comb((1, p.canonical), (2, A)), A, A)


def fukuma_ka(p, A):
    """1/18 * (K+2A).A.(K + 5/4 A)."""
    K = p.canonical
    return triple(p, comb((1, K), (2, A)), A, comb((1, K), (Fraction(5, 4), A))) / 18


def fukuma_gap(p, A):
    """1/12 * [A.(K+2A).(K + 19/3 A) + A^3]."""
    K = p.canonical
    cubic = triple(p, A, comb((1, K), (2, A)), comb((1, K), (Fraction(19, 3), A)))
    return (cubic + triple(p, A, A, A)) / 12


def nefbig(p, A):
    """-1/2 * K.(K+A)^2 + 2 * chi_O."""
    return anticanonical_guard(p, A) / 2 + 2 * p.chi_O


def bs(p, A):
    """1/2 * (K+2A).A^2 + chi_O."""
    return bs_guard(p, A) / 2 + p.chi_O


def miyaoka(p, A, H):
    """Both sides of Miyaoka's inequality: H.c2 and -H.(2/3 K.A + 1/3 A^2)."""
    K = p.canonical
    return c2(p, H), -(2 * triple(p, H, K, A) + triple(p, H, A, A)) / 3


# expansions in the free commutative ring on the symbols, as plain dicts
# from sorted monomials to nonzero coefficients


def expand(*divisors):
    """The product of ``divisors``, term by term."""
    acc = {}
    for factors in product(*(_coeffs(d).items() for d in divisors)):
        key = tuple(sorted(s for s, _ in factors))
        acc[key] = acc.get(key, _ZERO) + prod(c for _, c in factors)
    return {k: v for k, v in acc.items() if v}


def _substituted(terms, mapping):
    # each key's symbols replaced by their divisors, the rest kept
    acc = {}
    for key, v in terms.items():
        for mono, c in expand(*(mapping.get(s, {s: 1}) for s in key)).items():
            acc[mono] = acc.get(mono, _ZERO) + v * c
    return {k: v for k, v in acc.items() if v}


def class_substitute(expr, mapping):
    """`ClassExpr.substitute` as (degree, terms, c2 atom coefficient)."""
    return expr.degree, _substituted(expr.terms, mapping), expr.c2_atom_coeff


def number_substitute(expr, mapping):
    """`NumberExpr.substitute` as (cubic terms, c2 pairings, chi_O
    coefficient, constant): a pairing c2.s is linear in s."""
    pairings = _substituted({(s,): v for s, v in expr.c2_pairings.items()}, mapping)
    return (
        _substituted(expr.cubic_terms, mapping),
        {s: v for (s,), v in pairings.items()},
        expr.chi_o_coeff,
        expr.constant,
    )
