"""Exact intersection-theory calculator for adjoint-bundle section bounds
on smooth projective threefolds.

The package computes Euler characteristics of line bundles, Chern classes
of rationally twisted bundles, effective lower bounds on the number of
sections of the adjoint classes K + A and K + 2A, transports numerical
profiles across blow-ups, and proves the underlying rational identities
symbolically in a truncated graded ring.  All arithmetic is exact.

The names in ``__all__`` are re-exported lazily (PEP 562), so that
``import adjoint3`` loads no submodule and a cold command-line run
compiles only the modules it uses.  The exports guarantee:

* each name in ``__all__`` is the very object its defining submodule
  holds, and ``from adjoint3 import *`` and ``dir(adjoint3)`` see them all;
* the first access to any of them imports every submodule and binds every
  name at once, as an eager ``__init__`` would, only later; after that no
  lookup goes through this module's ``__getattr__`` again;
* a submodule (``adjoint3.core``, ...) is an attribute once it has been
  imported, by ``import adjoint3.core`` or by that first access.
"""

__version__ = "0.1.0"

# the exported names of each submodule, in import order
_EXPORTS = {
    "core": (
        "CalcError",
        "ClassExpr",
        "DegreeOverflowError",
        "DivisorExpr",
        "DoubleC2AtomError",
        "NumberExpr",
        "Rational",
        "UnknownSymbolError",
        "expand_divisors",
        "expand_product",
        "format_rational",
        "identity_check",
        "rat",
    ),
    "profile": (
        "FlagContradictionError",
        "FlagKind",
        "MissingFlagError",
        "NonIntegerChiError",
        "PositivityFlag",
        "ThreefoldProfile",
        "flag",
    ),
    "twist": ("QTwistedBundle", "cotangent_twisted_c2", "twist_c1", "twist_c2"),
    "riemann_roch": (
        "ChiExpression",
        "chi_O_consistency",
        "chi_class",
        "chi_expression",
        "chi_identity_suite",
        "chi_line_bundle",
        "h0_lower_bound_from_chi",
    ),
    "bounds": (
        "BASEPOINTFREE",
        "BOUND_RULES",
        "CH02_THM42",
        "Certificate",
        "Conclusion",
        "FANO_TRIVIAL",
        "KA00_THM31",
        "MiyaokaTest",
        "PairingTest",
        "bound_bs",
        "bound_fukuma_gap",
        "bound_fukuma_ka",
        "bound_nefbig",
        "bs_class",
        "certify_h0_adjoint",
        "certify_h0_bs",
        "fukuma_gap_class",
        "fukuma_ka_class",
        "generic_nef_pairing_test",
        "miyaoka_c2_inequality",
        "miyaoka_correction",
        "nefbig_class",
    ),
    "birational": (
        "BlowupMap",
        "CurveCenter",
        "MissingCurveDegreeError",
        "SymbolCollisionError",
        "blow_up_curve",
        "blow_up_point",
        "blowdown_invariance_check",
        "pull_back",
    ),
    "catalog": (
        "CatalogEntry",
        "UnknownEntryError",
        "WitnessNotFoundError",
        "bad_anticanonical_witness",
        "check_expected",
        "get",
        "hypersurface",
        "names",
    ),
    "profile_io": (
        "DivisorParseError",
        "ProfileFormatError",
        "format_divisor",
        "load_profile",
        "parse_divisor",
        "parse_profile",
        "resolve_divisor",
        "save_profile",
        "serialize_profile",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    # Only exported names load the package: a submodule name must fall
    # through to the import system, which `from . import catalog` relies on.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bind every name in one go, so that from then on this namespace is what
    # an eager import makes it.  Binding one name per first access would let
    # a name be bound while a tracer has wrapped the submodule's functions,
    # and keep the wrapper once the tracer is gone.
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        submodule = import_module(f".{module}", __name__)
        namespace.update((n, getattr(submodule, n)) for n in names)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
