"""Exact intersection-theory calculator for adjoint-bundle section bounds
on smooth projective threefolds.

The package computes Euler characteristics of line bundles, Chern classes
of rationally twisted bundles, effective lower bounds on the number of
sections of the adjoint classes K + A and K + 2A, transports numerical
profiles across blow-ups, and proves the underlying rational identities
symbolically in a truncated graded ring.  All arithmetic is exact.
"""

from .core import (
    CalcError,
    ClassExpr,
    DegreeOverflowError,
    DivisorExpr,
    DoubleC2AtomError,
    NumberExpr,
    Rational,
    UnknownSymbolError,
    expand_divisors,
    expand_product,
    format_rational,
    identity_check,
    rat,
)
from .profile import (
    FlagContradictionError,
    FlagKind,
    MissingFlagError,
    PositivityFlag,
    ThreefoldProfile,
    flag,
)
from .twist import QTwistedBundle, cotangent_twisted_c2, twist_c1, twist_c2
from .riemann_roch import (
    ChiExpression,
    NonIntegerChiError,
    chi_O_consistency,
    chi_class,
    chi_expression,
    chi_identity_suite,
    chi_line_bundle,
    h0_lower_bound_from_chi,
)
from .bounds import (
    BASEPOINTFREE,
    BOUND_RULES,
    CH02_THM42,
    Certificate,
    Conclusion,
    FANO_TRIVIAL,
    KA00_THM31,
    MiyaokaTest,
    PairingTest,
    bound_bs,
    bound_fukuma_gap,
    bound_fukuma_ka,
    bound_nefbig,
    bs_class,
    certify_h0_adjoint,
    certify_h0_bs,
    fukuma_gap_class,
    fukuma_ka_class,
    generic_nef_pairing_test,
    miyaoka_c2_inequality,
    miyaoka_correction,
    nefbig_class,
)
from .birational import (
    BlowupMap,
    CurveCenter,
    MissingCurveDegreeError,
    SymbolCollisionError,
    blow_up_curve,
    blow_up_point,
    blowdown_invariance_check,
    pull_back,
)
from .catalog import (
    CatalogEntry,
    UnknownEntryError,
    WitnessNotFoundError,
    bad_anticanonical_witness,
    check_expected,
    get,
    hypersurface,
    names,
)
from .profile_io import (
    DivisorParseError,
    ProfileFormatError,
    format_divisor,
    load_profile,
    parse_divisor,
    parse_profile,
    resolve_divisor,
    save_profile,
    serialize_profile,
)

__version__ = "0.1.0"
