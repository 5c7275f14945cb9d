"""shakekit: exact-arithmetic knot invariants and complexity certificates.

Laurent-polynomial Alexander polynomials, classical and Levine-Tristram
signatures from Seifert and Goeritz data, a term calculus for
dualizable satellite patterns, and replayable lower-bound certificates
for the complexity of shake-slice knots.
"""

from .complexity import (
    ComplexityCertificate,
    WitnessNotFound,
    certify_complexity,
    find_witness_root,
)
from .errors import DomainError
from .exactlinalg import (
    Inertia,
    InvalidRoot,
    NearSingular,
    det_laurent,
    inertia_hermitian_at_root,
    inertia_symmetric_exact,
)
from .goeritz import (
    Band,
    BandPresentation,
    GoeritzData,
    add_two_twists,
    classical_signature_goeritz,
    goeritz_form,
    torus_band_presentation,
    verify_two_twist_stability,
)
from .laurent import (
    LaurentPoly,
    UnitCirclePoint,
    lp_is_symmetric,
)
from .patterns import (
    Atom,
    Bar,
    Compose,
    Inverse,
    NormalForm,
    PatternSyntaxError,
    Pound,
    Power,
    Star,
    Twist,
    UnassignedAtom,
    eval_invariant,
    normalize,
    parse_pattern,
    render_term,
    retrace_term,
    table_profile,
)
from .seifert import (
    OddDimension,
    alexander,
    an_family,
    classical_signature_seifert,
    delta_n_closed,
    delta_sign_scan,
    lt_signature,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Band",
    "BandPresentation",
    "Bar",
    "ComplexityCertificate",
    "Compose",
    "DomainError",
    "GoeritzData",
    "Inertia",
    "InvalidRoot",
    "Inverse",
    "LaurentPoly",
    "NearSingular",
    "NormalForm",
    "OddDimension",
    "PatternSyntaxError",
    "Pound",
    "Power",
    "Star",
    "Twist",
    "UnassignedAtom",
    "UnitCirclePoint",
    "WitnessNotFound",
    "add_two_twists",
    "alexander",
    "an_family",
    "certify_complexity",
    "classical_signature_goeritz",
    "classical_signature_seifert",
    "delta_n_closed",
    "delta_sign_scan",
    "det_laurent",
    "eval_invariant",
    "find_witness_root",
    "goeritz_form",
    "inertia_hermitian_at_root",
    "inertia_symmetric_exact",
    "lp_is_symmetric",
    "lt_signature",
    "normalize",
    "parse_pattern",
    "render_term",
    "retrace_term",
    "table_profile",
    "torus_band_presentation",
    "verify_two_twist_stability",
]
