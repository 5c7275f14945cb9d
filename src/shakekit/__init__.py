"""shakekit: exact-arithmetic knot invariants and complexity certificates.

Laurent-polynomial Alexander polynomials, classical and Levine-Tristram
signatures from Seifert and Goeritz data, a term calculus for
dualizable satellite patterns, and replayable lower-bound certificates
for the complexity of shake-slice knots.

Importing the package executes none of its modules.  The loop at the
end registers all ten, verify among them, in sys.modules and as
attributes of the package, each through importlib.util.LazyLoader, so a
module executes at its first attribute access; a public name is read
from its module on each use (PEP 562).  A CLI command thus executes only
the modules it uses, while `import shakekit.verify` and
sys.modules["shakekit.verify"] still reach the module, as code that
inspects the loaded modules expects.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOME = {name: module for module, names in {
    "complexity": ("ComplexityCertificate", "WitnessNotFound", "certify_complexity",
                   "find_witness_root"),
    "circle": ("InvalidRoot", "NearSingular"),
    "errors": ("DomainError", "OddDimension"),
    "exactlinalg": ("Inertia", "det_laurent", "inertia_hermitian_at_root",
                    "inertia_symmetric_exact"),
    "goeritz": ("Band", "BandPresentation", "GoeritzData", "add_two_twists",
                "classical_signature_goeritz", "goeritz_form", "torus_band_presentation"),
    "laurent": ("LaurentPoly", "UnitCirclePoint", "lp_is_symmetric"),
    "patterns": ("Atom", "Bar", "Compose", "Inverse", "NormalForm", "PatternSyntaxError",
                 "Pound", "Power", "Star", "Twist", "UnassignedAtom", "eval_invariant",
                 "normalize", "parse_pattern", "render_term", "retrace_term", "table_profile"),
    "seifert": ("alexander", "an_family", "classical_signature_seifert", "delta_n_closed",
                "delta_sign_scan", "lt_signature"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, read from its module, which executes that module on first use."""
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__} - {"_HOME", "__getattr__", "__dir__"})


for _name in ("_record", "errors", "laurent", "circle", "exactlinalg", "seifert", "goeritz",
              "patterns", "complexity", "verify"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del importlib, sys, _name, _spec
