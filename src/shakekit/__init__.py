"""shakekit: exact-arithmetic knot invariants and complexity certificates.

Laurent-polynomial Alexander polynomials, classical and Levine-Tristram
signatures from Seifert and Goeritz data, a term calculus for
dualizable satellite patterns, and replayable lower-bound certificates
for the complexity of shake-slice knots.

Importing the package executes none of its modules.  Each one is
registered in sys.modules, and as an attribute of the package, by
importlib.util.LazyLoader, so it executes at its first attribute access;
a public name is read from its module on each use (PEP 562).  A CLI
command thus executes only the modules it uses, while `import
shakekit.seifert` and sys.modules["shakekit.seifert"] still reach the
module, as code that inspects the loaded modules expects.
"""

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


def _register(name: str):
    """The module shakekit.<name>, registered to execute at its first attribute access.

    A module already in sys.modules is returned as it is.
    """
    import importlib.util
    import sys

    fullname = f"{__name__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return sys.modules[fullname]


def __getattr__(name: str):
    """A public name, read from its module, which executes that module on first use."""
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__} - {"_HOME", "_register", "__getattr__", "__dir__"})


for _name in ("_record", "errors", "laurent", "circle", "exactlinalg", "seifert", "goeritz",
              "patterns", "complexity"):
    _register(_name)
del _name
