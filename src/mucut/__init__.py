"""Exact operator calculus for symplectic cutting on the circle.

The package realizes the commutant of the Szego projector (full and
even-mode variants) in shift/polynomial normal form, the leading-symbol
calculus on the cut cones, the jet pullback dictionary, spectral
experiments (Weyl counting, residue trace, parametrix checks), and the
unimodular cut calculus of planar rational cones.

The exact layers load with the package. The float layer (``spectral``) and
the invariant suite (``selftest``) load on first use of one of their names,
and only they import numpy, so ``import mucut`` and the exact command-line
subcommands start without it (PEP 562 module ``__getattr__``).
"""

from .cones import (FULL_PLANE, Cone2, ConeNormalForm, FullPlane, HalfPlane,
                    apply_unimodular, contains, cut_cone, cut_plan,
                    equivalence_witness, gl_equivalent, lattice_index,
                    lens_cone, normal_form, sphere_cone)
from .cutspace import (Jet, extends_smoothly, odd_monomials, pullback_jet,
                       pushforward_symbol)
from .errors import (SCHEMA, DegenerateCut, DomainError, EmptyCut,
                     FitRangeTooSmall, FloatOverflow, NonzeroRemainder,
                     NotAdmissible, NotCoprime, NotElliptic, NotHomogeneous,
                     NotInCommutant, NotSelfAdjoint, OddJet, WindowTooLarge,
                     WrongDegree, ZeroOperator, ZeroVector)
from .exact import (GaussianRational, Polynomial, Unimodular2, bezout,
                    poly_divide_exact, primitive, rational_from_str,
                    rational_to_str)
from .operators import (CanonicalOperator, GeneratorName, Parity, adjoint,
                        commutant_factorize, commutator, compose,
                        make_generator, raising_product, recompose_factors,
                        require_self_adjoint, required_vanishing,
                        shift_divisor, szego_commutator_entries,
                        szego_commutes, verify_pk_identity)
from .symbols import (LaurentSymbol, SymbolVariant,
                      build_commuting_from_symbol, exactness_witness,
                      is_admissible, leading_symbol, poisson_bracket,
                      symbol_tower, variant_for_parity)

__version__ = "0.1.0"

__all__ = [
    "CanonicalOperator", "Cone2", "ConeNormalForm", "DEFAULT_SEED",
    "DegenerateCut", "DomainError", "EmptyCut", "ExperimentReport",
    "FULL_PLANE", "FitRangeTooSmall", "FloatOverflow", "FullPlane",
    "GaussianRational", "GeneratorName", "HalfPlane", "Jet", "LaurentSymbol",
    "NonzeroRemainder", "NotAdmissible", "NotCoprime", "NotElliptic",
    "NotHomogeneous", "NotInCommutant", "NotSelfAdjoint", "OddJet", "Parity",
    "Polynomial",
    "SCHEMA", "Spectrum", "SymbolVariant", "Unimodular2", "WindowTooLarge",
    "WrongDegree", "ZeroOperator", "ZeroVector", "adjoint", "apply_unimodular",
    "bezout", "build_commuting_from_symbol", "commutant_factorize",
    "commutator", "compose", "contains", "cut_cone", "cut_plan",
    "equivalence_witness", "exactness_witness", "extends_smoothly",
    "gl_equivalent", "is_admissible", "lattice_index", "leading_symbol",
    "lens_cone", "make_generator", "normal_form", "odd_monomials",
    "poisson_bracket", "poly_divide_exact", "primitive",
    "projected_compression", "projected_spectrum", "pullback_jet",
    "pushforward_symbol", "raising_product", "rational_from_str",
    "rational_to_str", "recompose_factors", "require_self_adjoint",
    "required_vanishing", "residue_contour", "residue_log_fit", "run_selftest",
    "selftest_rows", "shift_divisor", "sphere_cone", "symbol_tower",
    "szego_commutator_entries", "szego_commutes", "variant_for_parity",
    "verify_pk_identity", "weyl_compare",
]

# public name -> submodule that defines it, imported on first access
_LAZY = {
    "DEFAULT_SEED": "selftest", "run_selftest": "selftest",
    "selftest_rows": "selftest",
    "ExperimentReport": "spectral", "Spectrum": "spectral",
    "projected_compression": "spectral", "projected_spectrum": "spectral",
    "residue_contour": "spectral", "residue_log_fit": "spectral",
    "weyl_compare": "spectral",
}


def __getattr__(name):
    from importlib import import_module
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    # later reads are plain attribute lookups
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
