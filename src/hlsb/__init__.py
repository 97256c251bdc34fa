"""Exact structure-constant computations for Z2-graded Hom-Lie
brackets, cobrackets, and the objects built out of them.

Everything is computed symbolically over a parameter ring with rational
coefficients; no floating point is used anywhere.

The public names load on first use: ``hlsb.twist`` imports
:mod:`hlsb.constructions` when it is first read, so a program pays only
for the modules it touches.  Each access reads the defining module's
current attribute.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "catalog": (
        "CatalogRow", "CatalogSummary", "CatalogVariant", "Stratum", "catalog_list",
        "catalog_payload", "concrete_variant", "expand_variants", "get_row", "verify_all",
        "verify_row", "verify_variant"),
    "constructions": (
        "BilinearForm", "ManinTriple", "MatchedPair", "Representation",
        "adjoint_representation", "check_admissible", "check_dual_pair", "coadjoint_action",
        "cobracket_from_dual_bracket", "dual_basis", "dual_coadjoint_action",
        "dual_matched_pair", "dual_representation", "dualize", "invert_even_map",
        "manin_supertriple", "semidirect_product", "transport_structure", "twist",
        "twist_power"),
    "errors": (
        "DimensionMismatchError", "HlsbError", "HypothesisError", "MorphismError",
        "ParityError", "ParseError", "RingMismatchError", "ScalarError"),
    "fileformat": (
        "Definition", "definition_from_bialgebra", "definition_text", "dump_definition",
        "load_definition", "loads_definition", "parse_definition"),
    "scalar": ("ParamRing", "Scalar"),
    "structures": (
        "CheckReport", "HomSuperAlgebra", "HomSuperBialgebra", "HomSuperCoalgebra",
        "Violation", "ad_action", "ad_basis", "bialgebra_from_deltas", "delta0", "delta1",
        "zero_bracket", "zero_cobracket"),
    "superlinear": (
        "EVEN", "ODD", "EvenMap", "SuperBasis", "Tensor2", "Tensor3", "cyclic_sum",
        "koszul_sign", "tau", "xi"),
    "yangbaxter": (
        "QuasiTriangularEquivalences", "alpha_fixed_tensors", "check_coboundary",
        "check_perturbation_hypotheses", "check_quasi_triangular", "coboundary_from_r",
        "coboundary_hypothesis_violations", "perturb_cobracket", "perturbation_defect",
        "quasi_triangular_equivalences", "random_fixed_tensor", "yang_baxter_residual"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    # Not cached in globals(): a patched attribute of the defining module
    # (a tracer's wrapper, then the original again) is what every read sees.
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__), name)
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
