"""Exact p-adic arithmetic and phase analysis for spin systems on trees.

The public names are re-exported lazily (PEP 562): a submodule is imported
the first time one of its names is read from the package, so a program that
uses only the scalar kernel never loads the measure engine or the solver.
"""

import importlib

_EXPORTS = {
    "errors": (
        "DenominatorDegenerate",
        "DivisionByZero",
        "DomainViolation",
        "EnumerationTooLarge",
        "LiftStall",
        "NotInvertible",
        "PadicError",
        "PartitionFunctionDegenerate",
        "PrecisionExhausted",
    ),
    "padic_core": (
        "DEFAULT_PRECISION",
        "PadicNumber",
        "Prime",
        "as_prime",
        "rational_valuation",
        "render_valuation",
    ),
    "padic_analytic": (
        "exp_domain_min_valuation",
        "exp_p",
        "hensel_roots_in_disk",
        "log_p",
    ),
    "cayley_tree": (
        "TreeShape",
    ),
    "potts_model": (
        "BoundaryField",
        "CompatibilityReport",
        "CouplingField",
        "NormProfileRow",
        "boundary_field_from_json",
        "compatibility_check",
        "coupling_from_json",
        "finite_measure",
        "measure_norm_profile",
    ),
    "gibbs_solver": (
        "VERDICT_INCONCLUSIVE",
        "VERDICT_MULTIPLE_TI",
        "VERDICT_UNIQUE",
        "PhaseReport",
        "RecursionResult",
        "classify_phase",
        "f_map_z",
        "hprime_to_h",
        "period2_k2_analysis",
        "recursion_backward",
        "solve_k1_bipartite",
        "translation_invariant_cubic",
        "uniqueness_certificate",
        "witness_boundary_field",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
