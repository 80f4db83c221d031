"""Sub-Riemannian exponential maps, conjugate loci, and fold classification.

Closed-form geodesics, differentials, Jacobi fields, and conjugate-point
criteria for three rank-two structures: the alpha-Grushin plane, SU(2), and
SL(2). Every closed form is cross-checked against independent numeric
Hamiltonian-flow and finite-difference routes, both in the test suite and in
the built-in self-test battery (``python -m srfolds.cli selftest``).

Importing the package loads none of its modules: each exported name loads
the module that defines it, and what that module imports, on first access
(PEP 562). A caller of the Grushin plane alone never loads the groups or the
self-test, and a caller of the groups never loads the alpha-trigonometry.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "ConjugateRecord", "DegenerateCovector",
    "DegenerateMatrix", "FoldWitness", "GeodesicState", "GrushinBase",
    "InvalidInput", "JacobiCoords", "NonConvergence", "NotConjugate",
    "OdeProblem", "RankResult", "RayStrata", "RootHit", "SingularityClass",
    "Sl2Matrix", "SrfoldsError", "StepFailure", "StructureAdapter",
    "Su2Point", "WitnessNotFound", "arc_alpha", "classify",
    "fd_jacobian", "find_roots", "fold_witness", "format_report",
    "grushin_adapter", "grushin_conj_f", "grushin_conj_grad",
    "grushin_dexp", "grushin_exp", "grushin_jacobi", "grushin_kernel",
    "integrate", "pi_alpha", "propagate_linear_jacobi", "rank_nullspace",
    "run_selftest", "sc_pair", "scan_ray",
    "second_order_transversality", "sin_cos_alpha", "sl2_adapter",
    "sl2_chart", "sl2_conj_f", "sl2_conj_grad", "sl2_exp",
    "sl2_frame_images", "sl2_jacobi", "sl2_kernel", "su2_adapter",
    "su2_chart", "su2_conj_f", "su2_conj_grad", "su2_exp",
    "su2_frame_images", "su2_jacobi", "su2_kernel",
    "vertical_to_endpoint_matrix",
]

# the submodule that defines each name of __all__
_SOURCES = {name: module for module, names in {
    "alphatrig": ("arc_alpha", "pi_alpha", "sin_cos_alpha"),
    "errors": ("DegenerateCovector", "DegenerateMatrix", "InvalidInput", "NonConvergence",
               "NotConjugate", "SrfoldsError", "StepFailure", "WitnessNotFound"),
    "grushin": ("GrushinBase", "grushin_adapter", "grushin_conj_f", "grushin_conj_grad",
                "grushin_dexp", "grushin_exp", "grushin_jacobi", "grushin_kernel"),
    "numeric": ("RankResult", "RootHit", "find_roots", "rank_nullspace"),
    "oracles": ("OdeProblem", "fd_jacobian", "integrate"),
    "scfun": ("propagate_linear_jacobi", "sc_pair", "vertical_to_endpoint_matrix"),
    "selftest": ("CheckResult", "format_report", "run_selftest"),
    "singularity": ("ConjugateRecord", "FoldWitness", "RayStrata", "SingularityClass",
                    "StructureAdapter", "classify", "fold_witness", "scan_ray",
                    "second_order_transversality"),
    "sl2": ("Sl2Matrix", "sl2_adapter", "sl2_chart", "sl2_conj_f", "sl2_conj_grad",
            "sl2_exp", "sl2_frame_images", "sl2_jacobi", "sl2_kernel"),
    "state": ("GeodesicState", "JacobiCoords"),
    "su2": ("Su2Point", "su2_adapter", "su2_chart", "su2_conj_f", "su2_conj_grad",
            "su2_exp", "su2_frame_images", "su2_jacobi", "su2_kernel"),
}.items() for name in names}


def __getattr__(name: str):
    """An exported name, read from its submodule on first access and kept here."""
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
