"""Sub-Riemannian exponential maps, conjugate loci, and fold classification.

Closed-form geodesics, differentials, Jacobi fields, and conjugate-point
criteria for three rank-two structures: the alpha-Grushin plane, SU(2), and
SL(2). Every closed form is cross-checked against independent numeric
Hamiltonian-flow and finite-difference routes, both in the test suite and in
the built-in self-test battery (``python -m srfolds.cli selftest``).
"""

from .alphatrig import arc_alpha, pi_alpha, sin_cos_alpha
from .errors import (DegenerateCovector, DegenerateMatrix, InvalidInput,
                     NonConvergence, NotConjugate, SrfoldsError, StepFailure,
                     WitnessNotFound)
from .grushin import (GrushinBase, grushin_adapter, grushin_conj_f,
                      grushin_conj_grad, grushin_dexp, grushin_exp,
                      grushin_jacobi, grushin_kernel)
from .numeric import RankResult, RootHit, find_roots, rank_nullspace
from .oracles import OdeProblem, fd_jacobian, integrate
from .scfun import propagate_linear_jacobi, sc_pair, vertical_to_endpoint_matrix
from .selftest import CheckResult, format_report, run_selftest
from .singularity import (ConjugateRecord, FoldWitness, RayStrata, SingularityClass,
                          StructureAdapter, classify, fold_witness, scan_ray,
                          second_order_transversality)
from .sl2 import (Sl2Matrix, sl2_adapter, sl2_chart, sl2_conj_f,
                  sl2_conj_grad, sl2_exp, sl2_frame_images, sl2_jacobi,
                  sl2_kernel)
from .state import GeodesicState, JacobiCoords
from .su2 import (Su2Point, su2_adapter, su2_chart, su2_conj_f,
                  su2_conj_grad, su2_exp, su2_frame_images, su2_jacobi,
                  su2_kernel)

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
