"""Optimal treatment proportions for systems of treatment contrasts.

Pairwise-comparison systems are represented as directed graphs whose
vertex-weighted Laplacian (vertex weights = inverse design weights) carries
the full spectral content of the design problem. For any contrast system the
same role is played by the v-by-v matrix K(w) = diag(w)^{-1/2} q q^T
diag(w)^{-1/2}; every eigenvalue-based criterion, closed-form optimum and
certificate in this package is read from it.
"""

from .contrasts import (
    ComparisonGraph,
    ContrastSystem,
    GraphClassification,
    classify,
    detect_pairwise,
    graph_system,
    incidence_matrix,
    parse_contrast_matrix,
    parse_edge_list,
    rank_of,
)
from .spectral import (
    Design,
    Spectrum,
    covariance_matrix,
    eigensystem_sym,
    eigenvalues_sym,
    pseudo_information_matrix,
    vertex_weighted_laplacian,
)
from .criteria import CriterionValue, criterion_from_spectrum, psi_p, validate_p
from .closed_form import a_optimal, d_optimal_uniform, e_optimal_bipartite
from .symmetry import OrbitReduction, Permutation, check_invariance, find_cyclic_invariance, orbit_reduction
from .forests import DIdentityReport, verify_d_identity
from .optimizer import (
    CertificateReport,
    OptimizationResult,
    OptimizeOptions,
    e_certificate,
    grid_oracle,
    optimize_phi_p,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CertificateReport",
    "ComparisonGraph",
    "ContrastSystem",
    "CriterionValue",
    "Design",
    "DIdentityReport",
    "GraphClassification",
    "OptimizationResult",
    "OptimizeOptions",
    "OrbitReduction",
    "Permutation",
    "Spectrum",
    "a_optimal",
    "check_invariance",
    "classify",
    "covariance_matrix",
    "criterion_from_spectrum",
    "d_optimal_uniform",
    "detect_pairwise",
    "e_certificate",
    "e_optimal_bipartite",
    "eigensystem_sym",
    "eigenvalues_sym",
    "errors",
    "find_cyclic_invariance",
    "graph_system",
    "grid_oracle",
    "incidence_matrix",
    "optimize_phi_p",
    "orbit_reduction",
    "parse_contrast_matrix",
    "parse_edge_list",
    "pseudo_information_matrix",
    "psi_p",
    "rank_of",
    "validate_p",
    "verify_d_identity",
    "vertex_weighted_laplacian",
]
