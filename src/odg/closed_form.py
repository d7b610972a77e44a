"""Analytic optimal designs.

Three families admit closed forms. The trace criterion (p = -1) is minimized
by weights proportional to the row norms of the coefficient matrix, which
for pairwise systems reduces to square roots of vertex degrees. For
bipartite pairwise systems the largest-eigenvalue criterion (p = -inf) is
minimized by weights directly proportional to the degrees, with optimal
value 4s, an explicit top eigenvector of +-1/sqrt(s) entries and an exact
dual, the 2-colouring's cut. For any system of rank v-1 the determinant
criterion (p = 0) is minimized by the uniform design.
"""

from __future__ import annotations

import numpy as np

from .contrasts import ComparisonGraph, ContrastSystem, classify, graph_system, rank_of
from .criteria import OptimizationResult, _dual_certificate, _evaluate
from .errors import NotBipartite, RankTooLow
from .spectral import Design


def a_optimal_weights(system: ContrastSystem) -> np.ndarray:
    """Row norms of the coefficient matrix, normalized to sum to one."""
    norms = np.sqrt(np.sum(system.q * system.q, axis=1))
    return norms / norms.sum()


def a_optimal(system: ContrastSystem) -> OptimizationResult:
    """Minimizer of the trace criterion: weights proportional to row norms.

    This is the unique minimizer over the open simplex.
    """
    design = Design(a_optimal_weights(system))
    evaluation = _evaluate(system.gram, design.w, rank_of(system), -1.0)
    return OptimizationResult(design, evaluation.criterion, evaluation, "a_general")


def e_optimal_bipartite(graph: ComparisonGraph) -> OptimizationResult:
    """Largest-eigenvalue-criterion minimizer for a bipartite pairwise system.

    Weights are degree-proportional and the optimal value is 4s. The
    returned eigvec attains the top eigenvalue of the covariance matrix; its
    signs are propagated breadth-first from the lowest-index vertex of each
    component (seed +1), so the output is deterministic. Entries are
    +1/sqrt(s) on edges pointing from color 1 to color 0 and -1/sqrt(s)
    otherwise; flipping the -1 edges turns every vertex into a sink or a
    source. The certificate's dual is y y^T, y_i = +-1 the colouring, with
    <G, y y^T> = 4s exactly: every comparison crosses the cut.
    """
    info = classify(graph)
    if info.bipartition is None:
        raise NotBipartite("graph has an odd cycle; the degree rule is not optimal off the bipartite class")
    degrees = np.asarray(graph.degrees, dtype=np.float64)
    design = Design(degrees / degrees.sum())
    y = np.where(np.asarray(info.bipartition) == 0, 1.0, -1.0)
    h = np.array([y[b] for _, b in graph.edges]) / np.sqrt(graph.s)
    system = graph_system(graph)
    evaluation = _evaluate(system.gram, design.w, rank_of(system), -np.inf)
    certificate = _dual_certificate(evaluation, y * (system.gram @ y))
    return OptimizationResult(
        design, evaluation.criterion, evaluation, "e_bipartite", certificate=certificate, eigvec=h
    )


def d_optimal_uniform(system: ContrastSystem) -> OptimizationResult:
    """Uniform design, optimal for the determinant criterion at rank v-1.

    Systems of lower rank give RankTooLow: the uniform design carries no
    optimality guarantee there and callers should fall back to the numeric
    optimizer explicitly.
    """
    rank = rank_of(system)
    if rank < system.v - 1:
        raise RankTooLow(f"rank {rank} < v-1 = {system.v - 1}; uniform optimality is not guaranteed")
    design = Design.uniform(system.v)
    evaluation = _evaluate(system.gram, design.w, rank, 0.0)
    return OptimizationResult(design, evaluation.criterion, evaluation, "d_uniform")
