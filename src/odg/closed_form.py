"""Analytic optimal designs.

Three families admit closed forms. The trace criterion (p = -1) is minimized
by weights proportional to the row norms of the coefficient matrix, which
for pairwise systems reduces to square roots of vertex degrees. For
bipartite pairwise systems the largest-eigenvalue criterion (p = -inf) is
minimized by weights directly proportional to the degrees, with optimal
value 4s and an explicit top eigenvector of +-1/sqrt(s) entries. For any
system of rank v-1 the determinant criterion (p = 0) is minimized by the
uniform design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contrasts import ComparisonGraph, ContrastSystem, classify, graph_system, rank_of
from .criteria import CriterionValue, _evaluate, _Evaluation
from .errors import NotBipartite, RankTooLow
from .spectral import Design


@dataclass(frozen=True, eq=False)
class ClosedFormResult:
    design: Design
    criterion: CriterionValue
    evaluation: _Evaluation  # the design's one eigendecomposition of K(w)
    method: str  # a_general | e_bipartite | d_uniform
    eigvec: Optional[np.ndarray] = None


def a_optimal_weights(system: ContrastSystem) -> np.ndarray:
    """Row norms of the coefficient matrix, normalized to sum to one."""
    norms = np.sqrt(np.sum(system.q * system.q, axis=1))
    return norms / norms.sum()


def a_optimal(system: ContrastSystem) -> ClosedFormResult:
    """Minimizer of the trace criterion: weights proportional to row norms.

    This is the unique minimizer over the open simplex.
    """
    design = Design(a_optimal_weights(system))
    evaluation = _evaluate(system.gram, design.w, rank_of(system), -1.0)
    return ClosedFormResult(design, evaluation.criterion, evaluation, "a_general")


def a_optimal_pairwise(graph: ComparisonGraph) -> ClosedFormResult:
    """``a_optimal`` of the graph's system: w_i proportional to sqrt(degree_i)."""
    return a_optimal(graph_system(graph))


def e_optimal_bipartite(graph: ComparisonGraph) -> ClosedFormResult:
    """Largest-eigenvalue-criterion minimizer for a bipartite pairwise system.

    Weights are degree-proportional and the optimal value is 4s. The
    returned eigvec attains the top eigenvalue of the covariance matrix (checked
    as q^T ((q h) / w) = 4s h, without forming that s-by-s matrix); its
    signs are propagated breadth-first from the lowest-index vertex of each
    component (seed +1), so the output is deterministic. Entries are
    +1/sqrt(s) on edges pointing from color 1 to color 0 and -1/sqrt(s)
    otherwise; flipping the -1 edges turns every vertex into a sink or a
    source.
    """
    info = classify(graph)
    if info.bipartition is None:
        raise NotBipartite("graph has an odd cycle; the degree rule is not optimal off the bipartite class")
    degrees = np.asarray(graph.degrees, dtype=np.float64)
    design = Design(degrees / degrees.sum())
    s = graph.s
    sign = np.where(np.asarray(info.bipartition) == 0, 1.0, -1.0)
    h = np.array([sign[b] for _, b in graph.edges]) / np.sqrt(s)
    system = graph_system(graph)
    target = 4.0 * s
    residual = system.q.T @ ((system.q @ h) / design.w) - target * h
    if float(np.linalg.norm(residual)) > 1e-8 * target:
        raise RuntimeError("degree-rule eigenvector failed its residual check")
    evaluation = _evaluate(system.gram, design.w, rank_of(system), -np.inf)
    return ClosedFormResult(design, evaluation.criterion, evaluation, "e_bipartite", eigvec=h)


def d_optimal_uniform(system: ContrastSystem) -> ClosedFormResult:
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
    return ClosedFormResult(design, evaluation.criterion, evaluation, "d_uniform")
