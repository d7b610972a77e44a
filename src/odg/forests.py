"""Rooted spanning forests and characteristic-polynomial coefficients.

Purely combinatorial cross-checks for the determinant-form criterion: for a
pairwise system of rank r under design w, the product of the r largest
eigenvalues of the vertex-weighted Laplacian (vertex weights 1/w) equals
both the total weight of rooted spanning forests with v - r roots and the
coefficient c_r of the Laplacian's characteristic polynomial. The forest
enumeration is deliberately determinant-free so it can vouch for the
spectral computations.

A rooted spanning forest is an acyclic spanning subgraph whose edges are
oriented toward a chosen set of roots, one root per component. Every
non-root vertex is then the tail of exactly one edge, and the forest weight
is the product of the vertex weights over those tails, i.e. over all
non-root vertices.

Both the explicit enumeration and the aggregated total walk the acyclic
edge subsets by one include/exclude recursion, which keeps the chosen
edges' union-find and adjacency up to date and calls a visitor at each
subset; no graph is rebuilt per subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

import numpy as np

from .contrasts import ComparisonGraph, classify, graph_system
from .criteria import psi_p
from .spectral import Design, vertex_weighted_laplacian
from .errors import TooLarge

ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class RootedForest:
    roots: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # oriented toward the roots
    weight: float


def _acyclic_subsets(
    edges: list[tuple[int, int]], v: int, size: int, leaf: Callable[[list[list[int]]], None]
) -> None:
    """Call ``leaf(adj)`` once for every acyclic subset of ``size`` edges.

    Include/exclude recursion over the edges in index order, so subsets come
    in lexicographic order of their edge indices. A small union-find (no
    path compression, so undo is a single assignment) rejects edges that
    would close a cycle. ``adj`` is the adjacency of the chosen edges,
    extended and undone alongside the union-find, with every vertex's
    neighbours in edge-index order; a leaf must not keep it.
    """
    parent = list(range(v))
    adj: list[list[int]] = [[] for _ in range(v)]
    m = len(edges)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(start: int, needed: int) -> None:
        if needed == 0:
            leaf(adj)
            return
        for at in range(start, m - needed + 1):  # include ``at``, then go on without it
            a, b = edges[at]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                adj[a].append(b)
                adj[b].append(a)
                rec(at + 1, needed - 1)
                adj[a].pop()
                adj[b].pop()
                parent[ra] = ra

    rec(0, size)


def _components(adj: list[list[int]]) -> list[list[int]]:
    """Vertex lists of the components, ordered by smallest vertex, each in
    depth-first order from that vertex."""
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        verts = [start]
        while stack:
            for nb in adj[stack.pop()]:
                if not seen[nb]:
                    seen[nb] = True
                    verts.append(nb)
                    stack.append(nb)
        comps.append(verts)
    return comps


def _undirected(graph: ComparisonGraph) -> list[tuple[int, int]]:
    return [(min(a, b), max(a, b)) for a, b in graph.edges]


def _check_bounds(graph: ComparisonGraph, k: int) -> None:
    if graph.v > ENUMERATION_LIMIT:
        raise TooLarge(f"forest enumeration is limited to v <= {ENUMERATION_LIMIT}, got v={graph.v}")
    if not 1 <= k <= graph.v - 1:
        raise ValueError(f"root count must lie in [1, v-1], got {k}")


def rooted_forests(graph: ComparisonGraph, design: Design, k: int) -> Iterator[RootedForest]:
    """Enumerate every rooted spanning forest with k roots explicitly.

    Each forest's edges are re-oriented toward its root by a traversal and
    the weight is accumulated edge by edge; this is the slow, self-evident
    path used to validate the aggregated total. The forests are all built
    before the first is returned.
    """
    _check_bounds(graph, k)
    alpha = 1.0 / design.w
    forests: list[RootedForest] = []

    def leaf(adj: list[list[int]]) -> None:
        per_comp = []
        for verts in _components(adj):
            options = []
            for root in verts:
                oriented = []
                weight = 1.0
                stack = [root]
                visited = {root}
                while stack:
                    u = stack.pop()
                    for nb in adj[u]:
                        if nb not in visited:
                            visited.add(nb)
                            oriented.append((nb, u))
                            weight *= alpha[nb]
                            stack.append(nb)
                options.append((root, tuple(oriented), weight))
            per_comp.append(options)
        for combo in product(*per_comp):
            weight = 1.0
            for c in combo:
                weight *= c[2]
            forests.append(
                RootedForest(
                    roots=tuple(sorted(c[0] for c in combo)),
                    edges=tuple(e for c in combo for e in c[1]),
                    weight=weight,
                )
            )

    _acyclic_subsets(_undirected(graph), graph.v, graph.v - k, leaf)
    return iter(forests)


def _weight_total_from_alpha(graph: ComparisonGraph, alpha: np.ndarray, k: int) -> float:
    """Total forest weight, factored per component.

    A forest weight is the product of alpha over non-root vertices, so
    summing over the root choices of one tree component gives
    (prod_u alpha_u) * (sum_u 1/alpha_u), and components multiply.
    """
    _check_bounds(graph, k)
    alpha = [float(a) for a in alpha]
    inverse = [1.0 / a for a in alpha]
    total = 0.0

    def leaf(adj: list[list[int]]) -> None:
        nonlocal total
        contribution = 1.0
        for verts in _components(adj):
            prod_part = 1.0
            sum_part = 0.0
            for u in verts:
                prod_part *= alpha[u]
                sum_part += inverse[u]
            contribution *= prod_part * sum_part
        total += contribution

    _acyclic_subsets(_undirected(graph), graph.v, graph.v - k, leaf)
    return total


def rooted_forest_weight(graph: ComparisonGraph, design: Design, k: int) -> float:
    """Total weight of all rooted spanning forests with k roots (vertex
    weights 1/w)."""
    return _weight_total_from_alpha(graph, 1.0 / design.w, k)


def char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Elementary-symmetric coefficients c_0..c_n of a symmetric matrix.

    Computed by the Faddeev-LeVerrier trace recurrence, so the result is
    independent of any eigenvalue solver. c_0 = 1 and c_k is the sum of all
    k-fold products of eigenvalues; for a Laplacian c_n vanishes.
    """
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    signed = np.zeros(n + 1)
    signed[0] = 1.0
    mk = np.zeros((n, n))
    eye = np.eye(n)
    for k in range(1, n + 1):
        mk = m @ mk + signed[k - 1] * eye
        signed[k] = -np.trace(m @ mk) / k
    signs = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    return signs * signed


@dataclass(frozen=True)
class DIdentityReport:
    rank: int
    psi_det: float
    forest_total: float
    char_coefficient: float
    max_rel_deviation: float
    tol: float
    passed: bool
    trailing_coefficient: float
    trailing_ok: bool


def verify_d_identity(
    graph: ComparisonGraph,
    design: Design,
    rank: int | None = None,
    tol: float = 1e-6,
) -> DIdentityReport:
    """Compare the three determinant-criterion routes on one instance.

    psi_det comes from the criterion (the eigenvalues of the weighted
    Laplacian), forest_total from explicit enumeration, char_coefficient
    from the trace recurrence on the same Laplacian; the report passes when
    all pairwise relative deviations stay within ``tol``.
    """
    if rank is None:
        rank = graph.v - classify(graph).component_count
    lap = vertex_weighted_laplacian(graph, design)
    psi_det = psi_p(graph_system(graph), design, 0.0, rank=rank).psi
    forest_total = rooted_forest_weight(graph, design, graph.v - rank)
    coeffs = char_poly_coeffs(lap)
    char_coefficient = float(coeffs[rank])
    values = (psi_det, forest_total, char_coefficient)
    max_rel = 0.0
    for a in values:
        for b in values:
            max_rel = max(max_rel, abs(a - b) / max(abs(a), abs(b), 1e-300))
    lap_norm = float(np.linalg.norm(lap))
    trailing = float(coeffs[graph.v])
    trailing_ok = abs(trailing) <= 1e-8 * lap_norm**graph.v
    return DIdentityReport(
        rank=rank,
        psi_det=psi_det,
        forest_total=forest_total,
        char_coefficient=char_coefficient,
        max_rel_deviation=max_rel,
        tol=tol,
        passed=bool(max_rel <= tol),
        trailing_coefficient=trailing,
        trailing_ok=trailing_ok,
    )
