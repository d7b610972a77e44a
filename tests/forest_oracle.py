"""Rooted spanning forests, enumerated: the tests' oracle for the exact minor total.

On a graph the principal-minor total that ``odg.forests.verify_d_identity``
computes by Bareiss's elimination is the total weight of rooted spanning
forests with v - r roots (vertex weights 1/w), the paper's D-identity. This
module counts those forests directly, with no matrix at all, so that the
check stays independent of the code it checks. It is exponential and
refuses graphs past ``ENUMERATION_LIMIT`` vertices.

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

from odg import ComparisonGraph, Design
from odg.errors import TooLarge

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


def weight_total_from_alpha(graph: ComparisonGraph, alpha: np.ndarray, k: int) -> float:
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
    return weight_total_from_alpha(graph, 1.0 / design.w, k)
