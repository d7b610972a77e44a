"""Exact principal minors, rooted spanning forests and characteristic-polynomial coefficients.

Cross-checks for the determinant-form criterion that use no eigensolver.
For a contrast system of rank r under design w, the product psi_0 of the r
positive eigenvalues of K(w) equals the principal-minor total
sum_{|S|=r} det(G_SS) / prod_{i in S} w_i of the Gram matrix G = q q^T
(Cauchy-Binet), and the coefficient c_r of K(w)'s characteristic
polynomial (Faddeev-LeVerrier trace recurrence). ``verify_d_identity``
compares both with the spectral psi_0; for an integer system the minor
total is exact, its minors and r coming from Bareiss's fraction-free
elimination (Math. Comp. 22, 1968).

On a connected graph every (v-1)-principal minor is the spanning-tree
count, and in general the minor total is the total weight of rooted
spanning forests with v - r roots (vertex weights 1/w): the paper's
D-identity. The forest enumeration below is exponential and stays as that
graph identity, which the tests check the minor total against.

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

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator

import numpy as np

from ._kernels import weighted_gram
from .contrasts import ComparisonGraph, ContrastSystem, graph_system
from .criteria import psi_p
from .spectral import Design
from .errors import PreconditionViolated, TooLarge

ENUMERATION_LIMIT = 12
# Past 20 treatments the trace recurrence's coefficient drifts from the
# exact total even at the uniform design (relative deviations up to 1.6e-9
# at v = 20, 4.6e-6 at v = 25 and 4.8e-3 at v = 30 on random connected
# graphs with 3v edges), so the report could no longer vouch for psi_0.
# Designs far from uniform make it drift sooner, and ``passed`` says so.
MINOR_V_LIMIT = 20
# One Bareiss elimination per minor: at v = 20 the budget admits rank 16,
# C(20, 16) = 4845 minors of about 16^3 / 3 integer updates each.
MINOR_LIMIT = 5000


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


def _integers(m: np.ndarray) -> np.ndarray:
    """``m`` as an object array of Python ints; refuses non-integer entries."""
    m = np.asarray(m)
    if m.dtype.kind not in "iu" and not (np.isfinite(m).all() and np.array_equal(m, np.trunc(m))):
        raise PreconditionViolated("exact minors need an integer contrast system or matrix")
    return np.frompyfunc(int, 1, 1)(m)


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Rank and determinant of an integer matrix, by Bareiss's elimination.

    Every intermediate entry is a minor of the input (Sylvester's identity),
    so each division by the previous pivot is exact. A column with no
    nonzero entry left below the pivots is skipped; the determinant is 0
    unless the matrix is square and of full rank.
    """
    a = [list(row) for row in rows]
    n, m = len(a), len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for col in range(m):
        pivot = next((i for i in range(rank, n) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for row in a[rank + 1 :]:
            f = row[col]
            for j in range(col + 1, m):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        rank += 1
    return rank, sign * prev if rank == n == m else 0


def integer_det(m: np.ndarray) -> int:
    """Exact determinant of a square integer matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionViolated(f"expected a square matrix, got shape {m.shape}")
    return _bareiss(_integers(m).tolist())[1]


def _minor_total(system: ContrastSystem, design: Design) -> tuple[int, float]:
    """Rank r of q and sum_{|S|=r} det(G_SS) / prod_{i in S} w_i, both exact.

    With w_i = n_i / d_i read exactly from the float, the sum is one
    integer, sum_S det(G_SS) prod_{i in S} d_i prod_{i not in S} n_i, over
    prod_i n_i, rounded to float once.
    """
    qi = _integers(system.q)
    v = system.v
    if v > MINOR_V_LIMIT:
        raise TooLarge(f"the exact minor total is limited to v <= {MINOR_V_LIMIT}, got v={v}")
    gram = (qi @ qi.T).tolist()
    rank = _bareiss(gram)[0]
    count = math.comb(v, rank)
    if count > MINOR_LIMIT:
        raise TooLarge(f"rank {rank} of v={v} needs {count} principal minors, more than {MINOR_LIMIT}")
    ratios = [w.as_integer_ratio() for w in design.w.tolist()]
    numerator = 0
    for subset in combinations(range(v), rank):
        det = _bareiss([[gram[i][j] for j in subset] for i in subset])[1]
        if det:
            inside = set(subset)
            for i, (num, den) in enumerate(ratios):
                det *= den if i in inside else num
            numerator += det
    try:
        return rank, numerator / math.prod(num for num, _ in ratios)
    except OverflowError:
        raise TooLarge("the minor total exceeds the float range") from None


@dataclass(frozen=True)
class DIdentityReport:
    rank: int
    psi_det: float
    forest_total: float
    char_coefficient: float
    max_rel_deviation: float
    tol: float
    passed: bool


def verify_d_identity(
    system: ContrastSystem | ComparisonGraph,
    design: Design,
    tol: float = 1e-6,
) -> DIdentityReport:
    """Compare the three determinant-criterion routes on one instance.

    The report's ``rank`` is the exact rank of q. psi_det comes from the
    criterion (the eigenvalues of K(w)); forest_total is the exact
    principal-minor total, which on a graph is the total weight of rooted
    spanning forests with v - rank roots; char_coefficient comes from the
    trace recurrence on K(w). The report passes when all pairwise relative
    deviations stay within ``tol``.

    Raises ``PreconditionViolated`` on non-integer coefficients and
    ``TooLarge`` past ``MINOR_V_LIMIT`` treatments or ``MINOR_LIMIT`` minors,
    or when the total overflows a float.
    """
    if isinstance(system, ComparisonGraph):
        system = graph_system(system)
    lap = weighted_gram(system.gram, design.w)  # first: it refuses a design of the wrong length
    rank, forest_total = _minor_total(system, design)
    psi_det = psi_p(system, design, 0.0, rank=rank).psi
    coeffs = char_poly_coeffs(lap)
    char_coefficient = float(coeffs[rank])
    values = (psi_det, forest_total, char_coefficient)
    max_rel = 0.0
    for a in values:
        for b in values:
            max_rel = max(max_rel, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return DIdentityReport(
        rank=rank,
        psi_det=psi_det,
        forest_total=forest_total,
        char_coefficient=char_coefficient,
        max_rel_deviation=max_rel,
        tol=tol,
        passed=bool(max_rel <= tol),
    )
