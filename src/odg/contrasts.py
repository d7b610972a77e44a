"""Contrast systems and their comparison-graph structure.

A contrast system is a v-by-s coefficient matrix whose columns each sum to
zero: column k encodes the linear combination sum_i q[i, k] * effect_i. When
every column has exactly one +1 and one -1 the system is a set of pairwise
comparisons and is represented by a directed graph on the treatments, with
one edge per column.

A pairwise system is its graph: ``graph_system`` writes the Gram matrix
q q^T as the graph's Laplacian D - A, straight from the edges, and makes the
v-by-s incidence matrix q only if something reads it. ``parse_edge_list``
reads the text into one integer array of edge ends, so the route from an
edge list to the spectrum holds nothing of size v-by-s.

Vertices are 1-indexed in all file formats and reports, 0-indexed in code.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NoReturn, Optional

import numpy as np

from ._config import COLUMN_SUM_TOL, RANK_TOL
from ._kernels import eigh_sym
from .errors import MalformedInput, NotAContrast, PreconditionViolated, ZeroRow


@dataclass(frozen=True, eq=False)
class ContrastSystem:
    """Validated v-by-s matrix of contrast coefficients.

    ``gram`` is the v-by-v Gram matrix q q^T, computed once here; every
    spectrum of the system is read from it (see ``_kernels.weighted_gram``).
    ``gram_eigen`` is its eigendecomposition and ``gram_values`` its
    eigenvalues, each made on first use and kept.
    A pairwise system from ``graph_system`` is built from its graph instead.
    """

    q: np.ndarray
    gram: np.ndarray = field(init=False)

    def __post_init__(self):
        q = np.array(self.q, dtype=np.float64)
        if q.ndim != 2:
            raise MalformedInput(f"coefficient matrix must be 2-dimensional, got ndim={q.ndim}")
        v, s = q.shape
        if v < 2 or s < 1:
            raise MalformedInput(f"need at least 2 treatments and 1 contrast, got {v}x{s}")
        if not np.all(np.isfinite(q)):
            raise MalformedInput("coefficient matrix contains non-finite entries")
        sums = q.sum(axis=0)
        # at the column's scale, taken before summing so that entries near 1e308 cannot overflow it
        bad = np.flatnonzero(np.abs(sums) > np.abs(COLUMN_SUM_TOL * q).sum(axis=0))
        if bad.size:
            raise NotAContrast(f"column {bad[0] + 1} sums to {float(sums[bad[0]])!r}, not zero")
        zero = np.flatnonzero(~q.any(axis=1))
        if zero.size:
            raise ZeroRow(f"treatment {zero[0] + 1} has an all-zero coefficient row")
        q.flags.writeable = False
        with np.errstate(over="ignore"):  # an overflow is refused below
            gram = q @ q.T
        diag = np.diagonal(gram)
        if not (np.isfinite(gram).all() and diag.all()):  # squares overflow or underflow to zero
            low, high = float(diag.min()), float(diag.max())
            raise MalformedInput(f"q q^T has diagonal {low!r} to {high!r}: rescale the coefficients")
        gram.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "gram", gram)

    @cached_property
    def gram_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of ``gram``: values descending, vectors in columns."""
        eigen = eigh_sym(self.gram)
        for a in eigen:
            a.flags.writeable = False
        return eigen

    @cached_property
    def gram_values(self) -> np.ndarray:
        """Eigenvalues of ``gram``, descending: ``gram_eigen``'s where that
        is made, else from a values-only eigensolve."""
        if "gram_eigen" in self.__dict__:
            return self.gram_eigen[0]
        values = eigh_sym(self.gram, values_only=True)
        values.flags.writeable = False
        return values

    @property
    def v(self) -> int:
        return self.gram.shape[0]

    @property
    def s(self) -> int:
        return self.q.shape[1]

    @property
    def row_norms(self) -> np.ndarray:
        """The Euclidean norms of the rows of q."""
        return np.sqrt(np.sum(self.q * self.q, axis=1))


@dataclass(frozen=True, eq=False)
class ComparisonGraph:
    """Directed graph of pairwise comparisons: edge (j, i) compares j against i.

    No loops and no repeated vertex pairs; degrees count incident edges
    regardless of direction. The edges may be given as pairs or as an
    s-by-2 integer array.
    """

    v: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(init=False)
    ends: np.ndarray = field(init=False, repr=False)  # the edges as a read-only s-by-2 int64 array

    def __post_init__(self):
        if self.v < 2:
            raise MalformedInput(f"graph needs at least 2 vertices, got {self.v}")
        s = len(self.edges)
        try:
            ends = np.array(self.edges, dtype=np.int64).reshape(s, 2)
        except OverflowError:  # beyond int64 is out of range for any v: clip to -1 or v
            ends = np.clip(np.array(self.edges, dtype=object), -1, self.v).astype(np.int64).reshape(s, 2)
        outside = ((ends < 0) | (ends >= self.v)).any(axis=1)
        loop = ends[:, 0] == ends[:, 1]
        lo, hi = np.sort(ends, axis=1).T
        order = np.lexsort((np.arange(s), hi, lo))  # by vertex pair, then input order
        repeat = np.zeros(s, dtype=bool)
        repeat[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
        bad = outside | loop | repeat
        if bad.any():  # the first offending edge, checked in this order
            k = int(bad.argmax())
            a, b = self.edges[k]
            if outside[k]:
                raise MalformedInput(f"edge ({a + 1}, {b + 1}) out of range for v={self.v}")
            if loop[k]:
                raise MalformedInput(f"loop at vertex {a + 1}")
            raise MalformedInput(f"repeated comparison between {a + 1} and {b + 1}")
        ends.flags.writeable = False
        object.__setattr__(self, "edges", tuple(zip(*ends.T.tolist())))
        object.__setattr__(self, "degrees", tuple(np.bincount(ends.ravel(), minlength=self.v).tolist()))
        object.__setattr__(self, "ends", ends)

    @property
    def s(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphClassification:
    is_connected: bool
    component_count: int
    is_tree: bool
    bipartition: Optional[tuple[int, ...]]


def parse_contrast_matrix(text: str) -> ContrastSystem:
    """Parse CSV (one row per treatment, comma-separated, no header)."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(list(map(float, line.split(","))))  # float() strips the whitespace
        except ValueError:
            raise MalformedInput(f"line {lineno}: non-numeric value") from None
    if not rows:
        raise MalformedInput("empty input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MalformedInput("ragged rows: all treatments need the same number of coefficients")
    return ContrastSystem(np.array(rows, dtype=np.float64))


# the first non-blank line: a non-space character up to the next line boundary of str.splitlines
_FIRST_LINE = re.compile(r"\S[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def is_edge_list(text: str) -> bool:
    """Whether ``text`` opens with the ``v=<n>`` line of an edge list."""
    found = _FIRST_LINE.search(text)
    return found is not None and found.group().replace(" ", "").startswith("v=")


def parse_edge_list(text: str) -> ComparisonGraph:
    """Parse an edge list: first line ``v=<n>``, then one ``j i`` pair per line.

    Each pair is 1-indexed and encodes the comparison of treatment j against
    treatment i; an index is any text ``int()`` reads. The whole text is
    split and converted at once into one int64 array of edge ends, whose
    range is checked in numpy. A list with more than twice as many
    treatments as comparisons leaves a treatment in none, so no contrast
    system can come of it: it raises ``ZeroRow`` before anything of size v
    is made. Any refusal names the first offending line (``_refuse``).
    """
    if not is_edge_list(text):
        raise MalformedInput("edge list must start with a 'v=<n>' line")
    head = _FIRST_LINE.search(text)
    try:
        v = int(head.group().split("=", 1)[1])
    except ValueError:
        raise MalformedInput("invalid vertex count in 'v=' line") from None
    lines = text[head.end() :].splitlines()
    rows = list(map(str.split, lines))
    counts = list(map(len, rows))
    s = counts.count(2)
    ends = None
    if s + counts.count(0) == len(rows) and v <= 2 * s:  # two indices a line, no treatment left out
        try:
            ends = np.fromiter(map(int, chain.from_iterable(rows)), np.int64, 2 * s).reshape(s, 2)
        except (ValueError, OverflowError):  # a token int() refuses, or an index beyond int64
            pass
    if ends is None or (s and not (1 <= ends.min() and ends.max() <= v)):
        _refuse(lines, v)
    return ComparisonGraph(v, ends - 1)


def _refuse(lines: list[str], v: int) -> NoReturn:
    """Raise for the first offending edge line, else for the first treatment in no comparison."""
    used = set()
    for ln in lines:
        parts = ln.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise MalformedInput(f"edge line {ln.strip()!r} must contain exactly two vertex indices")
        try:
            j, i = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInput(f"edge line {ln.strip()!r} must contain integers") from None
        if not (1 <= j <= v and 1 <= i <= v):
            raise MalformedInput(f"edge ({j}, {i}) out of range for v={v}")
        used.update((j, i))
    raise ZeroRow(f"treatment {min(set(range(1, len(used) + 2)) - used)} has an all-zero coefficient row")


def detect_pairwise(system: ContrastSystem) -> Optional[ComparisonGraph]:
    """Return the comparison graph when every column is a +1/-1 pair, else None.

    Entries are compared exactly against {-1, 0, +1}: scaled contrasts do not
    qualify, and duplicated comparisons (which would require a multigraph)
    also return None.
    """
    q = system.q
    tails, heads = q.argmax(axis=0), q.argmin(axis=0)
    columns = np.arange(system.s)
    # two nonzeros, the largest exactly 1 and the smallest exactly -1
    pair = np.all(q[tails, columns] == 1.0) and np.all(q[heads, columns] == -1.0)
    if not (pair and np.all(np.count_nonzero(q, axis=0) == 2)):
        return None
    keys = np.sort(np.minimum(tails, heads) * system.v + np.maximum(tails, heads))
    if np.any(keys[1:] == keys[:-1]):  # a repeated or reversed comparison
        return None
    return ComparisonGraph(system.v, np.column_stack((tails, heads)))


def _adjacency(graph: ComparisonGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(graph.v)]
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def classify(graph: ComparisonGraph) -> GraphClassification:
    """Connectivity, tree and bipartiteness structure of a comparison graph.

    The bipartition is a breadth-first 2-coloring started from the
    lowest-index vertex of each component (seed color 0); it is absent when
    the graph has an odd cycle. The signs that turn every vertex of a
    bipartite graph into a sink or a source are those of its E-optimal
    eigenvector, ``closed_form.e_optimal_bipartite(graph).eigvec``.
    """
    adj = _adjacency(graph)
    color = [-1] * graph.v
    components = 0
    bipartite = True
    for start in range(graph.v):
        if color[start] >= 0:
            continue
        components += 1
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for nb in adj[u]:
                if color[nb] < 0:
                    color[nb] = 1 - color[u]
                    queue.append(nb)
                elif color[nb] == color[u]:
                    bipartite = False
    connected = components == 1
    is_tree = connected and graph.s == graph.v - 1
    return GraphClassification(
        is_connected=connected,
        component_count=components,
        is_tree=is_tree,
        bipartition=tuple(color) if bipartite else None,
    )


def incidence_matrix(graph: ComparisonGraph) -> np.ndarray:
    """v-by-s incidence matrix: +1 at the edge tail, -1 at the head."""
    r = np.zeros((graph.v, graph.s))
    r[graph.ends.T, np.arange(graph.s)] = [[1.0], [-1.0]]
    return r


class _GraphSystem(ContrastSystem):
    """The contrast system of a comparison graph, built at the size of the graph.

    ``gram`` is the Laplacian D - A written from the edges: degrees on the
    diagonal and -1 at (a, b) and (b, a) for each edge. No pair repeats, so
    it is exactly incidence_matrix(graph) @ incidence_matrix(graph).T, with
    every entry a small integer. ``q`` is that incidence matrix, made on
    first read.
    """

    def __init__(self, graph: ComparisonGraph):
        if graph.s < 1:
            raise MalformedInput(f"need at least 2 treatments and 1 contrast, got {graph.v}x0")
        degrees = np.array(graph.degrees, dtype=np.float64)
        zero = np.flatnonzero(degrees == 0.0)
        if zero.size:
            raise ZeroRow(f"treatment {zero[0] + 1} has an all-zero coefficient row")
        gram = np.diag(degrees)
        a, b = graph.ends.T
        gram[a, b] = gram[b, a] = -1.0
        gram.flags.writeable = False
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "graph", graph)

    @cached_property
    def q(self) -> np.ndarray:
        q = incidence_matrix(self.graph)
        q.flags.writeable = False
        return q

    @property
    def s(self) -> int:
        return self.graph.s

    @property
    def row_norms(self) -> np.ndarray:
        """Square roots of the degrees: each row of q holds degree-many entries +-1."""
        return np.sqrt(np.diagonal(self.gram))


def graph_system(graph: ComparisonGraph) -> ContrastSystem:
    """The contrast system whose coefficient matrix is the incidence matrix,
    built from the edges (``_GraphSystem``) and refused where it would be."""
    return _GraphSystem(graph)


def rank_of(system: ContrastSystem, tol: float = RANK_TOL) -> int:
    """Numeric rank: Gram eigenvalues above tol relative to the largest.

    q q^T and q^T q share their positive eigenvalues, so the v-by-v Gram
    matrix gives the rank of any system, however many contrasts it has.
    Only the eigenvalues are read: the system's ``gram_values``, taken from
    ``gram_eigen`` where that is already made and otherwise from one
    values-only eigensolve per system, so every later call is a count, at
    any tolerance in (0, 1); any other tolerance raises
    ``PreconditionViolated``.
    """
    if not 0.0 < tol < 1.0:  # also refuses nan
        raise PreconditionViolated(f"rank tolerance must be a number in (0, 1), got {tol!r}")
    vals = system.gram_values
    if vals[0] <= 0.0:
        return 0
    return int(np.count_nonzero(vals > tol * vals[0]))
