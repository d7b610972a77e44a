"""Shared test instances and random generators."""

import numpy as np

from odg import ComparisonGraph, ContrastSystem, Design, graph_system

# seven-treatment caterpillar tree: comparisons 2-1, 3-2, 4-3, 5-3, 6-5, 7-5
TREE7_MATRIX = np.array(
    [
        [-1, 0, 0, 0, 0, 0],
        [1, -1, 0, 0, 0, 0],
        [0, 1, -1, -1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, -1, -1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    dtype=float,
)

TREE7_CSV = "\n".join(",".join(str(int(x)) for x in row) for row in TREE7_MATRIX) + "\n"


def tree7_system() -> ContrastSystem:
    return ContrastSystem(TREE7_MATRIX)


def paw_graph() -> ComparisonGraph:
    # triangle 1-2-3 plus pendant 4: comparisons 1-2, 2-3, 3-1, 1-4
    return ComparisonGraph(4, ((0, 1), (1, 2), (2, 0), (0, 3)))


def path3_graph() -> ComparisonGraph:
    return ComparisonGraph(3, ((1, 0), (2, 1)))


def star4_graph() -> ComparisonGraph:
    # hub 1 compared against each of 2, 3, 4
    return ComparisonGraph(4, ((1, 0), (2, 0), (3, 0)))


def control_average_column(v: int) -> ContrastSystem:
    """Single contrast: the average of treatments 2..v minus treatment 1."""
    q = np.full((v, 1), 1.0 / (v - 1))
    q[0, 0] = -1.0
    return ContrastSystem(q)


def centered_contrasts(v: int) -> ContrastSystem:
    return ContrastSystem(np.eye(v) - np.full((v, v), 1.0 / v))


def ring_system(v: int) -> ContrastSystem:
    """Comparisons 2-1, 3-2, ..., v-(v-1), 1-v around a cycle."""
    q = np.zeros((v, v))
    for k in range(v):
        q[(k + 1) % v, k] = 1.0
        q[k, k] = -1.0
    return ContrastSystem(q)


def two_groups_system(g: int) -> ContrastSystem:
    """Every member of the second group compared against every member of the first."""
    v = 2 * g
    cols = []
    for i in range(g):
        for j in range(g, v):
            col = np.zeros(v)
            col[j] = 1.0
            col[i] = -1.0
            cols.append(col)
    return ContrastSystem(np.array(cols).T)


def multi_control_system(v: int, g: int) -> ContrastSystem:
    """Treatments g+1..v each compared against every control 1..g."""
    cols = []
    for i in range(g):
        for j in range(g, v):
            col = np.zeros(v)
            col[j] = 1.0
            col[i] = -1.0
            cols.append(col)
    return ContrastSystem(np.array(cols).T)


def complete_graph(v: int) -> ComparisonGraph:
    edges = tuple((j, i) for i in range(v) for j in range(i + 1, v))
    return ComparisonGraph(v, edges)


def random_connected_graph(rng: np.random.Generator, v_max: int = 7, v_min: int = 3) -> ComparisonGraph:
    """Random spanning tree plus a few extra edges, random orientations."""
    v = int(rng.integers(v_min, v_max + 1))
    order = rng.permutation(v)
    edges = set()
    for idx in range(1, v):
        a = int(order[idx])
        b = int(order[int(rng.integers(0, idx))])
        edges.add((min(a, b), max(a, b)))
    for _ in range(int(rng.integers(0, v))):
        a, b = (int(x) for x in rng.integers(0, v, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    directed = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in sorted(edges))
    return ComparisonGraph(v, directed)


def connected_graph(rng: np.random.Generator, v: int, s: int) -> ComparisonGraph:
    """Random spanning tree plus random extra edges, s edges in all, random orientations."""
    order = rng.permutation(v)
    edges = set()
    for idx in range(1, v):
        a, b = int(order[idx]), int(order[int(rng.integers(0, idx))])
        edges.add((min(a, b), max(a, b)))
    while len(edges) < s:
        a, b = sorted(int(x) for x in rng.choice(v, 2, replace=False))
        edges.add((a, b))
    directed = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in sorted(edges))
    return ComparisonGraph(v, directed)


def random_pairwise_graph(rng: np.random.Generator, v_max: int = 8) -> ComparisonGraph:
    """Random simple graph; may be disconnected but leaves no vertex isolated."""
    while True:
        v = int(rng.integers(2, v_max + 1))
        pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
        keep = [p for p in pairs if rng.random() < 0.55]
        degrees = np.zeros(v, dtype=int)
        for a, b in keep:
            degrees[a] += 1
            degrees[b] += 1
        if keep and np.all(degrees > 0):
            directed = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in keep)
            return ComparisonGraph(v, directed)


def random_tree(rng: np.random.Generator, v: int) -> ComparisonGraph:
    order = rng.permutation(v)
    edges = []
    for idx in range(1, v):
        a = int(order[idx])
        b = int(order[int(rng.integers(0, idx))])
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    return ComparisonGraph(v, tuple(edges))


def random_design(rng: np.random.Generator, v: int, jitter: float = 0.05) -> Design:
    w = rng.random(v) + jitter
    return Design(w / w.sum())


def random_contrast_system(rng: np.random.Generator, v: int, s: int) -> ContrastSystem:
    """Column-centered Gaussian coefficients; rank min(s, v-1) almost surely."""
    q = rng.standard_normal((v, s))
    q -= q.mean(axis=0, keepdims=True)
    return ContrastSystem(q)


def random_integer_system(rng: np.random.Generator, v: int, s: int) -> ContrastSystem:
    """Each column a sum of three comparisons e_i - e_j with weights 1 or 2;
    redrawn until no row is zero."""
    while True:
        q = np.zeros((v, s))
        for k in range(s):
            for _ in range(3):
                i, j = rng.choice(v, 2, replace=False)
                c = rng.integers(1, 3)
                q[i, k] += c
                q[j, k] -= c
        if q.any(axis=1).all():
            return ContrastSystem(q)


def integer_system_of_rank(rng: np.random.Generator, v: int, r: int) -> ContrastSystem:
    """r integer columns in [-2, 2], the last row balancing each; redrawn
    until q has rank r and no zero row."""
    while True:
        q = rng.integers(-2, 3, (v, r))
        q[-1] = -q[:-1].sum(axis=0)
        if q.any(axis=1).all() and np.linalg.matrix_rank(q) == r:
            return ContrastSystem(q)


def disjoint_union(*graphs: ComparisonGraph) -> ComparisonGraph:
    """The graphs side by side, vertices numbered in the order given."""
    edges, offset = [], 0
    for graph in graphs:
        edges.extend((a + offset, b + offset) for a, b in graph.edges)
        offset += graph.v
    return ComparisonGraph(offset, tuple(edges))


def pairwise_system(graph: ComparisonGraph) -> ContrastSystem:
    return graph_system(graph)
