"""Seeded input generation and the operation list of each workload.

``build_plan(workload, seed, workdir)`` writes every input file of one run
under ``workdir`` and returns the round: the fixed list of CLI operations
that the worker repeats until the run time is used up. The same seed gives
the same files and the same list. Inputs marked ``fixed`` do not depend on
the seed; only such operations may carry an expected ``fault``.
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx
import numpy as np

P_DENSE = ("0", "-1", "-2", "neg-inf")
P_DESCENT = ("0", "-0.5", "-2", "neg-inf")

# Expected faults of the program, counted as failed operations until mended.
FAULT_CERTIFICATE = "e_certificate_rank_one"  # exit 0, certificate inconclusive at an optimum
FAULT_OVERFLOW = "psi0_overflow"  # raises OverflowError
FAULT_KAPPA_JSON = "kappa_json_bool"  # raises TypeError while encoding the report


class Plan:
    """Input files and operations of one run, built under ``workdir``."""

    def __init__(self, workdir: Path, rel: str, rng: np.random.Generator):
        self.workdir = workdir
        self.rel = rel  # workdir as the CLI sees it, relative to the checkout root
        self.rng = rng
        self.fixed_rng = np.random.default_rng(0)  # for inputs that must not depend on the seed
        self.ops: list[dict] = []

    def _path(self, name: str) -> str:
        return f"{self.rel}/{name}"

    def graph(self, name: str, g: nx.Graph, orient: bool = True) -> str:
        """Write an edge list; each comparison gets a seeded direction unless fixed."""
        nodes = sorted(g.nodes())
        index = {u: k for k, u in enumerate(nodes)}
        lines = [f"v={len(nodes)}"]
        for a, b in sorted((min(index[a], index[b]), max(index[a], index[b])) for a, b in g.edges()):
            if orient and self.rng.random() < 0.5:
                a, b = b, a
            lines.append(f"{a + 1} {b + 1}")
        (self.workdir / f"{name}.edges").write_text("\n".join(lines) + "\n")
        return self._path(f"{name}.edges")

    def matrix(self, name: str, q: np.ndarray) -> str:
        rows = [",".join(repr(float(x)) for x in row) for row in q]
        (self.workdir / f"{name}.csv").write_text("\n".join(rows) + "\n")
        return self._path(f"{name}.csv")

    def design(self, name: str, v: int, fixed: bool = False) -> str:
        w = 0.5 + (self.fixed_rng if fixed else self.rng).random(v)
        w /= w.sum()
        (self.workdir / f"{name}.w").write_text(",".join(repr(float(x)) for x in w) + "\n")
        return self._path(f"{name}.w")

    def op(self, argv: list[str], fixed: bool = False, fault: str | None = None) -> None:
        if fault is not None and not fixed:
            raise ValueError("an expected fault may only sit on a seed-independent input")
        self.ops.append({"argv": argv, "fixed": fixed, "fault": fault})

    def relabel(self, g: nx.Graph) -> nx.Graph:
        perm = self.rng.permutation(g.number_of_nodes())
        return nx.relabel_nodes(g, {u: int(perm[k]) for k, u in enumerate(sorted(g.nodes()))})

    def shuffle(self, q: np.ndarray) -> np.ndarray:
        """The same contrast system with treatments and contrasts reordered
        and contrast signs flipped: Q Q^T only has its rows and columns permuted."""
        rows = self.rng.permutation(q.shape[0])
        cols = self.rng.permutation(q.shape[1])
        signs = self.rng.choice([-1.0, 1.0], q.shape[1])
        return q[rows][:, cols] * signs

    def subseed(self) -> int:
        return int(self.rng.integers(2**31 - 1))


def _connected(make, seed: int) -> nx.Graph:
    """First connected graph from ``make(seed), make(seed + 1), ...``."""
    while True:
        g = make(seed)
        if nx.is_connected(g):
            return g
        seed += 1


def _tree_with_chords(n: int, chords: int, seed: int) -> nx.Graph:
    g = nx.random_labeled_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    while g.number_of_edges() < n - 1 + chords:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            g.add_edge(a, b)
    return g


def _gaussian_system(v: int, s: int, seed: int) -> np.ndarray:
    """Column-centred Gaussian coefficients: rank min(s, v-1) almost surely."""
    q = np.random.default_rng(seed).standard_normal((v, s))
    return q - q.mean(axis=0, keepdims=True)


def _eval_and_optimize(plan: Plan, q: str, w: str, fixed: bool = False, fault_inf: str | None = None) -> None:
    """eval at the design w and optimize, each at every p; ``fixed`` says q is seed-independent."""
    for p in P_DENSE:
        plan.op(["eval", "--q", q, "--w", w, "--p", p])
    for p in P_DENSE:
        fault = fault_inf if p == "neg-inf" else None
        plan.op(["optimize", "--q", q, "--p", p], fixed=fixed, fault=fault)


def _dense(plan: Plan) -> None:
    # Complete graphs are fixed inputs: their E-optimum has a (v-1)-fold top
    # eigenvalue, so the rank-one certificate is inconclusive on every run.
    # The other systems are drawn once and presented anew by the seed (see
    # _descent); the eval designs are drawn from the seed.
    for v in (20, 40):
        q = plan.graph(f"K{v}", nx.complete_graph(v), orient=False)
        _eval_and_optimize(plan, q, plan.design(f"K{v}", v), fixed=True, fault_inf=FAULT_CERTIFICATE)
    v = 50
    edges = round(0.3 * v * (v - 1) / 2)  # G(v, 0.3) with the edge count fixed, so s is fixed
    g = plan.relabel(_connected(lambda sd: nx.gnm_random_graph(v, edges, seed=sd), 50))
    _eval_and_optimize(plan, plan.graph("G50", g), plan.design("G50", v))
    g = plan.relabel(nx.complete_bipartite_graph(18, 22))
    _eval_and_optimize(plan, plan.graph("K18_22", g), plan.design("K18_22", 40))
    q = plan.matrix("gauss16", plan.shuffle(_gaussian_system(16, 320, 16)))
    _eval_and_optimize(plan, q, plan.design("gauss16", 16))


def _descent(plan: Plan) -> None:
    # The systems are drawn once, from fixed seeds, and the run's seed
    # relabels the treatments, reorders and orients the comparisons. That
    # leaves the optimum and the iteration count as they are: drawn afresh,
    # a p = -inf descent ranges over 190-520 iterations, which would swamp
    # the run-to-run spread. Only the small tree is drawn from the seed.
    instances = [
        ("ba90", plan.graph("ba90", plan.relabel(nx.barabasi_albert_graph(90, 2, seed=90)))),
        ("ba40", plan.graph("ba40", plan.relabel(nx.barabasi_albert_graph(40, 3, seed=40)))),
        ("tree120", plan.graph("tree120", plan.relabel(_tree_with_chords(120, 20, 120)))),
        ("tree60", plan.graph("tree60", plan.relabel(_tree_with_chords(60, 10, 60)))),
        ("tree12", plan.graph("tree12", nx.random_labeled_tree(12, seed=plan.subseed()))),
        ("gauss40r20", plan.matrix("gauss40r20", plan.shuffle(_gaussian_system(40, 20, 40)))),
        ("gauss12r6", plan.matrix("gauss12r6", plan.shuffle(_gaussian_system(12, 6, 12)))),
    ]
    for _, q in instances:
        for p in P_DESCENT:
            plan.op(["optimize", "--q", q, "--p", p, "--method", "numeric"])
    # A fixed random 4-regular graph on 120 treatments: the product of its
    # 119 covariance eigenvalues, about v^v tau(G), exceeds the float range.
    q = plan.graph("reg120", nx.random_regular_graph(4, 120, seed=0), orient=False)
    plan.op(["optimize", "--q", q, "--p", "0", "--method", "numeric"], fixed=True, fault=FAULT_OVERFLOW)


def _paw() -> nx.Graph:
    return nx.Graph([(0, 1), (1, 2), (2, 0), (0, 3)])


def _control_average(v: int) -> np.ndarray:
    q = np.full((v, 1), 1.0 / (v - 1))
    q[0, 0] = -1.0
    return q


def _oracle(plan: Plan) -> None:
    grid = [
        ("paw", plan.graph("paw", plan.relabel(_paw())), "0.01", P_DENSE),
        ("star4", plan.graph("star4", plan.relabel(nx.star_graph(3))), "0.01", ("-1", "neg-inf")),
        ("path3", plan.graph("path3", plan.relabel(nx.path_graph(3))), "0.002", ("0", "-2")),
    ]
    perm = plan.rng.permutation(4)
    grid.append(("ctrl4", plan.matrix("ctrl4", _control_average(4)[perm]), "0.01", ("-2",)))
    for _, q, step, ps in grid:
        for p in ps:
            plan.op(["oracle", "--q", q, "--mode", "grid", "--p", p, "--grid-step", step])

    # Fixed inputs. On the v=10 one the forest total sets the largest
    # deviation, so the report's pass flag is a numpy bool and the JSON
    # encoder rejects it; the v=11 one gets through and is checked.
    for v, extra, fault in ((10, 12, FAULT_KAPPA_JSON), (11, 8, None)):
        name = f"forest{v}"
        q = plan.graph(name, _tree_with_chords(v, extra, v), orient=False)
        w = plan.design(name, v, fixed=True)
        plan.op(["oracle", "--q", q, "--mode", "kappa", "--w", w], fixed=True, fault=fault)

    sym = [
        ("ring11", plan.relabel(nx.cycle_graph(11))),
        ("circ12", plan.relabel(nx.circulant_graph(12, [1, 5]))),
        ("cubic12", nx.random_regular_graph(3, 12, seed=plan.subseed())),
        ("quartic11", nx.random_regular_graph(4, 11, seed=plan.subseed())),
    ]
    for name, g in sym:
        plan.op(["symmetry", "--q", plan.graph(name, g), "--max-v", "12"])

    # Orbit reduction: controls and treatments of a multi-control system each
    # form one cycle of the supplied permutation.
    labels = plan.rng.permutation(9)
    g = nx.relabel_nodes(nx.complete_bipartite_graph(3, 6), {k: int(labels[k]) for k in range(9)})
    cycles = [[int(labels[k]) for k in range(3)], [int(labels[k]) for k in range(3, 9)]]
    q = plan.graph("mctrl9", g)
    perm = _one_line(cycles, 9)
    for p in ("-0.5", "-2"):
        plan.op(["optimize", "--q", q, "--p", p, "--perm", perm])
    plan.op(["symmetry", "--q", q, "--perm", perm])
    # A rotation by three splits a 12-ring into three cycles.
    ring = plan.relabel(nx.cycle_graph(12))
    q = plan.graph("ring12", ring)
    order = _ring_order(ring)
    cycles = [[order[k] for k in range(r, 12, 3)] for r in range(3)]
    plan.op(["optimize", "--q", q, "--p", "-2", "--perm", _one_line(cycles, 12)])


def _ring_order(g: nx.Graph) -> list[int]:
    """Vertices of a cycle graph in the order they are met going round it."""
    return [u for u, _ in nx.find_cycle(g, source=min(g.nodes()))]


def _one_line(cycles: list[list[int]], v: int) -> str:
    """1-indexed one-line notation of the permutation with the given cycles."""
    image = list(range(v))
    for cycle in cycles:
        for k, u in enumerate(cycle):
            image[u] = cycle[(k + 1) % len(cycle)]
    return " ".join(str(x + 1) for x in image)


WORKLOADS = {"dense": _dense, "descent": _descent, "oracle": _oracle}

# Small calls that touch each command of a workload once; the worker runs
# them untimed before the loop and each set-up probe runs them after import.
WARMUP = {
    "dense": [["eval", "--p", "-2"], ["optimize", "--p", "neg-inf"]],
    "descent": [["optimize", "--p", "-2", "--method", "numeric"]],
    "oracle": [["oracle", "--mode", "grid", "--p", "-1", "--grid-step", "0.1"], ["oracle", "--mode", "kappa"],
               ["symmetry"]],
}


def build_plan(workload: str, seed: int, workdir: Path, rel: str) -> dict:
    plan = Plan(workdir, rel, np.random.default_rng([seed, sorted(WORKLOADS).index(workload)]))
    WORKLOADS[workload](plan)
    warm = Plan(workdir, rel, np.random.default_rng(0))
    q = warm.graph("warmup", _paw(), orient=False)
    w = warm.design("warmup", 4)
    warmup = []
    for argv in WARMUP[workload]:
        extra = ["--q", q] + (["--w", w] if argv[0] == "eval" else [])
        warmup.append(argv[:1] + extra + argv[1:])
    return {"workload": workload, "seed": seed, "ops": plan.ops, "warmup": warmup}
