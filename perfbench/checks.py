"""Checks of odg CLI output, computed apart from odg.

Every value is recomputed from the input files and the returned design with
numpy, scipy and networkx, or tested against a property the method must
have. The v-by-v matrix K(w) = W^{-1/2} Q Q^T W^{-1/2} shares its positive
eigenvalues with the s-by-s covariance matrix Q^T W^{-1} Q, so no check
needs an s-by-s eigensolve.

``check(op, code, text)`` returns a ``Verdict``: ``errors`` lists every
check the output failed, ``failure`` says why the operation counts as
failed (a named program fault, or an exit without a result), and
``efficiency`` is the design-efficiency lower bound of an optimized
design.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import GraphMatcher
from scipy import linalg, optimize

from instances import FAULT_CERTIFICATE, FAULT_KAPPA_JSON, FAULT_OVERFLOW

EFF_MIN = 0.999  # smallest accepted efficiency lower bound of an optimized design
REL = 1e-7  # relative tolerance on recomputed criterion values
SPEC_REL = 1e-8  # eigenvalue tolerance, relative to the largest eigenvalue
CERT_REL = 1e-6  # a certificate gap above this share of its rhs certifies nothing
RAISES = {FAULT_OVERFLOW: "OverflowError", FAULT_KAPPA_JSON: "TypeError"}  # how a named fault shows
TOP_SHARE = 0.05  # eigenvalues this close to the largest span the dual search space


@dataclass
class System:
    q: np.ndarray
    graph: nx.Graph | None  # the comparison graph of a pairwise system

    @property
    def v(self) -> int:
        return self.q.shape[0]

    @property
    def s(self) -> int:
        return self.q.shape[1]

    @property
    def gram(self) -> np.ndarray:
        return self.q @ self.q.T


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    failure: str | None = None
    efficiency: float | None = None

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def read_system(path: str) -> System:
    text = Path(path).read_text()
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if lines[0][0].startswith("v="):
        v = int(lines[0][0][2:])
        q = np.zeros((v, len(lines) - 1))
        g = nx.empty_graph(v)
        for k, (j, i) in enumerate(lines[1:]):
            q[int(j) - 1, k], q[int(i) - 1, k] = 1.0, -1.0
            g.add_edge(int(j) - 1, int(i) - 1)
        return System(q, g)
    q = np.array([[float(x) for x in ln.split(",")] for ln in text.splitlines() if ln.strip()])
    return System(q, None)


def read_design(path: str) -> np.ndarray:
    return np.array([float(x) for x in Path(path).read_text().replace(",", " ").split()])


def parse_p(text: str) -> float:
    return -math.inf if text == "neg-inf" else float(text)


def vertex_eigen(system: System, w: np.ndarray):
    """Descending eigenvalues and eigenvectors of K(w)."""
    isw = 1.0 / np.sqrt(w)
    vals, vecs = linalg.eigh(system.gram * np.outer(isw, isw))
    return vals[::-1], vecs[:, ::-1]


def rank(system: System) -> int:
    return int(np.linalg.matrix_rank(system.q))


def criterion(top: np.ndarray, p: float):
    """(psi, phi, log psi) of the positive eigenvalues ``top``."""
    r = top.size
    if p == -math.inf:
        psi = float(top[0])
        return psi, 1.0 / psi, math.log(psi)
    if p == 0.0:
        log_psi = float(np.sum(np.log(top)))
        return math.exp(min(log_psi, 700.0)), math.exp(-log_psi / r), log_psi
    psi = float(np.sum(top ** (-p)))
    return psi, (psi / r) ** (1.0 / p), math.log(psi)


def log_spanning_trees(g: nx.Graph) -> float:
    """log of the spanning-tree count, by Kirchhoff's matrix-tree theorem."""
    lap = nx.laplacian_matrix(g, nodelist=range(g.number_of_nodes())).toarray().astype(float)
    sign, logdet = np.linalg.slogdet(lap[1:, 1:])
    if sign <= 0:
        raise ValueError("graph is not connected")
    return float(logdet)


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _value_and_gap(system: System, r: int, w: np.ndarray, p: float):
    """f(w) and its Frank-Wolfe gap grad.w - min_i grad_i, with f = log psi_0
    at p = 0 and f = psi_p for finite p < 0, both convex on the simplex."""
    vals, vecs = vertex_eigen(system, w)
    top, sq = vals[:r], vecs[:, :r] ** 2
    if p == 0.0:
        value, grad = float(np.sum(np.log(top))), -(sq.sum(axis=1)) / w
    else:
        value, grad = float(np.sum(top ** (-p))), p * (sq @ top ** (-p)) / w
    return value, grad, max(float(grad @ w - grad.min()), 0.0)


def fw_efficiency(system: System, w: np.ndarray, p: float) -> float:
    """Efficiency lower bound of w at finite p.

    The Frank-Wolfe gap at any design u bounds f(u) - f* (Jaggi, ICML
    2013). The gap at w itself is loose when the descent stopped early, so
    u is also taken as w polished by L-BFGS over softmax weights; the larger
    of the two lower bounds on f* gives the efficiency bound of w.
    """
    r = rank(system)
    f_w, _, gap_w = _value_and_gap(system, r, w, p)

    def objective(z):
        u = np.exp(z - z.max())
        u /= u.sum()
        value, grad, _ = _value_and_gap(system, r, u, p)
        return value, u * (grad - grad @ u)

    res = optimize.minimize(objective, np.log(w), jac=True, method="L-BFGS-B",
                            options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-13})
    u = np.exp(res.x - res.x.max())
    f_u, _, gap_u = _value_and_gap(system, r, u / u.sum(), p)
    f_star = max(f_w - gap_w, f_u - gap_u)  # a lower bound on the optimum of f
    if p == 0.0:
        return math.exp(-(f_w - f_star) / r)
    return (max(f_star, 0.0) / f_w) ** (-1.0 / p)


def dual_bound(system: System, w: np.ndarray) -> float:
    """Lower bound on the optimal largest covariance eigenvalue.

    For any trace-one PSD E on the contrast space and any design u,
    lambda_max(Q^T U^{-1} Q) >= sum_i (Q E Q^T)_ii / u_i >= (sum_i sqrt((Q E Q^T)_ii))^2.
    E = H M H^T ranges over the top eigenspace H of the covariance at w,
    where Q h_j = sqrt(lambda_j) W^{1/2} u_j; the trace-one PSD M is
    searched as L L^T / |L|^2 from M = I/m.
    """
    vals, vecs = vertex_eigen(system, w)
    m = int(min(np.count_nonzero(vals >= (1.0 - TOP_SHARE) * vals[0]), 64))
    b = np.sqrt(w)[:, None] * vecs[:, :m] * np.sqrt(vals[:m])

    def negative(flat):
        lm = flat.reshape(m, m)
        c = float(np.sum(lm * lm))
        bl = b @ lm
        a = np.sum(bl * bl, axis=1) / c
        root = np.sqrt(np.maximum(a, 1e-300))
        g = float(root.sum())
        gm_l = (b.T / (2.0 * root)) @ bl  # (sum_i b_i b_i^T / 2 sqrt(a_i)) L
        inner = float(np.sum(a / (2.0 * root)))  # <G, M>
        grad = (2.0 / c) * (gm_l - inner * lm)
        return -g, -grad.ravel()

    start = np.eye(m).ravel()
    best = -negative(start)[0]
    res = optimize.minimize(negative, start, jac=True, method="L-BFGS-B", options={"maxiter": 200})
    return max(best, -float(res.fun)) ** 2


def _check_values(v: Verdict, system: System, w: np.ndarray, p: float, doc: dict) -> np.ndarray:
    """Criterion and spectrum keys against K(w); returns K's eigenvalues."""
    r = rank(system)
    vals, _ = vertex_eigen(system, w)
    scale = float(vals[0])
    psi, phi, log_psi = criterion(vals[:r], p)
    crit = doc["criterion"]
    v.expect(crit["rank"] == r, f"rank {crit['rank']} != {r}")
    got_log = math.log(crit["psi"]) if crit["psi"] > 0 else -math.inf
    v.expect(abs(got_log - log_psi) <= REL, f"psi {crit['psi']!r} != {psi!r}")
    v.expect(close(crit["phi"], phi), f"phi {crit['phi']!r} != {phi!r}")
    spectrum = np.asarray(doc.get("spectrum") or [])
    if spectrum.size:
        v.expect(spectrum.size == system.s, f"spectrum has {spectrum.size} values, s={system.s}")
        pos = np.zeros(system.s)
        pos[:r] = vals[:r]
        v.expect(bool(np.all(np.abs(spectrum - pos) <= SPEC_REL * scale)), "spectrum differs from K(w)")
    lap = doc.get("laplacian_spectrum")
    if lap is not None:
        lap = np.asarray(lap)
        v.expect(
            bool(np.all(np.abs(lap[:r] - spectrum[:r]) <= SPEC_REL * scale))
            and bool(np.all(np.abs(lap[r:]) <= SPEC_REL * scale)),
            "laplacian_spectrum and spectrum differ in their positive part",
        )
    if p == 0.0 and system.graph is not None and nx.is_connected(system.graph):
        kirchhoff = log_spanning_trees(system.graph) - float(np.sum(np.log(w)))
        v.expect(abs(got_log - kirchhoff) <= REL, "psi_0 differs from tau(G)/prod(w)")
    return vals


def _design(v: Verdict, doc: dict, size: int) -> np.ndarray:
    w = np.asarray(doc["design"], dtype=float)
    v.expect(w.size == size and bool(np.all(w > 0)) and abs(w.sum() - 1.0) <= 1e-9, "design is not on the simplex")
    return w


def check_eval(op: dict, doc: dict) -> Verdict:
    v = Verdict()
    args = _args(op)
    system = read_system(args["--q"])
    w = _design(v, doc, system.v)
    v.expect(bool(np.array_equal(w, read_design(args["--w"]))), "design differs from the --w file")
    _check_values(v, system, w, parse_p(args["--p"]), doc)
    return v


def efficiency(system: System, w: np.ndarray, p: float) -> float:
    return dual_bound(system, w) / vertex_eigen(system, w)[0][0] if p == -math.inf else fw_efficiency(system, w, p)


def check_optimize(op: dict, doc: dict) -> Verdict:
    v = Verdict()
    args = _args(op)
    system = read_system(args["--q"])
    p = parse_p(args["--p"])
    w = _design(v, doc, system.v)
    vals = _check_values(v, system, w, p, doc)
    method = doc["optimizer"]["method"]
    if method == "a_general":
        norms = np.linalg.norm(system.q, axis=1)
        v.expect(p == -1.0 and bool(np.allclose(w, norms / norms.sum(), rtol=1e-9, atol=0)), "not w ~ row norms")
    elif method == "d_uniform":
        v.expect(p == 0.0 and rank(system) == system.v - 1, "uniform rule off rank v-1")
        v.expect(bool(np.allclose(w, 1.0 / system.v, rtol=1e-12, atol=0)), "design is not uniform")
    elif method == "e_bipartite":
        g = system.graph
        v.expect(p == -math.inf and g is not None and nx.is_bipartite(g), "degree rule off bipartite graphs")
        if g is not None:
            deg = np.array([g.degree(u) for u in range(system.v)], dtype=float)
            v.expect(bool(np.allclose(w, deg / deg.sum(), rtol=1e-12, atol=0)), "w is not ~ degree")
            v.expect(close(doc["criterion"]["psi"], 4.0 * system.s, 1e-9), "E-value is not 4s")
    else:
        v.expect(method == "numeric", f"unknown method {method!r}")
    if "--perm" in args:
        for cycle in _cycles(_perm(args["--perm"])):
            v.expect(float(np.ptp(w[cycle])) <= 1e-9, "design is not constant on an orbit")
    v.efficiency = efficiency(system, w, p)
    v.expect(v.efficiency >= EFF_MIN, f"efficiency lower bound {v.efficiency:.6f} < {EFF_MIN}")
    cert = doc["certificate"]
    if p == -math.inf:
        v.expect(close(cert["rhs"], float(vals[0]), 1e-8), "certificate rhs is not lambda_max")
        # An inconclusive certificate on an optimal design is the named fault;
        # it is counted only on fixed inputs, where it shows on every run.
        if cert["gap"] > CERT_REL * cert["rhs"] and op["fixed"]:
            v.failure = FAULT_CERTIFICATE
    else:
        v.expect(cert is None, "certificate outside p = -inf")
    return v


def _lattice_neighbours(x: np.ndarray, n: int):
    """Lattice points (positive integers summing to n) next to n * x."""
    lo = np.maximum(np.floor(x * n), 1).astype(int)
    for bump in itertools.product((0, 1), repeat=x.size):
        counts = lo + np.array(bump)
        if counts.sum() == n:
            yield counts


def check_grid(op: dict, doc: dict) -> Verdict:
    """The lattice minimum is no better than the optimum and no worse than
    any lattice point next to the optimum."""
    v = Verdict()
    args = _args(op)
    system = read_system(args["--q"])
    p = parse_p(args["--p"])
    n = round(1.0 / float(args["--grid-step"]))
    w = _design(v, doc, system.v)
    counts = w * n
    v.expect(bool(np.allclose(counts, np.round(counts), atol=1e-9)), "grid design is off the lattice")
    _check_values(v, system, w, p, doc)
    r = rank(system)

    def value(x):
        return criterion(vertex_eigen(system, x)[0][:r], p)[2]

    ref = np.asarray(doc["oracle"]["reference_design"], dtype=float)
    eff = efficiency(system, ref, p)
    v.expect(eff >= EFF_MIN, f"reference design efficiency {eff:.6f} < {EFF_MIN}")
    # phi* <= phi(ref) / eff; in log psi this is the bound below
    if p == -math.inf:
        floor_log = value(ref) + math.log(eff)
    elif p == 0.0:
        floor_log = value(ref) + r * math.log(eff)
    else:
        floor_log = value(ref) - p * math.log(eff)
    got = value(w)
    v.expect(got >= floor_log - 1e-9, "lattice design beats the optimum")
    near = [value(c / n) for c in _lattice_neighbours(ref, n)]
    v.expect(bool(near), "no lattice point next to the optimum")
    v.expect(not near or got <= min(near) + 1e-12, "a lattice point next to the optimum is better")
    return v


def check_kappa(op: dict, doc: dict) -> Verdict:
    v = Verdict()
    args = _args(op)
    system = read_system(args["--q"])
    w = read_design(args["--w"])
    expected = log_spanning_trees(system.graph) - float(np.sum(np.log(w)))
    orc = doc["oracle"]
    v.expect(orc["rank"] == system.v - 1 and orc["passed"] is True, "kappa report does not pass")
    for key in ("psi0", "kappa", "char_coeff"):
        v.expect(abs(math.log(orc[key]) - expected) <= 1e-6, f"{key} differs from tau(G)/prod(w)")
    return v


def _perm(text: str) -> list[int]:
    return [int(x) - 1 for x in text.split()]


def _cycles(mapping: list[int]) -> list[list[int]]:
    seen, cycles = set(), []
    for start in range(len(mapping)):
        if start not in seen:
            cycle, u = [], start
            while u not in seen:
                seen.add(u)
                cycle.append(u)
                u = mapping[u]
            cycles.append(cycle)
    return cycles


def _invariant(system: System, mapping: list[int]) -> bool:
    gram = system.gram
    m = np.asarray(mapping)
    return bool(np.abs(gram[np.ix_(m, m)] - gram).max() <= 1e-10)


def has_cyclic_automorphism(g: nx.Graph) -> bool:
    """Whether some automorphism of g is one cycle through all vertices."""
    v = g.number_of_nodes()
    for iso in GraphMatcher(g, g).isomorphisms_iter():
        if len(_cycles([iso[u] for u in range(v)])) == 1:
            return True
    return False


def check_symmetry(op: dict, doc: dict) -> Verdict:
    v = Verdict()
    args = _args(op)
    system = read_system(args["--q"])
    sym = doc["symmetry"]
    cyclic = sym["cyclic"]
    if cyclic is not None:
        mapping = [x - 1 for x in cyclic]
        v.expect(sorted(mapping) == list(range(system.v)), "cyclic is not a permutation")
        v.expect(len(_cycles(mapping)) == 1, "cyclic is not a single cycle")
        v.expect(_invariant(system, mapping), "cyclic does not leave Q Q^T invariant")
    else:
        v.expect(not has_cyclic_automorphism(system.graph), "a cyclic invariance exists but none was returned")
    v.expect(sym["uniform_optimal"] is (cyclic is not None), "uniform_optimal disagrees with cyclic")
    if "--perm" in args:
        mapping = _perm(args["--perm"])
        invariant = _invariant(system, mapping)
        v.expect(sym["perm_invariant"] is invariant, "perm_invariant is wrong")
        if invariant:
            cycles = _cycles(mapping)
            v.expect(sym["orbit_count"] == len(cycles), "orbit_count is wrong")
            labels = [x - 1 for x in sym["orbit_of"]]
            v.expect(all(len({labels[u] for u in c}) == 1 for c in cycles), "orbit_of splits a cycle")
            v.expect(len(set(labels)) == len(cycles), "orbit_of merges cycles")
    return v


def _args(op: dict) -> dict:
    argv = op["argv"]
    return {argv[k]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}


def check(op: dict, code, text: str) -> Verdict:
    """Judge one operation's outcome: exit code (or exception name) and stdout."""
    if code != 0:
        expected = RAISES.get(op["fault"]) == code
        return Verdict(failure=op["fault"] if expected else f"exit {code!r}")
    try:
        doc = json.loads(text)
    except ValueError:
        return Verdict(errors=["stdout is not one JSON document"])
    command = op["argv"][0]
    if command == "eval":
        return check_eval(op, doc)
    if command == "optimize":
        return check_optimize(op, doc)
    if command == "symmetry":
        return check_symmetry(op, doc)
    return check_kappa(op, doc) if _args(op)["--mode"] == "kappa" else check_grid(op, doc)
