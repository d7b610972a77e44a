"""Each checker accepts a known optimum and rejects a perturbed design.

    python3 -m pytest perfbench/test_checks.py

The documents handed to the checkers are built here in the shape the CLI
prints, with values computed from the design they carry, so a rejection
comes from the optimality or identity the checker tests and not from a
stale number.
"""

import math

import networkx as nx
import numpy as np
import pytest

import checks
from instances import FAULT_CERTIFICATE, FAULT_KAPPA_JSON, FAULT_OVERFLOW, Plan

# the seven-treatment caterpillar: comparisons 2-1, 3-2, 4-3, 5-3, 6-5, 7-5
TREE7 = nx.Graph([(1, 0), (2, 1), (3, 2), (4, 2), (5, 4), (6, 4)])


@pytest.fixture
def plan(tmp_path):
    return Plan(tmp_path, str(tmp_path), np.random.default_rng(7))


def perturb(w, share=0.08):
    """Move ``share`` of the mass from the heaviest weight to the lightest other one."""
    w = np.array(w, dtype=float)
    heavy = int(np.argmax(w))
    light = min((k for k in range(w.size) if k != heavy), key=lambda k: w[k])
    w[heavy] -= share
    w[light] += share
    return w


def doc_for(system, w, p, method=None, gap=None):
    """An optimize/eval document for design w, consistent with w."""
    r = checks.rank(system)
    vals, _ = checks.vertex_eigen(system, w)
    psi, phi, _ = checks.criterion(vals[:r], p)
    spectrum = np.zeros(system.s)
    spectrum[:r] = vals[:r]
    doc = {
        "design": [float(x) for x in w],
        "criterion": {"psi": psi, "phi": phi, "rank": r},
        "spectrum": [float(x) for x in spectrum],
        "certificate": None,
    }
    if method is not None:
        doc["optimizer"] = {"method": method, "iterations": 0, "converged": True}
    if p == -math.inf:
        doc["certificate"] = {"lhs_max": psi + (gap or 0.0), "rhs": psi, "gap": gap or 0.0, "witness": 1}
    return doc


def optimize_op(q, p, fixed=False):
    return {"argv": ["optimize", "--q", q, "--p", p], "fixed": fixed, "fault": None}


def degrees(g):
    return np.array([g.degree(u) for u in range(g.number_of_nodes())], dtype=float)


def test_tree7_a_optimum_is_sqrt_degree(plan):
    q = plan.graph("tree7", TREE7)
    system = checks.read_system(q)
    roots = np.sqrt(degrees(TREE7))
    best = roots / roots.sum()
    assert np.allclose(best, np.linalg.norm(system.q, axis=1) / np.linalg.norm(system.q, axis=1).sum())
    assert checks.fw_efficiency(system, best, -1.0) > 1 - 1e-9
    assert not checks.check_optimize(optimize_op(q, "-1"), doc_for(system, best, -1.0, "a_general")).errors
    worse = perturb(best)
    assert checks.fw_efficiency(system, worse, -1.0) < checks.EFF_MIN
    assert checks.check_optimize(optimize_op(q, "-1"), doc_for(system, worse, -1.0, "a_general")).errors
    assert checks.check_optimize(optimize_op(q, "-1"), doc_for(system, worse, -1.0, "numeric")).errors


def test_bipartite_degree_rule_has_value_4s(plan):
    q = plan.graph("tree7", TREE7)
    system = checks.read_system(q)
    best = degrees(TREE7) / degrees(TREE7).sum()
    doc = doc_for(system, best, -math.inf, "e_bipartite")
    assert math.isclose(doc["criterion"]["psi"], 4.0 * system.s, rel_tol=1e-12)
    verdict = checks.check_optimize(optimize_op(q, "neg-inf"), doc)
    assert not verdict.errors and verdict.efficiency > 1 - 1e-9
    worse = perturb(best)
    assert checks.dual_bound(system, worse) / checks.vertex_eigen(system, worse)[0][0] < checks.EFF_MIN
    assert checks.check_optimize(optimize_op(q, "neg-inf"), doc_for(system, worse, -math.inf, "e_bipartite")).errors
    assert checks.check_optimize(optimize_op(q, "neg-inf"), doc_for(system, worse, -math.inf, "numeric")).errors


@pytest.mark.parametrize("p", ["0", "-2", "neg-inf"])
def test_uniform_design_is_optimal_on_complete_graph(plan, p):
    q = plan.graph("K6", nx.complete_graph(6), orient=False)
    system = checks.read_system(q)
    p_value = checks.parse_p(p)
    uniform = np.full(6, 1 / 6)
    method = "d_uniform" if p == "0" else "numeric"
    verdict = checks.check_optimize(optimize_op(q, p), doc_for(system, uniform, p_value, method))
    assert not verdict.errors and verdict.efficiency > 1 - 1e-9
    worse = perturb(uniform, 0.05)
    assert checks.check_optimize(optimize_op(q, p), doc_for(system, worse, p_value, method)).errors


def test_inconclusive_certificate_counts_only_on_fixed_input(plan):
    q = plan.graph("K6", nx.complete_graph(6), orient=False)
    system = checks.read_system(q)
    doc = doc_for(system, np.full(6, 1 / 6), -math.inf, "numeric", gap=5.0)
    fixed = checks.check_optimize(optimize_op(q, "neg-inf", fixed=True), doc)
    assert fixed.failure == FAULT_CERTIFICATE and not fixed.errors
    drawn = checks.check_optimize(optimize_op(q, "neg-inf"), doc)
    assert drawn.failure is None and not drawn.errors


@pytest.mark.parametrize("v", [3, 5, 7])
def test_spanning_trees_of_complete_graph(v):
    assert math.isclose(checks.log_spanning_trees(nx.complete_graph(v)), (v - 2) * math.log(v), abs_tol=1e-9)


def test_kappa_report_equals_tau_over_prod_w(plan):
    v = 5
    q = plan.graph("K5", nx.complete_graph(v), orient=False)
    w_path = plan.design("K5", v)
    w = checks.read_design(w_path)
    expected = v ** (v - 2) / np.prod(w)
    op = {"argv": ["oracle", "--q", q, "--mode", "kappa", "--w", w_path], "fixed": True, "fault": None}

    def report(value):
        return {"oracle": {"rank": v - 1, "psi0": value, "kappa": value, "char_coeff": value, "passed": True}}

    assert not checks.check_kappa(op, report(expected)).errors
    assert checks.check_kappa(op, report(expected * 1.001)).errors


def test_eval_recomputes_values_and_spectra(plan):
    g = nx.complete_graph(5)
    q = plan.graph("K5", g)
    w_path = plan.design("K5", 5)
    system, w = checks.read_system(q), checks.read_design(w_path)
    op = {"argv": ["eval", "--q", q, "--w", w_path, "--p", "0"], "fixed": False, "fault": None}
    doc = doc_for(system, w, 0.0)
    doc["laplacian_spectrum"] = doc["spectrum"][:4] + [0.0]
    assert not checks.check_eval(op, doc).errors
    # psi_0 must match tau(G)/prod(w): scale it off by one part in a million
    bad = dict(doc, criterion=dict(doc["criterion"], psi=doc["criterion"]["psi"] * (1 + 1e-6)))
    assert checks.check_eval(op, bad).errors
    bad = dict(doc, laplacian_spectrum=[x * 1.01 for x in doc["laplacian_spectrum"]])
    assert checks.check_eval(op, bad).errors
    bad = dict(doc, spectrum=doc["spectrum"][:-1] + [1e-3])
    assert checks.check_eval(op, bad).errors


def test_grid_accepts_the_lattice_minimum_only(plan):
    q = plan.graph("path3", nx.path_graph(3), orient=False)
    system = checks.read_system(q)
    n, p = 20, -1.0
    lattice = [np.array([a, b, n - a - b]) / n for a in range(1, n) for b in range(1, n - a)]

    def value(w):
        return checks.criterion(checks.vertex_eigen(system, w)[0][:2], p)[0]

    ordered = sorted(lattice, key=value)
    roots = np.sqrt(degrees(nx.path_graph(3)))
    op = {"argv": ["oracle", "--q", q, "--mode", "grid", "--p", "-1", "--grid-step", "0.05"],
          "fixed": False, "fault": None}

    def report(w):
        doc = doc_for(system, w, p)
        doc["oracle"] = {"reference_design": list(roots / roots.sum())}
        return doc

    assert not checks.check_grid(op, report(ordered[0])).errors
    assert checks.check_grid(op, report(ordered[1])).errors


def test_symmetry_cycles_are_checked_against_automorphisms(plan):
    q = plan.graph("ring6", nx.cycle_graph(6))
    op = {"argv": ["symmetry", "--q", q], "fixed": False, "fault": None}

    def report(cyclic):
        return {"symmetry": {"cyclic": cyclic, "uniform_optimal": cyclic is not None}}

    assert not checks.check_symmetry(op, report([2, 3, 4, 5, 6, 1])).errors
    assert checks.check_symmetry(op, report([3, 2, 4, 5, 6, 1])).errors  # not one cycle
    assert checks.check_symmetry(op, report([3, 4, 5, 6, 1, 2])).errors  # a rotation by two
    assert checks.check_symmetry(op, report(None)).errors
    q = plan.graph("tree7", TREE7)
    op = {"argv": ["symmetry", "--q", q], "fixed": False, "fault": None}
    assert not checks.check_symmetry(op, report(None)).errors


def test_named_faults_count_as_failures():
    op = {"argv": ["optimize"], "fixed": True, "fault": FAULT_OVERFLOW}
    assert checks.check(op, "OverflowError", "").failure == FAULT_OVERFLOW
    assert checks.check(op, 1, "").failure == "exit 1"
    op = {"argv": ["oracle"], "fixed": True, "fault": FAULT_KAPPA_JSON}
    assert checks.check(op, "TypeError", "").failure == FAULT_KAPPA_JSON
