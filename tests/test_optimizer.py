import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
import odg.contrasts
import odg.criteria
import odg.optimizer
from odg import (
    ComparisonGraph,
    ContrastSystem,
    Design,
    OptimizeOptions,
    a_optimal,
    covariance_matrix,
    d_optimal_uniform,
    detect_pairwise,
    e_certificate,
    e_optimal_bipartite,
    eigensystem_sym,
    graph_system,
    grid_oracle,
    optimize_phi_p,
    psi_p,
    rank_of,
)
from odg.symmetry import OrbitReduction, Permutation, orbit_reduction
from odg.criteria import _evaluate
from odg.errors import TooLarge

NEG_INF = float("-inf")
EXTREME_SCALES = (2.0**300, 2.0**500, 2.0**-300)  # the squares of G's entries leave the float range


class TestOptimize:
    def test_trace_criterion_matches_closed_form(self, tree7):
        result = optimize_phi_p(tree7, -1.0, OptimizeOptions(tol=1e-12))
        assert result.converged
        assert np.abs(result.design.w - a_optimal(tree7).design.w).max() < 1e-6

    def test_largest_eigenvalue_tree7(self, tree7, tree7_graph):
        result = optimize_phi_p(tree7, NEG_INF)
        reference = e_optimal_bipartite(tree7_graph)
        assert result.converged
        assert abs(result.criterion.psi - 24.0) <= 24.0 * 1e-5
        assert np.abs(result.design.w - reference.design.w).max() < 1e-4
        assert result.certificate is not None

    def test_largest_eigenvalue_paw(self, paw_system):
        # the exact E-optimum is 13, at w = (5, 3, 3, 2) / 13: unlike tree7's
        # it is not the bipartite closed form
        result = optimize_phi_p(paw_system, NEG_INF)
        assert abs(result.criterion.psi - 13.0) <= 13.0 * 2e-6

    def test_determinant_criterion_matches_uniform(self, tree7):
        result = optimize_phi_p(tree7, 0.0)
        assert np.abs(result.design.w - 1.0 / 7.0).max() < 1e-6

    def test_never_worse_than_closed_forms(self, rng):
        for _ in range(10):
            graph = instances.random_connected_graph(rng, 6)
            system = graph_system(graph)
            numeric = optimize_phi_p(system, -1.0, OptimizeOptions(tol=1e-11))
            closed = a_optimal(system)
            assert numeric.criterion.psi <= closed.criterion.psi * (1 + 1e-5)
            numeric0 = optimize_phi_p(system, 0.0, OptimizeOptions(tol=1e-11))
            closed0 = d_optimal_uniform(system)
            assert numeric0.criterion.psi <= closed0.criterion.psi * (1 + 1e-5)

    def test_intermediate_exponent_converges(self, paw_system, rng):
        result = optimize_phi_p(paw_system, -2.0)
        assert result.converged
        rank = rank_of(paw_system)
        for _ in range(200):
            w = instances.random_design(rng, 4)
            assert result.criterion.psi <= psi_p(paw_system, w, -2.0, rank=rank).psi * (1 + 1e-8)

    def test_deterministic(self, paw_system):
        a = optimize_phi_p(paw_system, -2.0)
        b = optimize_phi_p(paw_system, -2.0)
        assert np.array_equal(a.design.w, b.design.w)
        assert a.iterations == b.iterations

    def test_budget_exhaustion_reported(self, paw_system):
        result = optimize_phi_p(paw_system, NEG_INF, OptimizeOptions(max_iter=3))
        assert not result.converged
        assert result.iterations <= 3

    @pytest.mark.parametrize("p", [-150.0, -200.0])
    def test_huge_finite_gradient_still_descends(self, tree7, p):
        # the gradient's entries are finite but the sum of their squares is
        # not; the first step must not collapse to zero at the warm start
        start = psi_p(tree7, a_optimal(tree7).design, p).psi
        result = optimize_phi_p(tree7, p)
        assert result.iterations > 1
        assert result.criterion.psi < start

    @pytest.mark.parametrize("p", [-300.0, -1000.0])
    def test_converges_where_psi_overflows(self, tree7, p):
        # psi_p exceeds the float range here; the descent's value, the power
        # mean 1/phi_p, stays within the eigenvalues' range
        result = optimize_phi_p(tree7, p)
        assert result.converged
        phi = result.criterion.phi
        assert phi > psi_p(tree7, a_optimal(tree7).design, p).phi
        assert psi_p(tree7, result.design, NEG_INF).phi < phi < psi_p(tree7, result.design, -2.0).phi

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "c, p",
        [(c, p) for c in (1 / 64, 8.0, 1024.0) for p in (0.0, -0.5, -2.0, NEG_INF)]
        + [(c, p) for c in EXTREME_SCALES for p in (-0.5, -2.0, NEG_INF)],
    )
    def test_scale_equivariant_bit_for_bit(self, p, c):
        # Q -> cQ with c a power of 2 scales K(w), the value and the gradient
        # by c^2 exactly, each curvature pair's y by c^2 and its 1/s'y by
        # 1/c^2, and leaves every direction as it is: the same iterates follow.
        # At p = -inf it scales G V and the dual allocation by c^2 and leaves
        # the unit rows of V, the design and the Cholesky proof's outcome as
        # they are. Past c = 2^+-300 the squares of G's entries leave the
        # float range; both routes work on G scaled by a power of two, and
        # only the dual's start, G's eigenvectors, may differ in rounding.
        # (psi_0 itself leaves the float range there, so p = 0 stays out.)
        rng = np.random.default_rng(5)
        for v, s in ((6, 9), (9, 4)):
            system = instances.random_contrast_system(rng, v, s)
            base = optimize_phi_p(system, p)
            scaled = optimize_phi_p(ContrastSystem(c * system.q), p)
            if p == NEG_INF and c in EXTREME_SCALES:
                assert np.abs(scaled.design.w - base.design.w).max() <= 1e-9
                assert scaled.converged
                cert = scaled.certificate
                assert cert.gap <= OptimizeOptions().tol * cert.rhs
            else:
                assert np.array_equal(scaled.design.w, base.design.w)
                assert scaled.iterations == base.iterations

    def test_criterion_consistent_with_design(self, paw_system):
        result = optimize_phi_p(paw_system, -0.5)
        recomputed = psi_p(paw_system, result.design, -0.5)
        assert math.isclose(result.criterion.psi, recomputed.psi, rel_tol=1e-12)


class TestCertificate:
    def test_tree7_degree_rule_all_vertices_tight(self, tree7, tree7_graph):
        design = e_optimal_bipartite(tree7_graph).design
        cert = e_certificate(tree7, design)
        assert cert.gap <= 1e-8
        h = eigensystem_sym(covariance_matrix(tree7, design))[1][:, 0]
        values = ((tree7.q @ h) / design.w) ** 2
        assert np.abs(values - 24.0).max() <= 24.0 * 1e-8

    def test_single_edge(self):
        edge = graph_system(ComparisonGraph(2, ((1, 0),)))
        cert = e_certificate(edge, Design.uniform(2))
        assert math.isclose(cert.lhs_max, 4.0, rel_tol=1e-12)
        assert math.isclose(cert.rhs, 4.0, rel_tol=1e-12)
        assert abs(cert.gap) <= 1e-10

    def test_paw_degree_rule_not_certified(self, paw_system):
        cert = e_certificate(paw_system, Design(np.array([3 / 8, 1 / 4, 1 / 4, 1 / 8])))
        assert cert.gap > 1e-3

    @pytest.mark.parametrize("name", ["K4", "K20", "Petersen", "C7"])
    def test_multiple_top_eigenvalue_certified(self, name):
        # the uniform design is E-optimal on these vertex-transitive graphs,
        # and the top eigenvalue is multiple there; the dual bound certifies
        # it all the same, and warns nothing. The optimizer proves the gap it
        # is asked for, here 1e-10
        system = graph_system(_symmetric_graph(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certificates = [
                e_certificate(system, Design.uniform(system.v)),
                optimize_phi_p(system, NEG_INF, OptimizeOptions(tol=1e-10)).certificate,
            ]
        for cert in certificates:
            assert cert.gap <= 1e-10 * cert.rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_dual_bound_never_exceeds_lambda_max(self, seed):
        # weak duality: <G, Y> for a correlation matrix Y is at most every
        # design's largest covariance eigenvalue, on graphs (connected or
        # not) and on general contrast systems of any rank
        rng = np.random.default_rng(seed)
        if seed % 2:
            system = graph_system(instances.random_pairwise_graph(rng))
        else:
            v = int(rng.integers(2, 9))
            system = instances.random_contrast_system(rng, v, int(rng.integers(1, 2 * v)))
        design = instances.random_design(rng, system.v)
        cert = e_certificate(system, design)
        lam = np.linalg.eigvalsh(covariance_matrix(system, design))[-1]
        assert math.isclose(cert.rhs, lam, rel_tol=1e-10)
        assert cert.lhs_max <= cert.rhs * (1 + 1e-12)
        assert cert.gap == cert.rhs - cert.lhs_max

    def test_one_dual_bounds_every_design(self, tree7, rng):
        # one dual bound, read at any design, lies below its largest
        # eigenvalue, and reaches tree7's optimum, 24
        lower = e_certificate(tree7, Design.uniform(7)).lhs_max
        assert abs(lower - 24.0) <= 24.0 * 1e-12
        for _ in range(50):
            mix = instances.random_design(rng, 7)
            assert lower <= psi_p(tree7, mix, NEG_INF).psi * (1 + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_e_value_is_permutation_equivariant(self, seed):
        # relabelling the treatments permutes the E-optimum: its value
        # agrees within the tolerance, and each run proves its own design
        rng = np.random.default_rng(seed)
        system = graph_system(instances.random_connected_graph(rng, 9))
        relabelled = ContrastSystem(system.q[rng.permutation(system.v)])
        base = optimize_phi_p(system, NEG_INF)
        moved = optimize_phi_p(relabelled, NEG_INF)
        assert base.converged and moved.converged
        assert math.isclose(base.criterion.psi, moved.criterion.psi, rel_tol=2e-8)
        for result in (base, moved):
            assert result.certificate.gap <= 1e-8 * result.certificate.rhs


class TestGridOracle:
    def test_path_trace_criterion(self):
        system = graph_system(instances.path3_graph())
        design = grid_oracle(system, -1.0, 0.005)
        target = a_optimal(system).design.w
        assert np.abs(design.w - target).max() <= 0.005

    def test_control_average_determinant(self):
        system = instances.control_average_column(4)
        design = grid_oracle(system, 0.0, 0.01)
        target = np.array([0.5, 1 / 6, 1 / 6, 1 / 6])
        assert np.abs(design.w - target).max() <= 0.01 + 1e-12

    def test_paw_largest_eigenvalue(self, paw_system):
        design = grid_oracle(paw_system, NEG_INF, 0.01)
        value = psi_p(paw_system, design, NEG_INF).psi
        assert value <= 13.0435 + 0.05  # lattice slack at step 0.01

    def test_bounds(self, paw_system):
        with pytest.raises(TooLarge):
            grid_oracle(graph_system(instances.complete_graph(5)), -1.0, 0.01)
        with pytest.raises(TooLarge):
            grid_oracle(paw_system, -1.0, 0.5)
        with pytest.raises(TooLarge):
            grid_oracle(paw_system, -1.0, 1e-4)

    def test_certificate_sound_on_grid(self, tree7, paw_system):
        # a certified design is never beaten by the lattice beyond slack
        square = ComparisonGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        system = graph_system(square)
        result = e_optimal_bipartite(square)
        cert = e_certificate(system, result.design)
        assert cert.gap <= 1e-8
        lattice = grid_oracle(system, NEG_INF, 0.01)
        lattice_value = psi_p(system, lattice, NEG_INF).psi
        assert result.criterion.psi <= lattice_value + 1e-9
        # K4's uniform design is certified on its triple top eigenvalue
        k4 = graph_system(instances.complete_graph(4))
        uniform = Design.uniform(4)
        cert = e_certificate(k4, uniform)
        assert cert.gap <= 1e-8
        lattice_value = psi_p(k4, grid_oracle(k4, NEG_INF, 0.01), NEG_INF).psi
        assert psi_p(k4, uniform, NEG_INF).psi <= lattice_value + 1e-9


def _symmetric_graph(name):
    if name == "Petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        return ComparisonGraph(10, tuple(outer + inner + spokes))
    if name == "C7":
        return ComparisonGraph(7, tuple((i, (i + 1) % 7) for i in range(7)))
    return instances.complete_graph(int(name[1:]))


def _named_system(name):
    if name == "tree7":
        return instances.tree7_system()
    system = instances.random_contrast_system(np.random.default_rng(12), 12, 6)
    assert rank_of(system) == 6 < system.v - 1
    return system


@pytest.mark.parametrize("p", [0.0, -0.5, -2.0, NEG_INF], ids=["0", "-0.5", "-2", "-inf"])
@pytest.mark.parametrize("name", ["tree7", "gauss12x6"])
def test_numeric_criterion_is_psi_p_at_the_returned_design(name, p):
    # the descent's last iterate and psi_p evaluate the design by one route,
    # so the reported criterion is psi_p's to the bit
    system = _named_system(name)
    result = optimize_phi_p(system, p)
    assert result.criterion == psi_p(system, result.design, p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_e_optimal_descent_eigensolve_budget(monkeypatch):
    # a numeric p = -inf optimum costs two eigensolves, as a closed form
    # does: the Gram matrix's, for the rank and the dual's start, and K(w)'s
    # at the proven design; the power iterations and the Cholesky proofs
    # make none. K8 and K20 have a multiple top eigenvalue at the optimum;
    # the v = 39 graph took 152 eigensolves by continuation in p
    sparse = instances.random_connected_graph(np.random.default_rng(2), v_max=40, v_min=30)
    assert sparse.v >= 30
    systems = [graph_system(g) for g in (instances.complete_graph(8), instances.complete_graph(20), sparse)]
    systems += [instances.tree7_system(), _named_system("gauss12x6")]
    calls = []
    for module in (odg.contrasts, odg.criteria):
        eigh = module.eigh_sym
        monkeypatch.setattr(module, "eigh_sym", lambda m, eigh=eigh, **kw: calls.append(m.shape) or eigh(m, **kw))
    for system in systems:
        calls.clear()
        result = optimize_phi_p(ContrastSystem(system.q), NEG_INF)  # a fresh system: no Gram eigenpairs cached
        assert result.converged
        assert result.certificate.gap <= 1e-8 * result.certificate.rhs
        assert calls == [(system.v, system.v)] * 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [-1.0, -2.0], ids=["-1", "-2"])
def test_power_sum_descent_eigensolve_budget(monkeypatch, p):
    # a numeric p = -1 or -2 optimum costs two eigensolves whatever its
    # iteration count: G's eigenvalues alone, for the rank, and K(w) at the
    # reported design; the iterates are read from diag(G) or G o G
    sparse = instances.random_connected_graph(np.random.default_rng(2), v_max=40, v_min=30)
    systems = [graph_system(g) for g in (instances.complete_graph(20), sparse)]
    systems += [instances.tree7_system(), _named_system("gauss12x6")]
    calls = []
    for module in (odg.contrasts, odg.criteria):
        eigh = module.eigh_sym

        def counting(m, values_only=False, eigh=eigh):
            calls.append((m.shape[0], values_only))
            return eigh(m, values_only=values_only)

        monkeypatch.setattr(module, "eigh_sym", counting)
    iterations = []
    for system in systems:
        calls.clear()
        result = optimize_phi_p(ContrastSystem(system.q), p)  # a fresh system: no Gram eigenvalues cached
        assert result.converged
        assert calls == [(system.v, True), (system.v, False)]
        iterations.append(result.iterations)
    assert max(iterations) > 2


def test_e_optimum_of_the_paw_to_eight_digits(paw_system):
    # the dual proves lambda_max within a relative 1e-8 of its bound, which
    # is at most the exact E-optimum, 13
    paw = optimize_phi_p(paw_system, NEG_INF)
    assert abs(paw.criterion.psi - 13.0) / 13.0 <= 1e-8
    assert paw.certificate.lhs_max <= 13.0 * (1 + 1e-15)


def _recording(evaluate, lowest: list):
    """``evaluate`` that first records the smallest weight of its design."""

    def checked(w):
        lowest.append(float(w.min()))
        return evaluate(w)

    return checked


def _record_lowest_weights(monkeypatch) -> list:
    """The smallest weight of every design the optimizer evaluates, by the
    descent's evaluator (either route) or by ``_evaluate``."""
    lowest = []
    evaluate, evaluator = odg.criteria._evaluate, odg.criteria._evaluator

    def checked_evaluate(gram, w, *args):
        lowest.append(float(w.min()))
        return evaluate(gram, w, *args)

    monkeypatch.setattr(odg.optimizer, "_evaluate", checked_evaluate)
    monkeypatch.setattr(odg.optimizer, "_evaluator", lambda *args: _recording(evaluator(*args), lowest))
    return lowest


@pytest.mark.parametrize("p", [-0.5, -2.0, -150.0, -200.0, NEG_INF], ids=["-0.5", "-2", "-150", "-200", "-inf"])
def test_descent_evaluates_no_weight_below_the_floor(monkeypatch, tree7, p):
    # a trial whose softmax weight falls below FLOOR fails its line search
    # unevaluated: an underflowed weight would divide by zero in K(w)
    lowest = _record_lowest_weights(monkeypatch)
    optimize_phi_p(tree7, p)
    assert lowest
    assert min(lowest) >= odg.optimizer.FLOOR


def test_trials_below_the_floor_are_halved_unevaluated(tree7):
    # a curvature pair y = 1e-6 s makes the inverse-Hessian estimate 1e6 I,
    # so the first trials' softmax weights underflow to 0; the line search
    # must halve past them unevaluated and still descend, on the
    # polynomial route (p = -2) and the eigensolving one (p = -0.5)
    uniform = np.full(7, 1.0 / 7)
    s = np.random.default_rng(7).standard_normal(7)
    pairs = [(s, 1e-6 * s, 1.0 / (1e-6 * float(s @ s)))]
    for p in (-2.0, -0.5):
        evaluate = odg.criteria._evaluator(tree7.gram, rank_of(tree7), p)
        lowest = []
        final, iterations, _ = odg.optimizer._descend(_recording(evaluate, lowest), uniform, 1e-8, 1, np.asarray, pairs)
        assert iterations == 1
        assert lowest
        assert min(lowest) >= odg.optimizer.FLOOR
        assert final.value < evaluate(uniform).value


@pytest.mark.parametrize("p", [0.0, -0.5, -2.0], ids=["0", "-0.5", "-2"])
@pytest.mark.parametrize("name", ["tree7", "gauss12x6"])
def test_descent_reaches_a_certified_design(name, p):
    # phi_p is concave and homogeneous of degree 1, so the Frank-Wolfe gap
    # of the criterion's gradient g bounds the efficiency from below by
    # (w . g) / min_i g_i. A relative decrease of 1e-8 leaves a gap near its
    # square root; run until no decrease is left to resolve
    system = _named_system(name)
    result = optimize_phi_p(system, p, OptimizeOptions(tol=1e-15))
    assert result.converged
    w = result.design.w
    gradient = _evaluate(system.gram, w, rank_of(system), p).gradient()
    assert float(w @ gradient) / gradient.min() >= 1.0 - 1e-6


def _e_cases():
    """Systems on which the dual's start or its design needs care."""
    k10_k2 = instances.disjoint_union(instances.complete_graph(10), ComparisonGraph(2, ((1, 0),)))
    rank2 = ContrastSystem(np.array([[2.0, 0.0], [-1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]))
    return {
        # a single comparison: E* = 4 at the uniform design
        "v2": (graph_system(ComparisonGraph(2, ((1, 0),))), 4.0),
        # the top eigenvectors of G vanish on the K2 rows; E* = 100 + 4
        "K10+K2": (graph_system(k10_k2), 104.0),
        # rank 2 < v - 1 and not pairwise
        "rank2": (rank2, None),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["v2", "K10+K2", "rank2"])
def test_e_optimum_at_the_edges(name):
    system, optimum = _e_cases()[name]
    result = optimize_phi_p(system, NEG_INF)
    assert result.converged
    cert = result.certificate
    assert 0.0 <= cert.gap <= 1e-8 * cert.rhs or abs(cert.gap) <= 1e-12 * cert.rhs
    assert cert.rhs == result.criterion.psi
    if optimum is not None:
        assert abs(result.criterion.psi - optimum) <= 1e-8 * optimum
    # the descent's route, for comparison: the same E-value within its accuracy
    reference = psi_p(system, Design(result.design.w), NEG_INF).psi
    assert reference == result.criterion.psi


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("max_iter", [1, 2, 3])
@pytest.mark.parametrize("name", ["v2", "K10+K2", "rank2", "paw"])
def test_unconverged_e_design_is_positive(name, max_iter):
    # a budget too small for the first proof still returns a design in the
    # open simplex, and its certificate's bound still holds
    system = graph_system(instances.paw_graph()) if name == "paw" else _e_cases()[name][0]
    result = optimize_phi_p(system, NEG_INF, OptimizeOptions(max_iter=max_iter))
    assert result.iterations == max_iter
    assert np.all(result.design.w > 0.0) and abs(result.design.w.sum() - 1.0) <= 1e-12
    assert result.certificate.lhs_max <= result.certificate.rhs * (1 + 1e-12)
    if name != "v2":  # a single comparison is proven at its first check
        assert not result.converged


def test_orbit_reduction_of_another_size_rejected(paw_system):
    orbits = OrbitReduction(orbit_of=(0, 0, 1), orbit_count=2)
    with pytest.raises(ValueError, match="orbit reduction does not match the system size"):
        optimize_phi_p(paw_system, -1.0, OptimizeOptions(orbits=orbits))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_e_optimum_with_orbits_is_orbit_constant(paw_system):
    # swapping the paw's two triangle vertices off the hub leaves it
    # invariant: averaging the dual allocation over the orbits gives an
    # orbit-constant design, proven at the exact E-optimum, 13
    orbits = orbit_reduction(paw_system, Permutation.from_one_line("1 3 2 4"))
    result = optimize_phi_p(paw_system, NEG_INF, OptimizeOptions(orbits=orbits))
    assert result.converged
    assert result.design.w[1] == result.design.w[2]
    assert abs(result.criterion.psi - 13.0) <= 13.0 * 1e-8
    assert result.certificate.gap <= 1e-8 * result.certificate.rhs
