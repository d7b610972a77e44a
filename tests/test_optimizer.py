import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
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
from odg.criteria import _evaluate
from odg.errors import TooLarge

NEG_INF = float("-inf")


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

    @pytest.mark.parametrize("p", [0.0, -0.5, -2.0])
    @pytest.mark.parametrize("c", [1 / 64, 8.0, 1024.0])
    def test_scale_equivariant_bit_for_bit(self, p, c):
        # Q -> cQ with c a power of 2 scales K(w), the value and the gradient
        # by c^2 exactly, each curvature pair's y by c^2 and its 1/s'y by
        # 1/c^2, and leaves every direction as it is: the same iterates follow
        rng = np.random.default_rng(5)
        for v, s in ((6, 9), (9, 4)):
            system = instances.random_contrast_system(rng, v, s)
            base = optimize_phi_p(system, p)
            scaled = optimize_phi_p(ContrastSystem(c * system.q), p)
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
        # and the top eigenvalue is multiple there; the certificate averages
        # over the top eigenspace and certifies it, and warns nothing
        system = graph_system(_symmetric_graph(name))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            certificates = [
                e_certificate(system, Design.uniform(system.v)),
                optimize_phi_p(system, NEG_INF).certificate,
            ]
        for cert in certificates:
            assert cert.gap <= 1e-10 * cert.rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_vertex_form_bounds_mean_top_eigenvalue(self, seed):
        # sum_i w_i t_i is the mean top eigenvalue, so max_i t_i is at least
        # that mean: the identity the certificate's efficiency bound rests on
        rng = np.random.default_rng(seed)
        system = graph_system(instances.random_pairwise_graph(rng))
        design = instances.random_design(rng, system.v)
        lam = np.linalg.eigh(covariance_matrix(system, design))[0][::-1]
        mean_top = lam[lam >= lam[0] - 1e-8 * lam[0]].mean()
        assert e_certificate(system, design).lhs_max >= (1 - 1e-12) * mean_top

    def test_vertex_designs_dominate_interior(self, tree7, rng):
        design = instances.random_design(rng, 7)
        _, vecs = eigensystem_sym(covariance_matrix(tree7, design))
        h = vecs[:, 0]
        u = (tree7.q @ h) / design.w
        cert = e_certificate(tree7, design)
        for _ in range(50):
            mix = instances.random_design(rng, 7)
            value = float(np.sum(mix.w * u**2))
            assert value <= cert.lhs_max + 1e-10


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


def test_e_optimal_descent_eigensolve_budget(monkeypatch):
    # K8's uniform design is E-optimal, so every exponent stage starts at
    # a stationary point; a stage must stop there after a few eigensolves,
    # not after a line search halved down to machine resolution. L-BFGS
    # takes 7 over the 13 stages, the carried Barzilai-Borwein step took 1
    counts = {"eigh": 0, "stages": 0}
    eigh_sym, descend = odg.criteria.eigh_sym, odg.optimizer._descend

    def counted_eigh(m):
        counts["eigh"] += 1
        return eigh_sym(m)

    def counted_descend(*args):
        counts["stages"] += 1
        return descend(*args)

    monkeypatch.setattr(odg.criteria, "eigh_sym", counted_eigh)
    monkeypatch.setattr(odg.optimizer, "_descend", counted_descend)
    result = optimize_phi_p(graph_system(instances.complete_graph(8)), NEG_INF)
    assert result.converged
    assert abs(result.criterion.psi - 64.0) <= 64.0 * 1e-9
    assert counts["stages"] >= 10
    assert counts["eigh"] <= 10 * counts["stages"]


def test_e_optimum_is_reached_through_finite_exponents(monkeypatch, tree7, paw_system):
    # p = -inf is a sequence of ordinary descents on 1/phi_p, -p growing
    # fivefold per stage from 10 to 1e9; the result is read at p = -inf
    stages = []
    descend = odg.optimizer._descend

    def recorded_descend(current, *args):
        stages.append(current.p)
        return descend(current, *args)

    monkeypatch.setattr(odg.optimizer, "_descend", recorded_descend)
    result = optimize_phi_p(tree7, NEG_INF)
    assert stages == [-10.0 * 5.0**k for k in range(12)] + [-1e9]
    assert result.converged
    assert result.evaluation.p == NEG_INF
    assert result.criterion.p == NEG_INF
    # the paw's exact E-optimum is 13 (see test_largest_eigenvalue_paw)
    paw = optimize_phi_p(paw_system, NEG_INF)
    assert abs(paw.criterion.psi - 13.0) / 13.0 <= 5e-7


def test_e_optimum_of_the_paw_to_eight_digits(paw_system):
    # each exponent stage stops on the relative decrease of one accepted
    # step; the stages still close in on the exact E-optimum, 13
    paw = optimize_phi_p(paw_system, NEG_INF)
    assert abs(paw.criterion.psi - 13.0) / 13.0 <= 1e-8


def _record_lowest_weights(monkeypatch) -> list:
    """The smallest weight of every design the optimizer evaluates."""
    lowest = []
    evaluate = odg.criteria._evaluate

    def checked_evaluate(gram, w, *args):
        lowest.append(float(w.min()))
        return evaluate(gram, w, *args)

    monkeypatch.setattr(odg.optimizer, "_evaluate", checked_evaluate)
    return lowest


@pytest.mark.parametrize("p", [-0.5, -150.0, -200.0, NEG_INF], ids=["-0.5", "-150", "-200", "-inf"])
def test_descent_evaluates_no_weight_below_the_floor(monkeypatch, tree7, p):
    # a trial whose softmax weight falls below FLOOR fails its line search
    # unevaluated: an underflowed weight would divide by zero in K(w)
    lowest = _record_lowest_weights(monkeypatch)
    optimize_phi_p(tree7, p)
    assert lowest
    assert min(lowest) >= odg.optimizer.FLOOR


def test_trials_below_the_floor_are_halved_unevaluated(monkeypatch, tree7):
    # a curvature pair y = 1e-6 s makes the inverse-Hessian estimate 1e6 I,
    # so the first trials' softmax weights underflow to 0; the line search
    # must halve past them without an eigensolve and still descend
    start = _evaluate(tree7.gram, np.full(7, 1.0 / 7), rank_of(tree7), -2.0)
    s = np.random.default_rng(7).standard_normal(7)
    pairs = [(s, 1e-6 * s, 1.0 / (1e-6 * float(s @ s)))]
    lowest = _record_lowest_weights(monkeypatch)
    final, iterations, _, _ = odg.optimizer._descend(start, 1e-8, 1, np.asarray, pairs)
    assert iterations == 1
    assert lowest
    assert min(lowest) >= odg.optimizer.FLOOR
    assert final.value < start.value


def _count_eigensolves_and_stages(monkeypatch) -> dict:
    counts = {"eigh": 0, "stages": 0}
    eigh_sym, descend = odg.criteria.eigh_sym, odg.optimizer._descend

    def counted_eigh(m):
        counts["eigh"] += 1
        return eigh_sym(m)

    def counted_descend(*args):
        counts["stages"] += 1
        return descend(*args)

    monkeypatch.setattr(odg.criteria, "eigh_sym", counted_eigh)
    monkeypatch.setattr(odg.optimizer, "_descend", counted_descend)
    return counts


def test_e_optimal_stages_carry_the_step(monkeypatch):
    # K20's uniform design is E-optimal with a 19-fold top eigenvalue, so
    # the power mean's gradient there is uniform up to rounding noise. A
    # stage with no curvature pair to carry steps -grad / value in the
    # log-weights, which predicts no resolvable decrease, and stops without
    # a trial; only the last stage, p = -1e9, makes two: 3 eigensolves over
    # the 13 stages (the carried Barzilai-Borwein step took 2, a unit move
    # per stage 71)
    counts = _count_eigensolves_and_stages(monkeypatch)
    result = optimize_phi_p(graph_system(instances.complete_graph(20)), NEG_INF)
    assert result.converged
    assert abs(result.criterion.psi - 400.0) <= 400.0 * 1e-9
    assert counts["stages"] >= 10
    assert counts["eigh"] <= counts["stages"]


def test_sparse_e_optimal_descent_eigensolves(monkeypatch):
    # v = 39, 62 comparisons; L-BFGS with its curvature pairs carried from
    # stage to stage takes 152 eigensolves here, the carried
    # Barzilai-Borwein step took 199, a unit first step per stage 426, and
    # the log-sum-exp smoothing that the budget was set against 421
    graph = instances.random_connected_graph(np.random.default_rng(2), v_max=40, v_min=30)
    assert graph.v >= 30
    counts = _count_eigensolves_and_stages(monkeypatch)
    result = optimize_phi_p(graph_system(graph), NEG_INF)
    assert result.converged
    assert counts["eigh"] <= 0.7 * 421


def test_sparse_e_optimal_descent_eigensolve_count(monkeypatch):
    # the graph of test_sparse_e_optimal_descent_eigensolves; L-BFGS on the
    # log-weights takes 152 eigensolves here, the Barzilai-Borwein
    # step carried from stage to stage took 199
    graph = instances.random_connected_graph(np.random.default_rng(2), v_max=40, v_min=30)
    counts = _count_eigensolves_and_stages(monkeypatch)
    result = optimize_phi_p(graph_system(graph), NEG_INF)
    assert result.converged
    assert counts["eigh"] <= 180


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
