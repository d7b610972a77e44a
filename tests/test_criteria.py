import math

import numpy as np
import pytest

import instances
from odg import (
    ComparisonGraph,
    ContrastSystem,
    Design,
    Spectrum,
    a_optimal,
    covariance_matrix,
    criterion_from_spectrum,
    d_optimal_uniform,
    detect_pairwise,
    eigenvalues_sym,
    graph_system,
    pseudo_information_matrix,
    psi_p,
    rank_of,
    validate_p,
    vertex_weighted_laplacian,
)
from odg.criteria import _evaluate, _evaluator, _PowerSum
from odg.errors import NonPositiveEigenvalue
from odg._kernels import _unit_scaled
from odg.optimizer import _orbit_average
from odg.symmetry import Permutation, orbit_reduction

NEG_INF = float("-inf")
P_GRID = (0.0, -0.5, -1.0, -2.0, NEG_INF)
S7 = 4.0 + 2.0 * math.sqrt(3.0) + math.sqrt(2.0)


def test_validate_p():
    assert validate_p(-1) == -1.0
    assert validate_p(NEG_INF) == NEG_INF
    with pytest.raises(ValueError):
        validate_p(0.5)
    with pytest.raises(ValueError):
        validate_p(float("nan"))


class TestPsiValues:
    def test_control_average_column(self):
        # rank-1 column: the determinant form reduces to a weighted harmonic sum
        system = instances.control_average_column(4)
        w = Design(np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))
        value = psi_p(system, w, 0.0)
        assert math.isclose(value.psi, 4.0, rel_tol=1e-12)
        assert value.rank == 1

    def test_control_average_formula_random_designs(self, rng):
        for v in (3, 5, 8):
            system = instances.control_average_column(v)
            for _ in range(10):
                w = instances.random_design(rng, v)
                expected = 1.0 / w.w[0] + np.sum(1.0 / w.w[1:]) / (v - 1) ** 2
                assert math.isclose(psi_p(system, w, 0.0).psi, expected, rel_tol=1e-12)

    def test_single_edge_trace(self):
        system = graph_system(ComparisonGraph(2, ((1, 0),)))
        assert math.isclose(psi_p(system, Design.uniform(2), -1.0).psi, 4.0, rel_tol=1e-14)

    def test_paw_degree_rule_largest_eigenvalue(self, paw_system):
        w = Design(np.array([3 / 8, 1 / 4, 1 / 4, 1 / 8]))
        assert abs(psi_p(paw_system, w, NEG_INF).psi - 13.8297) < 5e-4

    def test_phi_psi_relations(self, tree7, rng):
        w = instances.random_design(rng, 7)
        for p in P_GRID:
            value = psi_p(tree7, w, p)
            if p == NEG_INF:
                assert math.isclose(value.phi, 1.0 / value.psi, rel_tol=1e-12)
            elif p == 0.0:
                assert math.isclose(value.phi, value.psi ** (-1.0 / value.rank), rel_tol=1e-12)
            else:
                assert math.isclose(value.phi, (value.psi / value.rank) ** (1.0 / p), rel_tol=1e-12)

    def test_full_rank_smallest_information_eigenvalue(self, tree7, rng):
        w = instances.random_design(rng, 7)
        value = psi_p(tree7, w, NEG_INF)
        info_min = eigenvalues_sym(pseudo_information_matrix(tree7, w)).values[-1]
        assert math.isclose(value.phi, info_min, rel_tol=1e-8)


class TestPhiAcrossP:
    # phi_p = (mean_j lambda_j^-p)^(1/p) is a power mean of the eigenvalues,
    # inverted: continuous in p, non-decreasing in p, and between 1/lambda_1
    # (p = -inf) and the geometric form (p = 0)
    def test_continuous_as_p_tends_to_zero(self, tree7):
        at_zero = psi_p(tree7, Design.uniform(7), 0.0).phi
        for p in (-1e-300, -1e-12):
            assert math.isclose(psi_p(tree7, Design.uniform(7), p).phi, at_zero, rel_tol=1e-10)

    def test_finite_at_large_negative_p(self, tree7):
        with np.errstate(over="ignore"):  # psi itself overflows at p = -300
            phi = psi_p(tree7, Design.uniform(7), -300.0).phi
        assert math.isclose(phi, 0.0310486, rel_tol=1e-5)
        assert psi_p(tree7, Design.uniform(7), NEG_INF).phi < phi < psi_p(tree7, Design.uniform(7), -2.0).phi

    def test_non_decreasing_in_p(self, tree7):
        with np.errstate(over="ignore"):
            phis = [psi_p(tree7, Design.uniform(7), p).phi for p in (-1000.0, -300.0, -2.0, -1e-12, 0.0)]
        assert all(math.isfinite(phi) and phi > 0.0 for phi in phis)
        assert phis == sorted(phis)


class TestLaplacianRoute:
    def test_tree7_trace_at_row_norm_rule(self, tree7, tree7_graph):
        w = Design(np.sqrt(np.array(tree7_graph.degrees)) / S7)
        value = psi_p(graph_system(tree7_graph), w, -1.0)
        assert math.isclose(value.psi, S7 * S7, rel_tol=1e-12)
        direct = psi_p(tree7, w, -1.0)
        assert math.isclose(value.psi, direct.psi, rel_tol=1e-12)

    def test_tree7_degree_rule_largest_eigenvalue(self, tree7_graph):
        w = Design(np.array(tree7_graph.degrees) / 12.0)
        assert abs(psi_p(graph_system(tree7_graph), w, NEG_INF).psi - 24.0) < 1e-10

    def test_path_uniform_determinant(self):
        from forest_oracle import rooted_forest_weight

        graph = instances.path3_graph()
        value = psi_p(graph_system(graph), Design.uniform(3), 0.0)
        assert math.isclose(value.psi, 27.0, rel_tol=1e-12)
        assert math.isclose(rooted_forest_weight(graph, Design.uniform(3), 1), 27.0)

    def test_route_agreement_random(self, rng):
        # the criterion read from the vertex-weighted Laplacian's spectrum
        for _ in range(200):
            graph = instances.random_pairwise_graph(rng, 8)
            system = graph_system(graph)
            w = instances.random_design(rng, graph.v)
            rank = rank_of(system)
            laplacian = eigenvalues_sym(vertex_weighted_laplacian(graph, w))
            for p in P_GRID:
                a = psi_p(system, w, p, rank=rank)
                b = criterion_from_spectrum(laplacian, rank, p)
                assert math.isclose(a.psi, b.psi, rel_tol=1e-8)


def _efficiency(system, design, reference, p):
    """phi_p(design) / phi_p(reference)."""
    return psi_p(system, design, p).phi / psi_p(system, reference, p).phi


class TestEfficiency:
    def test_identity(self, tree7, rng):
        w = instances.random_design(rng, 7)
        for p in P_GRID:
            assert math.isclose(_efficiency(tree7, w, w, p), 1.0, rel_tol=1e-12)

    def test_paw_degree_rule_vs_better_point(self, paw_system):
        w = Design(np.array([3 / 8, 1 / 4, 1 / 4, 1 / 8]))
        better = Design(np.array([0.38, 0.23, 0.23, 0.16]))
        eff = _efficiency(paw_system, w, better, NEG_INF)
        assert abs(eff - 13.0435 / 13.8297) < 1e-4

    def test_tree7_uniform_vs_row_norm_rule(self, tree7):
        from odg import a_optimal

        eff = _efficiency(tree7, Design.uniform(7), a_optimal(tree7).design, -1.0)
        assert math.isclose(eff, S7 * S7 / 84.0, rel_tol=1e-12)


class TestInvarianceAndMonotonicity:
    def test_permutation_invariance(self, rng):
        system = instances.two_groups_system(3)
        perm = Permutation.from_cycle([0, 3, 1, 4, 2, 5])
        for _ in range(20):
            w = instances.random_design(rng, 6)
            permuted = Design(w.w[np.argsort(perm.mapping)])  # the weight of i moves to perm(i)
            for p in P_GRID:
                a = psi_p(system, w, p)
                b = psi_p(system, permuted, p)
                assert math.isclose(a.psi, b.psi, rel_tol=1e-10)

    def test_scaling_up_increases_psi(self, tree7, rng):
        # replacing w by w/c (c > 1, evaluated unnormalized) scales the
        # covariance spectrum by c and must increase every criterion value
        w = instances.random_design(rng, 7)
        spectrum = eigenvalues_sym(covariance_matrix(tree7, w))
        c = 1.7
        scaled = Spectrum(spectrum.values * c, tol=spectrum.tol * c)
        for p in P_GRID:
            base = criterion_from_spectrum(spectrum, 6, p)
            up = criterion_from_spectrum(scaled, 6, p)
            assert up.psi > base.psi


def test_rank_passed_explicitly_controls_reduction():
    system = instances.centered_contrasts(3)
    w = Design.uniform(3)
    assert math.isclose(psi_p(system, w, 0.0, rank=2).psi, 9.0, rel_tol=1e-12)
    with pytest.raises(Exception):
        psi_p(system, w, 0.0, rank=3)  # third eigenvalue is zero


@pytest.mark.parametrize("rank", [0, 3])
def test_rank_outside_the_spectrum_rejected(rank):
    with pytest.raises(ValueError, match=f"rank {rank} out of range for spectrum of length 2"):
        criterion_from_spectrum(Spectrum(np.array([2.0, 1.0]), tol=1e-9), rank, -1.0)


def test_non_positive_eigenvalue_message_prints_plain_floats():
    # under numpy >= 2 the repr of a numpy scalar reads np.float64(0.0)
    with pytest.raises(NonPositiveEigenvalue) as excinfo:
        criterion_from_spectrum(Spectrum(np.array([2.0, 0.0]), tol=np.float64(1e-9)), 2, -1.0)
    assert str(excinfo.value) == "eigenvalue 0.0 among the 2 largest is not above 1e-09"


@pytest.mark.parametrize(
    "p",
    [0.0, -1e-8, -0.5, -2.0, -300.0, -10.0, -1e4, -1e9],
    ids=["0", "-1e-8", "-0.5", "-2", "-300", "-10", "-1e4", "-1e9"],
)
def test_reduction_gradient_matches_central_differences(tree7, rng, p):
    # the descent's gradient -sum_j c_j u_ij^2 / w_i against its own value,
    # on a full-rank tree and a rank-deficient (rank 3 < v-1) general system;
    # -10, -1e4 and -1e9 span the exponents the descent takes toward p = -inf
    for system in (tree7, instances.random_contrast_system(rng, 8, 3)):
        rank = rank_of(system)
        w = instances.random_design(rng, system.v).w

        def evaluate(x):
            return _evaluate(system.gram, x, rank, p)

        fd = np.empty(system.v)
        for i in range(system.v):
            h = np.zeros(system.v)
            h[i] = 1e-6 * w[i]
            fd[i] = (evaluate(w + h).value - evaluate(w - h).value) / (2.0 * h[i])
        grad = evaluate(w).gradient()
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8 * np.abs(grad).max())


@pytest.mark.parametrize("p", [0.0, -1e-8, -0.5, -1.0, -2.0, -300.0])
def test_descent_value_satisfies_euler_identity(tree7, rng, p):
    # the power mean 1/phi_p is homogeneous of degree -1 in w, so
    # w . grad = -value at every finite p, series branch included
    for system in (tree7, instances.random_contrast_system(rng, 8, 3)):
        w = instances.random_design(rng, system.v).w
        evaluation = _evaluate(system.gram, w, rank_of(system), p)
        assert abs(-(w @ evaluation.gradient()) / evaluation.value - 1.0) <= 1e-12


@pytest.mark.parametrize("p", [-1.0, -2.0], ids=["-1", "-2"])
@pytest.mark.parametrize("name", ["random", "gauss12x6", "orbits", "2^300", "2^-300"])
def test_power_sum_route_agrees_with_the_eigensolve(name, p):
    # the descent's p = -1 and -2 evaluations, read from diag(G) and G o G
    # on G scaled by a power of two, against _reduce and
    # _Evaluation.gradient on G itself, in G's units: on a full-rank and a
    # rank-deficient (6 < v - 1) system, with the gradient averaged over
    # the paw's orbits, and where the squares of G's entries leave the
    # float range
    rng = np.random.default_rng(26)
    averager = np.asarray
    if name == "gauss12x6":
        system = instances.random_contrast_system(np.random.default_rng(12), 12, 6)
        assert rank_of(system) == 6
    elif name == "orbits":
        system = graph_system(instances.paw_graph())
        averager = _orbit_average(orbit_reduction(system, Permutation.from_one_line("1 3 2 4")))
    else:
        system = instances.random_contrast_system(rng, 8, 12)
        if name != "random":
            system = ContrastSystem(2.0 ** int(name[2:]) * system.q)
    rank = rank_of(system)
    gram, e = _unit_scaled(system.gram)
    evaluate = _evaluator(gram, rank, p)
    for _ in range(5):
        w = averager(instances.random_design(rng, system.v).w)
        route, reference = evaluate(w), _evaluate(system.gram, w, rank, p)
        assert isinstance(route, _PowerSum)
        assert abs(math.ldexp(route.value, e) - reference.value) <= 1e-12 * reference.value
        gradient, expected = averager(np.ldexp(route.gradient(), e)), averager(reference.gradient())
        assert np.abs(gradient - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("p, closed_form", [(-1.0, a_optimal), (0.0, d_optimal_uniform)], ids=["A", "D"])
def test_efficiency_ratios_peak_at_one_at_closed_forms(tree7, paw_system, p, closed_form):
    # d = -grad / value are the ratios d_i phi / phi; sum_i w_i d_i = 1, and
    # at an optimum every d_i with w_i > 0 equals 1
    for system in (tree7, paw_system):
        design = closed_form(system).design
        evaluation = _evaluate(system.gram, design.w, rank_of(system), p)
        d = -evaluation.gradient() / evaluation.value
        assert abs(d.max() - 1.0) <= 1e-12


@pytest.mark.parametrize("rank_tol", [1e-9, 1e-6, 0.5])
def test_evaluation_spectrum_threshold_is_rank_tol_times_largest(tree7, rng, rank_tol):
    w = instances.random_design(rng, tree7.v).w
    evaluation = _evaluate(tree7.gram, w, rank_of(tree7), -1.0, rank_tol=rank_tol)
    assert evaluation.spectrum.tol == rank_tol * evaluation.values[0]
    assert evaluation.spectrum.values.tolist() == evaluation.values.tolist()
