import math

import numpy as np
import pytest

import instances
from odg import (
    ComparisonGraph,
    Design,
    a_optimal,
    classify,
    d_optimal_uniform,
    detect_pairwise,
    e_certificate,
    e_optimal_bipartite,
    graph_system,
    psi_p,
    rank_of,
)
from odg.errors import NotBipartite, RankTooLow

NEG_INF = float("-inf")
S7 = 4.0 + 2.0 * math.sqrt(3.0) + math.sqrt(2.0)


class TestAOptimal:
    def test_control_average_column(self):
        for v in range(3, 9):
            result = a_optimal(instances.control_average_column(v))
            target = np.full(v, 1.0 / (2 * (v - 1)))
            target[0] = 0.5
            assert np.abs(result.design.w - target).max() <= 1e-15

    def test_complete_graph_uniform(self):
        result = a_optimal(graph_system(instances.complete_graph(4)))
        assert np.allclose(result.design.w, 0.25, atol=1e-15)

    def test_tree7_values(self, tree7):
        result = a_optimal(tree7)
        target = np.array([1, math.sqrt(2), math.sqrt(3), 1, math.sqrt(3), 1, 1]) / S7
        assert np.abs(result.design.w - target).max() < 1e-12
        assert math.isclose(result.criterion.psi, S7 * S7, rel_tol=1e-12)
        assert result.method == "a_general"

    def test_pairwise_rule_identical(self, tree7, rng):
        # on a comparison graph the row norms are the square-rooted degrees
        graph = detect_pairwise(tree7)
        assert np.array_equal(a_optimal(graph_system(graph)).design.w, a_optimal(tree7).design.w)
        for _ in range(20):
            g = instances.random_pairwise_graph(rng, 7)
            roots = np.sqrt(np.array(g.degrees, dtype=np.float64))
            assert np.array_equal(a_optimal(graph_system(g)).design.w, roots / roots.sum())

    def test_path_and_star_proportions(self):
        path = a_optimal(graph_system(instances.path3_graph()))
        denom = 2.0 + math.sqrt(2.0)
        assert np.allclose(path.design.w, [1 / denom, math.sqrt(2) / denom, 1 / denom], atol=1e-15)
        star = a_optimal(graph_system(instances.star4_graph()))
        denom = math.sqrt(3.0) + 3.0
        assert np.allclose(star.design.w, [math.sqrt(3) / denom, 1 / denom, 1 / denom, 1 / denom])

    def test_minimizes_over_random_designs(self, rng):
        for graph_index in range(10):
            graph = instances.random_pairwise_graph(rng, 6)
            system = graph_system(graph)
            result = a_optimal(system)
            rank = rank_of(system)
            draws = 500 if graph_index < 2 else 50
            for _ in range(draws):
                w = instances.random_design(rng, system.v)
                other = psi_p(system, w, -1.0, rank=rank).psi
                assert result.criterion.psi <= other * (1 + 1e-12)
                if np.abs(w.w - result.design.w).max() > 1e-6:
                    assert result.criterion.psi < other


class TestEOptimalBipartite:
    def test_tree7(self, tree7_graph):
        result = e_optimal_bipartite(tree7_graph)
        assert np.allclose(result.design.w, np.array([1, 2, 3, 1, 3, 1, 1]) / 12.0, atol=1e-15)
        assert abs(result.criterion.psi - 24.0) < 1e-10
        assert np.allclose(result.eigvec * math.sqrt(6.0), [1, -1, 1, 1, -1, -1], atol=1e-12)

    def test_single_edge(self):
        result = e_optimal_bipartite(ComparisonGraph(2, ((1, 0),)))
        assert np.allclose(result.design.w, [0.5, 0.5])
        assert math.isclose(result.criterion.psi, 4.0, rel_tol=1e-12)

    def test_paw_rejected(self, paw):
        with pytest.raises(NotBipartite):
            e_optimal_bipartite(paw)

    def test_value_is_4s_and_eigvec_residual(self, rng):
        from odg import covariance_matrix

        for _ in range(20):
            graph = instances.random_tree(rng, int(rng.integers(2, 9)))
            result = e_optimal_bipartite(graph)
            s = graph.s
            assert math.isclose(result.criterion.psi, 4.0 * s, rel_tol=1e-10)
            assert np.allclose(np.abs(result.eigvec), 1.0 / math.sqrt(s), atol=1e-14)
            system = graph_system(graph)
            residual = covariance_matrix(system, result.design) @ result.eigvec - 4.0 * s * result.eigvec
            assert np.linalg.norm(residual) <= 1e-8 * 4.0 * s

    def test_minimizes_over_random_designs(self, rng):
        for tree_index in range(5):
            graph = instances.random_tree(rng, int(rng.integers(3, 8)))
            system = graph_system(graph)
            result = e_optimal_bipartite(graph)
            rank = rank_of(system)
            draws = 500 if tree_index < 2 else 100
            for _ in range(draws):
                w = instances.random_design(rng, system.v)
                assert result.criterion.psi <= psi_p(system, w, NEG_INF, rank=rank).psi * (1 + 1e-12)

    def test_certificate_gap(self, tree7, tree7_graph):
        result = e_optimal_bipartite(tree7_graph)
        cert = e_certificate(tree7, result.design)
        assert cert.gap <= 1e-8


class TestDOptimalUniform:
    def test_tree7(self, tree7):
        result = d_optimal_uniform(tree7)
        assert np.allclose(result.design.w, 1 / 7, atol=1e-15)
        assert math.isclose(result.criterion.psi, 7.0**7, rel_tol=1e-10)

    def test_centered_contrasts(self):
        result = d_optimal_uniform(instances.centered_contrasts(3))
        assert np.allclose(result.design.w, 1 / 3)
        assert math.isclose(result.criterion.psi, 9.0, rel_tol=1e-12)

    def test_low_rank_rejected(self):
        with pytest.raises(RankTooLow):
            d_optimal_uniform(instances.control_average_column(4))

    def test_minimizes_over_random_designs(self, rng):
        for _ in range(10):
            v = int(rng.integers(3, 7))
            s = int(rng.integers(v - 1, v + 3))
            system = instances.random_contrast_system(rng, v, s)
            if rank_of(system) != v - 1:
                continue
            result = d_optimal_uniform(system)
            for _ in range(50):
                w = instances.random_design(rng, v)
                assert result.criterion.psi <= psi_p(system, w, 0.0).psi * (1 + 1e-12)
