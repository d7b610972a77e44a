import math

import numpy as np
import pytest

import instances
from forest_oracle import minor_total_by_subsets, rooted_forest_weight, rooted_forests, weight_total_from_alpha
from odg import (
    ComparisonGraph,
    Design,
    char_poly_coeffs,
    detect_pairwise,
    eigenvalues_sym,
    graph_system,
    verify_d_identity,
    vertex_weighted_laplacian,
)
from odg.forests import MINOR_V_LIMIT, _bareiss, _minor_total
from odg.errors import PreconditionViolated, TooLarge


class TestForestWeights:
    def test_path_uniform(self):
        # three rooted trees, each of weight 9 (product of the two non-root
        # vertex weights, all equal to 3)
        graph = instances.path3_graph()
        assert rooted_forest_weight(graph, Design.uniform(3), 1) == 27.0

    def test_single_edge(self):
        graph = ComparisonGraph(2, ((1, 0),))
        assert rooted_forest_weight(graph, Design.uniform(2), 1) == 4.0

    def test_disconnected_has_no_spanning_tree(self):
        graph = ComparisonGraph(4, ((1, 0), (3, 2)))
        assert rooted_forest_weight(graph, Design.uniform(4), 1) == 0.0

    def test_generator_matches_total(self, rng):
        for _ in range(15):
            graph = instances.random_pairwise_graph(rng, 6)
            d = instances.random_design(rng, graph.v)
            for k in range(1, graph.v):
                explicit = sum(f.weight for f in rooted_forests(graph, d, k))
                assert math.isclose(
                    explicit, rooted_forest_weight(graph, d, k), rel_tol=1e-12, abs_tol=1e-12
                )

    def test_forest_structure(self, rng):
        graph = instances.paw_graph()
        d = instances.random_design(rng, 4)
        alpha = 1.0 / d.w
        for k in (1, 2, 3):
            for forest in rooted_forests(graph, d, k):
                assert len(forest.roots) == k
                assert len(forest.edges) == graph.v - k
                non_roots = set(range(graph.v)) - set(forest.roots)
                assert {tail for tail, _ in forest.edges} == non_roots
                recomputed = float(np.prod([alpha[u] for u in non_roots]))
                assert math.isclose(forest.weight, recomputed, rel_tol=1e-12)

    def test_orientation_independence(self, rng):
        graph = instances.paw_graph()
        reversed_graph = ComparisonGraph(4, tuple((b, a) for a, b in graph.edges))
        d = instances.random_design(rng, 4)
        for k in (1, 2, 3):
            assert rooted_forest_weight(graph, d, k) == rooted_forest_weight(reversed_graph, d, k)

    def test_weight_scaling(self, rng):
        # scaling every vertex weight by t scales the k-root total by t^(v-k)
        graph = instances.paw_graph()
        alpha = rng.random(4) + 0.5
        t = 2.5
        for k in (1, 2, 3):
            base = weight_total_from_alpha(graph, alpha, k)
            scaled = weight_total_from_alpha(graph, t * alpha, k)
            assert math.isclose(scaled, t ** (4 - k) * base, rel_tol=1e-12)

    def test_bounds(self):
        graph = instances.paw_graph()
        d = Design.uniform(4)
        with pytest.raises(ValueError):
            rooted_forest_weight(graph, d, 0)
        with pytest.raises(ValueError):
            rooted_forest_weight(graph, d, 4)
        big = ComparisonGraph(13, tuple((i + 1, i) for i in range(12)))
        with pytest.raises(TooLarge):
            rooted_forest_weight(big, Design.uniform(13), 1)


class TestCharPoly:
    def test_two_by_two(self):
        coeffs = char_poly_coeffs(np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert np.allclose(coeffs, [1.0, 4.0, 0.0], atol=1e-12)

    def test_path_uniform_matches_forest_total(self):
        graph = instances.path3_graph()
        lap = vertex_weighted_laplacian(graph, Design.uniform(3))
        coeffs = char_poly_coeffs(lap)
        assert math.isclose(coeffs[2], 27.0, rel_tol=1e-12)
        assert abs(coeffs[3]) < 1e-10

    def test_matches_elementary_symmetric_of_spectrum(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 7))
            x = rng.standard_normal((n, n))
            m = x @ x.T
            coeffs = char_poly_coeffs(m)
            vals = eigenvalues_sym(m).values
            # elementary symmetric functions by incremental polynomial build
            esym = np.zeros(n + 1)
            esym[0] = 1.0
            for lam in vals:
                esym[1:] = esym[1:] + lam * esym[:-1]
            assert np.allclose(coeffs, esym, rtol=1e-6, atol=1e-8 * max(1.0, abs(esym).max()))

    def test_all_coefficients_match_forest_totals(self, rng):
        for _ in range(20):
            graph = instances.random_connected_graph(rng, 7)
            d = instances.random_design(rng, graph.v)
            coeffs = char_poly_coeffs(vertex_weighted_laplacian(graph, d))
            for k in range(1, graph.v):
                kappa = rooted_forest_weight(graph, d, graph.v - k)
                assert math.isclose(coeffs[k], kappa, rel_tol=1e-6)


class TestDIdentity:
    def test_tree7_uniform(self, tree7_graph):
        report = verify_d_identity(tree7_graph, Design.uniform(7))
        assert report.rank == 6 and report.passed
        # a tree has a single spanning tree, so the total is alpha^(v-1) summed
        # over the v root choices with uniform alpha = 7: 7^6 * 7
        assert math.isclose(report.forest_total, 7.0**7, rel_tol=1e-12)

    def test_path_uniform(self):
        report = verify_d_identity(instances.path3_graph(), Design.uniform(3))
        assert report.passed
        assert math.isclose(report.psi_det, 27.0, rel_tol=1e-10)
        assert math.isclose(report.forest_total, 27.0, rel_tol=1e-12)
        assert math.isclose(report.char_coefficient, 27.0, rel_tol=1e-10)

    def test_two_disjoint_edges(self, rng):
        graph = ComparisonGraph(4, ((1, 0), (3, 2)))
        d = instances.random_design(rng, 4)
        report = verify_d_identity(graph, d)
        assert report.rank == 2 and report.passed

    def test_random_connected(self, rng):
        for _ in range(25):
            graph = instances.random_connected_graph(rng, 7)
            d = instances.random_design(rng, graph.v)
            report = verify_d_identity(graph, d)
            assert report.passed, report

    def test_too_large(self):
        # past the forest enumeration's bound the minor total still vouches
        path13 = ComparisonGraph(13, tuple((i + 1, i) for i in range(12)))
        assert verify_d_identity(path13, Design.uniform(13)).passed
        path21 = ComparisonGraph(MINOR_V_LIMIT + 1, tuple((i + 1, i) for i in range(MINOR_V_LIMIT)))
        with pytest.raises(TooLarge):
            verify_d_identity(path21, Design.uniform(MINOR_V_LIMIT + 1))
        # rank 10 of 20 treatments, C(20, 10) principal minors, is no longer refused
        halves = instances.random_integer_system(np.random.default_rng(1), 20, 10)
        report = verify_d_identity(halves, Design.uniform(20))
        assert report.rank == 10
        assert abs(report.forest_total - report.psi_det) <= 1e-8 * report.psi_det
        # 1/w^19 past the float range
        tiny = np.full(20, 1e-17)
        tiny[-1] = 1.0 - tiny[:-1].sum()
        with pytest.raises(TooLarge, match="float range"):
            verify_d_identity(ComparisonGraph(20, tuple((i + 1, i) for i in range(19))), Design(tiny))

    def test_minor_total_is_forest_total(self, rng):
        for components in (1, 1, 2, 3) * 5:
            parts = [instances.random_connected_graph(rng, 8 // components, 2) for _ in range(components)]
            graph = instances.disjoint_union(*parts)
            d = instances.random_design(rng, graph.v)
            report = verify_d_identity(graph, d)
            assert report.rank == graph.v - components and report.passed
            forests = rooted_forest_weight(graph, d, components)
            assert math.isclose(report.forest_total, forests, rel_tol=1e-12)

    def test_minor_total_equals_subset_sum(self, rng):
        # exactly the float of the brute-force sum, one elimination per r-subset
        def designs(v):
            wide = 10.0 ** rng.uniform(-6, 0, v)  # binary exponents far apart
            return instances.random_design(rng, v), Design(wide / wide.sum())

        systems = [instances.integer_system_of_rank(rng, v, r) for v in range(3, 13) for r in range(1, v)]
        for components in (1, 2, 3) * 3:
            parts = [instances.random_connected_graph(rng, 12 // components, 2) for _ in range(components)]
            systems.append(graph_system(instances.disjoint_union(*parts)))
        for system in systems:
            for d in designs(system.v):
                assert _minor_total(system, d) == minor_total_by_subsets(system, d)

    @pytest.mark.parametrize("r", [16, 10])
    def test_minor_total_eliminations(self, monkeypatch, r):
        # one elimination per point t = 1..v of det(diag(m) + t G), whatever the rank
        calls = []
        monkeypatch.setattr("odg.forests._bareiss", lambda rows: calls.append(len(rows)) or _bareiss(rows))
        system = instances.random_integer_system(np.random.default_rng(1), 20, r)
        assert _minor_total(system, Design.uniform(20))[0] == r
        assert len(calls) <= 20 + 1

    @pytest.mark.parametrize("v", [7, 10, 12])
    def test_integer_systems(self, rng, v):
        for s in (3, v // 2, v - 1, 2 * v):
            system = instances.random_integer_system(rng, v, s)
            assert detect_pairwise(system) is None
            d = instances.random_design(rng, v)
            report = verify_d_identity(system, d)
            # the trace recurrence loses accuracy on such spread spectra, so
            # only the exact total is held to the spectral psi_0 here, whose
            # rounding error grows with lambda_1 / lambda_r
            assert report.rank == min(s, v - 1)
            assert math.isclose(report.forest_total, report.psi_det, rel_tol=1e-8)

    def test_non_integer_system_refused(self):
        with pytest.raises(PreconditionViolated, match="integer"):
            verify_d_identity(instances.control_average_column(4), Design.uniform(4))
