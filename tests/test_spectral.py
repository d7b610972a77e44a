import json
import math

import numpy as np
import pytest

import instances
from forest_oracle import rooted_forest_weight
from odg import (
    ComparisonGraph,
    Design,
    Spectrum,
    covariance_matrix,
    criterion_from_spectrum,
    detect_pairwise,
    e_certificate,
    eigensystem_sym,
    eigenvalues_sym,
    graph_system,
    incidence_matrix,
    optimize_phi_p,
    pseudo_information_matrix,
    psi_p,
    rank_of,
    verify_d_identity,
    vertex_weighted_laplacian,
)
from odg._kernels import eigh_sym
from odg.cli import main as cli_main
from odg.closed_form import e_optimal_bipartite
from odg.forests import _bareiss, _integers
from odg.errors import (
    InfeasibleDesign,
    NonPositiveEigenvalue,
    NotSymmetric,
    PreconditionViolated,
    ZeroRow,
)

SINGLE_EDGE = ComparisonGraph(2, ((1, 0),))


class TestDesign:
    def test_rejects_nonpositive(self):
        with pytest.raises(InfeasibleDesign):
            Design(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(InfeasibleDesign):
            Design(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InfeasibleDesign):
            Design(np.array([0.5, 0.4]))

    def test_uniform(self):
        assert np.allclose(Design.uniform(7).w, 1 / 7)


class TestCovariance:
    def test_single_edge(self):
        got = covariance_matrix(graph_system(SINGLE_EDGE), Design.uniform(2))
        assert np.allclose(got, [[4.0]])

    def test_tree7_optimal_largest_eigenvalue(self, tree7):
        w = Design(np.array([1, 2, 3, 1, 3, 1, 1]) / 12.0)
        spec = eigenvalues_sym(covariance_matrix(tree7, w))
        assert abs(spec.values[0] - 24.0) < 1e-10

    def test_centered_uniform(self):
        system = instances.centered_contrasts(3)
        got = covariance_matrix(system, Design.uniform(3))
        assert np.allclose(got, 3.0 * (np.eye(3) - np.full((3, 3), 1 / 3)))


class TestInformation:
    def test_single_edge(self):
        got = pseudo_information_matrix(graph_system(SINGLE_EDGE), Design.uniform(2))
        assert np.allclose(got, [[0.25]])

    def test_eigenvalues_invert_laplacian_spectrum(self, tree7, tree7_graph):
        d = Design.uniform(7)
        info = eigenvalues_sym(pseudo_information_matrix(tree7, d))
        lap = eigenvalues_sym(vertex_weighted_laplacian(tree7_graph, d))
        positive = lap.values[lap.values > lap.tol]
        assert np.allclose(np.sort(info.values), np.sort(1.0 / positive), rtol=1e-10)

    def test_pseudo_agrees_on_full_rank(self, tree7, rng):
        d = instances.random_design(rng, 7)
        a = np.linalg.inv(covariance_matrix(tree7, d))
        b = pseudo_information_matrix(tree7, d)
        assert np.abs(a - b).max() < 1e-10

    def test_pseudo_centered(self):
        system = instances.centered_contrasts(3)
        got = pseudo_information_matrix(system, Design.uniform(3))
        assert np.allclose(got, (np.eye(3) - np.full((3, 3), 1 / 3)) / 3.0)

    def test_penrose_identities(self, rng):
        for _ in range(100):
            graph = instances.random_pairwise_graph(rng, 6)
            system = graph_system(graph)
            d = instances.random_design(rng, graph.v)
            v = covariance_matrix(system, d)
            c = pseudo_information_matrix(system, d)
            scale = np.abs(v).max()
            assert np.abs(c @ v @ c - c).max() < 1e-10 * max(1, scale)
            assert np.abs(v @ c @ v - v).max() < 1e-8 * scale
            assert np.abs(v @ c - (v @ c).T).max() < 1e-9
            assert np.abs(c @ v - (c @ v).T).max() < 1e-9


PATH3 = ComparisonGraph(3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("w1", [1e-11, 1e-12])
def test_pseudo_information_matrix_reads_the_system_rank(w1):
    # at w proportional to (w1, 1, 1), K(w)'s smaller positive eigenvalue is
    # below RANK_TOL times its largest, yet the system has rank 2: a rank
    # counted on K(w) drops it and is 100 % off the pseudo-inverse
    system = graph_system(PATH3)
    design = Design(np.array([w1, 1.0, 1.0]) / (w1 + 2.0))
    assert rank_of(system) == 2
    expected = np.linalg.pinv(covariance_matrix(system, design))
    got = pseudo_information_matrix(system, design)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("v", [2, 4])
@pytest.mark.parametrize(
    "call",
    [
        lambda d: psi_p(graph_system(PATH3), d, -1.0),
        lambda d: psi_p(graph_system(PATH3), d, -1.0).phi / psi_p(graph_system(PATH3), Design.uniform(3), -1.0).phi,
        lambda d: e_certificate(graph_system(PATH3), d),
        lambda d: pseudo_information_matrix(graph_system(PATH3), d),
        lambda d: vertex_weighted_laplacian(PATH3, d),
        lambda d: verify_d_identity(PATH3, d),
    ],
    ids=["psi_p", "efficiency", "e_certificate", "pseudo_information_matrix", "vertex_weighted_laplacian",
         "verify_d_identity"],
)
def test_design_of_wrong_length_refused(call, v):
    # _kernels.weighted_gram, the one place that scales by a design, refuses it
    with pytest.raises(InfeasibleDesign, match=f"design has {v} weights for a system on 3 treatments"):
        call(Design.uniform(v))


class TestLaplacian:
    def test_single_edge(self):
        lap = vertex_weighted_laplacian(SINGLE_EDGE, Design.uniform(2))
        assert np.array_equal(lap, [[2.0, -2.0], [-2.0, 2.0]])

    def test_path3_uniform_entries(self):
        lap = vertex_weighted_laplacian(instances.path3_graph(), Design.uniform(3))
        assert np.allclose(np.diag(lap), [3.0, 6.0, 3.0])
        assert np.allclose(lap[0, 1], -3.0) and np.allclose(lap[1, 2], -3.0)
        assert lap[0, 2] == 0.0

    def test_isolated_vertex_rejected(self):
        # vertex 3 is in no comparison, so its Laplacian row would be zero
        with pytest.raises(ZeroRow):
            vertex_weighted_laplacian(ComparisonGraph(3, ((0, 1),)), Design.uniform(3))

    def test_trace_is_weighted_degree_total(self, rng):
        for _ in range(20):
            graph = instances.random_pairwise_graph(rng, 8)
            d = instances.random_design(rng, graph.v)
            lap = vertex_weighted_laplacian(graph, d)
            assert math.isclose(np.trace(lap), float(np.sum(np.array(graph.degrees) / d.w)), rel_tol=1e-12)

    def test_positive_spectrum_matches_covariance(self, tree7, tree7_graph, rng, tmp_path, capsys):
        d = instances.random_design(rng, 7)
        lap = eigenvalues_sym(vertex_weighted_laplacian(tree7_graph, d))
        cov = eigenvalues_sym(covariance_matrix(tree7, d))
        assert np.allclose(lap.values[:6], cov.values[:6], rtol=1e-10)
        # rank, criteria, CLI spectrum and certificate, all read from the
        # v-by-v K(w), against the s-by-s covariance route; general systems
        # with s > v and with rank < v-1 as well as the tree
        systems = [
            (tree7, d),
            (instances.random_contrast_system(rng, 6, 15), instances.random_design(rng, 6)),
            (instances.random_contrast_system(rng, 8, 3), instances.random_design(rng, 8)),
        ]
        for k, (system, design) in enumerate(systems):
            cov_matrix = covariance_matrix(system, design)
            cov = eigenvalues_sym(cov_matrix)
            rank = int(np.count_nonzero(cov.values > cov.tol))
            assert rank == min(system.s, system.v - 1)
            assert rank_of(system) == rank
            for p in (0.0, -1.0, -2.0, -math.inf):
                got = psi_p(system, design, p)
                want = criterion_from_spectrum(cov, rank, p)
                assert got.rank == rank
                assert math.isclose(got.psi, want.psi, rel_tol=1e-10)
                assert math.isclose(got.phi, want.phi, rel_tol=1e-10)

            q_path = tmp_path / f"q{k}.csv"
            q_path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in system.q))
            w_path = tmp_path / f"w{k}.csv"
            w_path.write_text(",".join(repr(float(x)) for x in design.w))
            assert cli_main(["eval", "--q", str(q_path), "--w", str(w_path), "--p", "-1"]) == 0
            spectrum = json.loads(capsys.readouterr().out)["spectrum"]
            assert len(spectrum) == system.s
            assert np.allclose(spectrum[:rank], cov.values[:rank], rtol=1e-10)
            assert np.all(np.abs(cov.values[rank:]) <= cov.tol)
            assert spectrum[rank:] == [0.0] * (system.s - rank)

            # the certificate's rhs is the covariance matrix's largest
            # eigenvalue, and its lhs_max the dual bound: at most that, and
            # within the optimizer's proven gap of the E-optimum
            cert = e_certificate(system, design)
            assert math.isclose(cert.rhs, np.linalg.eigvalsh(cov_matrix)[-1], rel_tol=1e-10)
            optimum = optimize_phi_p(system, -math.inf).criterion.psi
            assert cert.lhs_max <= optimum * (1 + 1e-12) <= cert.rhs * (1 + 1e-12)
            assert cert.lhs_max >= optimum / (1 + 1e-8)

    def test_estimator_covariance_identity(self, rng):
        # R^T diag(1/n) R and diag(n^-1/2) R R^T diag(n^-1/2) share positive spectra
        for _ in range(25):
            graph = instances.random_pairwise_graph(rng, 7)
            r = incidence_matrix(graph)
            n = rng.random(graph.v) * 5 + 0.2
            lhs = eigenvalues_sym(r.T @ np.diag(1.0 / n) @ r)
            isn = 1.0 / np.sqrt(n)
            rhs = eigenvalues_sym((r @ r.T) * np.outer(isn, isn))
            k = int(np.count_nonzero(lhs.values > lhs.tol))
            assert np.count_nonzero(rhs.values > rhs.tol) == k
            assert np.allclose(lhs.values[:k], rhs.values[:k], rtol=1e-9)


class TestEigensolver:
    def test_two_by_two(self):
        spec = eigenvalues_sym(np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert np.allclose(spec.values, [4.0, 0.0], atol=1e-12)

    def test_unweighted_path_spectrum(self):
        lap = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.allclose(eigenvalues_sym(lap).values, [3.0, 1.0, 0.0], atol=1e-10)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            eigenvalues_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            eigenvalues_sym(np.ones((2, 3)))

    @pytest.mark.parametrize("solver", [eigh_sym], ids=["eigh_sym_numpy"])
    def test_residuals_and_order_both_backends(self, solver, rng):
        for _ in range(40):
            n = int(rng.integers(2, 13))
            x = rng.standard_normal((n, n))
            m = x @ x.T
            vals, vecs = solver(m)
            assert np.all(np.diff(vals) <= 1e-12)
            residual = m @ vecs - vecs * vals
            assert np.abs(residual).max() <= 1e-8 * np.linalg.norm(m)
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-10


def _first_minor(m: np.ndarray, i: int, j: int) -> np.ndarray:
    return np.delete(np.delete(m, i, axis=0), j, axis=1)


def integer_det(m: np.ndarray) -> int:
    """Exact determinant of an integer matrix, by ``forests._bareiss``."""
    return _bareiss(_integers(m).tolist())


class TestCofactorMinor:
    """First minors of integer Gram matrices, exact (``forests._bareiss``)."""

    def test_single_edge_gram(self):
        gram = np.array([[1, -1], [-1, 1]])
        assert integer_det(_first_minor(gram, 0, 0)) == 1

    def test_tree7_minors_all_equal(self, tree7):
        gram = tree7.q @ tree7.q.T
        assert [integer_det(_first_minor(gram, i, i)) for i in range(7)] == [1] * 7

    def test_sign_rule(self, tree7):
        gram = tree7.q @ tree7.q.T
        assert integer_det(_first_minor(gram, 0, 1)) == -integer_det(_first_minor(gram, 0, 0))

    def test_cofactor_lemma_random_systems(self, rng):
        # every first minor of a graph Laplacian is +-tau(G); under the
        # uniform design each of the tau(G) spanning trees has v roots of
        # weight v^(v-1), so the one-root forest total is tau(G) v^v
        for _ in range(15):
            graph = instances.random_connected_graph(rng, 7)
            gram = graph_system(graph).gram
            v = graph.v
            tau = round(rooted_forest_weight(graph, Design.uniform(v), 1) / v**v)
            for i in range(v):
                for j in range(v):
                    assert integer_det(_first_minor(gram, i, j)) == (-1) ** (i + j) * tau
        # any Gram matrix with zero row sums has all first minors equal up to sign
        for _ in range(15):
            v = int(rng.integers(3, 7))
            gram = instances.random_integer_system(rng, v, int(rng.integers(1, 6))).gram
            base = integer_det(_first_minor(gram, 0, 0))
            for i in range(v):
                for j in range(v):
                    assert integer_det(_first_minor(gram, i, j)) == (-1) ** (i + j) * base

    def test_singular_and_swapped(self):
        # no pivot left in a column gives 0; one row swap flips the sign
        assert _bareiss([[0, 1], [0, 2]]) == 0
        assert _bareiss([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0
        assert _bareiss([[0, 1], [1, 0]]) == -1
        assert _bareiss([]) == 1

    def test_precondition_rejected(self):
        with pytest.raises(PreconditionViolated, match="integer"):
            integer_det(np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_spectrum_requires_descending_values():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0]), tol=0.0)
