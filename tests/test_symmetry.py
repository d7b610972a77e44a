import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from odg import (
    ContrastSystem,
    Design,
    OptimizeOptions,
    check_invariance,
    detect_pairwise,
    find_cyclic_invariance,
    graph_system,
    optimize_phi_p,
    orbit_reduction,
    psi_p,
    vertex_weighted_laplacian,
)
from odg.symmetry import Permutation
from odg.errors import NotInvariant, TooLarge

NEG_INF = float("-inf")
P_GRID = (0.0, -0.5, -1.0, -2.0, NEG_INF)


class TestPermutation:
    def test_one_line_and_cycles(self):
        perm = Permutation.from_one_line("2 1 3")
        assert perm.mapping == (1, 0, 2)
        assert perm.cycles == ((0, 1), (2,))
        assert not perm.is_cyclic

    def test_cycle_constructor(self):
        perm = Permutation.from_cycle([0, 2, 1])
        assert perm.mapping == (2, 0, 1)
        assert perm.is_cyclic

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))
        with pytest.raises(ValueError):
            Permutation.from_one_line("1 2 4")
        with pytest.raises(ValueError):
            Permutation.from_one_line("1 2 x")


class TestInvariance:
    def test_complete_graph_any_permutation(self, rng):
        system = graph_system(instances.complete_graph(5))
        for _ in range(20):
            perm = Permutation(tuple(int(x) for x in rng.permutation(5)))
            assert check_invariance(system, perm)

    def test_two_groups_interleaved_cycle(self):
        system = instances.two_groups_system(2)
        perm = Permutation.from_cycle([0, 2, 1, 3])
        assert check_invariance(system, perm)

    def test_tree7_shift_not_invariant(self, tree7):
        shift = Permutation.from_cycle(list(range(7)))
        assert not check_invariance(tree7, shift)

    def test_laplacian_conjugation(self, rng):
        # for a graph automorphism, relabelling the design conjugates the
        # weighted Laplacian, hence criterion values agree
        system = instances.ring_system(5)
        graph = detect_pairwise(system)
        perm = find_cyclic_invariance(system)
        mat = np.zeros((5, 5))
        for i, j in enumerate(perm.mapping):
            mat[j, i] = 1.0
        for _ in range(10):
            w = instances.random_design(rng, 5)
            lhs = vertex_weighted_laplacian(graph, Design(w.w[np.argsort(perm.mapping)]))
            rhs = mat @ vertex_weighted_laplacian(graph, w) @ mat.T
            assert np.abs(lhs - rhs).max() < 1e-12


def _rotated_paw(scale: float) -> ContrastSystem:
    # q R for an orthogonal R leaves q q^T as it is, up to rounding at q's scale
    rotation, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    return ContrastSystem(scale * graph_system(instances.paw_graph()).q @ rotation)


class TestInvarianceScale:
    """The tolerance is relative to the Gram matrix's largest entry."""

    def test_small_scale_refuses_a_non_automorphism(self):
        # every entry of the paw's q q^T at scale 1e-6 is below 1e-10
        system = ContrastSystem(1e-6 * graph_system(instances.paw_graph()).q)
        assert not check_invariance(system, Permutation.from_one_line("2 1 3 4"))
        assert find_cyclic_invariance(system) is None
        with pytest.raises(NotInvariant):
            orbit_reduction(system, Permutation.from_one_line("2 1 3 4"))

    def test_rounding_at_a_large_scale_keeps_an_automorphism(self):
        # at scale 1e3 the rotation's rounding error in q q^T is about 1e-9
        system = _rotated_paw(1e3)
        assert check_invariance(system, Permutation.from_one_line("1 3 2 4"))
        assert not check_invariance(system, Permutation.from_one_line("2 1 3 4"))

    def test_cyclic_search_at_any_scale(self):
        for scale in (1e-6, 1.0, 1e6):
            found = find_cyclic_invariance(ContrastSystem(scale * instances.ring_system(5).q))
            assert found is not None and found.is_cyclic
            assert find_cyclic_invariance(_rotated_paw(scale)) is None

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["paw", "ring5", "two_groups2", "multi_control", "tree7"]),
        order=st.permutations(range(4)),
        c=st.floats(1e-6, 1e6),
    )
    def test_verdict_is_scale_invariant(self, name, order, c):
        system = {
            "paw": graph_system(instances.paw_graph()),
            "ring5": instances.ring_system(5),
            "two_groups2": instances.two_groups_system(2),
            "multi_control": instances.multi_control_system(5, 2),
            "tree7": instances.tree7_system(),
        }[name]
        perm = Permutation(tuple(order) + tuple(range(4, system.v)))
        scaled = ContrastSystem(c * system.q)
        assert check_invariance(scaled, perm) == check_invariance(system, perm)


class TestCyclicSearch:
    def test_ring_found(self):
        perm = find_cyclic_invariance(instances.ring_system(5))
        assert perm is not None and perm.is_cyclic
        assert check_invariance(instances.ring_system(5), perm)

    def test_two_groups_found(self):
        system = instances.two_groups_system(3)
        perm = find_cyclic_invariance(system)
        assert perm is not None and perm.is_cyclic
        assert check_invariance(system, perm)
        # the interleaving cycle is a known valid answer
        assert check_invariance(system, Permutation.from_cycle([0, 3, 1, 4, 2, 5]))

    def test_tree7_absent(self, tree7):
        assert find_cyclic_invariance(tree7) is None

    def test_too_large(self):
        with pytest.raises(TooLarge):
            find_cyclic_invariance(instances.ring_system(10))
        # raising the cap makes the same search legal
        assert find_cyclic_invariance(instances.ring_system(10), max_v=10) is not None

    def test_cyclic_implies_uniform_optimal(self, rng):
        for system in (instances.ring_system(5), instances.two_groups_system(3)):
            assert find_cyclic_invariance(system) is not None
            uniform = Design.uniform(system.v)
            for p in P_GRID:
                base = psi_p(system, uniform, p).psi
                for _ in range(500):
                    w = instances.random_design(rng, system.v)
                    assert base <= psi_p(system, w, p).psi * (1 + 1e-12)


class TestOrbitReduction:
    def test_multi_control(self):
        system = instances.multi_control_system(5, 2)
        perm = Permutation.from_one_line("2 1 4 5 3")
        reduction = orbit_reduction(system, perm)
        assert reduction.orbit_count == 2
        assert reduction.orbit_of == (0, 0, 1, 1, 1)

    def test_ring_single_orbit(self):
        system = instances.ring_system(5)
        perm = find_cyclic_invariance(system)
        reduction = orbit_reduction(system, perm)
        assert reduction.orbit_count == 1

    def test_identity_no_reduction(self, tree7):
        reduction = orbit_reduction(tree7, Permutation(tuple(range(7))))
        assert reduction.orbit_count == 7

    def test_not_invariant_rejected(self, tree7):
        with pytest.raises(NotInvariant):
            orbit_reduction(tree7, Permutation.from_cycle(list(range(7))))

    @pytest.mark.parametrize("p", [-0.5, -2.0, NEG_INF])
    def test_orbit_constrained_matches_unconstrained(self, p):
        system = instances.multi_control_system(5, 2)
        perm = Permutation.from_one_line("2 1 4 5 3")
        reduction = orbit_reduction(system, perm)
        free = optimize_phi_p(system, p)
        constrained = optimize_phi_p(system, p, OptimizeOptions(orbits=reduction))
        assert math.isclose(free.criterion.psi, constrained.criterion.psi, rel_tol=1e-6)
        labels = np.asarray(reduction.orbit_of)
        for orbit in range(reduction.orbit_count):
            weights = constrained.design.w[labels == orbit]
            assert np.abs(weights - weights[0]).max() < 1e-12
