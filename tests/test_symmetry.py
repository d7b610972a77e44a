import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from odg import (
    ComparisonGraph,
    ContrastSystem,
    Design,
    OptimizeOptions,
    check_invariance,
    detect_pairwise,
    find_cyclic_invariance,
    graph_system,
    optimize_phi_p,
    orbit_reduction,
    parse_contrast_matrix,
    psi_p,
    vertex_weighted_laplacian,
)
from odg import symmetry
from odg.symmetry import INVARIANCE_TOL, Permutation
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


def _first_accepted_cycle(system: ContrastSystem):
    """The first of the (v-1)! cycles through vertex 0, in lexicographic
    order, that ``check_invariance`` accepts; None if there is none."""
    for rest in itertools.permutations(range(1, system.v)):
        perm = Permutation.from_cycle((0, *rest))
        if check_invariance(system, perm):
            return perm
    return None


def _first_accepted_cycle_skipping(system: ContrastSystem):
    """``_first_accepted_cycle`` for larger v: the same lexicographic order,
    but a block of cycles that share a prefix is skipped when the pairs the
    prefix maps (c_t -> c_t+1) already move an entry of q q^T by more than
    ``check_invariance``'s tolerance, since no cycle in the block can then
    be accepted."""
    gram, v = system.gram, system.v
    tol = INVARIANCE_TOL * np.abs(gram).max()

    def first(prefix):
        if len(prefix) == v:
            perm = Permutation.from_cycle(prefix)
            return perm if check_invariance(system, perm) else None
        for nxt in range(1, v):
            if nxt in prefix:
                continue
            order = (*prefix, nxt)
            pairs = list(zip(order, order[1:]))
            if any(abs(gram[b, d] - gram[a, c]) > tol for a, b in pairs for c, d in pairs):
                continue
            found = first(order)
            if found is not None:
                return found
        return None

    return first((0,))


def _relabelled_circulant(rng, n: int, jumps) -> ContrastSystem:
    labels = rng.permutation(n)
    edges = {tuple(sorted((int(labels[i]), int(labels[(i + j) % n])))) for i in range(n) for j in jumps}
    return graph_system(ComparisonGraph(n, tuple(sorted(edges))))


def _generalized_petersen(n: int, k: int) -> ContrastSystem:
    """GP(n, k): an outer n-cycle, spokes i -- n + i, inner edges n + i -- n + (i + k) mod n."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return graph_system(ComparisonGraph(2 * n, tuple(edges)))


def _circulant_csv(rng, v: int, scale: float, noise: float) -> ContrastSystem:
    """A float contrast system Q whose Q Q^T is circulant (Q is: each row the
    last one shifted, a zero-sum first row), rows relabelled, written at
    ``scale`` and moved by a relative ``noise``, read back from CSV."""
    first = rng.standard_normal(v)
    first -= first.mean()
    q = np.array([np.roll(first, i) for i in range(v)])[rng.permutation(v)]
    q = scale * (q + noise * rng.standard_normal((v, v)) * np.abs(q).max())
    q -= q.mean(axis=0)
    return parse_contrast_matrix("".join(",".join(repr(float(x)) for x in row) + "\n" for row in q))


def _random_cubic_graph(rng, v: int) -> ComparisonGraph:
    """A random 3-regular simple graph: random pairings of 3v half-edges,
    redrawn until no loop or double edge remains."""
    while True:
        ends = rng.permutation(np.repeat(np.arange(v), 3)).reshape(-1, 2)
        edges = {tuple(sorted(int(x) for x in pair)) for pair in ends}
        if len(edges) == len(ends) and all(a != b for a, b in edges):
            return ComparisonGraph(v, tuple(sorted(edges)))


class TestCyclicSearchPruning:
    """The closed-walk tests and the pruning on G^2..G^k change no answer of
    the cyclic search: it is always the first cycle in lexicographic order
    that ``check_invariance`` accepts."""

    def test_every_graph_on_five_vertices(self):
        pairs = list(itertools.combinations(range(5), 2))
        checked = 0
        for mask in range(1, 2 ** len(pairs)):
            edges = tuple(pair for bit, pair in enumerate(pairs) if mask >> bit & 1)
            if len({x for edge in edges for x in edge}) < 5:
                continue  # a vertex without a comparison has a zero row
            system = graph_system(ComparisonGraph(5, edges))
            assert find_cyclic_invariance(system) == _first_accepted_cycle(system), edges
            checked += 1
        assert checked == 768

    def test_skipping_reference_is_the_brute_force(self, rng):
        for n in (5, 6, 7):
            for jumps in ([1], [1, 2], [2], [1, 3]):
                system = _relabelled_circulant(rng, n, [j for j in jumps if j <= n // 2])
                assert _first_accepted_cycle_skipping(system) == _first_accepted_cycle(system)

    def test_relabelled_circulants(self, rng):
        for n in range(5, 13):
            for _ in range(3):
                size = int(rng.integers(1, n // 2 + 1))
                jumps = sorted(int(j) for j in rng.choice(np.arange(1, n // 2 + 1), size, replace=False))
                system = _relabelled_circulant(rng, n, jumps)
                expected = _first_accepted_cycle_skipping(system)
                assert expected is not None  # the rotation by one leaves every circulant invariant
                assert find_cyclic_invariance(system, max_v=12) == expected, (n, jumps)

    @pytest.mark.parametrize("scale", [2.0**300, 2.0**-300, 1.0], ids=["2^300", "2^-300", "1"])
    def test_float_circulants_within_the_tolerance(self, rng, scale):
        for v in (6, 9, 12):
            system = _circulant_csv(rng, v, scale, 1e-12)
            found = find_cyclic_invariance(system, max_v=12)
            assert found is not None and found.is_cyclic
            # the noise stays within a quarter of the tolerance on the cycle found
            gram, m = system.gram, np.asarray(found.mapping)
            assert np.abs(gram[np.ix_(m, m)] - gram).max() <= INVARIANCE_TOL / 4 * np.abs(gram).max()
            assert found == _first_accepted_cycle_skipping(system)

    @pytest.mark.parametrize("scale", [2.0**300, 2.0**-300], ids=["2^300", "2^-300"])
    def test_float_circulants_beyond_the_tolerance(self, rng, scale):
        for v in (6, 9, 12):
            assert find_cyclic_invariance(_circulant_csv(rng, v, scale, 1e-6), max_v=12) is None

    def test_a_zero_walk_tolerance_loses_the_invariance(self, rng, monkeypatch):
        # the walk tolerance is what keeps the invariances of noisy systems
        systems = [_circulant_csv(rng, v, 2.0**300, 1e-12) for v in (6, 9, 12)]
        assert all(find_cyclic_invariance(system, max_v=12) is not None for system in systems)
        monkeypatch.setattr(symmetry, "_walk_tolerance", lambda k, v, m, tau: 0.0)
        assert all(find_cyclic_invariance(system, max_v=12) is None for system in systems)

    @pytest.mark.parametrize("n, v", [(5, 10), (10, 20)], ids=["petersen", "dodecahedron"])
    def test_vertex_transitive_without_a_cycle(self, n, v):
        assert find_cyclic_invariance(_generalized_petersen(n, 2), max_v=v) is None

    def test_non_walk_regular_refused_before_backtracking(self, monkeypatch):
        graph = _random_cubic_graph(np.random.default_rng(4), 12)
        system = graph_system(graph)
        gram = system.gram
        # every vertex looks alike in G, but not in its closed 3-walks
        assert np.all(np.sort(gram, axis=1) == np.sort(gram[0]))
        assert np.ptp(np.diag(np.linalg.matrix_power(gram, 3))) > 0

        def refuse(rows, tols):
            raise AssertionError("backtracked on a system that is not walk-regular")

        monkeypatch.setattr(symmetry, "_backtrack", refuse)
        assert find_cyclic_invariance(system, max_v=12) is None
