import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instances
import odg.contrasts
from odg import (
    ComparisonGraph,
    ContrastSystem,
    classify,
    detect_pairwise,
    e_optimal_bipartite,
    graph_system,
    incidence_matrix,
    parse_contrast_matrix,
    parse_edge_list,
    rank_of,
)
from odg.errors import MalformedInput, NotAContrast, PreconditionViolated, ZeroRow


def gaussian_rank(m, tol=1e-9):
    """Brute-force row-reduction rank, independent of the eigenvalue route."""
    a = np.array(m, dtype=float)
    scale = max(np.abs(a).max(), 1.0)
    rank = 0
    rows, cols = a.shape
    row = 0
    for col in range(cols):
        pivot = row + int(np.argmax(np.abs(a[row:, col]))) if row < rows else None
        if pivot is None or abs(a[pivot, col]) <= tol * scale:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        a[row] /= a[row, col]
        for other in range(rows):
            if other != row:
                a[other] -= a[other, col] * a[row]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def detect_pairwise_reference(system):
    """Column-by-column pairwise detection: the loop that ``detect_pairwise`` vectorises."""
    edges, seen = [], set()
    for k in range(system.s):
        col = system.q[:, k]
        plus, minus = np.flatnonzero(col == 1.0), np.flatnonzero(col == -1.0)
        if plus.size != 1 or minus.size != 1 or np.count_nonzero(col) != 2:
            return None
        j, i = int(plus[0]), int(minus[0])
        if (min(i, j), max(i, j)) in seen:
            return None
        seen.add((min(i, j), max(i, j)))
        edges.append((j, i))
    return edges


@st.composite
def mixed_columns(draw):
    """A comparison graph's columns with at most two odd columns put in.

    The odd kinds are the ones pairwise detection must tell apart: a pair
    scaled by +-2 or +-0.5, a pair with one entry 1e-13 off +-1 (still a
    contrast within the column-sum tolerance), three or four entries, and a
    copy of an earlier column, as drawn or reversed. A treatment left in no
    column gets a pairwise one, so that the system is valid.
    """
    v = draw(st.integers(min_value=2, max_value=7))
    pairs = [(a, b) for a in range(v) for b in range(v) if a != b]
    columns = []
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10, unique_by=lambda e: frozenset(e))):
        columns.append(np.zeros(v))
        columns[-1][[a, b]] = (1.0, -1.0)
    odd_kinds = st.sampled_from(["scaled", "near", "many", "copy", "reversed"])
    for kind in draw(st.lists(odd_kinds, max_size=2)):
        col = np.zeros(v)
        if kind in ("copy", "reversed"):
            col = draw(st.sampled_from(columns)) * (1.0 if kind == "copy" else -1.0)
        elif kind == "many" and v >= 4:
            entries = draw(st.sampled_from([(1, 1, -2), (1, -0.5, -0.5), (1, -1, 0.5, -0.5), (1, -1, 1, -1)]))
            col[draw(st.permutations(range(v)))[: len(entries)]] = entries
        elif kind == "near":
            col[list(draw(st.sampled_from(pairs)))] = draw(st.sampled_from([(1, -1 + 1e-13), (1 - 1e-13, -1)]))
        else:
            col[list(draw(st.sampled_from(pairs)))] = draw(st.sampled_from([2.0, -2.0, 0.5, -0.5])) * np.array([1, -1])
        columns.insert(draw(st.integers(0, len(columns))), col)
    for i in range(v):
        if not any(col[i] for col in columns):
            columns.append(np.zeros(v))
            columns[-1][[i, (i + 1) % v]] = (1.0, -1.0)
    return ContrastSystem(np.column_stack(columns))


class TestParsing:
    def test_single_comparison(self):
        system = parse_contrast_matrix("-1\n1\n")
        assert (system.v, system.s) == (2, 1)

    def test_tree7_csv(self):
        system = parse_contrast_matrix(instances.TREE7_CSV)
        assert (system.v, system.s) == (7, 6)
        assert np.array_equal(system.q, instances.TREE7_MATRIX)

    def test_nonzero_column_sum_rejected(self):
        with pytest.raises(NotAContrast):
            parse_contrast_matrix("1\n1\n-2.5\n")

    def test_column_sum_checked_at_the_column_scale(self, rng):
        # these exact decimals sum to -1.8e-12 in floats: zero at their scale
        assert parse_contrast_matrix("8540.96\n5843.28\n-14384.24\n").s == 1
        q = rng.standard_normal((6, 40))
        ContrastSystem(1e4 * (q - q.mean(axis=0)))
        with pytest.raises(NotAContrast, match="column 1 sums to"):
            parse_contrast_matrix(f"1\n1\n{-2.0 * (1.0 + 1e-9)!r}\n")

    def test_ragged_rows_rejected(self):
        with pytest.raises(MalformedInput):
            parse_contrast_matrix("1,0\n-1\n")

    def test_non_numeric_rejected(self):
        with pytest.raises(MalformedInput):
            parse_contrast_matrix("1,x\n-1,0\n")

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRow):
            parse_contrast_matrix("1,-1\n-1,1\n0,0\n")

    def test_empty_rejected(self):
        with pytest.raises(MalformedInput):
            parse_contrast_matrix("\n\n")

    def test_edge_list(self):
        graph = parse_edge_list("v=3\n2 1\n3 2\n")
        assert graph.v == 3
        assert graph.edges == ((1, 0), (2, 1))

    @pytest.mark.parametrize("v", [3, 10**11, 10**40])
    def test_treatment_in_no_comparison(self, v):
        # more treatments than two per comparison: refused before anything of size v is made
        with pytest.raises(ZeroRow, match="^treatment 3 has an all-zero coefficient row$"):
            parse_edge_list(f"v={v}\n1 2\n")
        with pytest.raises(ZeroRow, match="^treatment 1 has an all-zero coefficient row$"):
            parse_edge_list(f"v={v}\n3 2\n")

    @pytest.mark.parametrize("text", ["1e308,-1e308\n-1e308,1e308\n", "1e-200\n-1e-200\n"])
    def test_gram_out_of_float_range_refused(self, text):
        # squares that overflow to inf or underflow to 0 leave no usable spectrum
        with pytest.raises(MalformedInput, match="rescale the coefficients"):
            parse_contrast_matrix(text)

    def test_edge_list_errors(self):
        with pytest.raises(MalformedInput):
            parse_edge_list("2 1\n")
        with pytest.raises(MalformedInput):
            parse_edge_list("v=3\n4 1\n")
        with pytest.raises(MalformedInput):
            parse_edge_list("v=3\n2 1 3\n")


class TestDetectPairwise:
    def test_tree7_edges_and_degrees(self, tree7):
        graph = detect_pairwise(tree7)
        assert graph.edges == ((1, 0), (2, 1), (3, 2), (4, 2), (5, 4), (6, 4))
        assert graph.degrees == (1, 2, 3, 1, 3, 1, 1)

    def test_centered_contrasts_not_pairwise(self):
        assert detect_pairwise(instances.centered_contrasts(4)) is None

    def test_scaled_pair_not_pairwise(self):
        q = np.array([[-0.5], [0.5]])
        assert detect_pairwise(ContrastSystem(q)) is None

    def test_paw_degrees(self, paw_system):
        graph = detect_pairwise(paw_system)
        assert graph.degrees == (3, 2, 2, 1)

    def test_duplicate_comparison_rejected(self):
        q = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert detect_pairwise(ContrastSystem(q)) is None

    @settings(max_examples=300, deadline=None)
    @given(mixed_columns())
    @example(ContrastSystem(np.array([[1, 0, 0, 0.5], [-1, 1, 0, 1], [0, -1, 1, -0.5], [0, 0, -1, -1]])))
    @example(ContrastSystem(np.array([[1 - 1e-13, 0], [-1, 1], [0, -1]])))
    @example(ContrastSystem(np.array([[1, 0], [-1 + 1e-13, 1], [0, -1]])))
    @example(ContrastSystem(np.array([[1, 0, -1], [-1, 1, 1], [0, -1, 0]])))
    @example(ContrastSystem(np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]])))
    def test_agrees_with_column_loop(self, system):
        graph = detect_pairwise(system)
        expected = detect_pairwise_reference(system)
        if expected is None:
            assert graph is None
        else:
            assert graph is not None and graph.edges == tuple(expected)
            assert np.array_equal(incidence_matrix(graph), system.q)


class TestClassify:
    def test_tree7(self, tree7_graph):
        info = classify(tree7_graph)
        assert info.is_connected and info.is_tree and info.bipartition is not None
        assert info.component_count == 1

    def test_paw_not_bipartite(self, paw):
        info = classify(paw)
        assert info.is_connected and not info.is_tree
        assert info.bipartition is None

    def test_even_cycle(self):
        c4 = ComparisonGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        info = classify(c4)
        assert info.bipartition is not None and not info.is_tree

    def test_component_count(self):
        two = ComparisonGraph(4, ((1, 0), (3, 2)))
        assert classify(two).component_count == 2

    def test_bipartition_two_colors_every_edge(self, rng):
        for _ in range(50):
            graph = instances.random_tree(rng, int(rng.integers(2, 9)))
            info = classify(graph)
            colors = info.bipartition
            assert colors is not None
            for a, b in graph.edges:
                assert colors[a] != colors[b]

    def test_sign_flips_make_sinks_and_sources(self, rng):
        # the signs of the E-optimal eigenvector, the one bipartite sign rule
        for _ in range(50):
            graph = instances.random_tree(rng, int(rng.integers(2, 9)))
            flipped = [
                (a, b) if sign > 0 else (b, a)
                for (a, b), sign in zip(graph.edges, e_optimal_bipartite(graph).eigvec)
            ]
            outgoing = {a for a, _ in flipped}
            incoming = {b for _, b in flipped}
            assert not outgoing & incoming


class TestIncidence:
    def test_single_edge(self):
        graph = ComparisonGraph(2, ((1, 0),))
        assert np.array_equal(incidence_matrix(graph), np.array([[-1.0], [1.0]]))

    def test_tree7_round_trip(self, tree7):
        graph = detect_pairwise(tree7)
        assert np.array_equal(incidence_matrix(graph), tree7.q)

    def test_triangle_columns(self):
        c3 = ComparisonGraph(3, ((0, 1), (1, 2), (2, 0)))
        expected = np.array([[1, 0, -1], [-1, 1, 0], [0, -1, 1]], dtype=float)
        assert np.array_equal(incidence_matrix(c3), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_detect_after_incidence_is_identity(self, data):
        v = data.draw(st.integers(min_value=2, max_value=8))
        pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        edges = tuple((b, a) if flip else (a, b) for (a, b), flip in zip(chosen, flips))
        degrees = np.zeros(v, dtype=int)
        for a, b in edges:
            degrees[a] += 1
            degrees[b] += 1
        if np.any(degrees == 0):
            return  # isolated vertices cannot form a contrast system
        graph = ComparisonGraph(v, edges)
        back = detect_pairwise(graph_system(graph))
        assert back is not None and back.edges == graph.edges


class TestRank:
    def test_tree7_full_rank(self, tree7):
        assert rank_of(tree7) == 6

    def test_counts_cached_gram_eigenvalues(self, tree7, monkeypatch):
        # the eigendecomposition is made once, on first use, and then kept
        vals, vecs = tree7.gram_eigen

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve in rank_of")

        monkeypatch.setattr(odg.contrasts, "eigh_sym", refuse)
        assert rank_of(tree7) == 6
        assert rank_of(tree7, 1e-300) == 6
        assert tree7.gram_eigen[0] is vals
        assert np.all(np.diff(vals) <= 0.0)
        assert np.allclose((vecs * vals) @ vecs.T, tree7.gram, atol=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 2.0, float("nan"), float("inf")])
    def test_tolerance_outside_unit_interval_refused(self, paw_system, tol):
        # at tol >= 1 no eigenvalue would count, and nan compares false with
        # every eigenvalue: both read rank 0, which no criterion accepts
        with pytest.raises(PreconditionViolated, match="rank tolerance"):
            rank_of(paw_system, tol)

    def test_centered_contrasts(self):
        assert rank_of(instances.centered_contrasts(3)) == 2

    def test_two_disjoint_edges(self):
        graph = ComparisonGraph(4, ((1, 0), (3, 2)))
        system = graph_system(graph)
        assert rank_of(system) == 2
        assert gaussian_rank(system.q) == 2

    def test_matches_gaussian_elimination(self, rng):
        for _ in range(40):
            graph = instances.random_pairwise_graph(rng, 7)
            system = graph_system(graph)
            assert rank_of(system) == gaussian_rank(system.q)

    def test_rank_equals_v_minus_components(self, rng):
        for _ in range(200):
            graph = instances.random_pairwise_graph(rng, 8)
            system = graph_system(graph)
            assert rank_of(system) == graph.v - classify(graph).component_count

    def test_tree_iff_full_rank_among_v_minus_1_edges(self, rng):
        for _ in range(60):
            v = int(rng.integers(3, 8))
            graph = instances.random_tree(rng, v)
            assert classify(graph).is_tree
            assert rank_of(graph_system(graph)) == v - 1
        # same edge count, but with a cycle: disconnected, so rank < v-1
        square_plus_isolated_edge = ComparisonGraph(
            6, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5))
        )
        info = classify(square_plus_isolated_edge)
        assert square_plus_isolated_edge.s == 5 and not info.is_tree
        assert rank_of(graph_system(square_plus_isolated_edge)) < 5


class TestGraphValidation:
    def test_loop_rejected(self):
        with pytest.raises(MalformedInput):
            ComparisonGraph(3, ((1, 1),))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(MalformedInput):
            ComparisonGraph(3, ((0, 1), (1, 0)))

    @pytest.mark.parametrize(
        "v, edges, message",
        [
            # the first offending edge in input order wins
            (4, ((0, 1), (2, 2), (1, 0)), "loop at vertex 3"),
            (4, ((0, 1), (1, 0), (2, 2)), "repeated comparison between 2 and 1"),
            (4, ((0, 1), (1, 0), (0, 4)), "repeated comparison between 2 and 1"),
            (4, ((0, 1), (0, 4), (1, 0)), r"edge \(1, 5\) out of range for v=4"),
            (4, ((0, 1), (2, 3), (3, 2), (0, 1)), "repeated comparison between 4 and 3"),
            # within one edge: range, then loop, then repeat
            (4, ((4, 4),), r"edge \(5, 5\) out of range for v=4"),
            (4, ((-1, -1),), r"edge \(0, 0\) out of range for v=4"),
            (4, ((1, 1), (1, 1)), "loop at vertex 2"),
            # an index beyond int64 is out of range, not an OverflowError
            (4, ((0, 1), (2, 2**70)), rf"edge \(3, {2**70 + 1}\) out of range for v=4"),
            (4, ((0, 1), (-(2**70), 2), (1, 1)), rf"edge \({1 - 2**70}, 3\) out of range for v=4"),
        ],
    )
    def test_first_offending_edge_message(self, v, edges, message):
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            ComparisonGraph(v, edges)

    def test_normalises_edges_and_counts_degrees(self):
        graph = ComparisonGraph(5, [(np.int64(1), 0), (3, 1)])
        assert graph.edges == ((1, 0), (3, 1)) and all(type(x) is int for edge in graph.edges for x in edge)
        assert graph.degrees == (1, 2, 0, 1, 0)
        assert ComparisonGraph(3, ()).degrees == (0, 0, 0)

    def test_degree_sum_is_twice_edge_count(self, rng):
        for _ in range(30):
            graph = instances.random_pairwise_graph(rng, 8)
            assert sum(graph.degrees) == 2 * graph.s
