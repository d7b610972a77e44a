import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import instances
import odg.contrasts
from odg import (
    ComparisonGraph,
    ContrastSystem,
    Design,
    a_optimal,
    classify,
    detect_pairwise,
    e_optimal_bipartite,
    graph_system,
    incidence_matrix,
    parse_contrast_matrix,
    parse_edge_list,
    psi_p,
    rank_of,
)
from odg.contrasts import is_edge_list
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


def parse_edge_list_reference(text):
    """The line-by-line edge-list parse that ``parse_edge_list`` does in one pass."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].replace(" ", "").startswith("v="):
        raise MalformedInput("edge list must start with a 'v=<n>' line")
    try:
        v = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise MalformedInput("invalid vertex count in 'v=' line") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise MalformedInput(f"edge line {ln!r} must contain exactly two vertex indices")
        try:
            j, i = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInput(f"edge line {ln!r} must contain integers") from None
        if not (1 <= j <= v and 1 <= i <= v):
            raise MalformedInput(f"edge ({j}, {i}) out of range for v={v}")
        edges.append((j - 1, i - 1))
    if v > 2 * len(edges):
        used = {x for edge in edges for x in edge}
        raise ZeroRow(f"treatment {min(set(range(len(used) + 1)) - used) + 1} has an all-zero coefficient row")
    return ComparisonGraph(v, tuple(edges))


@st.composite
def edge_list_texts(draw):
    """Edge lists of distinct comparisons on v <= 6 treatments, some with faults.

    Indices are written as int() reads them: with a sign, leading zeros or
    an underscore. Up to two faults go in: a vertex count or an index that is
    out of range, past int64 or not an integer, a line with one or three
    tokens, or a repeated comparison. Lines may be blank, padded, and end in
    any line boundary of str.splitlines.
    """
    v = draw(st.integers(min_value=2, max_value=6))
    pairs = [(a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    lines = [[str(a), str(b)] if draw(st.booleans()) else [str(b), str(a)] for a, b in chosen]
    lines = [[draw(st.sampled_from(["{}", "+{}", "0{}", "0_{}"])).format(x) for x in line] for line in lines]
    bad = st.sampled_from(["0", "-1", str(v + 1), str(2**70), "x", "1.0", "\u0662"])
    for fault in draw(st.lists(st.sampled_from(["index", "one", "three", "repeat", "count"]), max_size=2)):
        k = draw(st.integers(0, len(lines) - 1))
        if fault == "index":
            lines[k][draw(st.integers(0, len(lines[k]) - 1))] = draw(bad)
        elif fault == "one":
            lines[k] = lines[k][:1]
        elif fault == "three":
            lines[k] = lines[k] + [draw(st.sampled_from(["1", "x"]))]
        elif fault == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), list(reversed(lines[k])))
        else:
            v = draw(st.sampled_from([-1, 0, 1, 2 * len(lines) + 1, 10**40]))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])
    pads = st.sampled_from(["", " ", "\t"])
    body = "".join(draw(pads) + " ".join(line) + draw(pads) + draw(breaks) for line in lines)
    blank = draw(st.sampled_from(["", "\n", " \n\t"]))
    head = draw(st.sampled_from(["v={}", "v={}", " v = {} ", "\n\nv={}", "\tv =+{}", "v={}x", "w={}"])).format(v)
    return head + draw(breaks) + blank + body


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

    @pytest.mark.parametrize(
        "text",
        [
            "v=3\n+2 1\n03 2\n",  # a sign and a leading zero
            "v=3\n2 1\n3 0_2\n",  # an underscore between digits
            "v=3\r\n2\t1\r\n\r\n  3   2  \r\n",  # CRLF, a tab, a blank line, padding
            "\n  \n v = 3 \n\n2 1\n\n3 2",  # blank lines before the header, spaces in it, no final newline
            "v=3\f2 1\x1e3 2\u2028",  # line boundaries of str.splitlines other than newline
            "v=3\n\u0662 1\n\uff13 \uff12\n",  # non-ASCII decimal digits
        ],
    )
    def test_indices_read_as_int_reads_them(self, text):
        graph = parse_edge_list(text)
        assert (graph.v, graph.edges) == (3, ((1, 0), (2, 1)))
        assert is_edge_list(text)

    @pytest.mark.parametrize("text", ["", " \n\t\n", "1,-1\n-1,1\n", "w=3\n", "v\t=3\n1 2\n"])
    def test_not_an_edge_list(self, text):
        assert not is_edge_list(text)
        with pytest.raises(MalformedInput, match="^edge list must start with a 'v=<n>' line$"):
            parse_edge_list(text)

    @pytest.mark.parametrize(
        "body, message",
        [
            # three kinds of fault: the first offending line names the refusal
            ("2 1\n1 2 3\n1 x\n9 1\n", "edge line '1 2 3' must contain exactly two vertex indices"),
            ("2 1\n1 x\n1 2 3\n9 1\n", "edge line '1 x' must contain integers"),
            ("2 1\n9 1\n1 x\n1 2 3\n", r"edge \(9, 1\) out of range for v=3"),
            ("2 1\n  4\t\n1 x\n", "edge line '4' must contain exactly two vertex indices"),
            ("2 1\n3 1.0\n9 1\n", "edge line '3 1.0' must contain integers"),
            # within one line: the token count, then integers, then the range
            ("2 1\n9 x 1\n", "edge line '9 x 1' must contain exactly two vertex indices"),
            ("2 1\n9 x\n", "edge line '9 x' must contain integers"),
            ("2 1\n0 1\n", r"edge \(0, 1\) out of range for v=3"),
            ("2 1\n-1 2\n", r"edge \(-1, 2\) out of range for v=3"),
            # an index beyond int64 is out of range, not an OverflowError
            ("2 1\n1 1180591620717411303424\n", r"edge \(1, 1180591620717411303424\) out of range for v=3"),
            ("2 1\n-1180591620717411303424 1\n", r"edge \(-1180591620717411303424, 1\) out of range for v=3"),
            # the graph's own checks come after every line is read
            ("2 1\n2 2\n9 1\n", r"edge \(9, 1\) out of range for v=3"),
            ("2 1\n2 2\n3 1\n", "loop at vertex 2"),
            ("2 1\n3 1\n1 2\n", "repeated comparison between 1 and 2"),
        ],
    )
    def test_first_offending_line(self, body, message):
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            parse_edge_list("v=3\n" + body)

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    @example("v=3\n2 1\n3 2\n")
    @example("v=0\n")
    @example("v=1\n")
    @example("v=2\n1 1\n")
    def test_agrees_with_line_loop(self, text):
        try:
            expected = parse_edge_list_reference(text)
        except (MalformedInput, ZeroRow) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                parse_edge_list(text)
        else:
            graph = parse_edge_list(text)
            assert (graph.v, graph.edges) == (expected.v, expected.edges)

    def test_index_past_int64_within_a_huge_vertex_count(self):
        # in range for v = 10**40, so the list is refused only for the treatments it leaves out
        with pytest.raises(ZeroRow, match="^treatment 3 has an all-zero coefficient row$"):
            parse_edge_list(f"v={10**40}\n1 2\n2 {2**70}\n")


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


class TestGraphSystem:
    @staticmethod
    def graphs(rng):
        """Seeded random graphs of one, two and three components, no vertex isolated."""
        for _ in range(40):
            parts = [instances.random_connected_graph(rng, 9, 2) for _ in range(int(rng.integers(1, 4)))]
            yield instances.disjoint_union(*parts)

    def test_laplacian_is_the_incidence_product_bit_for_bit(self, rng):
        for graph in self.graphs(rng):
            system = graph_system(graph)
            q = incidence_matrix(graph)
            product = q @ q.T
            assert np.array_equal(system.gram, product)
            assert np.array_equal(np.signbit(system.gram), np.signbit(product))  # no -0.0 either way
            assert "q" not in vars(system)  # q is made on first read only
            assert np.array_equal(system.q, q) and not system.q.flags.writeable
            assert (system.v, system.s) == q.shape
            assert rank_of(system) == graph.v - classify(graph).component_count

    def test_a_optimum_reads_the_degrees_not_q(self, rng):
        # sqrt(degree) is the row norm of q exactly, so the design is the same
        for graph in self.graphs(rng):
            system = graph_system(graph)
            design = a_optimal(system).design.w
            psi_p(system, Design.uniform(graph.v), -2.0)
            assert "q" not in vars(system)
            assert np.array_equal(design, a_optimal(ContrastSystem(incidence_matrix(graph))).design.w)

    def test_refuses_what_the_incidence_matrix_would(self):
        for graph in (ComparisonGraph(3, ((1, 2),)), ComparisonGraph(4, ((3, 1), (1, 2)))):
            with pytest.raises(ZeroRow, match="^treatment 1 has an all-zero coefficient row$"):
                ContrastSystem(incidence_matrix(graph))
            with pytest.raises(ZeroRow, match="^treatment 1 has an all-zero coefficient row$"):
                graph_system(graph)
        with pytest.raises(MalformedInput, match="^need at least 2 treatments and 1 contrast, got 3x0$"):
            graph_system(ComparisonGraph(3, ()))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("argv", [["eval", "--w", "W", "--p", "-1"], ["optimize", "--p", "-1"]], ids=["eval", "optimize"])
def test_complete_graph_on_400_treatments_stays_small(argv, tmp_path):
    # K400 has 79 800 comparisons: its v-by-s incidence matrix alone is 255 MB
    v = 400
    edges = tmp_path / "k400.edges"
    edges.write_text(f"v={v}\n" + "".join(f"{i} {j}\n" for i in range(1, v + 1) for j in range(i + 1, v + 1)))
    weights = tmp_path / "k400.w"
    weights.write_text(" ".join([repr(1.0 / v)] * v) + "\n")
    argv = [str(weights) if arg == "W" else arg for arg in argv] + ["--q", str(edges)]
    script = (
        "import contextlib, io, json, sys\n"
        "from odg.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(sys.argv[1:])\n"
        "peak = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(json.dumps([code, len(json.loads(out.getvalue())['spectrum']), int(peak.split()[1]) / 1024]))\n"
    )
    src = str(Path(odg.contrasts.__file__).resolve().parents[1])
    env = {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, length, peak_mb = json.loads(done.stdout.strip().splitlines()[-1])
    assert code == 0 and length == v * (v - 1) // 2
    assert peak_mb < 200


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
