import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instances
from odg import ComparisonGraph, Design, graph_system, psi_p, rank_of
from odg import _kernels as kernels
from odg.errors import TooLarge

NEG_INF = float("-inf")


def test_grid_scan_enumerates_full_lattice():
    # minimizer of the trace form sits at the known closed-form point
    system = graph_system(instances.path3_graph())
    gram = system.q @ system.q.T
    value, counts = kernels.grid_scan(gram, 2, 10, 3, -1.0)
    assert counts.tolist() == [3, 4, 3]


def test_grid_scan_two_vertices():
    gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
    value, counts = kernels.grid_scan(gram, 1, 10, 2, NEG_INF)
    assert counts.tolist() == [5, 5]
    assert np.isclose(value, 4.0)


def _coarse_lattice_systems():
    return [
        ("ctrl4", instances.control_average_column(4)),
        ("path3", graph_system(instances.path3_graph())),
        ("gauss4x2", instances.random_contrast_system(np.random.default_rng(20240817), 4, 2)),
        ("paw", graph_system(instances.paw_graph())),
        ("edge", graph_system(ComparisonGraph(2, ((1, 0),)))),
    ]


@pytest.mark.parametrize("p", [0.0, -1.0, -2.0, -0.5, NEG_INF])
@pytest.mark.parametrize("name,system", _coarse_lattice_systems())
def test_grid_scan_matches_direct_evaluation(name, system, p):
    # every positive composition of n, each evaluated by psi_p on K(w)
    n, v = 12, system.v
    rank = rank_of(system)
    value, counts = kernels.grid_scan(system.gram, rank, n, v, p)
    assert int(counts.sum()) == n and counts.min() >= 1
    at_counts = psi_p(system, Design(counts / n), p, rank=rank).psi
    assert math.isclose(value, at_counts, rel_tol=1e-12)
    lattice = [c for c in itertools.product(range(1, n), repeat=v) if sum(c) == n]
    values = {c: psi_p(system, Design(np.array(c) / n), p, rank=rank).psi for c in lattice}
    lowest = min(values.values())
    assert lowest >= value * (1.0 - 1e-12)
    # ties resolve to the lexicographically earliest point
    earlier = [psi for c, psi in values.items() if c < tuple(counts.tolist())]
    assert all(psi > lowest * (1.0 + 1e-12) for psi in earlier)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [-300.0, -1000.0])
def test_grid_scan_past_the_float_range(p):
    # psi overflows at every design; phi, its power mean, does not, and the
    # scan keeps the earliest design of the largest phi
    system = graph_system(instances.paw_graph())
    n = 20
    value, counts = kernels.grid_scan(system.gram, 3, n, 4, p)
    assert value == math.inf
    lattice = [c for c in itertools.product(range(1, n), repeat=4) if sum(c) == n]
    phis = {c: psi_p(system, Design(np.array(c) / n), p).phi for c in lattice}
    best = max(phis.values())
    assert phis[tuple(counts.tolist())] >= best * (1.0 - 1e-14)
    assert all(phi < best * (1.0 - 1e-14) for c, phi in phis.items() if c < tuple(counts.tolist()))


def test_grid_scan_refuses_a_criterion_past_the_float_range_everywhere():
    # every paw design has lambda_max >= 1.6 tr(q q^T), and 1.6^2000 is past the float range
    system = graph_system(instances.paw_graph())
    with pytest.raises(TooLarge, match="every lattice design"):
        kernels.grid_scan(system.gram, 3, 20, 4, -2000.0)


@pytest.mark.parametrize("chunk", [5, 37])
@pytest.mark.parametrize("p", [0.0, -1.0, -2.0, -0.5, NEG_INF])
@pytest.mark.parametrize("name,system", _coarse_lattice_systems())
def test_grid_scan_chunk_boundaries_change_no_result(monkeypatch, name, system, p, chunk):
    # the tie rule and the p = -inf pruning threshold carry across chunk edges
    n, v = 12, system.v
    rank = rank_of(system)
    value, counts = kernels.grid_scan(system.gram, rank, n, v, p)
    monkeypatch.setattr(kernels, "_SCAN_CHUNK", chunk)
    chunked_value, chunked_counts = kernels.grid_scan(system.gram, rank, n, v, p)
    assert chunked_counts.tolist() == counts.tolist()
    assert math.isclose(chunked_value, value, rel_tol=1e-12)


@pytest.mark.parametrize("v,n", [(v, n) for v in (2, 3, 4) for n in (v, v + 1, 23, 100)])
def test_lattice_chunks_enumerate_the_lattice_in_order(v, n):
    chunks = list(kernels._lattice_chunks(n, v))
    assert all(len(chunk) <= kernels._SCAN_CHUNK for chunk in chunks)
    counts = np.concatenate(chunks)
    assert counts.min() >= 1 and (counts.sum(axis=1) == n).all()
    # the gaps between 0, v - 1 cut positions in 1..n-1 and n, in lexicographic order
    expected = [
        [b - a for a, b in zip((0, *cuts), (*cuts, n))] for cuts in itertools.combinations(range(1, n), v - 1)
    ]
    assert counts.tolist() == expected


def test_lattice_chunks_memory_is_bounded_by_a_chunk():
    # n = 1000, v = 4 has C(999, 3) = 166 M designs; the pairs table alone would be 498 501 rows
    chunk_bytes = kernels._SCAN_CHUNK * (4 + 1) * 8
    tracemalloc.start()
    try:
        chunks = kernels._lattice_chunks(1000, 4)
        for _ in range(3):
            assert next(chunks).shape == (kernels._SCAN_CHUNK, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * chunk_bytes


@pytest.mark.parametrize(
    "p,expected", [(-1.0, [31, 25, 26, 18]), (NEG_INF, [37, 23, 23, 17])]
)
def test_grid_scan_ties_keep_earliest_point(p, expected):
    # on the paw these optima are tied in exact arithmetic with their mirror
    # images ([31, 26, 25, 18] and [40, 23, 23, 14]), which come later
    system = graph_system(instances.paw_graph())
    _, counts = kernels.grid_scan(system.gram, 3, 100, 4, p)
    assert counts.tolist() == expected


@pytest.mark.parametrize("p", [0.0, -1.0, -2.0, NEG_INF])
def test_grid_scan_ties_survive_rescaling(p):
    # scaling Q rescales every lattice value alike, so the kept point stays
    system = graph_system(instances.paw_graph())
    scaled = 3.0 * system.q
    _, counts = kernels.grid_scan(system.gram, 3, 100, 4, p)
    _, scaled_counts = kernels.grid_scan(scaled @ scaled.T, 3, 100, 4, p)
    assert scaled_counts.tolist() == counts.tolist()


@pytest.mark.parametrize("p", [0.0, -1.0, -2.0])
def test_grid_scan_closed_forms_need_no_eigensolve(monkeypatch, p):
    # p = 0, -1 and -2 are read from polynomials in 1/w, not from a spectrum
    system = graph_system(instances.paw_graph())
    expected = kernels.grid_scan(system.gram, 3, 100, 4, p)[1].tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(kernels.np.linalg, "eigvalsh", refuse)
    _, counts = kernels.grid_scan(system.gram, 3, 100, 4, p)
    assert counts.tolist() == expected



LATTICE_POINTS_V4_N100 = math.comb(99, 3)


def unpruned_largest_root_scan(gram, r, n, v):
    """grid_scan at p = -inf without pruning: the whole lattice in one eigvalsh batch."""
    vals, vecs = np.linalg.eigh(gram)
    f = vecs[:, ::-1][:, :r] * np.sqrt(vals[::-1][:r])
    cuts = np.array(list(itertools.combinations(range(1, n), v - 1)), dtype=np.int64).reshape(-1, v - 1)
    counts = np.diff(np.pad(cuts, ((0, 0), (1, 0))), axis=1, append=n)
    m = np.einsum("ka,ai,aj->kij", n / counts, f, f)
    largest = np.linalg.eigvalsh(m)[:, -1]
    i = int(np.argmax(largest <= largest.min() * (1.0 + kernels._TIE_RTOL)))
    return float(largest[i]), counts[i]


def _integer_gram(rng, v, r):
    while True:
        f = rng.integers(-3, 4, size=(v, r)).astype(float)
        gram = f @ f.T
        if np.linalg.matrix_rank(gram) == r:
            return gram


def _pruning_cases():
    # K4's minimum is the near-uniform point that seeds the threshold; 4 does not divide 97
    graphs = {"paw": instances.paw_graph(), "star4": instances.star4_graph(), "K4": instances.complete_graph(4)}
    cases = [
        pytest.param(graph_system(graphs[name]).gram, 3, n, 4, id=f"{name}-n{n}")
        for name, n in (("paw", 100), ("star4", 100), ("K4", 100), ("paw", 97))
    ]
    rng = np.random.default_rng(8)
    for v in (2, 3, 4):
        for r in range(1, v + 1):
            for n in (v + 3, 23):
                cases.append(pytest.param(_integer_gram(rng, v, r), r, n, v, id=f"random-v{v}-r{r}-n{n}"))
    return cases


@pytest.mark.parametrize("gram,r,n,v", _pruning_cases())
def test_grid_scan_pruning_changes_no_result(gram, r, n, v):
    value, counts = kernels.grid_scan(gram, r, n, v, NEG_INF)
    expected_value, expected_counts = unpruned_largest_root_scan(gram, r, n, v)
    assert counts.tolist() == expected_counts.tolist()
    assert math.isclose(value, expected_value, rel_tol=1e-12)


@pytest.mark.parametrize("graph", [instances.paw_graph, instances.star4_graph])
def test_grid_scan_largest_root_eigensolves_few_designs(monkeypatch, graph):
    # the trace and diagonal bounds rule out all but a few lattice points
    system = graph_system(graph())
    eigvalsh = kernels.np.linalg.eigvalsh
    solved = []

    def counting(a, *args, **kwargs):
        solved.append(np.asarray(a).reshape(-1, 3, 3).shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(kernels.np.linalg, "eigvalsh", counting)
    kernels.grid_scan(system.gram, 3, 100, 4, NEG_INF)
    assert 0 < sum(solved) < LATTICE_POINTS_V4_N100 / 8


@st.composite
def psd_matrices(draw):
    r = draw(st.integers(1, 3))
    top = draw(st.floats(1e-3, 1e3))
    # repeated top eigenvalues, exact zeros and distinct values
    below = st.floats(0.0, 1.0).map(lambda t: t * top)
    rest = draw(st.lists(st.one_of(st.just(top), st.just(0.0), below), min_size=r - 1, max_size=r - 1))
    # an orthogonal basis: Q of a Gaussian matrix
    u, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((r, r)))
    return np.array([top, *rest]), u


@settings(max_examples=300, deadline=None)
@given(psd_matrices())
def test_largest_root_bounds_enclose_the_largest_eigenvalue(case):
    spectrum, u = case
    r = len(spectrum)
    m = (u * spectrum) @ u.T
    lower, upper = kernels._largest_root_bounds(((m + m.T) / 2.0).reshape(1, r * r), r)
    largest = spectrum.max()
    assert lower[0] <= largest * (1.0 + 1e-9)
    assert upper[0] >= largest * (1.0 - 1e-9)
