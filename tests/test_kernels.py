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


def unpruned_scan(gram, r, n, v, p):
    """grid_scan without pruning: psi from the eigenvalues of M at every lattice design, in one batch."""
    vals, vecs = np.linalg.eigh(gram)
    f = vecs[:, ::-1][:, :r] * np.sqrt(vals[::-1][:r])
    cuts = np.array(list(itertools.combinations(range(1, n), v - 1)), dtype=np.int64).reshape(-1, v - 1)
    counts = np.diff(np.pad(cuts, ((0, 0), (1, 0))), axis=1, append=n)
    spectra = np.linalg.eigvalsh(np.einsum("ka,ai,aj->kij", n / counts, f, f))
    if p == 0.0:
        psi = np.prod(spectra, axis=1)
    elif p == NEG_INF:
        psi = spectra[:, -1]
    else:
        psi = np.sum(spectra**-p, axis=1)
    i = int(np.argmax(psi <= psi.min() * (1.0 + kernels._TIE_RTOL)))
    return float(psi[i]), counts[i]


def _integer_gram(rng, v, r):
    while True:
        f = rng.integers(-3, 4, size=(v, r)).astype(float)
        gram = f @ f.T
        if np.linalg.matrix_rank(gram) == r:
            return gram


def _pruning_cases():
    """(gram, r, n, v, p) at every p; the p = -inf cases keep the ids they had when only p = -inf was pruned."""
    # K4's minimum is the near-uniform point that seeds the threshold; 4 does not divide 97;
    # two disjoint edges tie every optimum with its image under swapping the edges
    graphs = {
        "paw": instances.paw_graph(),
        "star4": instances.star4_graph(),
        "K4": instances.complete_graph(4),
        "2K2": ComparisonGraph(4, ((0, 1), (2, 3))),
    }
    systems = [
        (f"{name}-n{n}", graph_system(graphs[name]).gram, rank, n, 4)
        for name, rank, n in (("paw", 3, 100), ("star4", 3, 100), ("K4", 3, 100), ("paw", 3, 97), ("2K2", 2, 100))
    ]
    rng = np.random.default_rng(8)
    for v in (2, 3, 4):
        for r in range(1, v + 1):
            for n in (v + 3, 23):
                systems.append((f"random-v{v}-r{r}-n{n}", _integer_gram(rng, v, r), r, n, v))
    return [
        pytest.param(gram, r, n, v, p, id=name if p == NEG_INF else f"{name}-p{p}")
        for name, gram, r, n, v in systems
        for p in (0.0, -1.0, -2.0, -0.5, NEG_INF)
    ]


@pytest.mark.parametrize("gram,r,n,v,p", _pruning_cases())
def test_grid_scan_pruning_changes_no_result(gram, r, n, v, p):
    value, counts = kernels.grid_scan(gram, r, n, v, p)
    expected_value, expected_counts = unpruned_scan(gram, r, n, v, p)
    assert counts.tolist() == expected_counts.tolist()
    assert math.isclose(value, expected_value, rel_tol=1e-12)


@pytest.mark.parametrize("graph", [instances.paw_graph, instances.star4_graph])
def test_grid_scan_largest_root_eigensolves_few_designs(monkeypatch, graph):
    # the box bound rules out all but a few lattice points
    system = graph_system(graph())
    eigvalsh = kernels.np.linalg.eigvalsh
    solved = []

    def counting(a, *args, **kwargs):
        solved.append(np.asarray(a).reshape(-1, 3, 3).shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(kernels.np.linalg, "eigvalsh", counting)
    kernels.grid_scan(system.gram, 3, 100, 4, NEG_INF)
    assert 0 < sum(solved) < LATTICE_POINTS_V4_N100 / 8


@pytest.mark.parametrize("p", [-1e-300, -1e-12, -1e-9])
def test_grid_scan_near_zero_p_finds_the_p0_optimum(p):
    # sum_j lambda_j^-p rounds to r at every design; the power mean does not
    system = graph_system(instances.paw_graph())
    _, expected = kernels.grid_scan(system.gram, 3, 100, 4, 0.0)
    _, counts = kernels.grid_scan(system.gram, 3, 100, 4, p)
    assert counts.tolist() == expected.tolist() == [25, 25, 25, 25]


@pytest.mark.parametrize("p,expected", [(-1.0, [312, 254, 254, 180]), (NEG_INF, [384, 231, 231, 154])])
def test_grid_scan_at_the_finest_step(p, expected):
    # n = 1000, v = 4 has C(999, 3) = 166 M designs; the scan keeps a few batches of boxes
    system = graph_system(instances.paw_graph())
    batch_bytes = kernels._SCAN_CHUNK * 2 * 4 * 8
    tracemalloc.start()
    try:
        _, counts = kernels.grid_scan(system.gram, 3, 1000, 4, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.tolist() == expected
    assert peak <= 16 * batch_bytes


def test_grid_scan_refuses_a_criterion_past_the_float_range_without_walking_the_lattice(monkeypatch):
    system = graph_system(instances.paw_graph())
    eigvalsh = kernels.np.linalg.eigvalsh
    solved = []

    def counting(a, *args, **kwargs):
        solved.append(np.asarray(a).reshape(-1, 3, 3).shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(kernels.np.linalg, "eigvalsh", counting)
    with pytest.raises(TooLarge, match="every lattice design"):
        kernels.grid_scan(system.gram, 3, 1000, 4, -2000.0)
    assert sum(solved) < math.comb(999, 3) / 1000


@pytest.mark.parametrize("q", [1e-6, 0.5])
@pytest.mark.parametrize("r", [1, 3, 40])
def test_power_mean_batch_agrees_with_one_spectrum_calls(r, q):
    # descending spectra scale * exp(-spread * shape), shape rising from 0 to 1, so
    # that max|l| = spread; the spreads take q max|l| from 1e-9 to 4e-4
    rng = np.random.default_rng(r)
    rows = []
    for spread in np.array([1e-9, 1e-7, 0.995e-5, 1.005e-5, 1e-4, 4e-4]) / q:
        shape = np.sort(rng.random(r))
        shape = (shape - shape[0]) / (shape[-1] - shape[0]) if r > 1 else shape * 0.0
        rows.append(rng.uniform(0.1, 10.0) * np.exp(-spread * shape))
    batch = np.array(rows)
    means = kernels.power_mean(batch, q)
    assert means.shape == (len(rows),)
    for lam, mean in zip(batch, means):
        one_mean = kernels.power_mean(lam, q)
        assert abs(mean - one_mean) <= 1e-15 * one_mean


@pytest.mark.parametrize("spread", [20.0, 100.0])
def test_power_mean_keeps_its_digits_at_every_q(spread):
    # against (mean_j lambda_j^q)^(1/q) summed as log1p(mean expm1(q l)) by fsum, and
    # below the smallest normal q as its q -> 0 limit, mean l (the omitted
    # (q/2) var l is below 1e-300); log(mean_j t_j) / q would lose about eps / q
    r = 40
    t = np.linspace(0.0, 1.0, r)
    for shape in (t, t**3, t**0.3):
        lam = 3.7 * np.exp(-spread * shape)
        ell = np.log(lam / lam[0])
        for q in [*np.geomspace(1e-7, 1e-2, 40), 0.5, 5e-324, 1e-310, 1e-300]:
            if q >= np.finfo(np.float64).tiny:
                mean_log = math.log1p(math.fsum(np.expm1(q * ell)) / r) / q
            else:
                mean_log = math.fsum(ell) / r
            expected = lam[0] * math.exp(mean_log)
            assert abs(kernels.power_mean(lam, q) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("q", [0.0, 5e-324])
@pytest.mark.parametrize("smallest", [0.0, -1e-17])
def test_power_mean_of_a_nonpositive_eigenvalue_is_nan_at_p0(smallest, q):
    # the descent rejects a trial whose value is nan; the geometric mean 0 would be its best value
    batch = np.array([[2.0, 1.0, smallest], [2.0, 1.0, 0.5]])
    with np.errstate(divide="ignore", invalid="ignore"):  # the log of 0 or of a negative number
        means = kernels.power_mean(batch, q)
        assert math.isnan(kernels.power_mean(batch[0], q))
    assert math.isnan(means[0]) and means[1] == kernels.power_mean(batch[1], q)


@st.composite
def monotone_cases(draw):
    v = draw(st.integers(2, 4))
    r = draw(st.integers(1, v))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gram = _integer_gram(rng, v, r)
    # x = n / counts at a design on a lattice no finer than the CLI's, then one x_i grown
    counts = np.array(draw(st.lists(st.integers(1, 1000), min_size=v, max_size=v)))
    x = counts.sum() / counts
    grown = x.copy()
    grown[draw(st.integers(0, v - 1))] *= draw(st.floats(1.0, 10.0))
    return gram, r, x, grown


@settings(max_examples=300, deadline=None)
@given(monotone_cases(), st.sampled_from([0.0, -1.0, -2.0, -0.5, -3.0, NEG_INF, -1e-12]))
def test_lattice_order_is_nondecreasing_in_each_inverse_weight(case, p):
    # the box bound: the order at a box's corner of largest counts bounds the box
    gram, r, x, grown = case
    vals, vecs = kernels.eigh_sym(gram)
    order = kernels._lattice_criterion(vecs[:, :r] * np.sqrt(vals[:r]), p)
    before, after = order(np.array([x, grown]))
    # far inside the margin _PRUNE_RTOL that the scan allows the bound
    assert after >= before * (1.0 - 1e-10)
