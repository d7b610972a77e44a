import itertools
import math

import numpy as np
import pytest

import instances
from odg import ComparisonGraph, Design, graph_system, psi_p, rank_of
from odg import _kernels as kernels

NEG_INF = float("-inf")


def scan_args(p):
    """grid_scan's (mode, qexp) for a criterion exponent."""
    if p == 0.0:
        return 0, 0.0
    if p == NEG_INF:
        return 2, 0.0
    return 1, -p


def test_grid_scan_enumerates_full_lattice():
    # minimizer of the trace form sits at the known closed-form point
    system = graph_system(instances.path3_graph())
    gram = system.q @ system.q.T
    value, counts = kernels.grid_scan(gram, 2, 10, 3, 1, 1.0)
    assert counts.tolist() == [3, 4, 3]


def test_grid_scan_two_vertices():
    gram = np.array([[1.0, -1.0], [-1.0, 1.0]])
    value, counts = kernels.grid_scan(gram, 1, 10, 2, 2, 0.0)
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
    value, counts = kernels.grid_scan(system.gram, rank, n, v, *scan_args(p))
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


@pytest.mark.parametrize(
    "p,expected", [(-1.0, [31, 25, 26, 18]), (NEG_INF, [37, 23, 23, 17])]
)
def test_grid_scan_ties_keep_earliest_point(p, expected):
    # on the paw these optima are tied in exact arithmetic with their mirror
    # images ([31, 26, 25, 18] and [40, 23, 23, 14]), which come later
    system = graph_system(instances.paw_graph())
    _, counts = kernels.grid_scan(system.gram, 3, 100, 4, *scan_args(p))
    assert counts.tolist() == expected


@pytest.mark.parametrize("p", [0.0, -1.0, -2.0, NEG_INF])
def test_grid_scan_ties_survive_rescaling(p):
    # scaling Q rescales every lattice value alike, so the kept point stays
    system = graph_system(instances.paw_graph())
    scaled = 3.0 * system.q
    _, counts = kernels.grid_scan(system.gram, 3, 100, 4, *scan_args(p))
    _, scaled_counts = kernels.grid_scan(scaled @ scaled.T, 3, 100, 4, *scan_args(p))
    assert scaled_counts.tolist() == counts.tolist()


@pytest.mark.parametrize("p", [0.0, -1.0, -2.0])
def test_grid_scan_closed_forms_need_no_eigensolve(monkeypatch, p):
    # p = 0, -1 and -2 are read from polynomials in 1/w, not from a spectrum
    system = graph_system(instances.paw_graph())
    expected = kernels.grid_scan(system.gram, 3, 100, 4, *scan_args(p))[1].tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(kernels.np.linalg, "eigvalsh", refuse)
    _, counts = kernels.grid_scan(system.gram, 3, 100, 4, *scan_args(p))
    assert counts.tolist() == expected

