import numpy as np

import instances
from odg import graph_system
from odg import _kernels as kernels


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
