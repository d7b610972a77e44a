"""Designs, information matrices and the spectral kernel.

A design is a strictly positive weight vector on the treatments summing to
one. The covariance matrix of a contrast system under the design is
q^T diag(w)^{-1} q, and the information matrix is its Moore-Penrose
pseudo-inverse, the inverse at full rank (``pseudo_information_matrix`` at
every rank).

The covariance matrix is s-by-s, but its positive eigenvalues are those of
the v-by-v matrix K(w) = diag(w)^{-1/2} q q^T diag(w)^{-1/2}, which is how
every criterion, rank and certificate in the package reads them; each
reported design is eigensolved once, as K(w) (the descent's iterates at
p = -1 and -2 are read without an eigensolve: see ``criteria``). The
information matrix comes from the same v-by-v eigendecomposition, so no
s-by-s matrix is ever eigensolved. For a pairwise system K(w) is the
vertex-weighted Laplacian of the comparison graph with vertex weights
1/w_i. A design with other than v weights is refused with
``InfeasibleDesign`` by ``_kernels.weighted_gram``, the one place that
scales by a design.

K(w) is built inside the package and symmetric by construction, so it goes
straight to ``_kernels.eigh_sym`` (see ``criteria._evaluate``);
``eigensystem_sym`` checks symmetry first and is the entry for matrices
from outside. A spectrum's positivity threshold is
``_config.RANK_TOL`` times its largest eigenvalue (``spectrum_of``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import RANK_TOL, WEIGHT_SUM_TOL
from ._kernels import eigh_sym, weighted_gram
from .contrasts import ComparisonGraph, ContrastSystem, graph_system, rank_of
from .errors import InfeasibleDesign, NotSymmetric

_SYM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Design:
    """Strictly positive treatment proportions summing to one."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64).reshape(-1)
        if w.size < 2:
            raise InfeasibleDesign("design needs at least 2 weights")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InfeasibleDesign("all weights must be strictly positive")
        # K(w) divides by sqrt(w_i w_j), and w_i^2 underflows below 2^-511
        if np.any(w < 2.0**-511):
            raise InfeasibleDesign(f"weight {float(w.min())!r} is below 2^-511, the least K(w) can scale by")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InfeasibleDesign(f"weights sum to {total!r}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def uniform(cls, v: int) -> "Design":
        return cls(np.full(v, 1.0 / v))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in descending order plus the positivity threshold used."""

    values: np.ndarray
    tol: float

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64).reshape(-1)
        if np.any(np.diff(values) > 0):
            raise ValueError("spectrum values must be nonincreasing")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def covariance_matrix(system: ContrastSystem, design: Design) -> np.ndarray:
    """q^T diag(w)^{-1} q: covariance kernel of the contrast estimators."""
    return (system.q.T / design.w) @ system.q


def eigensystem_sym(m: np.ndarray):
    """Full descending eigen-decomposition of a symmetric matrix.

    Returns (Spectrum, vectors) with eigenvectors as columns. The spectrum's
    positivity threshold is ``RANK_TOL`` times the largest eigenvalue.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if float(np.abs(m - m.T).max()) > _SYM_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    vals, vecs = eigh_sym(m)
    return spectrum_of(vals, RANK_TOL), vecs


def spectrum_of(values: np.ndarray, rank_tol: float) -> Spectrum:
    """Descending eigenvalues with the positivity threshold ``rank_tol`` times the largest."""
    return Spectrum(values, rank_tol * max(float(values[0]), 0.0))


def eigenvalues_sym(m: np.ndarray) -> Spectrum:
    spectrum, _ = eigensystem_sym(m)
    return spectrum


def pseudo_information_matrix(system: ContrastSystem, design: Design) -> np.ndarray:
    """The information matrix at any rank: the covariance matrix's pseudo-inverse.

    With H = diag(w)^{-1/2} q the covariance matrix is H^T H and
    K(w) = H H^T = U diag(lam) U^T, so its pseudo-inverse is
    H^T U_r diag(lam_r)^{-2} U_r^T H over the top r = ``rank_of(system)``
    eigenvalues of K(w), the rank every criterion reads.
    """
    values, vecs = eigh_sym(weighted_gram(system.gram, design.w))
    r = rank_of(system)
    uh = vecs[:, :r].T @ (system.q / np.sqrt(design.w)[:, None])
    return (uh.T / values[:r] ** 2) @ uh


def vertex_weighted_laplacian(graph: ComparisonGraph, design: Design) -> np.ndarray:
    """Laplacian with vertex weights 1/w_i: K(w) of the graph's system.

    Diagonal entries are degree_i / w_i; adjacent pairs get
    -(w_i w_j)^{-1/2}; everything else is zero.
    """
    return weighted_gram(graph_system(graph).gram, design.w)
