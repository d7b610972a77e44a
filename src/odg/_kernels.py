"""Numeric kernels of the v-by-v spectral core.

Every spectrum in the package is read from K(w) = W^{-1/2} G W^{-1/2}, where
G = Q Q^T is the v-by-v Gram matrix of a contrast system and W = diag(w).
K(w) shares its positive eigenvalues with the s-by-s covariance matrix
Q^T W^{-1} Q; for pairwise systems it is the vertex-weighted Laplacian.
``weighted_gram`` is the one place that scales G by a design, ``eigh_sym``
the one eigensolver (LAPACK), and ``grid_scan`` the brute-force lattice
scan built on both.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np

# Lattice designs handed to one batched eigensolve; bounds the scan's memory.
_SCAN_CHUNK = 4096


def weighted_gram(gram: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K(w): entries gram_ij / sqrt(w_i w_j).

    ``w`` may carry leading batch axes, giving one matrix per design. The
    diagonal is exactly gram_ii / w_i.
    """
    return gram / np.sqrt(w[..., :, None] * w[..., None, :])


def eigh_sym(a):
    """LAPACK eigen-decomposition, reordered to descending eigenvalues."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=np.float64))
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def grid_scan(b, r, n, v, mode, qexp):
    """Scan every lattice design w = counts/n (counts positive, summing to n).

    ``b`` is the v-by-v Gram matrix of the coefficient rows; for each lattice
    point the spectrum of K(w) is reduced according to ``mode`` (0: product
    of the r largest, 1: sum of the r largest each to the power ``qexp``,
    2: largest). Designs are enumerated as v-1 cut positions in 1..n-1, in
    lexicographic order, which is also the lexicographic order of the
    counts. Returns the minimizing value and counts; ties keep the
    lexicographically earliest counts.
    """
    b = np.asarray(b, dtype=np.float64)
    best = np.inf
    best_counts = np.zeros(v, np.int64)
    cuts = combinations(range(1, n), v - 1)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(cuts, _SCAN_CHUNK)), dtype=np.int64)
        if flat.size == 0:
            break
        edges = np.zeros((flat.size // (v - 1), v + 1), np.int64)
        edges[:, 1:v] = flat.reshape(-1, v - 1)
        edges[:, v] = n
        counts = np.diff(edges, axis=1)
        vals = np.linalg.eigvalsh(weighted_gram(b, counts / n))
        top = vals[:, v - r:]
        if mode == 0:
            psi = np.prod(top, axis=1)
        elif mode == 1:
            psi = np.sum(top**qexp, axis=1)
        else:
            psi = vals[:, -1]
        i = int(np.argmin(psi))
        if psi[i] < best:
            best = float(psi[i])
            best_counts = counts[i]
    return best, best_counts
