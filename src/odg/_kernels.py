"""Numeric kernels of the v-by-v spectral core.

Every spectrum the package reports is read from K(w) = W^{-1/2} G W^{-1/2}, where
G = Q Q^T is the v-by-v Gram matrix of a contrast system and W = diag(w).
K(w) shares its positive eigenvalues with the s-by-s covariance matrix
Q^T W^{-1} Q; for pairwise systems it is the vertex-weighted Laplacian.
``weighted_gram`` is the one place that scales G by a design and
``eigh_sym`` the one eigensolver (LAPACK). ``grid_scan``, the brute-force
lattice scan, reads the same positive spectrum by a separate route: with
G = F F^T (F v-by-r, r = rank(G)) it works on the r-by-r matrices
M = F^T W^{-1} F, never forming K(w). At p = 0, -1 and -2 it needs no
eigensolve at all: det M (Cauchy-Binet over the r-row minors of F), tr M
and ||M||_F^2 are polynomials in 1/w with coefficients built once from F.
At p = -inf and other p it eigensolves M.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np

# Lattice designs evaluated in one batch; bounds the scan's memory.
_SCAN_CHUNK = 4096
# Relative gap below which two lattice values count as tied.
_TIE_RTOL = 1e-12


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


def _lattice_criterion(f, mode, qexp):
    """psi at each row x = 1/w of a batch, for M(x) = F^T diag(x) F.

    p = 0, -1 and -2 are polynomials in x whose coefficients are sums of
    non-negative terms: det M = sum over r-subsets S of det(F_S)^2 prod_S x_i
    (Cauchy-Binet), tr M = x . (row norms^2 of F) and
    ||M||_F^2 = x^T ((F F^T) o (F F^T)) x. Other p eigensolve the r-by-r M.
    """
    v, r = f.shape
    if mode == 0:
        subsets = np.array(list(combinations(range(v), r)), dtype=np.int64)
        minors = np.linalg.det(f[subsets]) ** 2
        return lambda x: np.prod(x[:, subsets], axis=2) @ minors
    if mode == 1 and qexp == 1.0:
        norms = np.einsum("ij,ij->i", f, f)
        return lambda x: x @ norms
    if mode == 1 and qexp == 2.0:
        hadamard = (f @ f.T) ** 2
        return lambda x: np.einsum("ij,ij->i", x @ hadamard, x)
    outer = (f[:, :, None] * f[:, None, :]).reshape(v, r * r)

    def spectral(x):
        top = np.linalg.eigvalsh((x @ outer).reshape(-1, r, r))
        return top[:, -1] if mode == 2 else np.sum(top**qexp, axis=1)

    return spectral


def grid_scan(b, r, n, v, mode, qexp):
    """Scan every lattice design w = counts/n (counts positive, summing to n).

    ``b`` is the v-by-v Gram matrix of the coefficient rows and ``r`` its
    rank. It is factored once as F F^T with F = U_r diag(lambda_r)^{1/2}
    (v-by-r, from the top r eigenpairs), so the r-by-r matrix M = F^T W^{-1} F = sum_i f_i f_i^T / w_i carries exactly the r
    positive eigenvalues of K(w), which ``mode`` reduces (0: product, 1: sum
    of each to the power ``qexp``, 2: largest). The product (p = 0) and the
    sums of first and second powers (p = -1, -2) are read from closed forms
    in 1/w built once from F (see ``_lattice_criterion``); the largest
    eigenvalue and other powers come from a batched r-by-r eigensolve.

    Designs are enumerated as v-1 cut positions in 1..n-1, in lexicographic
    order, which is also the lexicographic order of the counts. Returns the
    value and counts of the lexicographically earliest point whose value
    lies within a relative 1e-12 of the minimum, so points tied in exact
    arithmetic resolve the same way however their values are rounded.
    """
    vals, vecs = eigh_sym(b)
    f = vecs[:, :r] * np.sqrt(vals[:r])
    criterion = _lattice_criterion(f, mode, qexp)
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
        psi = criterion(n / counts)
        low = psi.min()
        # a later chunk displaces the kept point only when clearly lower
        if low < best * (1.0 - _TIE_RTOL):
            i = int(np.argmax(psi <= low * (1.0 + _TIE_RTOL)))
            best = float(psi[i])
            best_counts = counts[i]
    return best, best_counts
