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
At p = -inf it eigensolves only the designs whose largest eigenvalue could
be the minimum: the others are ruled out by bounds on lambda_max read from
the trace, the Frobenius norm and the diagonal of M (Wolkowicz & Styan
1980). At other p it eigensolves every M. The lattice itself is enumerated
in numpy, ``_SCAN_CHUNK`` designs at a time, each unranked from its row in
the lexicographic table of cut positions (``_lattice_chunks``), so the
scan's memory is bounded by one chunk whatever the step.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import InfeasibleDesign

# Lattice designs evaluated in one batch; bounds the scan's memory.
_SCAN_CHUNK = 4096
# Relative gap below which two lattice values count as tied.
_TIE_RTOL = 1e-12
# Relative margin by which a lower bound on lambda_max may exceed the scan's
# threshold and still send its design to the eigensolve at p = -inf. The
# bounds and LAPACK's lambda_max each carry a rounding error of a few eps.
_PRUNE_RTOL = 1e-6


def weighted_gram(gram: np.ndarray, w: np.ndarray) -> np.ndarray:
    """K(w): entries gram_ij / sqrt(w_i w_j).

    ``w`` may carry leading batch axes, giving one matrix per design. The
    diagonal is exactly gram_ii / w_i. This is the one check that a design
    has one weight per treatment: any other length raises
    ``InfeasibleDesign``.
    """
    if w.shape[-1] != gram.shape[0]:
        raise InfeasibleDesign(f"design has {w.shape[-1]} weights for a system on {gram.shape[0]} treatments")
    return gram / np.sqrt(w[..., :, None] * w[..., None, :])


def eigh_sym(a):
    """LAPACK eigen-decomposition, reordered to descending eigenvalues."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=np.float64))
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def _largest_root_bounds(m, r):
    """(lb, ub) with lb <= lambda_max(M) <= ub for each flattened r-by-r row M of ``m``.

    With the eigenvalues' mean mu = tr M / r and variance
    s^2 = ||M - mu I||_F^2 / r, Wolkowicz & Styan (Linear Algebra Appl. 29,
    1980) give mu + s / sqrt(r - 1) <= lambda_max <= mu + s sqrt(r - 1). lb
    is the larger of their lower bound and the largest diagonal entry, a
    Rayleigh quotient. For r = 1 both are tr M.
    """
    # column by column: numpy reduces a short trailing axis slowly
    diagonal = [m[:, i * (r + 1)] for i in range(r)]
    mean = sum(diagonal) / r
    if r == 1:
        return mean, mean
    # r s^2 = ||M - mu I||_F^2, summed as squares so that nothing cancels
    lower = [m[:, i * r + j] for i in range(r) for j in range(i)]
    spread = np.sqrt((sum((d - mean) ** 2 for d in diagonal) + 2.0 * sum(a * a for a in lower)) / r)
    root = math.sqrt(r - 1)
    return np.maximum(mean + spread / root, reduce(np.maximum, diagonal)), mean + spread * root


def _lattice_criterion(f, p):
    """psi(x, cap) at each row x = 1/w of a batch, for M(x) = F^T diag(x) F.

    p = 0, -1 and -2 are polynomials in x whose coefficients are sums of
    non-negative terms: det M = sum over r-subsets S of det(F_S)^2 prod_S x_i
    (Cauchy-Binet), tr M = x . (row norms^2 of F) and
    ||M||_F^2 = x^T ((F F^T) o (F F^T)) x. Other p eigensolve the r-by-r M.

    At p = -inf, ``cap`` is a value some lattice design reaches. A row whose
    lower bound on lambda_max (``_largest_root_bounds``) exceeds
    min(cap, the batch's least upper bound) by more than ``_PRUNE_RTOL``
    cannot be the minimum: it reads +inf and is not eigensolved. Other p
    ignore ``cap``.
    """
    v, r = f.shape
    if p == 0.0:
        subsets = np.array(list(combinations(range(v), r)), dtype=np.int64)
        minors = np.linalg.det(f[subsets]) ** 2
        return lambda x, cap: np.prod(x[:, subsets], axis=2) @ minors
    if p == -1.0:
        norms = np.einsum("ij,ij->i", f, f)
        return lambda x, cap: x @ norms
    if p == -2.0:
        hadamard = (f @ f.T) ** 2
        return lambda x, cap: np.einsum("ij,ij->i", x @ hadamard, x)
    outer = (f[:, :, None] * f[:, None, :]).reshape(v, r * r)

    def spectral(x, cap):
        m = x @ outer
        if p != -math.inf:
            return np.sum(np.linalg.eigvalsh(m.reshape(-1, r, r)) ** -p, axis=1)
        lower, upper = _largest_root_bounds(m, r)
        keep = lower <= min(cap, upper.min()) * (1.0 + _PRUNE_RTOL)
        top = np.full(len(x), np.inf)
        top[keep] = np.linalg.eigvalsh(m[keep].reshape(-1, r, r))[:, -1]
        return top

    return spectral


def _lattice_chunks(n, v):
    """Yield every lattice design's counts in lexicographic order, ``_SCAN_CHUNK`` rows at a time.

    A design is v-1 cuts 0 < x_1 < ... < x_{v-1} < n; its counts are the gaps
    between 0, the cuts and n, so the lexicographic order of the cuts is that
    of the counts. The k-subsets of {x+1, ..., n-1} form the tail of the
    lexicographic table of k-subsets of {1, ..., n-1} that starts at row
    below_k(x) = C(n-1, k) - C(n-1-x, k), the number of rows whose least
    element is at most x. So the design at row g of the table of
    (v-1)-subsets is read one cut at a time: the cut x is the least element
    of row g, found by a binary search in below_k, and the remaining cuts are
    row g - below_k(x-1) + below_{k-1}(x) of the table of (k-1)-subsets. The
    last cut, with below_1(x) = x, is g + 1. No table is built: memory is a
    few arrays of one chunk's size and the n-entry below_k, whatever n is.
    """
    below = [
        np.array([math.comb(n - 1, k) - math.comb(n - 1 - x, k) for x in range(n)], np.int64)
        for k in range(v - 1, 0, -1)
    ]
    # skip[x]: from a row whose least element is x to the row of its other cuts
    skip = [np.concatenate(([0], rest[1:] - table[:-1])) for table, rest in zip(below, below[1:])]
    total = math.comb(n - 1, v - 1)
    for start in range(0, total, _SCAN_CHUNK):
        g = np.arange(start, min(start + _SCAN_CHUNK, total), dtype=np.int64)
        counts = np.empty((g.size, v), np.int64)
        prev = 0
        for i in range(v - 2):
            cut = np.searchsorted(below[i], g, side="right")
            counts[:, i] = cut - prev
            g += skip[i][cut]
            prev = cut
        counts[:, v - 2] = g + 1 - prev
        counts[:, v - 1] = n - 1 - g
        yield counts


def grid_scan(b, r, n, v, p):
    """Scan every lattice design w = counts/n (counts positive, summing to n).

    ``b`` is the v-by-v Gram matrix of the coefficient rows and ``r`` its
    rank. It is factored once as F F^T with F = U_r diag(lambda_r)^{1/2}
    (v-by-r, from the top r eigenpairs), so the r-by-r matrix
    M = F^T W^{-1} F = sum_i f_i f_i^T / w_i carries exactly the r positive
    eigenvalues of K(w), which the criterion at ``p`` reduces: their product
    at p = 0, the largest at p = -inf, else the sum of each to the power -p.
    The product and the sums of first and second powers (p = -1, -2) are
    read from closed forms in 1/w built once from F (see
    ``_lattice_criterion``); other powers come from a batched r-by-r
    eigensolve. At p = -inf the largest eigenvalue is eigensolved
    only at designs whose lower bound on it (``_largest_root_bounds``) does
    not exceed the value at the near-uniform design (counts n // v, the
    remainder added to the first entries), the lowest value scanned so far
    or the batch's least upper bound; the others cannot be the minimum. The
    near-uniform value only prunes: that design is scanned like any other.

    Designs come from ``_lattice_chunks`` in the lexicographic order of
    their counts, as numpy arrays of at most ``_SCAN_CHUNK`` rows, so memory
    is bounded by the chunk however fine the lattice. Returns the
    value and counts of the lexicographically earliest point whose value
    lies within a relative 1e-12 of the minimum, so points tied in exact
    arithmetic resolve the same way however their values are rounded.
    """
    vals, vecs = eigh_sym(b)
    f = vecs[:, :r] * np.sqrt(vals[:r])
    criterion = _lattice_criterion(f, p)
    cap = np.inf
    if p == -math.inf:
        uniform = np.full(v, n // v)
        uniform[: n % v] += 1
        cap = float(criterion(n / uniform[None, :], cap)[0])
    best = np.inf
    best_counts = np.zeros(v, np.int64)
    for counts in _lattice_chunks(n, v):
        psi = criterion(n / counts, min(cap, best))
        low = psi.min()
        # a later chunk displaces the kept point only when clearly lower
        if low < best * (1.0 - _TIE_RTOL):
            i = int(np.argmax(psi <= low * (1.0 + _TIE_RTOL)))
            best = float(psi[i])
            best_counts = counts[i]
    return best, best_counts
