"""Numeric kernels of the v-by-v spectral core.

Every spectrum the package reports is read from K(w) = W^{-1/2} G W^{-1/2}, where
G = Q Q^T is the v-by-v Gram matrix of a contrast system and W = diag(w).
K(w) shares its positive eigenvalues with the s-by-s covariance matrix
Q^T W^{-1} Q; for pairwise systems it is the vertex-weighted Laplacian.
``weighted_gram`` is the one place that scales G by a design and
``eigh_sym`` the one eigensolver (LAPACK), which also gives the eigenvalues
alone where nothing reads the eigenvectors, as for the rank.
``_unit_scaled`` is the one exact scaling of G, by the power of two that
brings its largest entry into [1/2, 1), for the descent, the E-dual and
the cyclic search's closed-walk counts alike. Two rules reduce those
eigenvalues, each in one place here, for the descent
(``criteria``) and the lattice oracle alike: ``power_mean``, 1/phi_p read in
the log domain by one formula at every finite p (the mean alone;
``criteria._reduce`` forms the powers its gradient reads), and
``power_sum``, psi at p = -1 and -2 from diag(G) or G o G with no
eigensolve. ``grid_scan``, the lattice oracle, reads the positive spectrum
by its own route, the r-by-r matrices M = F^T W^{-1} F for G = F F^T, with
no eigensolve at p = 0, -1 and -2, and finds the lattice minimum by branch
and bound, halving every coordinate of a box at once. On the paw and the
star it evaluates (bounds and designs together) 1 300 to 11 600 of the
156 849 designs at n = 100 and 4 900 to 338 000 of the 166 M at n = 1000,
fewest at p = -inf and most at p = 0.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np

from .errors import InfeasibleDesign, TooLarge

# Lattice boxes evaluated in one batch, which pushes 2^(v-1) times as many.
_SCAN_CHUNK = 4096
# The smallest normal double: at a smaller q, power_mean reads the q -> 0 limit.
_TINY = np.finfo(np.float64).tiny
# Relative gap below which two lattice values count as tied.
_TIE_RTOL = 1e-12
# Relative margin by which a box's lower bound may exceed the least value
# found and the box still be searched. The bound and the values each carry
# a rounding error of a few eps (more where M is ill-conditioned).
_PRUNE_RTOL = 1e-6


def _unit_scaled(gram: np.ndarray) -> tuple[np.ndarray, int]:
    """(``gram`` times 2^-e, e the binary exponent of its largest entry, so
    that no square or product of its rows overflows or underflows; e)."""
    e = math.frexp(float(np.abs(gram).max()))[1]
    return np.ldexp(gram, -e), e


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


def eigh_sym(a, values_only=False):
    """LAPACK eigen-decomposition, reordered to descending eigenvalues.

    With ``values_only`` it returns the eigenvalues alone, which LAPACK
    finds in about half the time of the full decomposition.
    """
    a = np.asarray(a, dtype=np.float64)
    if values_only:
        return np.linalg.eigvalsh(a)[::-1].copy()
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


def power_mean(lam, q):
    """The power mean m = (mean_j lam_j^q)^(1/q) = 1/phi_p, q = -p >= 0, of
    positive eigenvalues descending along the last axis (one spectrum or a
    batch), read from l_j = log(lam_j / lam_1) <= 0 so that no power
    overflows: m = lam_1 e^a, a = log1p(mean_j expm1(q l_j)) / q, which
    keeps its digits as q -> 0. log1p magnifies the mean's rounding by
    1/T <= r, T = mean_j (lam_j / lam_1)^q. Against a 60-digit reference the
    relative error is at most 1.1e-12 for r <= 119 eigenvalues and
    max|l| <= 700, and 5e-14 for r = 40 and max|l| <= 100. Below the
    smallest normal q (p = 0, or a subnormal q) a is the limit mean l,
    whose omitted term (q/2) var l is below 1e-300; a zero eigenvalue
    (l = -inf) leaves it nan, not m = 0.
    """
    ell = np.log(lam / lam[..., :1])
    if q >= _TINY:
        mean_log = np.log1p(np.expm1(q * ell).mean(axis=-1)) / q
    else:
        mean_log = np.where(ell[..., -1] > -np.inf, ell.mean(axis=-1), np.nan)
    return lam[..., 0] * np.exp(mean_log)


def power_sum(gram, p):
    """psi = sum_j lambda_j^-p over K(w)'s positive eigenvalues at p = -1
    or -2, as a function of x = 1/w (leading batch axes allowed) returning
    (psi, d psi / dx): tr K(w) = x . diag(G), ||K(w)||_F^2 = x^T (G o G) x.
    """
    if p == -1.0:
        diagonal = np.diagonal(gram).copy()
        return lambda x: (x @ diagonal, diagonal)
    hadamard = gram * gram

    def frobenius(x):
        hx = x @ hadamard
        return np.einsum("...i,...i->...", hx, x), 2.0 * hx

    return frobenius


def _lattice_criterion(f, p):
    """The order of the designs at M(x) = F^T diag(x) F, at each row x = 1/w
    of a batch: psi at p = 0, -1, -2 and -inf, the power mean 1/phi_p at
    other p.

    Each order is nondecreasing in each x_i: M(x) grows in the Loewner order
    with every x_i, and each reduction below is nondecreasing in M's
    eigenvalues. ``grid_scan``'s box bound rests on this.

    p = 0 is a polynomial in x whose coefficients are non-negative:
    det M = sum over r-subsets S of det(F_S)^2 prod_S x_i (Cauchy-Binet).
    p = -1 and -2 are ``power_sum`` on F F^T. p = -inf is the largest
    eigenvalue of the r-by-r M, and other p its ``power_mean``, which never
    overflows and tells designs apart as p -> 0-, where sum_j lambda_j^-p
    rounds to r at every design.
    """
    v, r = f.shape
    if p == 0.0:
        subsets = np.array(list(combinations(range(v), r)), dtype=np.int64)
        minors = np.linalg.det(f[subsets]) ** 2
        return lambda x: np.prod(x[:, subsets], axis=2) @ minors
    if p in (-1.0, -2.0):
        psi = power_sum(f @ f.T, p)
        return lambda x: psi(x)[0]
    outer = (f[:, :, None] * f[:, None, :]).reshape(v, r * r)

    def eigenvalues(x):
        """Descending eigenvalues of each row's M."""
        return np.linalg.eigvalsh((x @ outer).reshape(-1, r, r))[:, ::-1]

    if p == -math.inf:
        return lambda x: eigenvalues(x)[:, 0]
    return lambda x: power_mean(eigenvalues(x), -p)


def grid_scan(b, r, n, v, p):
    """The least criterion over the lattice designs w = counts/n (counts
    positive, summing to n), found by branch and bound.

    ``b`` is the v-by-v Gram matrix of the coefficient rows and ``r`` its
    rank. It is factored once as F F^T with F = U_r diag(lambda_r)^{1/2}
    (v-by-r, from the top r eigenpairs), so the r-by-r matrix
    M = F^T W^{-1} F = sum_i f_i f_i^T / w_i carries exactly the r positive
    eigenvalues of K(w), which the criterion at ``p`` reduces: their product
    at p = 0, the largest at p = -inf, else the sum of each to the power -p.
    Designs are ranked by ``_lattice_criterion``'s order: closed forms in
    1/w at p = 0, -1 and -2 (det M, and ``power_sum``), a batched r-by-r
    eigensolve at other p (the largest eigenvalue at p = -inf, else
    ``power_mean``).

    The search runs over boxes lo_j <= counts_j <= hi_j for j < v, with
    counts_v = n - sum_j counts_j, starting from the whole lattice. As the
    order is nondecreasing in each n/counts_i, its value at the box's corner
    of largest counts (hi_j, tightened by the sum, and n - sum_j lo_j) is a
    lower bound for every design in the box. A box is dropped when that
    bound is +inf or exceeds by more than ``_PRUNE_RTOL`` the least value of
    any design evaluated so far, which starts at the near-uniform design
    (counts n // v, the remainder added to the first entries); each box
    evaluates one design of its own, its midpoint pulled towards lo until
    the counts fit. Each surviving box is halved on every coordinate at once,
    at (lo_j + hi_j) // 2, into at most 2^(v-1) children, less those that are
    empty or leave the last count no room (sum_j lo_j >= n), so the scan is
    ceil(log2(n - v + 1)) + 1 batches deep. Boxes are searched depth first,
    ``_SCAN_CHUNK`` at a time, and a batch pushes at most 2^(v-1)
    ``_SCAN_CHUNK``, so memory stays bounded however fine the lattice. Since
    every design within ``_PRUNE_RTOL`` of the minimum is reached, the result is
    that of a scan of every design: the value and counts of the
    lexicographically earliest design whose order lies within a relative
    ``_TIE_RTOL`` of the least, so designs tied in exact arithmetic resolve
    the same way however their values are rounded.

    The value reported is the kept design's order, which is psi at p = 0,
    -1, -2 and -inf. At other p = -q the order is the power mean m, and
    psi = r m^q may overflow (inf is returned) where m does not. As
    sum_i 1/x_i = 1, lambda_max(M) >= max_i |f_i|^2 x_i >= t, t = tr(F F^T),
    and m >= lambda_max r^(-1/q), so r (m/t)^q >= 1: ``TooLarge`` says that
    even this scaled psi left the float range at the best design, and hence
    at every design.
    """
    vals, vecs = eigh_sym(b)
    f = vecs[:, :r] * np.sqrt(vals[:r])
    order = _lattice_criterion(f, p)
    uniform = np.full(v, n // v)
    uniform[: n % v] += 1
    best = float(order(n / uniform[None, :])[0])
    tied = np.empty((0, v), np.int64)
    tied_values = np.empty(0)
    # boxes are coordinate-major, (v - 1)-by-k, where a row reduction takes a third of
    # its time on k-by-(v - 1); child c's coordinate j is row halves[j, c] of the
    # lower and upper halves' bounds stacked, the upper where c's digit j is one
    halves = np.array(list(product((0, v - 1), repeat=v - 1))).T + np.arange(v - 1)[:, None]
    boxes = [(np.ones((v - 1, 1), np.int64), np.full((v - 1, 1), n - v + 1, np.int64))]
    while boxes:
        lo, hi = boxes.pop()
        if lo.shape[1] > _SCAN_CHUNK:
            boxes.append((lo[:, :-_SCAN_CHUNK], hi[:, :-_SCAN_CHUNK]))
            lo, hi = lo[:, -_SCAN_CHUNK:], hi[:, -_SCAN_CHUNK:]
        low = lo.sum(axis=0)
        room = n - 1 - low
        hi = np.minimum(hi, lo + room)
        # the box's design: its midpoint, pulled towards lo until its counts fit
        half = (hi - lo) // 2
        spare = half.sum(axis=0)
        mid = lo + half * np.minimum(spare, room) // np.maximum(spare, 1)
        k = lo.shape[1]
        evaluated = np.empty((2 * k, v), np.int64)
        evaluated[:k, :-1], evaluated[k:, :-1] = hi.T, mid.T
        evaluated[:k, -1], evaluated[k:, -1] = n - low, n - mid.sum(axis=0)
        values = order(n / evaluated)
        bound = values[:k]
        best = min(best, float(values[k:].min()))
        keep = (bound <= best * (1.0 + _PRUNE_RTOL)) & (bound < math.inf)
        single = (lo == hi).all(axis=0)
        # a single design's corner is the design, and its bound its value;
        # the batch holding the minimizer's leaf filters at the final least value
        leaf = keep & single
        if leaf.any():
            tied = np.concatenate((tied, evaluated[:k][leaf]))
            tied_values = np.concatenate((tied_values, bound[leaf]))
            close = tied_values <= best * (1.0 + _TIE_RTOL)
            tied, tied_values = tied[close], tied_values[close]
        split = keep & ~single
        lo, hi = lo.compress(split, axis=1), hi.compress(split, axis=1)
        cut = (lo + hi) // 2
        lo = np.concatenate((lo, cut + 1)).take(halves, axis=0).reshape(v - 1, -1)
        hi = np.concatenate((cut, hi)).take(halves, axis=0).reshape(v - 1, -1)
        # drop the empty children and those that leave the last count no room
        fits = (lo <= hi).all(axis=0) & (lo.sum(axis=0) < n)
        if fits.any():
            boxes.append((lo.compress(fits, axis=1), hi.compress(fits, axis=1)))
    scaled = math.inf
    if len(tied):
        first = np.lexsort(tied.T[::-1])[0]
        counts, value = tied[first], tied_values[first]
        scaled = value
        if p not in (0.0, -1.0, -2.0, -math.inf):  # the order is the power mean
            with np.errstate(over="ignore"):
                scaled = r * (value / vals[:r].sum()) ** -p
                value = r * value**-p
    if scaled == math.inf:
        raise TooLarge(f"the criterion at p={p} exceeds the float range at every lattice design")
    return float(value), counts
