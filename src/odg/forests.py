"""Exact principal minors and characteristic-polynomial coefficients.

Cross-checks for the determinant-form criterion that use no eigensolver.
For a contrast system of rank r under design w, the product psi_0 of the r
positive eigenvalues of K(w) equals the principal-minor total
sum_{|S|=r} det(G_SS) / prod_{i in S} w_i of the Gram matrix G = q q^T
(Cauchy-Binet), and the coefficient c_r of K(w)'s characteristic
polynomial, read from a pivoted Cholesky factor of K(w).
``verify_d_identity`` compares both with the spectral psi_0; for an
integer system the minor total and r are exact, read off one integer
polynomial by Bareiss's fraction-free elimination (Math. Comp. 22, 1968).

On a graph the minor total is the total weight of rooted spanning forests
with v - r roots (vertex weights 1/w): the paper's D-identity. The
exponential forest enumeration that checks it lives with the tests, so that
the oracle stays independent of the code it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import weighted_gram
from .contrasts import ComparisonGraph, ContrastSystem, _GraphSystem, graph_system
from .criteria import psi_p
from .spectral import Design
from .errors import PreconditionViolated, TooLarge

# The exact total costs v + 1 eliminations of growing integers: about
# 0.04-0.08 s at v = 20, 0.24-0.31 s at v = 30 and 1.0-1.6 s at v = 40 on
# connected graphs.
MINOR_V_LIMIT = 20


def _char_coefficient(k: np.ndarray, rank: int) -> float:
    """c_rank of a positive semidefinite k of rank ``rank``: det(L L^T) by
    Cauchy-Binet, for k = L^T L from ``rank`` steps of Cholesky with diagonal
    pivoting (stable on semidefinite k: Higham, 1990), read through its log."""
    a = np.array(k, dtype=np.float64)
    rows = []
    for _ in range(rank):
        i = int(np.argmax(np.diagonal(a)))
        rows.append(a[i] / math.sqrt(a[i, i]))
        a -= np.outer(rows[-1], rows[-1])
    factor = np.array(rows)
    sign, logdet = np.linalg.slogdet(factor @ factor.T)
    return float(sign) * math.exp(logdet)


def _integers(m: np.ndarray) -> np.ndarray:
    """``m`` as an object array of Python ints; refuses non-integer entries."""
    m = np.asarray(m)
    if m.dtype.kind not in "iu" and not (np.isfinite(m).all() and np.array_equal(m, np.trunc(m))):
        raise PreconditionViolated("exact minors need an integer contrast system or matrix")
    return np.frompyfunc(int, 1, 1)(m)


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss's elimination.

    Every intermediate entry is a minor of the input (Sylvester's identity),
    so each division by the previous pivot is exact. A column with no
    nonzero entry left on or below the diagonal makes the determinant 0.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        top = a[k]
        p = top[k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
    return sign * prev


def _minor_total(system: ContrastSystem, design: Design) -> tuple[int, float]:
    """Rank r of q and sum_{|S|=r} det(G_SS) / prod_{i in S} w_i, both exact.

    With every float weight w_i = m_i / 2^e exactly, P(t) = det(diag(m) + t G)
    has coefficients c_k = sum_{|S|=k} det(G_SS) prod_{i not in S} m_i >= 0
    (G is positive semidefinite), so its degree is r and the total is
    c_r 2^(e r) / prod_i m_i, rounded to float once. The r-th forward
    difference of P(0), ..., P(v) is r! c_r, and every higher one is 0.
    """
    # a graph's Gram matrix is its Laplacian D - A, small integers exact in
    # float: read as it is, past the size check, with no q made; a CSV's
    # coefficients are checked first, whatever its size
    qi = None if isinstance(system, _GraphSystem) else _integers(system.q)
    v = system.v
    if v > MINOR_V_LIMIT:
        raise TooLarge(f"the exact minor total is limited to v <= {MINOR_V_LIMIT}, got v={v}")
    gram = (_integers(system.gram) if qi is None else qi @ qi.T).tolist()
    ratios = [w.as_integer_ratio() for w in design.w.tolist()]
    scale = max(den for _, den in ratios)  # 2^e: every denominator is a power of two
    m = [num * (scale // den) for num, den in ratios]
    denominator = math.prod(m)  # P(0)
    values = [denominator]
    for t in range(1, v + 1):
        rows = [[t * g for g in row] for row in gram]
        for i, mi in enumerate(m):
            rows[i][i] += mi
        values.append(_bareiss(rows))
    rank, top = 0, denominator
    for k in range(1, v + 1):
        values = [b - a for a, b in zip(values, values[1:])]
        if values[0]:
            rank, top = k, values[0]
    try:
        return rank, top // math.factorial(rank) * scale**rank / denominator
    except OverflowError:
        raise TooLarge("the minor total exceeds the float range") from None


@dataclass(frozen=True)
class DIdentityReport:
    rank: int
    psi_det: float
    forest_total: float
    char_coefficient: float
    max_rel_deviation: float
    tol: float
    passed: bool


def verify_d_identity(
    system: ContrastSystem | ComparisonGraph,
    design: Design,
    tol: float = 1e-6,
) -> DIdentityReport:
    """Compare the three determinant-criterion routes on one instance.

    The report's ``rank`` is the exact rank of q. psi_det comes from the
    criterion (the eigenvalues of K(w)); forest_total is the exact
    principal-minor total, which on a graph is the total weight of rooted
    spanning forests with v - rank roots; char_coefficient is c_rank of
    K(w)'s characteristic polynomial, from ``rank`` steps of pivoted
    Cholesky. The report passes when all pairwise relative deviations stay
    within ``tol``.

    Raises ``PreconditionViolated`` on non-integer coefficients and
    ``TooLarge`` past ``MINOR_V_LIMIT`` treatments or when the total
    overflows a float.
    """
    if isinstance(system, ComparisonGraph):
        system = graph_system(system)
    lap = weighted_gram(system.gram, design.w)  # first: it refuses a design of the wrong length
    rank, forest_total = _minor_total(system, design)
    psi_det = psi_p(system, design, 0.0, rank=rank).psi
    char_coefficient = _char_coefficient(lap, rank)
    values = (psi_det, forest_total, char_coefficient)
    max_rel = max(abs(a - b) / max(abs(a), abs(b), 1e-300) for a in values for b in values)
    return DIdentityReport(
        rank=rank,
        psi_det=psi_det,
        forest_total=forest_total,
        char_coefficient=char_coefficient,
        max_rel_deviation=max_rel,
        tol=tol,
        passed=bool(max_rel <= tol),
    )
