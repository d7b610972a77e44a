"""Eigenvalue-based design criteria in their minimization form.

For p in [-inf, 0] the criterion value psi_p is computed from the r largest
eigenvalues of the covariance matrix, where r is the system rank. They are
read from the v-by-v matrix K(w), which shares the covariance matrix's
positive spectrum (see ``spectral``):

    p = 0      product of the eigenvalues
    p in (-inf, 0)   sum of eigenvalues each to the power -p
    p = -inf   largest eigenvalue

p = 0, -1, -inf give the classical D-, A- and E-criteria. Smaller psi is
better; phi is the equivalent maximization form with phi = psi^(-1/r) at
p = 0, phi = (psi/r)^(1/p) for finite p < 0, and phi = 1/psi at p = -inf.
At finite p, 1/phi is the eigenvalues' power mean of order -p, which the
descent minimizes; ``_reduce`` reads it from log(lambda_j / lambda_1), not
from psi, so it stays finite where psi overflows (p = -300 on a
seven-treatment tree) and tends to the p = 0 value as p -> 0-.

A reported design is one ``_evaluate``: a single eigendecomposition of
K(w), made by ``eigh_sym``, into an ``_Evaluation`` that the reported
criterion and spectrum and the E-certificate read. The descent evaluates
its iterates through ``_evaluator``, which eigensolves only where the
criterion needs eigenvectors. At p = -1 and -2 the power sums of K(w)'s
eigenvalues are polynomials in x = 1/w, tr K(w) = x . diag(G) and
||K(w)||_F^2 = x^T (G o G) x (``_PowerSum``), so those iterates make no
eigensolve; at other finite p each iterate is one ``_evaluate``, and one
rule (``_reduce``) gives the value and the gradient's coefficients.

Pass p = -inf as ``float("-inf")``; its value is the largest eigenvalue,
read by a distinct code path, never as a numerical limit of the finite-p
formula; its certificate reads a dual bound (``_dual_certificate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ._config import RANK_TOL
from ._kernels import eigh_sym, weighted_gram
from .contrasts import ContrastSystem, rank_of
from .spectral import Design, Spectrum, spectrum_of
from .errors import NonPositiveEigenvalue


@dataclass(frozen=True)
class CriterionValue:
    p: float
    psi: float
    phi: float
    rank: int


@dataclass(frozen=True)
class CertificateReport:
    """Largest-eigenvalue optimality certificate, read from the dual.

    lhs_max = <G, Y> for a correlation matrix Y bounds every design's
    largest covariance eigenvalue from below; rhs is this design's. So
    gap = rhs - lhs_max >= 0, and gap <= tol * rhs certifies E-efficiency
    >= 1 / (1 + tol). witness_vertex maximizes u_i / w_i, u = diag(G Y).
    """

    lhs_max: float
    rhs: float
    gap: float
    witness_vertex: int


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """An optimal design and how it was reached.

    ``method`` is "numeric" for ``optimizer.optimize_phi_p``, whose
    ``iterations`` and ``converged`` report its run, or the closed form's
    name (a_general | e_bipartite | d_uniform), which takes no iterations
    and is exact. ``certificate`` is the p = -inf dual, and ``eigvec`` the
    top covariance eigenvector that ``e_bipartite`` writes down.
    """

    design: Design
    criterion: CriterionValue
    evaluation: _Evaluation  # the design's one eigendecomposition of K(w)
    method: str
    iterations: int = 0
    converged: bool = True
    certificate: Optional[CertificateReport] = None
    eigvec: Optional[np.ndarray] = None


def validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p > 0.0:
        raise ValueError(f"criterion exponent must lie in [-inf, 0], got {p}")
    return p


def _reduce(top: np.ndarray, p: float):
    """The criterion's value at the descending eigenvalues ``top``, in their
    units, and the coefficients c of its gradient: as d lambda_j / d w_i =
    -lambda_j u_ij^2 / w_i for the unit eigenvectors u_j of K(w),
    d value / d w_i = -sum_j c_j u_ij^2 / w_i.

    The value is the largest eigenvalue at p = -inf, and at finite p = -q
    the power mean 1/phi_p = lambda_1 e^m, m = (1/q) log mean_j t_j, with
    l_j = log(lambda_j / lambda_1) and t_j = e^(q l_j) in (0, 1], so no
    power overflows; c_j = value t_j / sum t. Where q max_j |l_j| < 1e-5 the
    mean's log loses its digits, and the series m = mean l + (q/2) var l
    takes its place: p = 0's mean l at q = 0, nan where l is not finite.
    """
    if p == -math.inf:
        return float(top[0]), top[:1]
    q = -p
    ell = np.log(top / top[0])
    powers = np.exp(q * ell)
    if q * -ell[-1] >= 1e-5:
        mean_log = math.log(float(np.mean(powers))) / q
    else:  # also where l is not finite: nan, not a division by q = 0
        mean_log = float(np.mean(ell) + 0.5 * q * np.var(ell))
    value = float(top[0]) * math.exp(mean_log)
    return value, value / powers.sum() * powers


def criterion_from_spectrum(spectrum: Spectrum, rank: int, p: float) -> CriterionValue:
    """Reduce a descending spectrum to a criterion value over its top ``rank``."""
    p = validate_p(p)
    if not 1 <= rank <= spectrum.values.size:
        raise ValueError(f"rank {rank} out of range for spectrum of length {spectrum.values.size}")
    top = spectrum.values[:rank]
    if np.any(top <= spectrum.tol):
        raise NonPositiveEigenvalue(
            f"eigenvalue {float(top.min())!r} among the {rank} largest is not above {float(spectrum.tol)!r}"
        )
    value, _ = _reduce(top, p)
    if p == 0.0:
        psi = math.exp(float(np.sum(np.log(top))))
    else:
        with np.errstate(over="ignore"):  # psi overflows to inf at large -p; phi does not
            psi = value if p == -math.inf else float(np.sum(top**-p))
    return CriterionValue(p=p, psi=psi, phi=1.0 / value, rank=rank)


@dataclass(eq=False)
class _Evaluation:
    """All v eigenpairs of K(w) at a design, descending, read at p.

    ``value`` and ``gradient`` reduce the top ``rank`` unchecked, so the
    descent can evaluate any iterate; ``criterion`` checks them against
    ``spectrum``, which is made on first read, so a descent iterate goes
    without it.
    """

    gram: np.ndarray
    w: np.ndarray
    values: np.ndarray
    vectors: np.ndarray
    rank: int
    p: float
    rank_tol: float = RANK_TOL

    @cached_property
    def spectrum(self) -> Spectrum:
        return spectrum_of(self.values, self.rank_tol)

    @cached_property
    def _reduction(self) -> tuple[float, np.ndarray]:
        return _reduce(self.values[: self.rank], self.p)

    @property
    def value(self) -> float:
        return self._reduction[0]

    def gradient(self) -> np.ndarray:
        coef = self._reduction[1]
        sq = self.vectors * self.vectors
        return -(sq[:, : coef.size] @ coef) / self.w

    @property
    def criterion(self) -> CriterionValue:
        return criterion_from_spectrum(self.spectrum, self.rank, self.p)


def _dual_certificate(evaluation: _Evaluation, u: np.ndarray) -> CertificateReport:
    """The E-certificate of ``evaluation``'s design from the allocation
    u = diag(G Y) of a correlation matrix Y, whose total is <G, Y>."""
    rhs, lhs_max = float(evaluation.values[0]), float(u.sum())
    witness = int(np.argmax(u / evaluation.w))
    return CertificateReport(lhs_max=lhs_max, rhs=rhs, gap=rhs - lhs_max, witness_vertex=witness)


def _evaluate(
    gram: np.ndarray,
    w: np.ndarray,
    rank: int,
    p: float,
    rank_tol: float = RANK_TOL,
) -> _Evaluation:
    """Eigensolve K(w) once, to be read at p.

    K(w) is symmetric by construction, so it skips ``eigensystem_sym``'s
    check; ``rank_tol`` sets the threshold of the spectrum it reports.
    """
    values, vectors = eigh_sym(weighted_gram(gram, w))
    return _Evaluation(gram, w, values, vectors, rank, validate_p(p), rank_tol)


@dataclass(frozen=True, eq=False)
class _PowerSum:
    """The power mean 1/phi_p at p = -1 or -2 and its w-gradient, read
    without an eigensolve. The r positive eigenvalues of K(w) carry all of
    tr K(w) = x . diag(G) and ||K(w)||_F^2 = x^T (G o G) x, x = 1/w, so
    1/phi_-1 = x . diag(G) / r with gradient -x^2 o diag(G) / r, and
    1/phi_-2 = sqrt(x^T (G o G) x / r) with gradient
    -x^2 o (G o G) x / (value r)."""

    w: np.ndarray
    p: float
    value: float
    slope: np.ndarray

    def gradient(self) -> np.ndarray:
        return self.slope


def _evaluator(gram: np.ndarray, rank: int, p: float) -> Callable[[np.ndarray], _PowerSum | _Evaluation]:
    """The descent's evaluation of a design at finite p: a ``_PowerSum`` at
    p = -1 and -2, from diag(G) or G o G formed once here, else
    ``_evaluate``. ``gram`` should be scaled so that its squares neither
    overflow nor underflow (``optimizer._unit_scaled``)."""
    if p == -1.0:
        diagonal = np.diagonal(gram) / rank

        def trace(w):
            x = 1.0 / w
            return _PowerSum(w, p, float(x @ diagonal), -(x * x) * diagonal)

        return trace
    if p == -2.0:
        hadamard = gram * gram / rank

        def frobenius(w):
            x = 1.0 / w
            hx = hadamard @ x
            value = math.sqrt(float(x @ hx))
            return _PowerSum(w, p, value, -(x * x) * hx / value)

        return frobenius
    return lambda w: _evaluate(gram, w, rank, p)


def psi_p(
    system: ContrastSystem,
    design: Design,
    p: float,
    rank: int | None = None,
) -> CriterionValue:
    """Criterion value from the spectrum of K(w).

    ``rank`` may be precomputed once per system and passed in; otherwise it
    is determined here with the shared tolerance.
    """
    if rank is None:
        rank = rank_of(system)
    return _evaluate(system.gram, design.w, rank, p).criterion
