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
descent minimizes; ``_kernels.power_mean``, the rule the lattice oracle
also reads, takes it by one formula from log(lambda_j / lambda_1), not
from psi, so it stays finite where psi overflows (p = -300 on a
seven-treatment tree) and tends to the p = 0 value as p -> 0-;
``_reduce`` forms the powers that its gradient reads.

A reported design is one ``_evaluate``: a single eigendecomposition of
K(w), made by ``eigh_sym``, into an ``_Evaluation`` that the reported
criterion and spectrum and the E-certificate read. The descent evaluates
its iterates through ``_evaluator``, which eigensolves only where the
criterion needs eigenvectors. At p = -1 and -2 psi is a polynomial in
x = 1/w (``_kernels.power_sum``, shared with the lattice oracle too), so
those iterates make no eigensolve (``_PowerSum``); at other finite p each
iterate is one ``_evaluate``, and ``_reduce`` gives the value and the
gradient's coefficients.

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
from ._kernels import eigh_sym, power_mean, power_sum, weighted_gram
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
    the power mean 1/phi_p (``power_mean``); with the powers
    t_j = (lambda_j / lambda_1)^q, formed here, c_j = value t_j / sum t.
    """
    if p == -math.inf:
        return float(top[0]), top[:1]
    value = float(power_mean(top, -p))
    powers = (top / top[0]) ** -p
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
    return _Evaluation(w, values, vectors, rank, validate_p(p), rank_tol)


@dataclass(frozen=True, eq=False)
class _PowerSum:
    """The power mean 1/phi_p = (psi / r)^(1/q), q = -p, at p = -1 or -2
    and its w-gradient, read from ``power_sum`` without an eigensolve: with
    x = 1/w, d value / d w = -x^2 o (d psi / dx) value / (q psi)."""

    w: np.ndarray
    p: float
    value: float
    slope: np.ndarray

    def gradient(self) -> np.ndarray:
        return self.slope


def _evaluator(gram: np.ndarray, rank: int, p: float) -> Callable[[np.ndarray], _PowerSum | _Evaluation]:
    """The descent's evaluation of a design at finite p: a ``_PowerSum`` at
    p = -1 and -2, from ``power_sum`` built once here, else ``_evaluate``.
    ``gram`` should be scaled so that its squares neither overflow nor
    underflow (``_kernels._unit_scaled``)."""
    if p not in (-1.0, -2.0):
        return lambda w: _evaluate(gram, w, rank, p)
    q, psi = -p, power_sum(gram, p)

    def evaluate(w):
        x = 1.0 / w
        total, slope = psi(x)
        value = (float(total) / rank) ** (1.0 / q)
        return _PowerSum(w, p, value, -(x * x) * slope * (value / (q * float(total))))

    return evaluate


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
