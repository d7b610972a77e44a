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

Each design, iterate or report, is one ``_evaluate``: a single
eigendecomposition of K(w), made by ``eigh_sym``, into an ``_Evaluation``
that the reported criterion and spectrum, the descent and the E-certificate
all read. One rule per p (``_reduce``) gives the value and the gradient's
coefficients.

Pass p = -inf as ``float("-inf")``; its value is the largest eigenvalue,
read by a distinct code path, never as a numerical limit of the finite-p
formula. The optimizer reaches its minimizer through finite p (see
``optimizer``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._config import RANK_TOL
from ._kernels import eigh_sym, weighted_gram
from .contrasts import ComparisonGraph, ContrastSystem, graph_system, rank_of
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
    """Largest-eigenvalue optimality certificate.

    lhs_max is the worst value of the linear normality form, averaged over
    the top eigenspace, over the vertex designs; rhs is the largest
    covariance eigenvalue lambda_1. gap = lhs_max - rhs <= 0 certifies the
    design's E-efficiency at least (mean top eigenvalue / lambda_1)^2,
    which is at least (1 - 1e-8)^2.
    """

    lhs_max: float
    rhs: float
    gap: float
    witness_vertex: int


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
    top = spectrum.top(rank)
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

    def certificate(self) -> CertificateReport:
        """The E-certificate on the top eigenspace (see ``optimizer.e_certificate``).

        The top eigenspace holds the m eigenvalues of K(w) within a relative
        1e-8 of the largest, lambda_1. With u_j their unit eigenvectors,
        q h_j = gram diag(w)^{-1/2} u_j / sqrt(lambda_j), and the vertex
        form is t_i = mean_j ((q h_j)_i / w_i)^2; h_j's sign does not matter.
        As sum_i w_i t_i is the mean top eigenvalue, lhs_max = max_i t_i <=
        lambda_1 bounds the E-efficiency below by (mean / lambda_1)^2, at
        least (1 - 1e-8)^2. At m = 1 this is the rank-one certificate.
        """
        top = float(self.values[0])
        m = int(np.count_nonzero(top - self.values <= 1e-8 * max(top, 1e-300)))
        qh = self.gram @ (self.vectors[:, :m] / np.sqrt(self.w)[:, None]) / np.sqrt(self.values[:m])
        vertex_values = np.mean((qh / self.w[:, None]) ** 2, axis=1)
        witness = int(np.argmax(vertex_values))
        lhs_max = float(vertex_values[witness])
        return CertificateReport(lhs_max=lhs_max, rhs=top, gap=lhs_max - top, witness_vertex=witness)


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


def psi_p_via_laplacian(
    graph: ComparisonGraph,
    design: Design,
    p: float,
    rank: int | None = None,
) -> CriterionValue:
    """``psi_p`` of the graph's system, whose K(w) is the vertex-weighted Laplacian."""
    return psi_p(graph_system(graph), design, p, rank=rank)


def efficiency(
    system: ContrastSystem,
    design: Design,
    reference: Design,
    p: float,
) -> float:
    """phi_p(design) / phi_p(reference); equals 1 when the designs coincide."""
    rank = rank_of(system)
    num = psi_p(system, design, p, rank=rank)
    den = psi_p(system, reference, p, rank=rank)
    return num.phi / den.phi
