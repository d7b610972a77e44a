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

Pass p = -inf as ``float("-inf")``; it is handled as a distinct code path,
never as a numerical limit of the finite-p formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import weighted_gram
from .contrasts import ComparisonGraph, ContrastSystem, graph_system, rank_of
from .spectral import Design, Spectrum, eigenvalues_sym
from .errors import NonPositiveEigenvalue


@dataclass(frozen=True)
class CriterionValue:
    p: float
    psi: float
    phi: float
    rank: int


def validate_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p > 0.0:
        raise ValueError(f"criterion exponent must lie in [-inf, 0], got {p}")
    return p


def criterion_from_spectrum(spectrum: Spectrum, rank: int, p: float) -> CriterionValue:
    """Reduce a descending spectrum to a criterion value over its top ``rank``."""
    p = validate_p(p)
    if not 1 <= rank <= spectrum.values.size:
        raise ValueError(f"rank {rank} out of range for spectrum of length {spectrum.values.size}")
    top = spectrum.top(rank)
    if np.any(top <= spectrum.tol):
        raise NonPositiveEigenvalue(
            f"eigenvalue {top.min()!r} among the {rank} largest is not above {spectrum.tol!r}"
        )
    if p == -math.inf:
        psi = float(top[0])
        phi = 1.0 / psi
    elif p == 0.0:
        log_psi = float(np.sum(np.log(top)))
        psi = math.exp(log_psi)
        phi = math.exp(-log_psi / rank)
    else:
        psi = float(np.sum(top ** (-p)))
        phi = (psi / rank) ** (1.0 / p)
    return CriterionValue(p=p, psi=psi, phi=phi, rank=rank)


def psi_p(
    system: ContrastSystem,
    design: Design,
    p: float,
    rank: int | None = None,
    rank_tol: float | None = None,
) -> CriterionValue:
    """Criterion value from the spectrum of K(w).

    ``rank`` may be precomputed once per system and passed in; otherwise it
    is determined here with the shared tolerance.
    """
    if rank is None:
        rank = rank_of(system, rank_tol)
    spectrum = eigenvalues_sym(weighted_gram(system.gram, design.w), rank_tol)
    return criterion_from_spectrum(spectrum, rank, p)


def psi_p_via_laplacian(
    graph: ComparisonGraph,
    design: Design,
    p: float,
    rank: int | None = None,
    rank_tol: float | None = None,
) -> CriterionValue:
    """``psi_p`` of the graph's system, whose K(w) is the vertex-weighted Laplacian."""
    return psi_p(graph_system(graph), design, p, rank=rank, rank_tol=rank_tol)


def efficiency(
    system: ContrastSystem,
    design: Design,
    reference: Design,
    p: float,
    rank_tol: float | None = None,
) -> float:
    """phi_p(design) / phi_p(reference); equals 1 when the designs coincide."""
    rank = rank_of(system, rank_tol)
    num = psi_p(system, design, p, rank=rank, rank_tol=rank_tol)
    den = psi_p(system, reference, p, rank=rank, rank_tol=rank_tol)
    return num.phi / den.phi
