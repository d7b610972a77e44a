"""Numerical criterion minimization over the open simplex.

The workhorse is projected gradient descent with backtracking line search on
the floored simplex {w : w_i >= floor, sum w = 1}. All criteria handled here
are convex in w, so the iteration converges to the global minimum. The
nonsmooth largest-eigenvalue criterion (p = -inf) is minimized through a
log-sum-exp smoothing of the spectrum whose temperature is annealed toward
zero, finishing with a polish pass at the final temperature.

Everything is deterministic: fixed initialization, fixed sweep orders, no
randomized restarts. The ``seed`` option is accepted for interface stability
but the iterate sequence does not depend on it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import eigh_sym, grid_scan, weighted_gram
from .closed_form import a_optimal
from .contrasts import ContrastSystem, rank_of
from .criteria import CriterionValue, psi_p, validate_p
from .spectral import Design, eigensystem_sym
from .symmetry import OrbitReduction
from .errors import DegenerateEigenspace, InfeasibleStart, NotConverged, TooLarge

GRID_MAX_V = 4
GRID_STEP_RANGE = (1e-3, 0.1)


@dataclass(frozen=True)
class OptimizeOptions:
    tol: float = 1e-8          # stop when the relative criterion decrease falls below this
    max_iter: int = 10000      # global iteration budget
    floor: float = 1e-9        # minimum weight kept strictly positive
    seed: int = 0              # reserved; the algorithm is deterministic
    init: Optional[np.ndarray] = None
    orbits: Optional[OrbitReduction] = None


@dataclass(frozen=True)
class CertificateReport:
    """Largest-eigenvalue optimality certificate.

    lhs_max is the worst value of the linear normality form over the vertex
    designs, rhs the largest covariance eigenvalue; the design is certified
    optimal when gap = lhs_max - rhs is nonpositive up to tolerance.
    """

    lhs_max: float
    rhs: float
    gap: float
    witness_vertex: int


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    design: Design
    criterion: CriterionValue
    iterations: int
    converged: bool
    certificate: Optional[CertificateReport] = None


def project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sorting algorithm)."""
    u = np.sort(x)[::-1]
    cumulative = np.cumsum(u) - 1.0
    counts = np.arange(1, x.size + 1)
    positive = u - cumulative / counts > 0
    k = int(counts[positive][-1])
    theta = cumulative[k - 1] / k
    return np.maximum(x - theta, 0.0)


def project_floored_simplex(x: np.ndarray, floor: float) -> np.ndarray:
    """Projection onto {w : w_i >= floor, sum w = 1} via an affine rescale."""
    scale = 1.0 - x.size * floor
    if scale <= 0:
        raise ValueError(f"floor {floor} leaves no feasible mass for {x.size} weights")
    return floor + scale * project_simplex((x - floor) / scale)


def _make_objective(gram: np.ndarray, rank: int, p: float, temperature: float | None) -> Callable:
    def objective(w: np.ndarray):
        # K(w) shares its positive spectrum with the covariance matrix, and
        # the eigenvalue derivative has the closed form
        # d lambda_j / d w_i = -lambda_j * u_{ij}^2 / w_i
        vals, vecs = eigh_sym(weighted_gram(gram, w))
        sq = vecs * vecs
        if temperature is not None:
            shifted = (vals - vals[0]) / temperature
            weights_raw = np.exp(shifted)
            softmax = weights_raw / weights_raw.sum()
            value = vals[0] + temperature * math.log(weights_raw.sum())
            grad = -(sq @ (softmax * vals)) / w
        elif p == 0.0:
            top = vals[:rank]
            value = float(np.sum(np.log(top)))
            grad = -(sq[:, :rank] @ np.ones(rank)) / w
        else:
            q = -p
            powers = vals[:rank] ** q
            value = float(np.sum(powers))
            grad = -q * (sq[:, :rank] @ powers) / w
        return value, grad

    return objective


def _orbit_average(orbits: OrbitReduction) -> Callable:
    labels = np.asarray(orbits.orbit_of)
    counts = np.bincount(labels, minlength=orbits.orbit_count).astype(np.float64)

    def average(x: np.ndarray) -> np.ndarray:
        sums = np.bincount(labels, weights=x, minlength=orbits.orbit_count)
        return (sums / counts)[labels]

    return average


def _descend(objective, w, floor, tol, max_iter, averager, p):
    """Projected gradient descent with Armijo backtracking.

    Returns (w, value, iterations, converged). A failed line search means no
    feasible decrease exists within machine resolution, which is treated as
    convergence. Raises ``NotConverged`` when the criterion value or its
    gradient at the current point is not finite (it overflows at large -p).
    """
    value, grad = objective(w)
    if averager is not None:
        grad = averager(grad)
    # hypot scales before squaring: the squares overflow once an entry
    # passes 1e154, while the norm itself stays finite far beyond that
    step = 1.0 / max(math.hypot(*grad), 1.0)
    iterations = 0
    converged = False
    while iterations < max_iter:
        if not (math.isfinite(value) and np.all(np.isfinite(grad))):
            raise NotConverged(f"the criterion or its gradient is not finite at p={p}")
        iterations += 1
        accepted = False
        t = step
        for _ in range(60):
            candidate = project_floored_simplex(w - t * grad, floor)
            direction = candidate - w
            cand_value, cand_grad = objective(candidate)
            if cand_value <= value + 1e-4 * float(grad @ direction):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = True
            break
        decrease = value - cand_value
        relative = decrease / max(abs(value), 1e-300)
        w, value = candidate, cand_value
        grad = averager(cand_grad) if averager is not None else cand_grad
        step = 2.0 * t
        if relative < tol:
            converged = True
            break
    return w, value, iterations, converged


def _initial_point(system: ContrastSystem, p: float, opts: OptimizeOptions) -> np.ndarray:
    if opts.init is not None:
        w0 = np.asarray(opts.init, dtype=np.float64).reshape(-1)
        if w0.size != system.v:
            raise InfeasibleStart(f"initial point has {w0.size} weights, system has v={system.v}")
        if not np.all(np.isfinite(w0)) or np.any(w0 <= 0.0):
            raise InfeasibleStart("initial weights must be strictly positive")
        return w0 / w0.sum()
    if p < -1.0:  # warm start: the trace-criterion optimum is closed form
        return a_optimal(system).design.w.copy()
    return np.full(system.v, 1.0 / system.v)


def optimize_phi_p(
    system: ContrastSystem,
    p: float,
    opts: OptimizeOptions | None = None,
) -> OptimizationResult:
    """Minimize the criterion over the floored simplex.

    Finite p (including 0) runs plain projected gradient descent; p = -inf
    anneals the smoothing temperature from 0.1 * lambda_max down by factors
    of 5 to a 1e-9 relative floor, then polishes. The result's criterion is
    re-evaluated from the returned design. ``converged`` reports whether the
    final descent met the tolerance within the iteration budget.
    """
    p = validate_p(p)
    opts = opts or OptimizeOptions()
    gram = system.gram
    rank = rank_of(system)
    w = _initial_point(system, p, opts)
    averager = None
    if opts.orbits is not None:
        if len(opts.orbits.orbit_of) != system.v:
            raise ValueError("orbit reduction does not match the system size")
        averager = _orbit_average(opts.orbits)
        w = averager(w)
    w = project_floored_simplex(w, opts.floor)

    total_iterations = 0
    if p == -math.inf:
        lam0, _ = eigh_sym(weighted_gram(gram, w))
        scale = float(lam0[0])
        temperature = 0.1 * scale
        temperature_floor = 1e-9 * scale
        converged = False
        while total_iterations < opts.max_iter:
            objective = _make_objective(gram, rank, p, temperature)
            w, _, used, converged = _descend(
                objective, w, opts.floor, opts.tol, opts.max_iter - total_iterations, averager, p
            )
            total_iterations += used
            if temperature <= temperature_floor:
                break
            temperature = max(temperature / 5.0, temperature_floor)
        converged = converged and temperature <= temperature_floor
    else:
        objective = _make_objective(gram, rank, p, None)
        with np.errstate(over="ignore", invalid="ignore"):  # large -p overflows; _descend reports it
            w, _, total_iterations, converged = _descend(
                objective, w, opts.floor, opts.tol, opts.max_iter, averager, p
            )

    design = Design(w)
    criterion = psi_p(system, design, p, rank=rank)
    certificate = e_certificate(system, design) if p == -math.inf else None
    return OptimizationResult(
        design=design,
        criterion=criterion,
        iterations=total_iterations,
        converged=converged,
        certificate=certificate,
    )


def e_certificate(system: ContrastSystem, design: Design) -> CertificateReport:
    """Normality certificate for the largest-eigenvalue criterion.

    With h the top unit eigenvector of the covariance matrix and the
    generalized inverse taken as diag(w)^{-1}, the normality form is linear
    in the competing design, so its maximum over all feasible designs is
    attained at a vertex design: lhs_max = max_i ((q h)_i / w_i)^2. The
    design is certified optimal when lhs_max does not exceed the largest
    covariance eigenvalue lambda.

    Both come from K(w): lambda is its top eigenvalue, and with u the
    matching unit eigenvector, h = q^T diag(w)^{-1/2} u / sqrt(lambda), so
    q h = gram diag(w)^{-1/2} u / sqrt(lambda). The sign of h does not
    enter lhs_max.
    """
    spectrum, vecs = eigensystem_sym(weighted_gram(system.gram, design.w))
    top = float(spectrum.values[0])
    if spectrum.values[0] - spectrum.values[1] <= 1e-8 * max(top, 1e-300):
        warnings.warn(
            "largest eigenvalue has numerical multiplicity > 1; "
            "the rank-one certificate may fail to certify an optimal design",
            DegenerateEigenspace,
        )
    qh = system.gram @ (vecs[:, 0] / np.sqrt(design.w)) / math.sqrt(top)
    vertex_values = (qh / design.w) ** 2
    witness = int(np.argmax(vertex_values))
    lhs_max = float(vertex_values[witness])
    return CertificateReport(lhs_max=lhs_max, rhs=top, gap=lhs_max - top, witness_vertex=witness)


def grid_oracle(
    system: ContrastSystem,
    p: float,
    step: float,
    rank_tol: float | None = None,
) -> Design:
    """Exhaustive lattice minimizer of the criterion, for tiny systems.

    Scans every design with weights n_i * step (n_i >= 1) on the simplex;
    steps that do not divide 1 exactly are rounded to the nearest 1/n. Of
    the designs whose value lies within a relative 1e-12 of the minimum, the
    lexicographically smallest weight vector is returned. This is a
    brute-force reference, independent of the descent machinery: with
    G = F F^T it evaluates p = 0, -1 and -2 by closed forms in 1/w without
    an eigensolve; p = -inf and other p eigensolve the r-by-r F^T W^{-1} F
    (see ``_kernels.grid_scan``).
    """
    p = validate_p(p)
    if system.v > GRID_MAX_V:
        raise TooLarge(f"grid scan is limited to v <= {GRID_MAX_V}, got v={system.v}")
    lo, hi = GRID_STEP_RANGE
    if not lo <= step <= hi:
        raise TooLarge(f"grid step must lie in [{lo}, {hi}], got {step}")
    n = round(1.0 / step)
    if n < system.v:
        raise TooLarge(f"step {step} leaves no room for {system.v} positive weights")
    rank = rank_of(system, rank_tol)
    gram = system.gram
    if p == 0.0:
        mode, qexp = 0, 0.0
    elif p == -math.inf:
        mode, qexp = 2, 0.0
    else:
        mode, qexp = 1, -p
    _, counts = grid_scan(gram, rank, n, system.v, mode, qexp)
    return Design(np.asarray(counts, dtype=np.float64) / n)
