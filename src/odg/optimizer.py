"""Numerical criterion minimization over the open simplex.

The workhorse is monotone spectral projected gradient (Birgin, Martinez &
Raydan, SIAM J. Optim. 2000) on the floored simplex {w : w_i >= FLOOR,
sum w = 1}: a Barzilai-Borwein step, one projection per iteration and an
Armijo backtrack along the projected direction. It stops when the relative
decrease of an accepted step falls below the tolerance, or when no decrease
is left that the criterion value can resolve. All criteria handled here are
convex in w, so the iteration converges to the global minimum. The
nonsmooth largest-eigenvalue criterion (p = -inf) is the limit of 1/phi_p
as p -> -inf, and is minimized by continuation in p: one descent per
exponent of ``E_EXPONENTS``, each from the last one's design. Each stage
opens with the previous stage's last Barzilai-Borwein step, scaled by the
ratio of the exponents: the power mean's curvature grows as -p, so a unit
first move would be halved many times before it is accepted. The result
is read at p = -inf from the last iterate's eigendecomposition.

Each design, iterate or report, is one ``criteria._evaluate``: one
eigendecomposition of K(w). The returned design is the last accepted
iterate, read without another.

Everything is deterministic: fixed initialization, fixed sweep orders, no
randomized restarts. The descent starts from the uniform design, or, for
p < -1, from the trace-criterion optimum (closed form); there is no other
starting point to choose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._kernels import grid_scan
from .closed_form import a_optimal_weights
from .contrasts import ContrastSystem, rank_of
from .criteria import CertificateReport, CriterionValue, _evaluate, _Evaluation, validate_p
from .spectral import Design
from .symmetry import OrbitReduction
from .errors import NotConverged, TooLarge

GRID_MAX_V = 4
GRID_STEP_RANGE = (1e-3, 0.1)
FLOOR = 1e-9  # minimum weight kept strictly positive
RESOLUTION = 4.0 * np.finfo(np.float64).eps  # smallest relative change of a criterion value taken as real
# the exponents p = -inf is approached through: -10, then five times the
# last -p per stage, ending at -1e9
E_EXPONENTS = (*(-10.0 * 5.0**k for k in range(12)), -1e9)


@dataclass(frozen=True)
class OptimizeOptions:
    tol: float = 1e-8          # stop when an accepted step's relative decrease falls below this
    max_iter: int = 10000      # global iteration budget
    orbits: Optional[OrbitReduction] = None


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    design: Design
    criterion: CriterionValue
    evaluation: _Evaluation  # the design's one eigendecomposition of K(w)
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


def _orbit_average(orbits: OrbitReduction) -> Callable:
    labels = np.asarray(orbits.orbit_of)
    counts = np.bincount(labels, minlength=orbits.orbit_count).astype(np.float64)

    def average(x: np.ndarray) -> np.ndarray:
        sums = np.bincount(labels, weights=x, minlength=orbits.orbit_count)
        return (sums / counts)[labels]

    return average


def _descend(current, tol, max_iter, averager, step=None):
    """Monotone spectral projected gradient from the evaluation ``current``;
    each trial point is evaluated as ``current`` was.

    Each iteration takes one Barzilai–Borwein step s's / s'y (s and y the
    last change of design and of gradient), capped at 2 / |grad| since the
    simplex has diameter sqrt(2), projects once to get the direction d, and
    backtracks by halving lambda along w + lambda d until the Armijo test
    holds. The first iteration takes ``step``, the last stage's step on the
    way to p = -inf; with none given, the unit move 1 / |grad|. Returns (last
    accepted evaluation, iterations, converged, last Barzilai–Borwein step).
    It converges when the relative decrease of an accepted step falls below
    ``tol``, or when the decrease the line search predicts, -lambda grad'd,
    falls below RESOLUTION times the criterion value: no decrease is left
    to resolve. The value is in the eigenvalues' units, so nothing here
    overflows; ``NotConverged`` means that K(w) itself is not finite.
    """
    grad = averager(current.gradient())
    if step is None:  # no curvature seen yet: a unit move
        step = 1.0 / math.hypot(*grad)
    iterations = 0
    converged = False
    while iterations < max_iter:
        value = current.value
        # hypot scales before squaring: the squares overflow once an entry
        # passes 1e154, while the norm itself stays finite far beyond that
        norm = math.hypot(*grad)
        if not (math.isfinite(value) and math.isfinite(norm)):
            raise NotConverged(f"the criterion or its gradient is not finite at p={current.p}")
        iterations += 1
        direction = project_floored_simplex(current.w - min(step, 2.0 / norm) * grad, FLOOR) - current.w
        slope = float(grad @ direction)
        resolution = RESOLUTION * abs(value)
        trial = None
        lam = 1.0
        for _ in range(60):  # a guard: the value is positive at every p, so the resolution is never 0
            if -lam * slope <= resolution:
                break
            candidate = _evaluate(current.gram, current.w + lam * direction, current.rank, current.p, current.rank_tol)
            if candidate.value <= value + 1e-4 * lam * slope:
                trial = candidate
                break
            lam *= 0.5
        if trial is None:  # no decrease left that the value can resolve
            converged = True
            break
        s = trial.w - current.w
        current = trial
        previous, grad = grad, averager(trial.gradient())
        curvature = float(s @ (grad - previous))
        step = float(s @ s) / curvature if curvature > 0.0 else math.inf
        if (value - trial.value) / max(abs(value), 1e-300) < tol:
            converged = True
            break
    return current, iterations, converged, step


def _initial_point(system: ContrastSystem, p: float) -> np.ndarray:
    if p < -1.0:  # warm start: the trace-criterion optimum is closed form
        return a_optimal_weights(system)
    return np.full(system.v, 1.0 / system.v)


def optimize_phi_p(
    system: ContrastSystem,
    p: float,
    opts: OptimizeOptions | None = None,
) -> OptimizationResult:
    """Minimize the criterion over the floored simplex.

    Finite p (including 0) is one stage: one spectral projected gradient
    descent (``_descend``) on 1/phi_p. p = -inf is one stage per exponent
    of ``E_EXPONENTS``, each descending 1/phi_p from the last stage's
    design, its first step the last stage's Barzilai-Borwein step times
    the ratio of the exponents (1/5, and 0.49 into -1e9). Each descent
    stops when the relative decrease falls below ``opts.tol`` or when no
    decrease is left to resolve. The result's criterion and certificate
    read the last iterate's eigendecomposition at p.
    ``converged`` reports whether the last stage stopped so within the
    iteration budget; it certifies nothing at finite p.
    """
    p = validate_p(p)
    opts = opts or OptimizeOptions()
    rank = rank_of(system)
    w = _initial_point(system, p)
    averager = np.asarray  # no orbits: the gradient as it is
    if opts.orbits is not None:
        if len(opts.orbits.orbit_of) != system.v:
            raise ValueError("orbit reduction does not match the system size")
        averager = _orbit_average(opts.orbits)
        w = averager(w)
    final = _evaluate(system.gram, project_floored_simplex(w, FLOOR), rank, p)
    stages = E_EXPONENTS if p == -math.inf else (p,)
    total_iterations = 0
    step = None
    for k, stage in enumerate(stages):
        if k:
            step *= stages[k - 1] / stage
        # a stage left no iteration budget returns at once, unconverged
        final, used, converged, step = _descend(
            replace(final, p=stage), opts.tol, opts.max_iter - total_iterations, averager, step
        )
        total_iterations += used
    final = replace(final, p=p)

    return OptimizationResult(
        design=Design(final.w),
        criterion=final.criterion,
        evaluation=final,
        iterations=total_iterations,
        converged=converged,
        certificate=final.certificate() if p == -math.inf else None,
    )


def e_certificate(system: ContrastSystem, design: Design) -> CertificateReport:
    """Normality certificate for the largest-eigenvalue criterion.

    With h the top unit eigenvector of the covariance matrix and the
    generalized inverse taken as diag(w)^{-1}, the normality form is linear
    in the competing design, so its maximum over all feasible designs is
    attained at a vertex design: lhs_max = max_i ((q h)_i / w_i)^2. The
    design is certified optimal when lhs_max does not exceed the largest
    covariance eigenvalue lambda. Both are read from one eigendecomposition
    of K(w) (see ``criteria._Evaluation.certificate``).
    """
    return _evaluate(system.gram, design.w, rank_of(system), -math.inf).certificate()


def grid_oracle(
    system: ContrastSystem,
    p: float,
    step: float,
) -> Design:
    """Exhaustive lattice minimizer of the criterion, for tiny systems.

    Scans every design with weights n_i * step (n_i >= 1) on the simplex;
    steps that do not divide 1 exactly are rounded to the nearest 1/n. Of
    the designs whose value lies within a relative 1e-12 of the minimum, the
    lexicographically smallest weight vector is returned. This is a
    brute-force reference, independent of the descent machinery: with
    G = F F^T it evaluates p = 0, -1 and -2 by closed forms in 1/w without
    an eigensolve; other p eigensolve the r-by-r F^T W^{-1} F, and p = -inf
    only at the designs that trace bounds on its largest eigenvalue leave
    as candidates for the minimum (see ``_kernels.grid_scan``).
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
    _, counts = grid_scan(system.gram, rank_of(system), n, system.v, p)
    return Design(np.asarray(counts, dtype=np.float64) / n)
