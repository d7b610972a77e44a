"""Numerical criterion minimization over the open simplex.

The workhorse is L-BFGS (Liu & Nocedal, Math. Prog. 45, 1989) on the
log-weights z, with the design w = softmax(z): the two-loop direction from
the last ``PAIRS`` curvature pairs and an Armijo backtrack along it. It
stops when the relative decrease of an accepted step falls below the
tolerance, or when no decrease is left that the criterion value can
resolve. All criteria handled here are convex in w, so the iteration
converges to the global minimum. The nonsmooth largest-eigenvalue
criterion (p = -inf) is the limit of 1/phi_p as p -> -inf, and is
minimized by continuation in p: one descent per exponent of
``E_EXPONENTS``, each from the last one's design. Each stage opens with
the previous stage's curvature pairs, their gradient changes scaled by the
ratio of the exponents: the power mean's curvature grows as -p. The result
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
PAIRS = 10  # the curvature pairs the quasi-Newton descent keeps
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


def _orbit_average(orbits: OrbitReduction) -> Callable:
    labels = np.asarray(orbits.orbit_of)
    counts = np.bincount(labels, minlength=orbits.orbit_count).astype(np.float64)

    def average(x: np.ndarray) -> np.ndarray:
        sums = np.bincount(labels, weights=x, minlength=orbits.orbit_count)
        return (sums / counts)[labels]

    return average


def _softmax(z: np.ndarray) -> np.ndarray:
    w = np.exp(z - z.max())
    return w / w.sum()


def _lbfgs_direction(grad, pairs, value):
    """The L-BFGS two-loop recursion (Liu & Nocedal, Math. Prog. 45, 1989):
    minus the inverse-Hessian estimate of the curvature ``pairs`` (s, y,
    1/s'y), oldest first, applied to ``grad``, scaled by s'y/y'y of the
    newest pair. With no pair, -grad / value: a move of relative size
    |grad| / value in the log-weights."""
    if not pairs:
        return -grad / value
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    s, y, _ = pairs[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def _descend(current, tol, max_iter, averager, pairs):
    """L-BFGS on the log-weights z from the evaluation ``current``; each
    trial point is evaluated as ``current`` was.

    The design is w = softmax(z), so every iterate lies in the open
    simplex, and the criterion's gradient in z is w (g - g'w), with g its
    (orbit-averaged) gradient in w. Each iteration takes the two-loop
    direction d from the last ``PAIRS`` curvature pairs (changes s of z and
    y of the z-gradient; a pair with s'y <= 1e-12 |s| |y| is skipped) and
    backtracks by halving lambda from 1 along z + lambda d until the Armijo
    test holds; a trial with a weight below FLOOR fails it unevaluated.
    With no pair, and after a direction that is not a descent direction
    has dropped the pairs, the step is -grad / value, which at a
    stationary point predicts no resolvable decrease from the gradient's
    rounding noise. ``pairs`` opens the descent, the last stage's on the
    way to p = -inf. Returns (last accepted evaluation, iterations, converged,
    curvature pairs). It converges when the relative decrease of an
    accepted step falls below ``tol``, or when the decrease the line search
    predicts, -lambda grad'd, falls below RESOLUTION times the criterion
    value: no decrease is left to resolve. The value is in the eigenvalues'
    units and the z-gradient is bounded by it, so nothing here overflows;
    ``NotConverged`` means that K(w) itself is not finite.
    """
    z = np.log(current.w)
    g = averager(current.gradient())
    grad = current.w * (g - g @ current.w)
    iterations = 0
    converged = False
    while iterations < max_iter:
        value = current.value
        if not (math.isfinite(value) and np.all(np.isfinite(grad))):
            raise NotConverged(f"the criterion or its gradient is not finite at p={current.p}")
        iterations += 1
        direction = _lbfgs_direction(grad, pairs, value)
        slope = float(grad @ direction)
        if not slope < 0.0:  # not a descent direction: forget the curvature
            pairs = []
            direction = _lbfgs_direction(grad, pairs, value)
            slope = float(grad @ direction)
        resolution = RESOLUTION * abs(value)
        trial = None
        lam = 1.0
        for _ in range(60):  # a guard: the value is positive at every p, so the resolution is never 0
            if -lam * slope <= resolution:
                break
            w = _softmax(z + lam * direction)
            if w.min() >= FLOOR:  # an underflowed weight would divide by zero in K(w)
                candidate = _evaluate(current.gram, w, current.rank, current.p, current.rank_tol)
                if candidate.value <= value + 1e-4 * lam * slope:
                    trial = candidate
                    break
            lam *= 0.5
        if trial is None:  # no decrease left that the value can resolve
            converged = True
            break
        s = lam * direction
        z, current = z + s, trial
        g = averager(trial.gradient())
        previous, grad = grad, trial.w * (g - g @ trial.w)
        y = grad - previous
        curvature = float(s @ y)
        if curvature > 1e-12 * math.sqrt(float(s @ s) * float(y @ y)):
            pairs = [*pairs[1 - PAIRS :], (s, y, 1.0 / curvature)]
        if (value - trial.value) / max(abs(value), 1e-300) < tol:
            converged = True
            break
    return current, iterations, converged, pairs


def _initial_point(system: ContrastSystem, p: float) -> np.ndarray:
    if p < -1.0:  # warm start: the trace-criterion optimum is closed form
        return a_optimal_weights(system)
    return np.full(system.v, 1.0 / system.v)


def optimize_phi_p(
    system: ContrastSystem,
    p: float,
    opts: OptimizeOptions | None = None,
) -> OptimizationResult:
    """Minimize the criterion over the open simplex.

    Finite p (including 0) is one stage: one L-BFGS descent (``_descend``)
    on 1/phi_p. p = -inf is one stage per exponent of ``E_EXPONENTS``, each
    descending 1/phi_p from the last stage's design and curvature pairs,
    each pair's y times the ratio of the exponents and its 1/s'y divided
    by it (5, and about 2.05 into -1e9). Each descent stops when the
    relative decrease falls below ``opts.tol`` or when no decrease is left
    to resolve. The result's criterion and certificate read the last
    iterate's eigendecomposition at p.
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
    final = _evaluate(system.gram, w, rank, p)
    stages = E_EXPONENTS if p == -math.inf else (p,)
    total_iterations = 0
    pairs = []
    for k, stage in enumerate(stages):
        if k:  # the curvature of 1/phi_p grows as -p
            ratio = stage / stages[k - 1]
            pairs = [(s, ratio * y, rho / ratio) for s, y, rho in pairs]
        # a stage left no iteration budget returns at once, unconverged
        final, used, converged, pairs = _descend(
            replace(final, p=stage), opts.tol, opts.max_iter - total_iterations, averager, pairs
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

    The equivalence theorem (Pukelsheim, *Optimal Design of Experiments*,
    1993, ch. 7; Kiefer, Ann. Statist. 2, 1974) takes a matrix E on the top
    eigenspace of the covariance matrix; here E is the average of h_j h_j^T
    over its m unit eigenvectors h_j. With the generalized inverse taken as
    diag(w)^{-1}, the normality form is linear in the competing design, so
    its maximum over all feasible designs is attained at a vertex design:
    lhs_max = max_i mean_j ((q h_j)_i / w_i)^2. When lhs_max does not
    exceed the largest covariance eigenvalue lambda_1, the design's
    E-efficiency is at least (mean top eigenvalue / lambda_1)^2 >=
    (1 - 1e-8)^2. Everything is read from one eigendecomposition of K(w)
    (see ``criteria._Evaluation.certificate``).
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
