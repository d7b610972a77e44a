"""Numerical criterion minimization over the open simplex.

At finite p (0 included) the workhorse is L-BFGS (Liu & Nocedal, Math.
Prog. 45, 1989) on the log-weights z, with the design w = softmax(z): the
two-loop direction from the last ``PAIRS`` curvature pairs and an Armijo
backtrack along it. It stops when the relative decrease of an accepted
step falls below the tolerance, or when no decrease is left that the
criterion value can resolve. All criteria handled here are convex in w, so
the iteration converges to the global minimum. Iterates are evaluated by
``criteria._evaluator``: at p = -1 and -2 from diag(G) or G o G, with no
eigensolve, and the reported design is then eigensolved once; at other
finite p each iterate is one eigendecomposition of K(w), and the last
accepted one is the reported design, read without another. Either way a
finite-p optimum costs one values-only eigensolve of G for the rank.

The largest-eigenvalue criterion (p = -inf) is solved from its dual (see
``_e_dual``). lambda_max(K(w)) <= tau exactly when G <= tau diag(w), so
the E-optimum is E* = min{sum u : diag(u) >= G}, w* = u*/sum u*, whose
dual max{<G, Y> : Y >= 0, diag Y = 1} is, on a comparison graph, the
Goemans-Williamson max-cut relaxation (J. ACM 42, 1995). No iteration
eigensolves: a numeric E-optimum costs two, G's and K(w)'s at the design.

Everything is deterministic: fixed initialization, fixed sweep orders, no
randomized restarts. The descent starts from the uniform design, or, for
p < -1, from the trace-criterion optimum (closed form); the dual starts
from the Gram matrix's top eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._kernels import grid_scan
from .closed_form import a_optimal_weights
from .contrasts import ContrastSystem, rank_of
from .criteria import (
    CertificateReport,
    OptimizationResult,
    _dual_certificate,
    _evaluate,
    _Evaluation,
    _evaluator,
    validate_p,
)
from .spectral import Design
from .symmetry import OrbitReduction
from .errors import NotConverged, TooLarge

GRID_MAX_V = 4
GRID_STEP_RANGE = (1e-3, 0.1)
FLOOR = 1e-9  # minimum weight kept strictly positive
PAIRS = 10  # the curvature pairs the quasi-Newton descent keeps
RESOLUTION = 4.0 * np.finfo(np.float64).eps  # smallest relative change of a criterion value taken as real
CHECK_EVERY = 25  # power iterations between two Cholesky proofs at p = -inf
CERTIFICATE_TOL = 1e-12  # the relative gap ``e_certificate`` solves the dual to


@dataclass(frozen=True)
class OptimizeOptions:
    tol: float = 1e-8          # relative decrease to stop at; at p = -inf, the relative gap to prove
    max_iter: int = 10000      # iteration budget: descent steps, or power iterations at p = -inf
    orbits: Optional[OrbitReduction] = None


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


def _descend(evaluate, w, tol, max_iter, averager, pairs):
    """L-BFGS on the log-weights z from the design ``w``; ``evaluate`` reads
    the value and gradient at each design (``criteria._evaluator``).

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
    rounding noise. ``pairs`` opens the descent. Returns (last accepted
    evaluation, iterations, converged). It converges when the relative
    decrease of an accepted step falls below ``tol``, or when the decrease
    the line search predicts, -lambda grad'd, falls below RESOLUTION times
    the criterion value: no decrease is left to resolve. The value is in
    the eigenvalues' units and the z-gradient is bounded by it, so nothing
    here overflows; ``NotConverged`` means that K(w) itself is not finite.
    """
    current = evaluate(w)
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
                candidate = evaluate(w)
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
    return current, iterations, converged


def _initial_point(system: ContrastSystem, p: float) -> np.ndarray:
    if p < -1.0:  # warm start: the trace-criterion optimum is closed form
        return a_optimal_weights(system)
    return np.full(system.v, 1.0 / system.v)


def _unit_scaled(gram: np.ndarray) -> tuple[np.ndarray, int]:
    """(``gram`` times 2^-e, e the binary exponent of its largest entry, so
    that no square or product of its rows overflows or underflows; e)."""
    e = math.frexp(float(np.abs(gram).max()))[1]
    return np.ldexp(gram, -e), e


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """``x`` with each row scaled to unit length; a zero row stays zero."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    return x / np.maximum(norms, np.finfo(np.float64).tiny)[:, None]


def _e_dual(system: ContrastSystem, tol: float, max_iter: int, averager):
    """The dual solved on Y = V V^T: V is v-by-k with unit rows,
    k = min(v, ceil(sqrt(2v)) + 1) (Boumal, Voroninski & Bandeira, NeurIPS
    2016), from G's top k eigenvectors (rows where they vanish from a fixed
    cosine table). Each iteration is one product G V and the power step
    rownormalise(G V) (Journee, Nesterov, Richtarik & Sepulchre, JMLR 11,
    2010) with momentum (t - 1)/(t + 2), t counting from the last fall of
    <G, V V^T> (O'Donoghue & Candes, Found. Comput. Math. 15, 2015). Every
    ``CHECK_EVERY`` iterations and at the last, u = diag(G V V^T) (then
    ``averager``) gives the bound L = sum u <= E* and w ~ max(u, FLOOR L);
    a Cholesky factorisation of (1 + tol) L diag(w) - G proves, if it
    succeeds, lambda_max(K(w)) <= (1 + tol) E*. Works on ``_unit_scaled``
    G; returns (u in G's units, w, iterations, converged)."""
    gram, e = _unit_scaled(system.gram)
    v = system.v
    k = min(v, math.ceil(math.sqrt(2 * v)) + 1)
    start = system.gram_eigen[1][:, :k]
    vanish = np.einsum("ij,ij->i", start, start) <= np.finfo(np.float64).eps
    table = np.cos(np.outer(np.arange(1, v + 1), np.arange(1, k + 1)))  # distinct rows, none zero
    vectors = previous = _unit_rows(np.where(vanish[:, None], table, start))
    iterations, t, last = 0, 0, -math.inf
    while True:
        product = gram @ vectors
        iterations += 1
        u = np.einsum("ij,ij->i", product, vectors)
        lower = float(u.sum())
        if iterations % CHECK_EVERY == 0 or iterations >= max_iter:
            u = averager(u)
            w = np.maximum(u, FLOOR * lower)
            w /= w.sum()
            try:
                np.linalg.cholesky(np.diag((1.0 + tol) * lower * w) - gram)
                return np.ldexp(u, e), w, iterations, True
            except np.linalg.LinAlgError:
                if iterations >= max_iter:
                    return np.ldexp(u, e), w, iterations, False
        t, last = 1 if lower < last else t + 1, lower
        step = _unit_rows(product)
        vectors, previous = _unit_rows(step + (t - 1) / (t + 2) * (step - previous)), step


def optimize_phi_p(
    system: ContrastSystem,
    p: float,
    opts: OptimizeOptions | None = None,
) -> OptimizationResult:
    """Minimize the criterion over the open simplex.

    Finite p (including 0) is one L-BFGS descent (``_descend``) on
    1/phi_p, and ``converged`` certifies nothing. At p = -inf
    (``_e_dual``) it says that lambda_max was proven within a relative
    ``opts.tol`` of the dual bound, which the certificate reads.
    """
    p = validate_p(p)
    opts = opts or OptimizeOptions()
    averager = np.asarray  # no orbits: the gradient and the dual allocation as they are
    if opts.orbits is not None:
        if len(opts.orbits.orbit_of) != system.v:
            raise ValueError("orbit reduction does not match the system size")
        averager = _orbit_average(opts.orbits)
    certificate = None
    if p == -math.inf:  # the dual's start eigensolves G, and the rank is read from it
        u, w, iterations, converged = _e_dual(system, opts.tol, opts.max_iter, averager)
        final = _evaluate(system.gram, w, rank_of(system), p)
        certificate = _dual_certificate(final, u)
    else:  # on G scaled by a power of two, reported in G's units
        rank = rank_of(system)
        gram, e = _unit_scaled(system.gram)
        evaluate = _evaluator(gram, rank, p)
        start = averager(_initial_point(system, p))
        final, iterations, converged = _descend(evaluate, start, opts.tol, opts.max_iter, averager, [])
        if isinstance(final, _Evaluation):  # K(w) scales exactly with G
            final = replace(final, values=np.ldexp(final.values, e))
        else:  # no iterate was eigensolved: the reported design is, once
            final = _evaluate(system.gram, final.w, rank, p)
    return OptimizationResult(Design(final.w), final.criterion, final, "numeric", iterations, converged, certificate)


def e_certificate(system: ContrastSystem, design: Design) -> CertificateReport:
    """Dual certificate for the largest-eigenvalue criterion at ``design``:
    the dual of ``optimize_phi_p`` at p = -inf, solved to a relative
    ``CERTIFICATE_TOL``, read at ``design``."""
    u, _, _, _ = _e_dual(system, CERTIFICATE_TOL, OptimizeOptions.max_iter, np.asarray)
    return _dual_certificate(_evaluate(system.gram, design.w, rank_of(system), -math.inf), u)


def grid_oracle(
    system: ContrastSystem,
    p: float,
    step: float,
) -> Design:
    """Exact lattice minimizer of the criterion, for tiny systems.

    Minimizes over every design with weights n_i * step (n_i >= 1) on the
    simplex; steps that do not divide 1 exactly are rounded to the nearest
    1/n. Of the designs whose value lies within a relative 1e-12 of the
    minimum, the lexicographically smallest weight vector is returned; at p
    other than 0, -1, -2 and -inf the value compared is the power mean
    1/phi_p. This is a reference independent of the descent machinery: a
    branch and bound over boxes of designs, pruned by one lower bound that
    holds at every p, the criterion at a box's corner of largest counts.
    With G = F F^T it evaluates p = 0, -1 and -2 by closed forms in 1/w
    without an eigensolve; other p eigensolve the r-by-r F^T W^{-1} F (see
    ``_kernels.grid_scan``).
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
