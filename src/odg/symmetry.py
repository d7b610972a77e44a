"""Treatment permutations: invariance checks and orbit reduction.

A permutation leaving the Gram matrix q q^T invariant under conjugation
permutes treatments without changing any eigenvalue-based criterion. When a
single-cycle permutation does so, the uniform design is optimal for every
orthogonally invariant criterion; for a general invariant permutation there
is an optimal design that is constant on each cycle, which shrinks the
search space to one weight per cycle.

``find_cyclic_invariance`` searches the cycles exhaustively, after two
closed-walk tests on the powers G^2..G^4 of G = q q^T, which a cyclic
invariance preserves: every treatment must see the same closed-walk counts
diag(G^k), and each step of the backtracking checks its pairs on the
powers as on G. The powers are compared within ``_walk_tolerance``,
v^(k-1) ((m + tau)^k - m^k) plus rounding for |G|max = m and the
invariance tolerance tau, so the tests cut no invariance. They cost three
v-by-v products, tens of microseconds at v = 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import _unit_scaled
from .contrasts import ContrastSystem
from .errors import NotInvariant, TooLarge

INVARIANCE_TOL = 1e-10  # relative to the Gram matrix's largest entry, so a rescaled q agrees
CYCLIC_SEARCH_LIMIT = 9
WALK_POWERS = 4  # the cyclic search also compares G^2..G^WALK_POWERS
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..v-1}; mapping[i] is the image of i."""

    mapping: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        v = len(self.mapping)
        mapping = tuple(int(x) for x in self.mapping)
        if sorted(mapping) != list(range(v)):
            raise ValueError(f"{mapping!r} is not a bijection on 0..{v - 1}")
        object.__setattr__(self, "mapping", mapping)
        seen = [False] * v
        cycles = []
        for start in range(v):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            nxt = mapping[start]
            while nxt != start:
                cycle.append(nxt)
                seen[nxt] = True
                nxt = mapping[nxt]
            cycles.append(tuple(cycle))
        object.__setattr__(self, "cycles", tuple(cycles))

    @property
    def v(self) -> int:
        return len(self.mapping)

    @property
    def is_cyclic(self) -> bool:
        return len(self.cycles) == 1

    @classmethod
    def from_cycle(cls, order) -> "Permutation":
        """Single cycle visiting all of 0..v-1 in the given order."""
        order = [int(x) for x in order]
        mapping = [0] * len(order)
        for pos, vert in enumerate(order):
            mapping[vert] = order[(pos + 1) % len(order)]
        return cls(tuple(mapping))

    @classmethod
    def from_one_line(cls, text: str) -> "Permutation":
        """Parse 1-indexed one-line notation, e.g. '2 1 3' maps 1->2, 2->1, 3->3."""
        try:
            images = [int(tok) for tok in text.split()]
        except ValueError:
            raise ValueError(f"permutation {text!r} must be whitespace-separated integers") from None
        return cls(tuple(x - 1 for x in images))


@dataclass(frozen=True)
class OrbitReduction:
    """Vertex -> orbit index; vertices sharing a cycle share an orbit."""

    orbit_of: tuple[int, ...]
    orbit_count: int


def check_invariance(system: ContrastSystem, perm: Permutation) -> bool:
    """Whether conjugating q q^T by the permutation reproduces it entrywise,
    to within ``INVARIANCE_TOL`` times its largest entry."""
    if perm.v != system.v:
        raise ValueError(f"permutation on {perm.v} elements for a system with v={system.v}")
    gram = system.gram
    m = np.asarray(perm.mapping)
    conj = np.empty_like(gram)
    conj[np.ix_(m, m)] = gram
    return bool(np.abs(conj - gram).max() <= INVARIANCE_TOL * np.abs(gram).max())


def _walk_tolerance(k: int, v: int, m: float, tau: float) -> float:
    """How far an entry of G^k may move under a permutation that moves no
    entry of G by more than ``tau``, where |G|max <= m: with
    P G P^T = G + E, P G^k P^T - G^k = sum_j (G + E)^j E G^(k-1-j), so
    |P G^k P^T - G^k|max <= v^(k-1) ((m + tau)^k - m^k). Added to it is
    the rounding of the computed powers: each entry of the computed G^k is
    off by at most about (k - 1) v (eps/2) v^(k-1) m^k, and
    2 k v eps v^(k-1) (m + tau)^k covers the two entries compared with room
    for the rounding of the comparison itself."""
    grow = tau * sum((m + tau) ** j * m ** (k - 1 - j) for j in range(k))
    rounding = 2.0 * k * v * _EPS * (m + tau) ** k
    return v ** (k - 1) * (grow + rounding)


def _backtrack(rows: list, tols: list) -> list | None:
    """The first cycle (0, c_1, ..., c_{v-1}) in lexicographic order along
    which each matrix of ``rows`` (lists of Python-float rows) agrees with
    its conjugate entrywise to within the matching tolerance of ``tols``;
    None if there is none. Depth first, trying vertices in increasing order;
    a partial cycle is dropped as soon as the pairs it maps break an entry.
    """
    v = len(rows[0])
    checks = list(zip(rows, tols))
    cycle = [0]
    used = [False] * v
    used[0] = True

    def consistent(prev: int, nxt: int) -> bool:
        # mapping prev -> nxt joins the known pairs (cycle[t] -> cycle[t+1])
        for g, tol in checks:
            image, source = g[nxt], g[prev]
            if abs(image[nxt] - source[prev]) > tol:
                return False
            for t in range(len(cycle) - 1):
                if abs(image[cycle[t + 1]] - source[cycle[t]]) > tol:
                    return False
        return True

    def extend() -> bool:
        if len(cycle) == v:
            return consistent(cycle[-1], 0)
        for cand in range(1, v):
            if used[cand] or not consistent(cycle[-1], cand):
                continue
            cycle.append(cand)
            used[cand] = True
            if extend():
                return True
            used[cand] = False
            cycle.pop()
        return False

    return cycle if extend() else None


def find_cyclic_invariance(system: ContrastSystem, max_v: int = CYCLIC_SEARCH_LIMIT):
    """Search all single-cycle permutations for one leaving q q^T invariant.

    Exhaustive backtracking over the (v-1)! cycles through vertex 0
    (``_backtrack``), pruned by incremental entry checks at
    ``check_invariance``'s relative tolerance; vertices are tried in
    increasing order so the first hit is deterministic. Returns None when
    no such permutation exists. Rejects v > max_v outright: beyond that the
    caller must supply a permutation to test.

    A cyclic invariance is transitive and preserves every power of
    G = q q^T, so two closed-walk tests on the powers G^2..G^``WALK_POWERS``
    come first: every vertex must have the same closed-walk counts
    diag(G^k) (walk-regularity: Godsil & McKay, Linear Algebra Appl. 30,
    1980), else the search returns None before it backtracks; and the
    backtracking checks each pair on the powers as on G. G's own entries
    keep exactly ``check_invariance``'s tolerance, so the first hit is
    what a search on G alone finds; the powers are compared within
    ``_walk_tolerance``, a rigorous bound on what a permutation that
    ``check_invariance`` accepts can move them by, so they cut no
    invariance. The powers are computed on G scaled by a power of two
    (``_kernels._unit_scaled``), so that none overflows or underflows.
    The walk tests cost three v-by-v products, tens of microseconds at
    v = 12; they refuse the random cubic and 4-regular graphs of the
    ``oracle`` benchmark, which G alone took 2-9 ms of backtracking to
    refuse. The worst case is still exponential: walk-regular systems with
    no cyclic invariance. On the dodecahedron (v = 20, vertex-transitive,
    no 20-cycle) the search visits 386 partial cycles in about 5 ms, where
    backtracking on G alone visits 669 212 in 12 s; on the 4-cube, 748
    against 18 380.
    """
    v = system.v
    if v > max_v:
        raise TooLarge(f"exhaustive cyclic search is limited to v <= {max_v}, got v={v}")
    gram = system.gram
    scale = float(np.abs(gram).max())
    tol = INVARIANCE_TOL * scale
    # necessary condition: every vertex must look alike (same diagonal entry,
    # same multiset of row entries)
    diag = np.diag(gram)
    if np.abs(diag - diag[0]).max() > 1e-8 * scale:
        return None
    rows = np.sort(gram, axis=1)
    if np.abs(rows - rows[0]).max() > 1e-8 * scale:
        return None
    # walk-regularity: the cycle carries each vertex to every other in at
    # most v // 2 steps, each moving diag(G^k) by at most its tolerance
    unit, _ = _unit_scaled(gram)
    m = float(np.abs(unit).max())
    power, powers, tols = unit, [gram], [tol]
    for k in range(2, WALK_POWERS + 1):
        power = power @ unit
        walk_tol = _walk_tolerance(k, v, m, INVARIANCE_TOL * m)
        closed = np.diag(power)
        if closed.max() - closed.min() > (v // 2) * walk_tol:
            return None
        powers.append(power)
        tols.append(walk_tol)
    cycle = _backtrack([g.tolist() for g in powers], tols)
    if cycle is None:
        return None
    perm = Permutation.from_cycle(cycle)
    if not check_invariance(system, perm):  # full check; pruning is incremental
        return None
    return perm


def orbit_reduction(system: ContrastSystem, perm: Permutation) -> OrbitReduction:
    """Orbits (cycles) of an invariant permutation, for constraining optimizers."""
    if not check_invariance(system, perm):
        raise NotInvariant("permutation does not leave the Gram matrix invariant")
    orbit_of = [0] * perm.v
    for idx, cycle in enumerate(perm.cycles):
        for vert in cycle:
            orbit_of[vert] = idx
    return OrbitReduction(orbit_of=tuple(orbit_of), orbit_count=len(perm.cycles))
