"""Treatment permutations: invariance checks and orbit reduction.

A permutation leaving the Gram matrix q q^T invariant under conjugation
permutes treatments without changing any eigenvalue-based criterion. When a
single-cycle permutation does so, the uniform design is optimal for every
orthogonally invariant criterion; for a general invariant permutation there
is an optimal design that is constant on each cycle, which shrinks the
search space to one weight per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contrasts import ContrastSystem
from .spectral import Design
from .errors import NotInvariant, TooLarge

INVARIANCE_TOL = 1e-10
CYCLIC_SEARCH_LIMIT = 9


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
    def identity(cls, v: int) -> "Permutation":
        return cls(tuple(range(v)))

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

    def one_line(self) -> str:
        return " ".join(str(x + 1) for x in self.mapping)


@dataclass(frozen=True)
class OrbitReduction:
    """Vertex -> orbit index; vertices sharing a cycle share an orbit."""

    orbit_of: tuple[int, ...]
    orbit_count: int


def check_invariance(system: ContrastSystem, perm: Permutation) -> bool:
    """Whether conjugating q q^T by the permutation reproduces it entrywise."""
    if perm.v != system.v:
        raise ValueError(f"permutation on {perm.v} elements for a system with v={system.v}")
    gram = system.gram
    m = np.asarray(perm.mapping)
    conj = np.empty_like(gram)
    conj[np.ix_(m, m)] = gram
    return bool(np.abs(conj - gram).max() <= INVARIANCE_TOL)


def permute_design(design: Design, perm: Permutation) -> Design:
    """Relabel weights: the new weight of pi(i) is the old weight of i."""
    if perm.v != design.v:
        raise ValueError(f"permutation on {perm.v} elements for a design with v={design.v}")
    w = np.empty_like(design.w)
    w[np.asarray(perm.mapping)] = design.w
    return Design(w)


def find_cyclic_invariance(system: ContrastSystem, max_v: int = CYCLIC_SEARCH_LIMIT):
    """Search all single-cycle permutations for one leaving q q^T invariant.

    Exhaustive backtracking over the (v-1)! cycles through vertex 0, pruned
    by incremental entry checks; vertices are tried in increasing order so
    the first hit is deterministic. Returns None when no such permutation
    exists. Rejects v > max_v outright: beyond that the caller must supply a
    permutation to test.
    """
    v = system.v
    if v > max_v:
        raise TooLarge(f"exhaustive cyclic search is limited to v <= {max_v}, got v={v}")
    gram = system.gram
    # necessary condition: every vertex must look alike (same diagonal entry,
    # same multiset of row entries)
    diag = np.diag(gram)
    if np.abs(diag - diag[0]).max() > 1e-8:
        return None
    rows = np.sort(gram, axis=1)
    if np.abs(rows - rows[0]).max() > 1e-8:
        return None

    cycle = [0]
    used = [False] * v
    used[0] = True

    def consistent(prev: int, nxt: int) -> bool:
        # mapping prev -> nxt joins the known pairs (cycle[t] -> cycle[t+1])
        if abs(gram[nxt, nxt] - gram[prev, prev]) > INVARIANCE_TOL:
            return False
        for t in range(len(cycle) - 1):
            if abs(gram[nxt, cycle[t + 1]] - gram[prev, cycle[t]]) > INVARIANCE_TOL:
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

    if not extend():
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
