"""Spans around odg's public entry points, recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
``odg`` module that holds a reference to it, because ``odg.cli``,
``odg.optimizer`` and the other modules bind imported names at import time.
``uninstall()`` puts the originals back. Spans are kept in memory as
``(name, parent, start, end, n)`` tuples; ``n`` is the matrix order for an
eigensolve and the lattice size for a grid scan.
"""

from __future__ import annotations

import math
import sys
import time

# (module, function) pairs; spans and metrics are named after the module
# that defines the function, less any leading underscore.
TRACED = [
    ("cli", "main"),
    ("contrasts", "rank_of"),
    ("contrasts", "detect_pairwise"),
    ("contrasts", "classify"),
    ("spectral", "covariance_matrix"),
    ("spectral", "eigensystem_sym"),
    ("spectral", "eigenvalues_sym"),
    ("spectral", "vertex_weighted_laplacian"),
    ("criteria", "psi_p"),
    ("closed_form", "a_optimal"),
    ("closed_form", "d_optimal_uniform"),
    ("closed_form", "e_optimal_bipartite"),
    ("optimizer", "optimize_phi_p"),
    ("optimizer", "e_certificate"),
    ("optimizer", "grid_oracle"),
    ("_kernels", "eigh_sym"),
    ("_kernels", "grid_scan"),
    ("symmetry", "check_invariance"),
    ("symmetry", "find_cyclic_invariance"),
    ("symmetry", "orbit_reduction"),
    ("forests", "verify_d_identity"),
]


def _size(name: str, args) -> int:
    if name == "kernels.eigh_sym":
        return int(args[0].shape[0])
    if name == "kernels.grid_scan":  # grid_scan(gram, rank, n, v, mode, qexp)
        return math.comb(int(args[2]) - 1, int(args[3]) - 1)
    if name == "spectral.eigensystem_sym":
        return int(args[0].shape[0])
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, clock(), _size(name, args))
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items() if k == "odg" or k.startswith("odg.")}
        for layer, func in TRACED:
            original = getattr(modules[f"odg.{layer}"], func)
            wrapper = self._wrap(f"{layer.lstrip('_')}.{func}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[tuple], rounds: int) -> dict:
    """Per-round layer figures from the spans of ``rounds`` traced rounds."""
    child_time = [0.0] * len(spans)
    under_optimizer = [False] * len(spans)
    for k, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            under_optimizer[k] = under_optimizer[parent] or spans[parent][0] == "optimizer.optimize_phi_p"

    def outermost(k: int, prefix: str) -> bool:
        parent = spans[k][1]
        while parent >= 0:
            if spans[parent][0].startswith(prefix):
                return False
            parent = spans[parent][1]
        return True

    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    max_n = 0
    for k, (name, parent, start, end, n) in enumerate(spans):
        ms = (end - start) * 1e3
        self_ms = ms - child_time[k] * 1e3
        layer = name.split(".")[0]
        if layer in ("cli", "spectral"):
            add(f"{layer}.self_ms", self_ms)
        if name == "contrasts.rank_of":
            add("contrasts.rank_of.calls", 1)
            add("contrasts.rank_of.ms", ms)
        if name == "spectral.eigensystem_sym":
            add("spectral.eig.calls", 1)
            max_n = max(max_n, n)
        if name == "criteria.psi_p":
            add("criteria.psi_p.calls", 1)
            add("criteria.psi_p.ms", ms)
        if layer in ("closed_form", "symmetry", "forests") and outermost(k, layer + "."):
            add(f"{layer}.ms", ms)
        if name == "optimizer.optimize_phi_p":
            add("optimizer.descent.ms", self_ms)
        if name == "optimizer.e_certificate":
            add("optimizer.e_certificate.ms", ms)
        if name == "kernels.eigh_sym":
            add("kernels.eigh.calls", 1)
            add("kernels.eigh.ms", ms)
            add("kernels.eigh.n3_sum", float(n) ** 3)
            if under_optimizer[k]:
                add("optimizer.eigh_calls", 1)
                if spans[parent][0] == "optimizer.optimize_phi_p":
                    add("optimizer.descent.ms", ms)  # the descent's own eigensolves
        if name == "kernels.grid_scan":
            add("kernels.grid_scan.ms", ms)
            add("kernels.grid_scan.designs", n)
    out = {key: totals.get(key, 0.0) / rounds for key in LAYER_KEYS if key in COUNTED}
    out["spectral.eig.max_n"] = float(max_n)
    return out


# Per-layer metric names with their units; ``optimizer.iterations`` comes
# from the JSON the CLI prints and ``trace.overhead_pct`` from round times.
LAYER_UNITS = {
    "cli.self_ms": "ms/round",
    "contrasts.rank_of.calls": "count/round",
    "contrasts.rank_of.ms": "ms/round",
    "spectral.eig.calls": "count/round",
    "spectral.eig.max_n": "count",
    "spectral.self_ms": "ms/round",
    "criteria.psi_p.calls": "count/round",
    "criteria.psi_p.ms": "ms/round",
    "closed_form.ms": "ms/round",
    "optimizer.iterations": "count/round",
    "optimizer.eigh_calls": "count/round",
    "optimizer.descent.ms": "ms/round",
    "optimizer.e_certificate.ms": "ms/round",
    "kernels.eigh.calls": "count/round",
    "kernels.eigh.ms": "ms/round",
    "kernels.eigh.n3_sum": "count/round",
    "kernels.grid_scan.ms": "ms/round",
    "kernels.grid_scan.designs": "count/round",
    "symmetry.ms": "ms/round",
    "forests.ms": "ms/round",
    "trace.overhead_pct": "%",
}
LAYER_KEYS = list(LAYER_UNITS)
COUNTED = set(LAYER_KEYS) - {"spectral.eig.max_n", "optimizer.iterations", "trace.overhead_pct"}
