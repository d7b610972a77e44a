"""Command-line interface.

Every invocation writes exactly one JSON document to stdout; diagnostics go
to stderr. Exit codes: 0 success, 2 parse or usage error, 3 infeasible
design, 4 optimizer did not converge or psi exceeds the float range,
5 invalid permutation, 6 symmetry search too large, 7 oracle too large.

Input formats
-------------
Coefficient files are either CSV (one row per treatment, comma-separated,
no header) or an edge list whose first line is ``v=<n>`` followed by one
1-indexed ``j i`` pair per line for the comparison of treatment j against
treatment i. Design files hold v decimal weights separated by commas or
whitespace. ``--p`` accepts a float in [-inf, 0] or the literal ``neg-inf``,
negative ones also as a separate token (``--p -1e-3``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from ._config import RANK_TOL
from .contrasts import (
    ComparisonGraph,
    ContrastSystem,
    detect_pairwise,
    graph_system,
    parse_contrast_matrix,
    parse_edge_list,
    rank_of,
)
from .closed_form import a_optimal, d_optimal_uniform, e_optimal_bipartite
from .criteria import CriterionValue, _evaluate, psi_p, validate_p
from .forests import verify_d_identity
from .optimizer import OptimizeOptions, grid_oracle, optimize_phi_p
from .spectral import Design, Spectrum
from .symmetry import CYCLIC_SEARCH_LIMIT, Permutation, check_invariance, find_cyclic_invariance, orbit_reduction
from .errors import (
    InfeasibleDesign,
    MalformedInput,
    NonPositiveEigenvalue,
    NotAContrast,
    NotBipartite,
    NotConverged,
    NotInvariant,
    PreconditionViolated,
    RankTooLow,
    TooLarge,
    ZeroRow,
)


class _ExitWith(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _parse_p(text: str) -> float:
    if text.strip().lower() == "neg-inf":
        return -math.inf
    try:
        return validate_p(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(convert, valid, expected: str):
    """An argparse type: ``convert`` the text, then require ``valid`` of it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan  # fails every check below
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{expected}, got {text!r}")
        return value

    return parse


_parse_rank_tol = _checked(float, lambda t: 0.0 < t < 1.0, "rank tolerance must be a number in (0, 1)")
_parse_tol = _checked(float, lambda t: 0.0 < t < math.inf, "tolerance must be a finite number > 0")
_parse_max_iter = _checked(int, lambda n: n >= 1, "iteration budget must be an integer >= 1")
_parse_max_v = _checked(int, lambda n: n >= 1, "search bound must be an integer >= 1")
_parse_grid_step = _checked(float, lambda h: 0.0 < h < math.inf, "grid step must be a finite number > 0")


def _format_p(p: float) -> str:
    return "neg-inf" if p == -math.inf else repr(float(p))


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_system(path: str) -> tuple[ContrastSystem, ComparisonGraph | None]:
    """The file's contrast system, and its comparison graph if it is pairwise."""
    text = _read_text(path)
    if text.lstrip().replace(" ", "").startswith("v="):
        graph = parse_edge_list(text)
        return graph_system(graph), graph
    system = parse_contrast_matrix(text)
    return system, detect_pairwise(system)


def _load_design(path: str, v: int) -> Design:
    tokens = [tok for chunk in _read_text(path).split(",") for tok in chunk.split()]
    try:
        weights = [float(tok) for tok in tokens]
    except ValueError:
        raise MalformedInput(f"design file {path}: non-numeric weight") from None
    if len(weights) != v:
        raise MalformedInput(f"design file {path}: got {len(weights)} weights, system has v={v}")
    return Design(np.array(weights))


def _criterion_doc(value: CriterionValue) -> dict:
    if not math.isfinite(value.psi):  # JSON has no infinity; phi stays finite
        raise _ExitWith(4, f"psi at p={_format_p(value.p)} exceeds the float range (phi = {value.phi!r})")
    return {"p": _format_p(value.p), "psi": value.psi, "phi": value.phi, "rank": value.rank}


def _spectrum_doc(spectrum: Spectrum, rank: int, s: int) -> list:
    """The covariance spectrum: K(w)'s top ``rank`` eigenvalues, zero-padded to length s."""
    return [float(x) for x in spectrum.values[:rank]] + [0.0] * (s - rank)


def _certificate_doc(cert) -> dict:
    return {
        "lhs_max": cert.lhs_max,
        "rhs": cert.rhs,
        "gap": cert.gap,
        "witness": cert.witness_vertex + 1,
    }


def _report(command: str, inputs: dict, **parts) -> dict:
    doc = {
        "command": command,
        "inputs": inputs,
        "design": parts.pop("design", None),
        "criterion": parts.pop("criterion", None),
        "spectrum": parts.pop("spectrum", None),
        "certificate": parts.pop("certificate", None),
        "symmetry": parts.pop("symmetry", None),
        "oracle": parts.pop("oracle", None),
    }
    doc.update(parts)
    return doc


def _cmd_eval(args) -> tuple[dict, int]:
    system, graph = _load_system(args.q)
    design = _load_design(args.w, system.v)
    evaluation = _evaluate(system.gram, design.w, rank_of(system, args.rank_tol), args.p, args.rank_tol)
    extra = {}
    if graph is not None:
        extra["laplacian_spectrum"] = [float(x) for x in evaluation.spectrum.values]
    doc = _report(
        "eval",
        {"q": args.q, "w": args.w, "p": _format_p(args.p), "rank_tol": args.rank_tol},
        design=[float(x) for x in design.w],
        criterion=_criterion_doc(evaluation.criterion),
        spectrum=_spectrum_doc(evaluation.spectrum, evaluation.rank, system.s),
        **extra,
    )
    return doc, 0


def _parse_perm_arg(text: str, v: int) -> Permutation:
    try:
        perm = Permutation.from_one_line(text)
    except ValueError as exc:
        raise _ExitWith(5, f"invalid permutation: {exc}") from None
    if perm.v != v:
        raise _ExitWith(5, f"permutation has {perm.v} entries, system has v={v}")
    return perm


def _closed_form_for(system: ContrastSystem, graph: ComparisonGraph | None, p: float):
    """The closed-form optimum that applies at p, or None; ``graph`` is the system's, if pairwise.

    Each closed form checks its own preconditions: its refusal means that none applies.
    """
    try:
        if p == -1.0:
            return a_optimal(system)
        if p == -math.inf and graph is not None:
            return e_optimal_bipartite(graph)
        if p == 0.0:
            return d_optimal_uniform(system)
    except (NotBipartite, RankTooLow):
        pass
    return None


def _cmd_optimize(args) -> tuple[dict, int]:
    system, graph = _load_system(args.q)
    orbits = None
    if args.perm is not None:
        perm = _parse_perm_arg(args.perm, system.v)
        try:
            orbits = orbit_reduction(system, perm)
        except NotInvariant as exc:
            raise _ExitWith(5, f"permutation rejected: {exc}") from None

    result = _closed_form_for(system, graph, args.p) if args.method in ("closed", "auto") else None
    if result is None and args.method == "closed":
        raise _ExitWith(2, f"no closed form applies for p={_format_p(args.p)} on this system")
    if result is None:
        result = optimize_phi_p(system, args.p, OptimizeOptions(tol=args.tol, max_iter=args.max_iter, orbits=orbits))
    if not result.converged:
        print("warning: optimizer did not converge within its budget", file=sys.stderr)

    doc = _report(
        "optimize",
        {
            "q": args.q,
            "p": _format_p(args.p),
            "method": args.method,
            "tol": args.tol,
            "max_iter": args.max_iter,
            "seed": args.seed,
            "perm": args.perm,
        },
        design=[float(x) for x in result.design.w],
        criterion=_criterion_doc(result.criterion),
        spectrum=_spectrum_doc(result.evaluation.spectrum, result.evaluation.rank, system.s),
        certificate=_certificate_doc(result.certificate) if result.certificate else None,
        optimizer={"method": result.method, "iterations": result.iterations, "converged": result.converged},
    )
    return doc, 0 if result.converged else 4


def _cmd_symmetry(args) -> tuple[dict, int]:
    system, _ = _load_system(args.q)
    perm_doc = None
    invariant = None
    orbit_of = None
    orbit_count = None
    if args.perm is not None:
        perm = _parse_perm_arg(args.perm, system.v)
        perm_doc = [x + 1 for x in perm.mapping]
        invariant = check_invariance(system, perm)
        if invariant:
            reduction = orbit_reduction(system, perm)
            orbit_of = [x + 1 for x in reduction.orbit_of]
            orbit_count = reduction.orbit_count

    cyclic = None
    if system.v <= args.max_v:
        found = find_cyclic_invariance(system, args.max_v)
        if found is not None:
            cyclic = [x + 1 for x in found.mapping]
    elif args.perm is None:
        raise _ExitWith(6, f"v={system.v} exceeds --max-v={args.max_v}; supply --perm to test a permutation")
    elif invariant and perm is not None and perm.is_cyclic:
        cyclic = perm_doc

    uniform_optimal = cyclic is not None
    conclusion = (
        "uniform design is optimal for every orthogonally invariant criterion"
        if uniform_optimal
        else "no cyclic invariance found"
    )
    doc = _report(
        "symmetry",
        {"q": args.q, "max_v": args.max_v, "perm": args.perm},
        symmetry={
            "perm": perm_doc,
            "perm_invariant": invariant,
            "orbit_of": orbit_of,
            "orbit_count": orbit_count,
            "cyclic": cyclic,
            "uniform_optimal": uniform_optimal,
            "conclusion": conclusion,
        },
    )
    return doc, 0


def _cmd_oracle(args) -> tuple[dict, int]:
    system, graph = _load_system(args.q)
    try:
        if args.mode == "kappa":
            design = _load_design(args.w, system.v) if args.w else Design.uniform(system.v)
            try:
                report = verify_d_identity(system, design)
            except PreconditionViolated as exc:
                raise _ExitWith(2, f"kappa mode: {exc}") from None
            oracle = {
                "mode": "kappa",
                "rank": report.rank,
                "psi0": report.psi_det,
                "kappa": report.forest_total,
                "char_coeff": report.char_coefficient,
                "max_rel_dev": report.max_rel_deviation,
                "passed": report.passed,
            }
            doc = _report(
                "oracle",
                {"q": args.q, "mode": args.mode, "w": args.w},
                design=[float(x) for x in design.w],
                oracle=oracle,
            )
            return doc, 0
        if args.p is None:
            raise _ExitWith(2, "grid mode requires --p")
        design = grid_oracle(system, args.p, args.grid_step)
        value = psi_p(system, design, args.p)
        reference = _closed_form_for(system, graph, args.p) or optimize_phi_p(system, args.p)
        oracle = {
            "mode": "grid",
            "step": args.grid_step,
            "psi": value.psi,
            "reference_method": reference.method,
            "reference_design": [float(x) for x in reference.design.w],
            "reference_psi": reference.criterion.psi,
            "max_coord_dev": float(np.abs(design.w - reference.design.w).max()),
        }
        doc = _report(
            "oracle",
            {"q": args.q, "mode": args.mode, "p": _format_p(args.p), "grid_step": args.grid_step},
            design=[float(x) for x in design.w],
            criterion=_criterion_doc(value),
            oracle=oracle,
        )
        return doc, 0
    except TooLarge as exc:
        raise _ExitWith(7, f"oracle bound exceeded: {exc}") from None


def _cmd_export_dot(args) -> tuple[dict, int]:
    system, graph = _load_system(args.q)
    if graph is None:
        raise _ExitWith(2, "DOT export requires a pairwise-comparison system")
    design = _load_design(args.w, system.v) if args.w else None
    lines = ["digraph G {"]
    for i in range(graph.v):
        if design is not None:
            alpha = 1.0 / design.w[i]
            lines.append(f'  {i + 1} [label="{i + 1} | a={alpha:.4f}"];')
        else:
            lines.append(f'  {i + 1} [label="{i + 1}"];')
    for a, b in graph.edges:
        lines.append(f"  {a + 1} -> {b + 1};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
    doc = _report(
        "export-dot",
        {"q": args.q, "w": args.w, "o": args.output},
        design=[float(x) for x in design.w] if design is not None else None,
        dot=args.output,
    )
    return doc, 0


@functools.cache  # parse_args keeps no state between calls, so one tree serves them all
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odg", description="Optimal treatment proportions for contrast systems")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a criterion at a given design")
    ev.add_argument("--q", required=True, help="coefficient CSV or edge-list file")
    ev.add_argument("--w", required=True, help="design weight file")
    ev.add_argument("--p", required=True, type=_parse_p, help="criterion exponent, float or neg-inf")
    ev.add_argument(
        "--rank-tol", type=_parse_rank_tol, default=RANK_TOL, help="relative eigenvalue threshold in (0, 1)"
    )
    ev.set_defaults(handler=_cmd_eval)

    opt = sub.add_parser("optimize", help="find an optimal design")
    opt.add_argument("--q", required=True)
    opt.add_argument("--p", required=True, type=_parse_p)
    opt.add_argument("--method", choices=("closed", "numeric", "auto"), default="auto")
    opt.add_argument(
        "--tol", type=_parse_tol, default=OptimizeOptions.tol, help="relative decrease to stop at, finite and > 0"
    )
    opt.add_argument(
        "--max-iter", type=_parse_max_iter, default=OptimizeOptions.max_iter, help="iteration budget, an integer >= 1"
    )
    opt.add_argument("--seed", type=int, default=0, help="kept for interface stability; has no effect")
    opt.add_argument("--perm", default=None, help="one-line 1-indexed permutation, e.g. '2 1 3'")
    opt.set_defaults(handler=_cmd_optimize)

    sym = sub.add_parser("symmetry", help="invariance and orbit analysis")
    sym.add_argument("--q", required=True)
    sym.add_argument(
        "--max-v",
        type=_parse_max_v,
        default=CYCLIC_SEARCH_LIMIT,
        help="largest v to search exhaustively, an integer >= 1",
    )
    sym.add_argument("--perm", default=None)
    sym.set_defaults(handler=_cmd_symmetry)

    orc = sub.add_parser("oracle", help="brute-force cross-checks")
    orc.add_argument("--q", required=True)
    orc.add_argument("--mode", choices=("kappa", "grid"), required=True)
    orc.add_argument("--w", default=None)
    orc.add_argument("--p", type=_parse_p, default=None)
    orc.add_argument("--grid-step", type=_parse_grid_step, default=0.01, help="lattice step, finite and > 0")
    orc.set_defaults(handler=_cmd_oracle)

    dot = sub.add_parser("export-dot", help="emit the comparison graph as DOT")
    dot.add_argument("--q", required=True)
    dot.add_argument("--w", default=None)
    dot.add_argument("-o", "--output", required=True)
    dot.set_defaults(handler=_cmd_export_dot)

    return parser


def _join_p_values(argv: list[str]) -> list[str]:
    """Write ``--p X`` as ``--p=X`` wherever X is a negative value ``--p`` accepts.

    argparse reads a token such as ``-1e-3`` or ``-inf`` as an option, not
    as the value of the option before it.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] == "--p" and token.startswith("-"):
            try:
                _parse_p(token)
            except argparse.ArgumentTypeError:
                pass
            else:
                joined[-1] = f"--p={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_p_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        doc, code = args.handler(args)
    except _ExitWith as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except (MalformedInput, NotAContrast, ZeroRow, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleDesign, NonPositiveEigenvalue) as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 3
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
