"""One closed-loop client of ``odg.cli.main``, run in a fresh interpreter.

    python perfbench/worker.py PLAN.json                       # set-up probe
    python perfbench/worker.py PLAN.json --seconds S --trace T --out RESULT.json [--probes N]

The probe form imports odg, makes the plan's warm-up calls and exits; the
caller times it from process start. The loop form also repeats the plan's
round of operations, each one in-process call whose stdout is captured,
until S seconds have passed, and always finishes the round it is in. With
``--probes N`` it also starts N set-up probes, one at a time and spread
evenly over the S seconds between two operations, and times each from
spawn to exit; the probes' time counts toward S but not toward any round.
Spreading them over the run, rather than running them in one burst before
it, lets their median see the same phases of a shared machine as the
operations do. With ``--trace 1`` the rounds alternate untraced and traced,
so both kinds see the same inputs; the traced ones feed the per-layer
figures.

Only the standard library and odg are imported here, so that the peak
resident set is odg's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import odg.cli as cli  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    ``getrusage`` is not used: its maximum carries over the address space
    of the parent that spawned this interpreter.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def call(argv: list[str]):
    """Run one CLI call; returns (exit code or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is the operation's outcome
            code = type(exc).__name__
    return code, out.getvalue()


def probe(plan_path: str) -> float:
    """Wall time of one fresh interpreter in the probe form."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), plan_path], check=True)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--probes", type=int, default=0)
    args = parser.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    for argv in plan["warmup"]:
        call(argv)
    if args.seconds is None:
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    ops = plan["ops"]
    outcomes: list[list] = [[] for _ in ops]  # distinct (code, stdout) pairs per operation
    which: list[list[int]] = [[] for _ in ops]  # outcome index of each operation in each round
    rounds = []
    probes: list[float] = []
    spacing = args.seconds / args.probes if args.probes else 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        round_seconds = 0.0
        for k, op in enumerate(ops):
            if len(probes) < args.probes and time.perf_counter() - start >= len(probes) * spacing:
                probes.append(probe(args.plan))
            op_start = time.perf_counter()
            code, text = call(op["argv"])
            round_seconds += time.perf_counter() - op_start
            outcome = [code, text]
            if outcome not in outcomes[k]:
                outcomes[k].append(outcome)
            which[k].append(outcomes[k].index(outcome))
        rounds.append({"traced": traced, "seconds": round_seconds})
        if traced:
            tracer.uninstall()
        enough = time.perf_counter() - start >= args.seconds
        if enough and len(probes) == args.probes and (tracer is None or len(rounds) >= 2):
            break
    result = {
        "rounds": rounds,
        "outcomes": outcomes,
        "which": which,
        "peak_rss_kb": peak_rss_kb(),
        "setup_probes": probes,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
