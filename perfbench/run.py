"""odg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The run writes its inputs under
``perfbench/out/``, drives ``odg.cli.main`` in a closed loop from one client
in a fresh worker process that also times the set-up of fresh interpreters
spread over the run (see worker.py), checks every distinct output apart from odg (see
checks.py) and prints one JSON object as its last line of stdout. With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones (see layers.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import instances
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 24  # fresh interpreters timed in an untraced run, spread over it
DEADLINE_S = 170  # the whole run, set-up probes and checks included
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def judge(plan: dict, result: dict):
    """Check every distinct outcome; returns (attempted, failed, errors, efficiencies)."""
    attempted = failed = 0
    errors, efficiencies = [], []
    for op, outcomes, which in zip(plan["ops"], result["outcomes"], result["which"]):
        verdicts = [checks.check(op, code, text) for code, text in outcomes]
        for verdict in verdicts:
            errors += [f"{' '.join(op['argv'])}: {e}" for e in verdict.errors]
            if verdict.efficiency is not None:
                efficiencies.append(verdict.efficiency)
            if verdict.failure is not None and verdict.failure != op["fault"]:
                print(f"unexpected failure: {' '.join(op['argv'])}: {verdict.failure}", file=sys.stderr)
        attempted += len(which)
        failed += sum(1 for k in which if verdicts[k].failure is not None)
    return attempted, failed, errors, efficiencies


def e2e_metrics(result: dict, efficiencies: list[float]) -> dict:
    plain = [r["seconds"] for r in result["rounds"] if not r["traced"]]
    ops = len(result["outcomes"]) * len(plain)
    return {
        "ops_per_s": {"value": ops / sum(plain), "unit": "1/s"},
        "setup_s": {"value": statistics.median(result["setup_probes"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        "efficiency_min": {"value": min(efficiencies), "unit": "ratio"},
    }


def layer_report(result: dict) -> dict:
    traced = [r["seconds"] for r in result["rounds"] if r["traced"]]
    plain = [r["seconds"] for r in result["rounds"] if not r["traced"]]
    values = layers.layer_metrics(result["spans"], len(traced))
    iterations = 0
    for outcomes in result["outcomes"]:
        code, text = outcomes[0]
        doc = json.loads(text) if code == 0 else {}
        iterations += (doc.get("optimizer") or {}).get("iterations", 0)
    values["optimizer.iterations"] = float(iterations)
    values["trace.overhead_pct"] = (statistics.mean(traced) / statistics.mean(plain) - 1.0) * 100.0
    return {key: {"value": values[key], "unit": layers.LAYER_UNITS[key]} for key in layers.LAYER_KEYS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dense", "descent", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "odg" / "cli.py").is_file():
        print(f"no odg sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    begin = time.monotonic()
    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = instances.build_plan(args.workload, args.seed, workdir, workdir.relative_to(ROOT).as_posix())
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    env = {**os.environ, **THREAD_ENV}

    result_path = workdir / "worker.json"
    remaining = DEADLINE_S - (time.monotonic() - begin)
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(result_path),
         "--probes", str(0 if args.trace else SETUP_PROBES)],
        cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        code = worker.wait(timeout=remaining)
    finally:
        if worker.poll() is None:  # timed out or interrupted: end the worker and its probe
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
    if code != 0:
        print(f"worker exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())
    attempted, failed, errors, efficiencies = judge(plan, result)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = layer_report(result) if args.trace else e2e_metrics(result, efficiencies)
    report = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
