"""Benchmark of mockchar: three workloads of CLI jobs, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is run from ``src/`` as it
stands; nothing is installed.  Each invocation measures one workload in
fresh, single-threaded Python processes:

* ``--trace 0``: one process that sets up, runs whole cycles of the job
  list in a closed loop for about S seconds and checks every answer; at
  even steps through each cycle it waits for a set-up probe (a fresh
  process that only imports mockchar and runs the first warm-up job).
  Prints the end-to-end metrics, with times in reference seconds: wall
  time scaled by the machine's speed, measured next to each job
  (speed.py).  The unscaled throughput and the speed are printed too.
* ``--trace 1``: one process that runs the cycle once untraced and once
  traced, and prints the per-layer metrics.

Metric names and units are read from BENCHMARK.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Inputs and traces are written under .perfbench-work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from worker import summarize

HERE = Path(__file__).resolve().parent

# Every process must end well within the 180 s a run may take.
RUN_BUDGET_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _environment(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MOCKCHAR_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(plan_path: Path, mode: str, seconds: float, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), "--mode", mode,
         "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(root: Path, section: str) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[section]


def main(argv: list[str] | None = None) -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mockchar" / "__init__.py").is_file():
        return _fail(f"no mockchar sources under {root / 'src'}; run from the root of a checkout")
    declared = _declared(root, "per_layer" if args.trace else "end_to_end")

    workdir = Path(".perfbench-work") / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.make_plan(args.workload, args.seed, workdir)
    workloads.write_sequence_files(plan)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = _environment(root)
    deadline = started + RUN_BUDGET_S

    if args.trace:
        report = _spawn(plan_path, "trace", args.seconds, env, deadline)
        values = report["layers"]
        extra = {}
    else:
        report = _spawn(plan_path, "run", args.seconds, env, deadline)
        values = summarize(report["samples"], report["attempted"], report["failed"],
                           report["setup_samples"], report["peak_rss_mb"])
        extra = {"jobs": len(report["samples"]), "cycle_jobs": len(plan["cycle"]),
                 "setup_samples": len(report["setup_samples"]),
                 "failed_frac": values["failed_frac"],
                 "wall_jobs_per_s": report["wall_jobs_per_s"], "speed": report["speed"]}

    for reason in report["reasons"]:
        print(f"perfbench: wrong answer: {reason}", file=sys.stderr)
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            return _fail(f"metric {m['name']} is declared but not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value:.6g}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
