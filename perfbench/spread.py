"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]

Run from the root of a checkout.  Each run measures for the run_seconds of
BENCHMARK.json.  For each end-to-end metric: the median over the seeds,
the first and third quartiles (statistics.quantiles, n=4), and the spread
(Q3 - Q1) / median; the same for the unscaled throughput and the machine's
speed, which run.py prints as text lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
UNSCALED = ("wall_jobs_per_s", "speed")


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    seconds = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = {}
    for seed in seeds_from(args.seeds):
        started = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        wall = perf_counter() - started
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} jobs failed", file=sys.stderr)
        runs[seed] = {k: v["value"] for k, v in result["metrics"].items()}
        for line in proc.stdout.splitlines():
            words = line.split()
            if len(words) == 4 and words[1] in UNSCALED:
                runs[seed][words[1]] = float(words[3])
        print(f"seed {seed} ({wall:.0f} s): " + " ".join(f"{k}={v:.4g}" for k, v in runs[seed].items()),
              flush=True)
    names = next(iter(runs.values())).keys()
    for name in names:
        s = summary([r[name] for r in runs.values()])
        print(f"{name:36s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
              f"spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
