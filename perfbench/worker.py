"""One fresh benchmark process: set up, run jobs in a closed loop, check them.

    python3 perfbench/worker.py PLAN.json --mode probe|run|trace --seconds S

Started by run.py from the root of a checkout with PYTHONPATH=src.  The
process reads the plan, then times its set-up: ``import mockchar`` and the
first warm-up job, which is a command line.  The benchmark's own modules
are imported after that clock stops, except ``speed``, which times the
reference work around the set-up and after every timed job (job and
set-up times are reported in reference seconds, see speed.py).
Then it prepares the job inputs and runs the other warm-up jobs; (mode
run) runs whole cycles of the job list, one job at a time, as many as come
closest to S seconds of job time but at least MIN_JOBS jobs; (mode trace) runs one cycle untraced and the same cycle
traced; (mode probe) stops after the set-up.  It prints one JSON object on
its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

import speed

if TYPE_CHECKING:
    from tracer import Tracer

# The p90 needs at least ten samples beyond it.
MIN_JOBS = 100
# No new cycle starts after this many seconds of a run.
HARD_STOP_S = 140.0
# Set-up probes run at even steps through each cycle of a run.
PROBES_PER_CYCLE = 4
# Reference times taken before and after each set-up sample.
SETUP_REFS = 5


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile; refuses when fewer than ten samples lie
    beyond the requested rank."""
    ordered = sorted(samples)
    rank = -(-pct * len(ordered) // 100)  # ceil(pct/100 * n), 1-based
    if len(ordered) - rank < 10:
        raise ValueError(f"p{pct} of {len(ordered)} samples has fewer than ten samples beyond it")
    return ordered[rank - 1]


def summarize(samples: list[float], attempted: int, failed: int,
              setup_samples: list[float], peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of one run, by name, from job and set-up times in
    reference seconds (speed.py)."""
    import statistics

    return {
        "jobs_per_s": len(samples) / sum(samples),
        "job_p50_s": statistics.median(samples),
        "job_p90_s": percentile(samples, 90),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
    }


class Runner:
    """Runs jobs in this process and keeps each distinct answer once."""

    def __init__(self):
        import mockchar
        from mockchar import cli

        self.mockchar, self.cli = mockchar, cli
        self.answers: dict[tuple[str, int, str], int] = {}
        self.tracer: Tracer | None = None
        self.inputs: dict[str, tuple] = {}

    def prepare(self, jobs: list[dict]) -> None:
        """Build the round trips' characters; the timed jobs only use them."""
        import refmath

        mc = self.mockchar
        for job in jobs:
            if job["kind"] == "roundtrip":
                angles = refmath.character_angles(job["p"], job["r"], job["index"])
                table = [mc.ZERO if t is None else mc.UnitValue.root(t.numerator, t.denominator)
                         for t in angles]
                chi = mc.character_from_table(job["p"] ** job["r"], table)
                self.inputs[job["id"]] = (mc.UnitValue.root(*job["xi"]), job["p"], chi)

    def run(self, job: dict) -> tuple[int, str]:
        if self.tracer:
            self.tracer.begin_job(job["id"])
        out = io.StringIO()
        try:
            if job["kind"] == "roundtrip":
                xi, p, chi = self.inputs[job["id"]]
                f = self.mockchar.build_structured(xi, p, chi)
                xi2, chi2 = self.mockchar.decompose_structured(f, p, 3)
                out.write(json.dumps({"xi": str(xi2), "modulus": chi2.modulus,
                                      "table": [str(v) for v in chi2.table]}))
                code = 0
            else:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a job that raises is a failed job, not a failed run
            code, out = -1, io.StringIO(traceback.format_exc())
        text = out.getvalue()
        if self.tracer:
            self.tracer.end_job(text)
        key = (job["id"], code, text)
        self.answers[key] = self.answers.get(key, 0) + 1
        return code, text

    def check(self, jobs: list[dict]) -> tuple[int, list[str]]:
        """Failed job count over every answer kept, with the reasons."""
        import oracle

        by_id = {job["id"]: job for job in jobs}
        failed, reasons = 0, []
        for (job_id, code, text), count in self.answers.items():
            if code == -1:
                reason = f"raised: {text.strip().splitlines()[-1]}"
            else:
                try:
                    reason = oracle.check(by_id[job_id], code, text)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    reason = f"malformed answer: {exc!r}"
            if reason:
                failed += count
                reasons.append(f"{job_id} {' '.join(by_id[job_id].get('argv', [job_id]))}: {reason}")
        return failed, reasons

    def run_all(self, jobs: list[dict]) -> float:
        """Run the jobs once, in order; the time they took in reference
        seconds.  The tracer wraps only the program, so the reference work
        runs untraced."""
        times, refs = [], []
        for job in jobs:
            start = perf_counter()
            self.run(job)
            times.append(perf_counter() - start)
            refs.append(speed.reference_time())
        return sum(speed.scaled(times, refs))

    @contextlib.contextmanager
    def traced(self, tracer: Tracer):
        tracer.install()
        self.tracer = tracer
        try:
            yield
        finally:
            tracer.uninstall()
            self.tracer = None


def _probe(plan: Path) -> float:
    """setup_s of a fresh process of this script in probe mode."""
    proc = subprocess.run([sys.executable, __file__, str(plan), "--mode", "probe", "--seconds", "0"],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _scaled_setup(raw_s: float, before: list[float]) -> float:
    """A set-up time in reference seconds, scaled by the reference times
    taken just before and just after it."""
    refs = before + speed.reference_times(SETUP_REFS)
    return raw_s * speed.NOMINAL_S / statistics.median(refs)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan", type=Path)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    first, *warmup = plan["warmup"]
    cycle = plan["cycle"]

    refs_before = [] if args.mode == "trace" else speed.reference_times(SETUP_REFS)
    start = perf_counter()
    runner = Runner()  # imports mockchar
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        runner.prepare(plan["warmup"] + cycle)
        with runner.traced(tracer):
            runner.run_all(plan["warmup"])
        result: dict = {}
    else:
        runner.run(first)
        result = {"setup_s": _scaled_setup(perf_counter() - start, refs_before)}
        if args.mode == "probe":
            print(json.dumps(result))
            return 0
        runner.prepare(warmup + cycle)
        runner.run_all(warmup)

    if args.mode == "run":
        # whole cycles only, so every run does the same mix of jobs: as
        # many as come closest to the requested seconds of job wall time,
        # and enough for MIN_JOBS samples.  After each job this
        # process times the reference work, by which the job times are
        # scaled; at even steps through each cycle it waits for a set-up
        # probe, so the set-up samples spread over the run as the job
        # samples do.  Neither is part of a job's time.
        samples: list[float] = []
        refs: list[float] = []
        setups = [result.pop("setup_s")]
        probe_every = max(1, len(cycle) // PROBES_PER_CYCLE)
        cycles = -(-MIN_JOBS // len(cycle))
        done = 0
        loop_start = perf_counter()
        while done < cycles and perf_counter() - loop_start < HARD_STOP_S:
            for i, job in enumerate(cycle, 1):
                t0 = perf_counter()
                runner.run(job)
                samples.append(perf_counter() - t0)
                refs.append(speed.reference_time())
                if i % probe_every == 0:
                    setups.append(_probe(args.plan))
            done += 1
            if done == 1:
                cycles = max(cycles, round(args.seconds / sum(samples)))
        result.update(wall_jobs_per_s=len(samples) / sum(samples),
                      speed=speed.NOMINAL_S / statistics.median(refs),
                      samples=speed.scaled(samples, refs), setup_samples=setups,
                      peak_rss_mb=_peak_rss_mb())
    elif args.mode == "trace":
        untraced_s = runner.run_all(cycle)
        with runner.traced(tracer):
            traced_s = runner.run_all(cycle)
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = traced_s / untraced_s - 1
        result["layers"] = layers
        with open(args.plan.with_name("spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s.as_dict()) + "\n" for s in tracer.spans)

    failed, reasons = runner.check(plan["warmup"] + cycle)
    result.update(failed=failed, reasons=reasons[:20], attempted=sum(runner.answers.values()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
