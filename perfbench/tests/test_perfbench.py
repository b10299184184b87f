"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import refmath  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import MIN_JOBS, Runner, percentile, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload, tmp_path):
    plan = workloads.make_plan(workload, 7, tmp_path)
    assert plan == workloads.make_plan(workload, 7, tmp_path)
    assert plan["cycle"] != workloads.make_plan(workload, 8, tmp_path)["cycle"]
    assert len({job["id"] for job in plan["cycle"]}) == len(plan["cycle"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_job_is_a_command_line(workload, tmp_path):
    assert "argv" in workloads.make_plan(workload, 1, tmp_path)["warmup"][0]


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_p90_needs_ten_samples_beyond_it():
    assert MIN_JOBS == 100
    assert percentile([float(i) for i in range(100)], 90) == 89.0
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(99)], 90)


def test_every_end_to_end_metric_is_emitted():
    samples = [0.01 * (i % 7 + 1) for i in range(MIN_JOBS)]
    values = summarize(samples, MIN_JOBS, 0, [0.5, 0.4, 0.6], 30.0)
    assert {m["name"] for m in SPEC["end_to_end"]} <= values.keys()
    assert values["failed_frac"] == 0
    assert values["jobs_per_s"] == pytest.approx(MIN_JOBS / sum(samples))


def test_times_are_scaled_by_the_nearby_reference_times():
    nominal = speed.NOMINAL_S
    # the machine runs at full speed, then at half speed
    refs = [nominal] * 20 + [2 * nominal] * 20
    times = [0.1] * 20 + [0.2] * 20
    assert speed.scaled(times, refs) == pytest.approx([0.1] * 40)
    # one interrupted reference call does not move its neighbours
    refs[5] = 10 * nominal
    assert speed.scaled(times, refs)[:8] == pytest.approx([0.1] * 8)
    with pytest.raises(ValueError):
        speed.scaled([0.1], [])


def test_planted_wrong_answer_raises_failed_frac():
    job = {"id": "x", **workloads._classify_kron(3)}
    runner = Runner()
    code, text = runner.run(job)
    assert runner.check([job]) == (0, [])
    wrong = json.loads(text)
    wrong["verdict"] = "dirichlet-character"
    runner.answers[(job["id"], code, json.dumps(wrong))] = 1  # planted
    failed, reasons = runner.check([job])
    assert failed == 1 and "verdict" in reasons[0]
    values = summarize([0.1] * MIN_JOBS, 2, failed, [0.5], 30.0)
    assert values["failed_frac"] == 0.5
    runner.answers[(job["id"], code, "[]")] = 1  # valid JSON, wrong shape
    assert runner.check([job])[0] == 2


def test_oracle_rejects_wrong_numbers():
    job = {"kind": "product-paperfold", "N": 10_000}
    good = oracle._log_product((refmath.paperfolding_sign(n + 1), 2 * n, 2 * n + 1)
                               for n in range(1, 10_001))
    payload = json.dumps({"trace": [{"N": 10_000, "partial": good}]})
    assert oracle.check(job, 0, payload) is None
    assert oracle.check(job, 0, payload.replace(repr(good), repr(good * (1 + 1e-6)))) is not None
    dist = {"kind": "distance", "f": "paperfold", "d": 5, "y": 1000}
    assert oracle.check(dist, 0, json.dumps({"trace": [{"distance_sq": 1.0, "exact": "", "y": 1000.0}]}))


def test_reference_symbol_matches_the_factored_route():
    from mockchar import kronecker_factored

    spf = refmath.smallest_prime_factors(2000)
    for a in list(range(-30, 31)) + [10**29 + 7, -(10**29) - 9]:
        for n in range(-50, 200):
            assert refmath.kronecker_symbol(a, n) == kronecker_factored(a, n)
        assert refmath.symbol_row(a, spf) == [kronecker_factored(a, n) for n in range(2001)]


def _small_jobs(tmp_path) -> list[dict]:
    path = str(tmp_path / "kron_5.txt")
    jobs = [
        workloads._classify_kron(-7),
        workloads._classify_kron(5),
        workloads._classify_kron(workloads._huge_mock_a(random.Random(1)), "--kernel-max-size", "16"),
        workloads._fsm(3),
        workloads._classify_file(path, 5),
        workloads._cli("lseries-identity", ["lseries", "--a", 3, "--identity", "--N", 2000], a=3, N=2000),
        workloads._cli("product-a", ["product", "--a", 7, "--N", 2000], a=7, N=2000),
        workloads._cli("f4check", ["f4check", "--a", 3, "--all-embeddings", "--N", 4096], a=3, N=4096),
        workloads._distance("kron:3", 12, 1000),
        workloads._round_trip(3, 2, 1, (1, 4)),
    ]
    for i, job in enumerate(jobs):
        job["id"] = f"t{i}"
    workloads.write_sequence_files({"cycle": jobs, "warmup": []})
    return jobs


def _traced_counts(jobs: list[dict]) -> dict[str, float]:
    runner = Runner()
    runner.prepare(jobs)
    tracer = Tracer()
    with runner.traced(tracer):
        runner.run_all(jobs)
    assert runner.check(jobs) == (0, [])
    return tracer.layer_metrics()


def test_traced_run_reports_every_layer_and_repeats_its_counts(tmp_path):
    jobs = _small_jobs(tmp_path)
    first = _traced_counts(jobs)
    second = _traced_counts(jobs)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared == first.keys() | {"trace.overhead_frac"}
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "ratio")}
    counts.discard("trace.overhead_frac")
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for name in ("kronecker.calls", "multiplicative.source_evals", "automata.kernel_overflows",
                 "classify.calls", "analysis.series_terms", "multiplicative.table_check_calls"):
        assert first[name] > 0, name


def test_tracer_restores_the_program():
    import mockchar
    from mockchar import analysis, cli, multiplicative

    before = (mockchar.kronecker, analysis.kronecker, cli.main, multiplicative.UnitValue.__mul__)
    tracer = Tracer()
    tracer.install()
    assert analysis.kronecker is not before[1]
    tracer.uninstall()
    assert before == (mockchar.kronecker, analysis.kronecker, cli.main, multiplicative.UnitValue.__mul__)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series-sums",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
