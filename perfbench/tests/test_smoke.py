"""Tests of the benchmark harness itself; no timing gates.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_with_all_checks():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    per_layer = {m["name"] for m in _spec()["per_layer"]}
    for name in workloads.WORKLOADS:
        reported = {k.split("/", 1)[1] for k in result["metrics"] if k.startswith(name + "/")}
        assert reported == per_layer


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_times_share_overlapping_threads():
    # root [0, 10] with two concurrent children [2, 8] and [4, 10] on different threads
    spans = [(1, "job", 0.0, 10.0, 0, 0), (2, "a", 2.0, 8.0, 1, 0), (3, "b", 4.0, 10.0, 1, 0)]
    own = tracing.self_times(spans)
    assert own[1] == 2.0
    assert own[2] == 2.0 + 2.0  # alone on [2, 4], half of [4, 8]
    assert own[3] == 2.0 + 2.0  # half of [4, 8], alone on [8, 10]
    assert sum(own.values()) == 10.0


def test_same_seed_same_jobs(tmp_path):
    a = workloads.Workload("curves", 7, tmp_path).cycle()
    b = workloads.Workload("curves", 7, tmp_path).cycle()
    c = workloads.Workload("curves", 8, tmp_path).cycle()
    assert [j.argv for j in a] == [j.argv for j in b]
    assert [j.argv for j in a] != [j.argv for j in c]
