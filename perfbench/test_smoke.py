"""Smoke test of the benchmark harness on tiny inputs.

Not part of the tier-1 suite (pytest's testpaths only name ``tests/``); run it
from the repository root with

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

# checks each workload must have run at least this often
EXPECTED_CHECKS = {
    "builtin_pipeline": {"setup_repeatable": 1, "exit": 2, "rerun_digest": 2,
                         "closure_gate": 2, "library_oracle": 2, "batch_output": 1},
    "long_pipeline": {"setup_repeatable": 1, "exit": 2, "rerun_digest": 2,
                      "closure_gate": 2, "batch_output": 1},
    "batch_eval": {"setup_repeatable": 1, "batch_output": 1},
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_smoke_runs_emit_every_metric_and_run_the_checks():
    digests = {}
    for trace in (0, 1):
        res = run_bench("--workload", "all", "--seed", str(SEED), "--seconds", "0.5",
                        "--trace", str(trace), "--smoke")
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1

        spec = SPEC["per_layer" if trace else "end_to_end"]
        expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in spec}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert math.isfinite(metric["value"]), name
            if not trace:
                assert metric["value"] > 0, name

        for w in WORKLOADS:
            record = json.loads((BENCH / "results" / f"{w}-seed{SEED}-trace{trace}.json")
                                .read_text(encoding="utf-8"))
            for check, times in EXPECTED_CHECKS[w].items():
                assert record["checks"].get(check, 0) >= times, (w, check)
            assert record["environment"]["seed"] == SEED
            digests[w, trace] = record["digests"]

    # outputs neither depend on the working directory nor on tracing
    for w in WORKLOADS:
        assert digests[w, 0] == digests[w, 1], w


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    res = run_bench("--workload", "batch_eval", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
