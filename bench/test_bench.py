"""Self-test of the benchmark harness: every workload and every check at toy
size, traced and untraced, plus the refusal to run without the program.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", "ensemble-n3", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
