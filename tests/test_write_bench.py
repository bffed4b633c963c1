"""``benchmarks/write_bench.py`` alternates two checkouts and summarizes their runs.

Both checkouts here are stand-ins whose ``entbench/run.py`` prints an
``env`` line and a summary line, as the real one does, and logs its call.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "write_bench.py"

STUB = """
import json, os, sys
from pathlib import Path
side = Path(__file__).resolve().parents[1].name
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(os.environ["BENCH_LOG"], "a") as fh:
    fh.write(f"{side} {seed}\\n")
print("env " + json.dumps({"side": side}))
run_s = (1.0 if side == "parent" else 0.8) + 0.01 * seed
metrics = {"run_s": run_s, "setup_s": 0.5, "peak_rss_mb": 90.0}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
"""


def _checkout(root: Path, name: str) -> Path:
    tree = root / name
    (tree / "entbench").mkdir(parents=True)
    (tree / "entbench" / "run.py").write_text(STUB)
    return tree


def test_pairs_alternate_and_summaries_count_wins(tmp_path):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change")
    (change / "benchmarks").mkdir()
    shutil.copy(SCRIPT, change / "benchmarks" / "write_bench.py")
    shutil.copy(SCRIPT.parents[1] / "BENCHMARK.json", change / "BENCHMARK.json")
    log, out = tmp_path / "calls.log", tmp_path / "BENCH_1.json"
    env = {**os.environ, "BENCH_LOG": str(log)}
    subprocess.run(
        [sys.executable, str(change / "benchmarks" / "write_bench.py"), "--against", str(parent),
         "--workload", "w", "--pairs", "3", "--seed", "5", "--seconds", "1", "--out", str(out)],
        check=True, env=env, capture_output=True,
    )
    assert log.read_text().split("\n")[:-1] == [
        "parent 5", "change 5", "change 6", "parent 6", "parent 7", "change 7"
    ]
    w = json.loads(out.read_text())["workloads"]["w"]
    assert w["env"] == {"parent": {"side": "parent"}, "change": {"side": "change"}}
    assert w["correct"] == {"parent": True, "change": True}
    assert w["failed"] == {"parent": 0, "change": 0}
    assert [p["first"] for p in w["pairs"]] == ["parent", "change", "parent"]
    run_s, setup_s = w["summary"]["run_s"], w["summary"]["setup_s"]
    assert run_s["change_wins"] == 3 and run_s["pairs"] == 3
    assert abs(run_s["parent"]["median"] - 1.06) < 1e-12
    assert run_s["beyond_parent_iqr"]
    assert setup_s["change_wins"] == 0 and not setup_s["beyond_parent_iqr"]  # ties


TIER1_TESTS = """
import time
import pytest

def test_slow():
    time.sleep(0.2)

def test_fast():
    pass

@pytest.mark.skip
def test_skipped():
    pass
"""


def test_tier1_runs_alternate_and_a_crashed_run_counts_as_failed(tmp_path):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change")
    (change / "entbench" / "run.py").write_text("raise SystemExit(3)\n")
    for tree, extra in ((parent, "\ndef test_broken():\n    assert False\n"), (change, "")):
        (tree / "tests").mkdir()
        (tree / "tests" / "test_stub.py").write_text(TIER1_TESTS + extra)
    (change / "benchmarks").mkdir()
    shutil.copy(SCRIPT, change / "benchmarks" / "write_bench.py")
    shutil.copy(SCRIPT.parents[1] / "BENCHMARK.json", change / "BENCHMARK.json")
    out = tmp_path / "BENCH_1.json"
    threads = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "3"}
    env = {**os.environ, **threads, "BENCH_LOG": str(tmp_path / "calls.log")}
    subprocess.run(
        [sys.executable, str(change / "benchmarks" / "write_bench.py"), "--against", str(parent),
         "--workload", "w", "--tier1", "--pairs", "2", "--out", str(out)],
        check=True, env=env, capture_output=True,
    )
    doc = json.loads(out.read_text())
    assert "blas_threads" not in doc["machine"]
    w = doc["workloads"]["w"]
    assert w["correct"] == {"parent": True, "change": False}
    assert w["failed"] == {"parent": 0, "change": 2}
    tier1 = doc["tier1"]
    assert tier1["blas_threads"] == threads
    assert [p["first"] for p in tier1["pairs"]] == ["parent", "change"]
    for pair in tier1["pairs"]:
        counts = {side: [pair[side][k] for k in ("passed", "failed", "skipped", "errors")]
                  for side in ("parent", "change")}
        assert counts == {"parent": [2, 1, 1, 0], "change": [2, 0, 1, 0]}
        assert pair["parent"]["returncode"] == 1 and pair["change"]["returncode"] == 0
        slowest = pair["change"]["slowest"][0]
        assert (slowest["test"], slowest["when"]) == ("tests/test_stub.py::test_slow", "call")
        assert slowest["seconds"] >= 0.2
    assert tier1["summary"]["wall_s"]["pairs"] == 2
