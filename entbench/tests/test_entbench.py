"""Tests of the benchmark itself, at L = 6.  Run from the repository root:

    python3 -m pytest -q entbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _results(*args: str) -> list[dict]:
    p = subprocess.run(
        [sys.executable, "entbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert p.returncode == 0, p.stderr
    return [json.loads(ln) for ln in p.stdout.splitlines() if ln.startswith("{")]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_prints_the_declared_metrics(trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    args = ("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny")
    results = _results(*args)
    assert len(results) == len(SPEC["workloads"]) == len(worker.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} == set(worker.WORKLOADS)
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(name):
    res = worker.measure(name, seed=1, seconds=0, trace=True, tiny=True)
    layers = res["layers"]
    summed = sum(
        v for k, v in layers.items()
        if not k.startswith("trace.") and k.endswith(("_s", ".s"))
    )
    wall = res["traced_wall_s"]
    assert summed <= wall
    assert wall - summed < 0.02 * wall + 1e-3


def test_call_counts_repeat_exactly():
    a = worker.measure("sweep-rqc-l12", seed=2, seconds=0, trace=True, tiny=True)
    b = worker.measure("sweep-rqc-l12", seed=2, seconds=0, trace=True, tiny=True)
    for layer, q in worker.PER_LAYER:
        if q in ("calls", "gates"):
            key = f"{layer}.{q}"
            assert a["layers"][key] == b["layers"][key]
    assert a["layers"]["evolution.run_rqc.gates"] == 37 * worker.SMALL_DEPTH


def test_corrupted_reference_counts_as_failure():
    entdyn = worker.load_entdyn()
    w = worker.WORKLOADS["sweep-floquet-l12"]
    out = worker.drive(entdyn, w, worker.SMALL_L, 5, w.runs, depth=worker.SMALL_DEPTH)
    ref = {k: v.tolist() for k, v in out.items() if k != "T"}
    good = worker.measure("sweep-floquet-l12", 5, 0, tiny=True, reference={"5": ref})
    assert good["failed"] == 0
    ref["s_initial"][3] += 1e-6
    bad = worker.measure("sweep-floquet-l12", 5, 0, tiny=True, reference={"5": ref})
    assert bad["failed"] == bad["attempted"] >= 2
    assert any("s_initial" in p for p in bad["problems"])


def test_invariant_checks():
    w = worker.WORKLOADS["sweep-ff-l12"]
    T = np.array([0.0, 1.0, 2.0])
    ok = {"T": T, "s_initial": np.array([0.0, 0.5, 1.0]), "s_sat": np.array([1.0, 1.2, 1.3])}
    assert worker.check(w, 6, ok, None) == []
    for key, i, value, word in [
        ("s_initial", 0, 1e-6, "T = 0"),
        ("s_sat", 1, 3.1, "outside"),
        ("s_sat", 2, -1e-6, "outside"),
        ("s_initial", 1, np.nan, "non-finite"),
    ]:
        bad = {k: v.copy() for k, v in ok.items()}
        bad[key][i] = value
        problems = worker.check(w, 6, bad, None)
        assert len(problems) == 1 and word in problems[0], problems


def test_stored_reference_covers_the_default_seeds():
    for name, w in worker.WORKLOADS.items():
        ref = worker.load_reference(name)
        assert set(ref) == {str(s) for s in range(worker.REFERENCE_SEEDS)}
        keys = {"hcee", "baee"} if w.kind == "reservoir" else {"s_initial", "s_sat"}
        assert all(set(readings) == keys for readings in ref.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "entbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "entbench/run.py", "--workload", "sweep-ff-l12", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=170,
    )
    assert p.returncode != 0
    assert not any(ln.startswith("{") for ln in p.stdout.splitlines())
