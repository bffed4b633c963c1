"""Paired benchmark runs of this checkout against another, written as a BENCH file.

Run from any directory:

    python3 benchmarks/write_bench.py --against ../parent --workload sweep-ff-l12 --pairs 10
    python3 benchmarks/write_bench.py --against ../parent --tier1 --pairs 1

Each pair runs ``entbench/run.py --workload W --seed S --seconds X --trace 0``
once in the other checkout (``parent``, with its own ``entbench/``) and once
in this one (``change``), on the same seed; the parent goes first in odd
pairs and the change first in even ones.  Pair i uses seed ``--seed + i - 1``.
Every timing comes from ``entbench/run.py``; this script only alternates the
runs and summarizes what their last JSON line and their ``env`` line report.

The file (default: the first free ``BENCH_<n>.json`` in this checkout's
root) holds the machine, each side's worker ``env`` block (with the BLAS
thread variables the workers ran with), every run's
``correct``/``attempted``/``failed`` and metrics, and per metric each side's
median and quartiles, the pairs the change wins (ties count for neither),
and whether the medians differ by more than the parent's interquartile
range.  A run that exits non-zero counts as one failure.  Workloads already
in an existing ``--out`` file are kept, and a workload run again replaces
its entry.

``--tier1`` alternates the tier-1 test command (``TIER1``, with
``--durations=12``) between the two checkouts the same way, and records each
run's wall time (as the metric ``wall_s``), its pass/fail/skip/error counts,
its slowest tests and the BLAS thread variables it inherited.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=12")
OUTCOMES = ("passed", "failed", "skipped", "errors")
DURATION = re.compile(r"([\d.]+)s (setup|call|teardown) +(\S+)$")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``entbench/run.py`` run: its summary line and ``env`` block, or its failure."""
    cmd = [sys.executable, "entbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return {"seed": seed, "correct": False, "failed": 1, "returncode": p.returncode,
                "stderr": p.stderr[-2000:]}
    res = json.loads(lines[-1])
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    return {"seed": seed, **res, "env": env}


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run: its wall time, outcome counts and slowest tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    started = time.perf_counter()
    p = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env, capture_output=True,
                       text=True)
    wall = time.perf_counter() - started
    lines = p.stdout.strip().splitlines() or [""]
    counts = dict.fromkeys(OUTCOMES, 0)
    for n, word in re.findall(r"(\d+) (passed|failed|skipped|error)", lines[-1]):
        counts["errors" if word == "error" else word] = int(n)
    slowest = [m.groups() for m in map(DURATION.match, lines) if m]
    return {
        "returncode": p.returncode,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}},
        **counts,
        "slowest": [{"seconds": float(s), "when": w, "test": t} for s, w, t in slowest],
    }


def alternate(parent: Path, pairs: int, run, label: str, metric: str) -> list:
    """``run(checkout, i)`` on both sides for pairs i = 1..``pairs``, the
    parent first in odd pairs; ``metric`` is shown as each pair ends."""
    out = []
    for i in range(1, pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        runs = {side: run(parent if side == "parent" else ROOT, i) for side in order}
        out.append({"first": order[0], **runs})
        shown = "  ".join(f"{s} {metric} {value(runs[s], metric)}" for s in order)
        print(f"{label} pair {i}/{pairs}: {shown}", file=sys.stderr, flush=True)
    return out


def spread(values: list) -> dict:
    """Median and quartiles (the inclusive method; a single value is its own)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if values[1:] else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def value(run: dict, metric: str):
    """A run's value of ``metric``, None when the run reported none."""
    return run.get("metrics", {}).get(metric, {}).get("value")


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's spread, the change's pair wins and whether it is resolved.

    Only pairs in which both runs report the metric enter.
    """
    out = {}
    for metric, direction in better.items():
        both = [p for p in pairs if all(value(p[s], metric) is not None for s in SIDES)]
        if not both:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        gains = [sign * (value(p["parent"], metric) - value(p["change"], metric)) for p in both]
        par, chg = (spread([value(p[s], metric) for p in both]) for s in SIDES)
        out[metric] = {
            "better": direction,
            "parent": par,
            "change": chg,
            "change_wins": sum(g > 0 for g in gains),
            "pairs": len(both),
            "relative_change": (chg["median"] - par["median"]) / par["median"],
            "beyond_parent_iqr": abs(chg["median"] - par["median"]) > par["q3"] - par["q1"],
        }
    return out


def machine() -> dict:
    """CPUs and memory; each record holds the BLAS thread variables its runs had."""
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"cpus_available": cpus, "memory_mb": round(pages / 2**20)}


def git_commit(checkout: Path):
    """The checkout's commit, or None outside a git repository."""
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else None


def next_bench_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True, help="the parent checkout")
    ap.add_argument("--workload", nargs="+", default=[])
    ap.add_argument("--tier1", action="store_true", help="also pair tier-1 test runs")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--out", type=Path, default=None)
    a = ap.parse_args(argv)
    parent = a.against.resolve()
    if not (parent / "entbench" / "run.py").is_file() or a.pairs < 1:
        ap.error("--against must hold entbench/run.py and --pairs must be at least 1")
    if not (a.workload or a.tier1):
        ap.error("give --workload, --tier1 or both")
    out = a.out or next_bench_path()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.update(
        machine=machine(),
        command="python3 entbench/run.py --workload W --seed S --seconds X --trace 0",
        seconds=a.seconds,
        commits={"parent": git_commit(parent), "change": git_commit(ROOT)},
    )
    workloads = doc.setdefault("workloads", {})
    for w in a.workload:
        pairs = alternate(
            parent, a.pairs, lambda tree, i: run_once(tree, w, a.seed + i - 1, a.seconds), w,
            "run_s",
        )
        pairs = [{"seed": a.seed + i, **pair} for i, pair in enumerate(pairs)]
        env = {s: next((p[s]["env"] for p in pairs if p[s].get("env")), None) for s in SIDES}
        for pr in pairs:
            for s in SIDES:
                pr[s].pop("env", None)
        workloads[w] = {
            "env": env,
            "pairs": pairs,
            "correct": {s: all(p[s].get("correct", False) for p in pairs) for s in SIDES},
            "failed": {s: sum(p[s].get("failed", 0) for p in pairs) for s in SIDES},
            "summary": summarize(pairs, better),
        }
    if a.tier1:
        pairs = alternate(parent, a.pairs, lambda tree, i: run_tier1(tree), "tier-1", "wall_s")
        doc["tier1"] = {
            "command": "PYTHONPATH=src python " + " ".join(TIER1),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "pairs": pairs,
            "summary": summarize(pairs, {"wall_s": "lower"}),
        }
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
