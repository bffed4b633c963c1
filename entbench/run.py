"""entdyn benchmark: seconds, set-up time and peak memory per disorder run.

Run from the repository root:

    python3 entbench/run.py --workload sweep-ff-l12 --seed 0 --seconds 20 --trace 0
    python3 entbench/run.py --workload all --seed 0 --seconds 20

Each workload runs in a fresh worker process (``worker.py``) that calls one
public entdyn driver in a closed loop with one client: the next call starts
when the previous one returns.  BLAS gets one thread.

``--trace 0`` reports, as the last line of stdout, a JSON object whose
metrics are

* ``run_s``        median over driver calls of wall seconds per disorder
                   run (a call's wall time divided by its ``runs``);
* ``setup_s``      median, over the worker and ``SETUP_PROBES`` extra
                   processes, of the seconds from process start to the first
                   timed call (``import entdyn`` plus a tiny warm-up call);
* ``peak_rss_mb``  peak resident memory of the worker process.

``--trace 1`` instead reports per-layer times, call counts and memory rises
from calls wrapped by ``tracer.py``, and ``trace.overhead_s``, the traced
minus the untraced seconds per run, leaving out the first (traced) call;
the spans go to ``entbench/out/``.
Before the JSON line come the environment and one line per metric, plus
``failed_frac``: the share of disorder runs that raised an entdyn error or
failed the output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The whole invocation must end within 180 s; leave room to report.
DEADLINE_S = 170.0
SETUP_PROBES = 4
# One thread on every machine: the BLAS thread count changes outputs in the
# last digits, which the reference check sees.  On a two-core machine a
# second thread made no workload faster, and when another process shared
# the cores, calls with two threads took up to seven times as long.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A worker process failed; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run ``worker.py args``; return its start time and its JSON result.

    A result without a single successful untraced call has no timing to
    report and counts as a failure of the whole run.
    """
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        p = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            capture_output=True,
            text=True,
            env=worker_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if p.returncode != 0:
        raise BenchError(f"worker exited {p.returncode}:\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if "walls" in res and not res["walls"]:
        raise BenchError("no disorder run completed: " + "; ".join(res["problems"]))
    return started, res


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool, deadline: float):
    """Metrics ``{name: (value, unit)}`` and the worker's raw result."""
    common = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{name}-seed{seed}.json"
        _, res = spawn(common + ["--seconds", str(seconds), "--trace", "1", "--spans", str(spans)], deadline)
        if "layers" not in res:
            raise BenchError("no traced disorder run completed: " + "; ".join(res["problems"]))
        from worker import PER_LAYER, UNITS

        units = {f"{layer}.{q}": UNITS[q] for layer, q in PER_LAYER}
        units["trace.overhead_s"] = "s"
        return {k: (v, units[k]) for k, v in res["layers"].items()}, res

    setups = []
    for _ in range(SETUP_PROBES):
        started, probe = spawn(common + ["--setup-only"], deadline)
        setups.append(probe["first_call"] - started)
    started, res = spawn(common + ["--seconds", str(seconds)], deadline)
    setups.append(res["first_call"] - started)
    metrics = {
        "run_s": (statistics.median(res["walls"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return metrics, res


def report(name: str, seed: int, trace: bool, metrics: dict, res: dict) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("env " + json.dumps(res["env"]))
    for k, (v, unit) in metrics.items():
        print(f"  {k:<40} {v:>12.6g} {unit}")
    print(f"  {'failed_frac':<40} {failed / attempted:>12.6g} ({failed} of {attempted} disorder runs)")
    print("  untraced seconds per run: " + " ".join(f"{w:.4g}" for w in res["walls"]))
    for problem in res["problems"]:
        print(f"  check failed: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="L = 6 sizes, for the benchmark's tests")
    a = p.parse_args(argv)
    if not (ROOT / "src" / "entdyn" / "__init__.py").is_file():
        print(f"entbench: no entdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from worker import WORKLOADS

    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    if not set(names) <= set(WORKLOADS) or a.seed < 0:
        p.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all', --seed nonnegative")
    try:
        for name in names:
            per_workload = deadline if len(names) == 1 else time.monotonic() + DEADLINE_S
            metrics, res = run_workload(name, a.seed, a.seconds, bool(a.trace), a.tiny, per_workload)
            report(name, a.seed, bool(a.trace), metrics, res)
    except BenchError as exc:
        print(f"entbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
