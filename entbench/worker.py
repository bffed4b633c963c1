"""One benchmark workload in its own process.

``run.py`` starts this script once per workload run, so the peak memory it
reports belongs to that workload alone.  The script imports entdyn from the
checkout's ``src``, makes one tiny warm-up call of the workload's driver
(lazy imports and BLAS thread start-up happen there), then makes the same
driver call, with ``master_seed=--seed`` and the workload's ``runs``, again
and again until ``--seconds`` would be exceeded, at least twice.  Each call's
wall time divided by ``runs`` is one sample of seconds per disorder run, and
its output is checked (see ``check``).  The last line of stdout is a JSON
object that ``run.py`` turns into metrics.

With ``--trace 1`` traced and untraced calls alternate, the first one
traced so that its layers' memory rises are seen from a fresh process, and
at least three calls are made, so that a traced call also follows an
untraced one.  Only such later traced calls enter the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer, maxrss_mb

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# reference.json holds seeds 0 .. REFERENCE_SEEDS - 1 of every workload
REFERENCE_SEEDS = 20

MIN_CALLS = 2
# traced, untraced, traced: the overhead leaves out the first call's costs
MIN_TRACED_CALLS = 3
TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """A driver call: ``kind`` is a sweep protocol or ``"reservoir"``."""

    kind: str
    L: int
    # disorder runs per driver call; more than one where the cost of a run
    # depends on its disorder draw, so that a seed's sample averages over it
    runs: int = 1
    # readings that must vanish at T = 0 (a product state has no entanglement)
    zero_at_t0: tuple[str, ...] = ("s_initial",)
    # agreement with the stored reference; readings not named here use TOL
    ref_tol: dict = field(default_factory=dict)


WORKLOADS = {
    "sweep-ff-l12": Workload("free_fermion", 12),
    # The Schur iterations, and so the time, vary with the disorder draw.
    # s_sat is read after 3e11 periods, where one ulp in an eigenphase
    # already moves the entropy by ~3.5e-5 bits.
    "sweep-floquet-l12": Workload("floquet_mbl", 12, runs=3, ref_tol={"s_sat": 1e-4}),
    "sweep-rqc-l12": Workload("rqc", 12),
    "reservoir-l14": Workload("reservoir", 14, zero_at_t0=("hcee", "baee")),
}

# Every per-layer metric is <layer>.<quantity>, per disorder run of the
# traced calls; rss_rise_mb is the largest rise of any one call.
PER_LAYER = (
    ("evolution.propagate", "s"),
    ("evolution.propagate", "calls"),
    ("entanglement.hcee", "s"),
    ("entanglement.hcee", "calls"),
    ("evolution.run_rqc", "self_s"),
    ("evolution.run_rqc", "calls"),
    ("evolution.run_rqc", "gates"),
    ("evolution.build_floquet", "self_s"),
    ("evolution.build_floquet", "calls"),
    ("evolution.build_floquet", "rss_rise_mb"),
    ("evolution.spectral_decompose", "s"),
    ("evolution.spectral_decompose", "calls"),
    ("evolution.spectral_decompose", "rss_rise_mb"),
    ("entanglement.baee", "s"),
    ("entanglement.baee", "calls"),
    ("evolution.floquet_power", "s"),
    ("evolution.floquet_power", "calls"),
    ("basis.enumerate_sector", "s"),
    ("operators.build", "s"),
    ("operators.build", "calls"),
    ("experiments", "self_s"),
)
UNITS = {"s": "s", "self_s": "s", "calls": "count", "gates": "count", "rss_rise_mb": "MB"}

# the warm-up call, and the size every workload runs at with --tiny
SMALL_L = 6
SMALL_DEPTH = 100
WARMUP_T = (1.0,)
RQC_ANGLES = {"alpha": 2.2, "beta": 0.8}
RESERVOIR_T_STRIDE = 4


def load_entdyn():
    """Import entdyn from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import entdyn

    if not Path(entdyn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"entdyn imported from {entdyn.__file__}, not from {src}")
    return entdyn


def drive(entdyn, w: Workload, L: int, seed: int, runs: int, T_list=None, depth=None) -> dict:
    """One call of the workload's driver; its run-averaged readings by name."""
    ex = entdyn.experiments
    if w.kind == "reservoir":
        if T_list is None:
            T_list = ex.DEFAULT_T_LIST[::RESERVOIR_T_STRIDE]
        c = ex.reservoir_curve(L, T_list=T_list, runs=runs, master_seed=seed)
        return {"T": c.T, "hcee": c.hcee, "baee": c.baee}
    extra = {}
    if w.kind == "rqc":
        spec = ex.ProtocolSpec(kind="rqc", **RQC_ANGLES)
        # one gate sequence: more samples repeat the same per-gate work
        extra = {"circuit_samples": 1, "depth": depth or ex.RQC_DEPTH}
    else:
        spec = ex.ProtocolSpec(kind=w.kind)
    t = ex.delta_s_sweep(L, spec, T_list=T_list, runs=runs, master_seed=seed, **extra)
    return {"T": t.T, "s_initial": t.s_initial, "s_sat": t.s_sat}


def check(w: Workload, L: int, out: dict, ref: dict | None) -> list[str]:
    """Problems with one call's readings: invariants, then the reference."""
    problems = []
    readings = [k for k in out if k != "T"]
    for k in readings:
        v = np.asarray(out[k])
        if not np.isfinite(v).all():
            problems.append(f"{k}: non-finite value")
        elif v.min() < -TOL or v.max() > L / 2 + TOL:
            problems.append(f"{k}: outside [0, {L / 2}] bits")
    at0 = np.asarray(out["T"]) == 0.0
    for k in w.zero_at_t0:
        if at0.any() and np.abs(np.asarray(out[k])[at0]).max() > TOL:
            problems.append(f"{k}: nonzero at T = 0")
    for k in readings if ref else ():
        want = np.asarray(ref[k], dtype=np.float64)
        got = np.asarray(out[k])
        if want.shape != got.shape:
            problems.append(f"{k}: shape {got.shape}, reference {want.shape}")
            continue
        diff = float(np.abs(got - want).max())
        tol = w.ref_tol.get(k, TOL)
        if not diff <= tol:
            problems.append(f"{k}: differs from reference by {diff:.3g} > {tol:g}")
    return problems


def load_reference(name: str) -> dict:
    """Stored readings of ``name`` at its full size, keyed by seed."""
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(name, {})


def _count(v: float):
    return int(v) if float(v).is_integer() else v


def layer_metrics(tracer: Tracer, runs: int, traced: list[float], untraced: list[float]) -> dict:
    """Layer totals per traced disorder run.

    ``traced`` and ``untraced`` hold seconds per disorder run, one entry per
    driver call of ``runs`` disorder runs.  The first traced call is the
    first full-size call of the process; it enters the layer totals but not
    ``trace.overhead_s``, which would otherwise count its first-touch costs.
    """
    n = len(traced) * runs
    tot = tracer.totals()
    out = {}
    for layer, q in PER_LAYER:
        if q == "gates":
            v = _count(tracer.gates / n)
        elif q == "rss_rise_mb":
            v = tot.get(layer, {}).get(q, 0.0)
        elif q == "calls":
            v = _count(tot.get(layer, {}).get(q, 0) / n)
        else:
            v = tot.get(layer, {}).get(q, 0.0) / n
        out[f"{layer}.{q}"] = v
    out["trace.overhead_s"] = statistics.fmean(traced[1:]) - statistics.fmean(untraced)
    return out


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    tiny: bool = False,
    reference: dict | None = None,
    setup_only: bool = False,
    spans_path: Path | None = None,
) -> dict:
    """Warm up, then time the workload's driver calls for ``seconds``.

    ``reference`` maps seeds to readings taken at the size being run; by
    default reference.json at full size and none with ``tiny``.
    """
    entdyn = load_entdyn()
    w = WORKLOADS[name]
    drive(entdyn, w, SMALL_L, seed, 1, T_list=WARMUP_T, depth=SMALL_DEPTH)
    first_call = time.monotonic()
    if setup_only:
        return {"first_call": first_call}

    L, depth = (SMALL_L, SMALL_DEPTH) if tiny else (w.L, None)
    if reference is None:
        reference = {} if tiny else load_reference(name)
    ref = reference.get(str(seed))
    tracer = Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    calls = failed = 0
    problems: list[str] = []
    min_calls = MIN_TRACED_CALLS if trace else MIN_CALLS
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[True]) <= len(walls[False])
        calls += 1
        t0 = time.perf_counter()
        try:
            with tracer.installed(entdyn) if traced else nullcontext():
                out = drive(entdyn, w, L, seed, w.runs, depth=depth)
        except entdyn.EntdynError as exc:
            failed += w.runs
            problems.append(f"{type(exc).__name__}: {exc}")
        else:
            walls[traced].append((time.perf_counter() - t0) / w.runs)
            bad = check(w, L, out, ref)
            failed += w.runs if bad else 0
            problems += bad
        elapsed = time.perf_counter() - start
        if calls >= min_calls and elapsed * (calls + 1) / calls > seconds:
            break

    res = {
        "first_call": first_call,
        "attempted": calls * w.runs,
        "failed": failed,
        "problems": problems[:20],
        "walls": walls[False],
        "peak_rss_mb": maxrss_mb(),
    }
    if trace and len(walls[True]) >= 2 and walls[False]:
        res["layers"] = layer_metrics(tracer, w.runs, walls[True], walls[False])
        res["traced_wall_s"] = statistics.fmean(walls[True])
        if spans_path is not None:
            tracer.write(spans_path)
    res["env"] = environment()
    return res


def environment() -> dict:
    """Machine and library facts that the timings and outputs depend on."""
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path, default=None)
    a = p.parse_args()
    res = measure(
        a.workload,
        a.seed,
        a.seconds,
        trace=bool(a.trace),
        tiny=a.tiny,
        setup_only=a.setup_only,
        spans_path=a.spans,
    )
    print(json.dumps(res))


if __name__ == "__main__":
    main()
