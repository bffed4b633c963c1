"""Write reference.json: every workload's readings for the default seeds.

The output check compares each full-size run against these readings, so
they pin the physics outputs of the code they were taken from.  It
rewrites the whole file, seeds 0 .. worker.REFERENCE_SEEDS - 1 of every
workload.  Run from the repository root (about fifteen minutes on two
cores):

    python3 entbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import worker_env  # noqa: E402

# BLAS reads its thread count when numpy is first imported, inside worker.
os.environ.update(worker_env())
import worker  # noqa: E402


def main() -> None:
    entdyn = worker.load_entdyn()
    table: dict = {}
    for name, w in worker.WORKLOADS.items():
        table[name] = {}
        for seed in range(worker.REFERENCE_SEEDS):
            out = worker.drive(entdyn, w, w.L, seed, w.runs)
            problems = worker.check(w, w.L, out, None)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            table[name][str(seed)] = {k: v.tolist() for k, v in out.items() if k != "T"}
            print(name, seed, flush=True)
    doc = {"env": worker.environment(), "workloads": table}
    with open(worker.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
