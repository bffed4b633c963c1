"""Bitwise fingerprint of every driver's output, to compare two source trees.

Usage::

    python tests/fingerprint.py SRC_DIR > fingerprint.txt

``SRC_DIR`` is the ``src`` directory of the tree to fingerprint.  Each line
names one case (driver, protocol, L, seed) and the sha256 of the ``uint64``
views of that driver's output arrays.  Running it on a change's ``src`` and
on its parent's and ``diff``-ing the two outputs shows every driver output
that moved, down to the last bit.  BLAS runs on one thread, because numpy
and scipy bundle separate BLAS builds whose threaded products can differ in
the last bit.  pytest does not collect this file.
"""

import hashlib
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if len(sys.argv) != 2:
    sys.exit(__doc__)
sys.path.insert(0, os.path.abspath(sys.argv[1]))

import numpy as np  # noqa: E402

from entdyn.experiments import (  # noqa: E402
    ProtocolSpec,
    delta_s_sweep,
    eigenstate_sweep,
    mean_trajectory,
    reservoir_curve,
)

SPECS = {
    kind: ProtocolSpec(kind=kind)
    for kind in ("thermal", "hamiltonian_mbl", "free_fermion", "floquet_mbl", "anderson")
}
SPECS["rqc"] = ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8)
SPECS["swap"] = ProtocolSpec(kind="rqc", alpha=np.pi, beta=np.pi)
SPECS["class_c"] = ProtocolSpec(kind="rqc", alpha=np.pi, beta=0.0)

T_LIST = (0.0, 0.5, 2.0, 4.5, 10.0, 32.0, 500.0)
RUNS = 2
CIRCUITS = {"circuit_samples": 2, "depth": 200}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes())
    return h.hexdigest()


def _cases(L: int, seed: int):
    """``(name, arrays)`` for every driver output at one ``L`` and seed."""
    common = {"runs": RUNS, "master_seed": seed}
    for name, spec in SPECS.items():
        t = delta_s_sweep(L, spec, T_list=T_LIST, **common, **CIRCUITS)
        yield f"delta_s_sweep {name}", (t.s_initial, t.s_sat, t.stderr_initial, t.stderr_sat)
        e = eigenstate_sweep(L, spec, **common, **CIRCUITS)
        yield f"eigenstate_sweep {name}", (
            e.energy, e.s_initial, e.s_sat, e.stderr_initial, e.stderr_sat
        )
        for record_baee in (False, True):
            tr = mean_trajectory(L, spec, record_baee=record_baee, **common, **CIRCUITS)
            arrays = (tr.times, tr.hcee) + ((tr.baee,) if record_baee else ())
            yield f"mean_trajectory{'+baee' if record_baee else ''} {name}", arrays
    c = reservoir_curve(L, T_list=T_LIST, **common)
    yield "reservoir_curve", (c.hcee, c.baee)


def main() -> None:
    for L in (8, 10):
        for seed in (0, 1):
            for name, arrays in _cases(L, seed):
                print(f"L={L} seed={seed} {name} {_digest(*arrays)}", flush=True)


if __name__ == "__main__":
    main()
