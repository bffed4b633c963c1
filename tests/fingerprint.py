"""Bitwise fingerprint of every driver's output, to compare two source trees.

Usage::

    python tests/fingerprint.py SRC_DIR > fingerprint.txt
    python tests/fingerprint.py SRC_DIR --values OUT.npz > fingerprint.txt
    python tests/fingerprint.py --compare A.npz B.npz
    python tests/fingerprint.py SRC_DIR --cli > cli.txt

``SRC_DIR`` is the ``src`` directory of the tree to fingerprint.  Each line
names one case (driver, protocol, L, seed) and the sha256 of the ``uint64``
views of that driver's output arrays.  Running it on a change's ``src`` and
on its parent's and ``diff``-ing the two outputs shows every driver output
that moved, down to the last bit.  ``--values`` also saves every case's
arrays; ``--compare`` reads two such files and prints, for each case, the
largest absolute difference of its arrays, and ``bit-equal`` where every
bit agrees.  ``--cli`` instead runs a fixed set of command-line runs at
L = 8 in process, in a temporary working directory with the same relative
``--out`` names, and prints the sha256 of every file they write.  BLAS
runs on one thread, because numpy and scipy bundle separate BLAS builds
whose threaded products can differ in the last bit.
pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

T_LIST = (0.0, 0.5, 2.0, 4.5, 10.0, 32.0, 500.0)
RUNS = 2
CIRCUITS = {"circuit_samples": 2, "depth": 200}

CLI_BASE = (
    "L = 8\nruns = 3\nT_list = 0, 0.5, 2, 4.5, 32, 500\ndepth = 300\ncircuit_samples = 2\n"
    "markov.steps = 50000\nmarkov.burn_in = 1000\n"
)
GENERIC = "protocol.kind = rqc\nprotocol.alpha = 2.2\nprotocol.beta = 0.8\n"
SWAP = f"protocol.kind = rqc\nprotocol.alpha = {np.pi!r}\nprotocol.beta = {np.pi!r}\n"
CLI_RUNS = (  # (output directory, command, config lines beyond CLI_BASE)
    ("basis", "basis", ""),
    ("sweep-thermal", "sweep", "protocol.kind = thermal\n"),
    ("sweep-floquet", "sweep", "protocol.kind = floquet_mbl\n"),
    ("sweep-ff", "sweep", "protocol.kind = free_fermion\n"),
    ("sweep-rqc", "sweep", GENERIC),
    ("sweep-swap", "sweep", SWAP),
    ("sweep-thermal-local", "sweep", "protocol.kind = thermal\nprep.local = true\n"),
    ("eigensweep-thermal", "eigensweep", "protocol.kind = thermal\n"),
    ("eigensweep-rqc", "eigensweep", GENERIC),
    ("evolve-thermal", "evolve", "protocol.kind = thermal\n"),
    ("evolve-floquet-baee", "evolve", "protocol.kind = floquet_mbl\nrecord_baee = true\n"),
    ("evolve-mbl-local", "evolve", "protocol.kind = hamiltonian_mbl\nprep.local = true\n"),
    ("rqc-baee", "rqc", GENERIC + "record_baee = true\n"),
    ("reservoir", "reservoir", ""),
    ("markov", "markov", ""),
    ("levelstats", "levelstats", ""),
)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes())
    return h.hexdigest()


def _cases(L: int, seed: int):
    """``(name, arrays)`` for every driver output at one ``L`` and seed.

    A sweep's classification case names its label and diagnostic keys, so a
    changed label shows in the ``diff`` too.
    """
    from entdyn.bipartition_markov import markov_report
    from entdyn.experiments import (
        MBL_W,
        ProtocolSpec,
        classify_dynamics,
        delta_s_sweep,
        derive_rng,
        eigenstate_sweep,
        mean_trajectory,
        pooled_disorder_ratios,
        reservoir_curve,
    )
    from entdyn.spectral_stats import ratio_histogram

    specs = {
        kind: ProtocolSpec(kind=kind)
        for kind in ("thermal", "hamiltonian_mbl", "free_fermion", "floquet_mbl", "anderson")
    }
    specs["rqc"] = ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8)
    specs["swap"] = ProtocolSpec(kind="rqc", alpha=np.pi, beta=np.pi)
    specs["class_c"] = ProtocolSpec(kind="rqc", alpha=np.pi, beta=0.0)
    common = {"runs": RUNS, "master_seed": seed}
    for name, spec in specs.items():
        t = delta_s_sweep(L, spec, T_list=T_LIST, **common, **CIRCUITS)
        yield f"delta_s_sweep {name}", (t.s_initial, t.s_sat, t.stderr_initial, t.stderr_sat)
        label = classify_dynamics(t)
        diag = label.diagnostics
        yield f"classify_dynamics {name} {label.label} {','.join(sorted(diag))}", (
            [diag[k] for k in sorted(diag)],
        )
        e = eigenstate_sweep(L, spec, **common, **CIRCUITS)
        yield f"eigenstate_sweep {name}", (
            e.energy, e.s_initial, e.s_sat, e.stderr_initial, e.stderr_sat
        )
        for record_baee in (False, True):
            tr = mean_trajectory(L, spec, record_baee=record_baee, **common, **CIRCUITS)
            arrays = (tr.times, tr.hcee) + ((tr.baee,) if record_baee else ())
            yield f"mean_trajectory{'+baee' if record_baee else ''} {name}", arrays
    for name in ("thermal", "rqc"):
        local = {"prep_local": True, **common, **CIRCUITS}
        t = delta_s_sweep(L, specs[name], T_list=T_LIST, **local)
        yield f"delta_s_sweep+local {name}", (t.s_initial, t.s_sat, t.stderr_initial, t.stderr_sat)
        tr = mean_trajectory(L, specs[name], **local)
        yield f"mean_trajectory+local {name}", (tr.times, tr.hcee)
    c = reservoir_curve(L, T_list=T_LIST, **common)
    yield "reservoir_curve", (c.hcee, c.baee)
    r = pooled_disorder_ratios(L, MBL_W, realizations=RUNS, master_seed=seed)
    yield "pooled_disorder_ratios", (r.ratios, [r.skipped], ratio_histogram(r).density)
    m = markov_report(L, 20_000, 200, derive_rng(seed, 0, "markov"))
    yield "markov_report", (m["stationary"], [m["slem"], m["tv_distance"]])


def _layout_cases():
    """``(name, arrays)`` of the block layout of every subset, L = 2..10.

    One case per chain length, sector (``sz_total`` 0 and +-1) and subset
    size: the ``subsystem_split`` positions of every subset of that size,
    then each subset's ``subset_entropy`` of one random state.
    """
    from itertools import combinations

    from entdyn.basis import enumerate_sector, subsystem_split
    from entdyn.entanglement import subset_entropy
    from entdyn.state import random_sector_state

    for L in range(2, 11, 2):
        for sz in (0, 1, -1):
            basis = enumerate_sector(L, sz)
            state = random_sector_state(basis, np.random.default_rng(L))
            for nA in range(1, L):
                subsets = list(combinations(range(1, L + 1), nA))
                positions = [subsystem_split(basis, sub).positions for sub in subsets]
                entropies = [subset_entropy(state, sub) for sub in subsets]
                yield f"L={L} sz={sz} nA={nA} layout", (np.concatenate(positions), entropies)


def _all_cases():
    """``(case, arrays)`` for L = 8 and 10 at two seeds, then two larger cases,
    then the block layouts of every subset up to L = 10.

    The larger ones are the multi-run reservoir curve at L = 12, whose
    bipartition entropies run in many chunks, and one 3-state block of
    bipartition entropies at L = 14.
    """
    from entdyn.basis import enumerate_sector
    from entdyn.entanglement import _bipartition_entropies
    from entdyn.experiments import reservoir_curve

    for L in (8, 10):
        for seed in (0, 1):
            for name, arrays in _cases(L, seed):
                yield f"L={L} seed={seed} {name}", arrays
    c = reservoir_curve(12, runs=RUNS)
    yield "L=12 seed=0 reservoir_curve", (c.hcee, c.baee)
    basis = enumerate_sector(14, 0)
    z = np.random.default_rng(14).standard_normal((basis.dim, 6)).view(np.complex128)
    yield "L=14 _bipartition_entropies", (
        _bipartition_entropies(basis, z / np.linalg.norm(z, axis=0)),
    )
    yield from _layout_cases()


def _cli_files():
    """``(path, sha256)`` of every file the runs of ``CLI_RUNS`` write.

    Paths are relative to a fresh working directory, so the ``out`` that
    each ``*.meta.json`` echoes is the same in every tree.
    """
    from entdyn.cli import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for out, command, config in CLI_RUNS:
            with open(f"{out}.cfg", "w", encoding="utf-8") as fh:
                fh.write(CLI_BASE + config)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli([command, "--config", f"{out}.cfg", "--out", out])
            if code != 0:
                sys.exit(f"{command} ({out}) exited {code}")
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    yield f"{out}/{name}", hashlib.sha256(fh.read()).hexdigest()
        os.chdir(home)


def _compare(a_path: str, b_path: str) -> None:
    """Print each case's largest |difference| between two ``--values`` files."""
    a, b = np.load(a_path), np.load(b_path)
    if sorted(a.files) != sorted(b.files):
        sys.exit("the two files hold different cases")
    cases = {}
    for key in a.files:  # "<case>|<array number>"
        cases.setdefault(key.rsplit("|", 1)[0], []).append(key)
    for case, keys in cases.items():
        if any(a[k].shape != b[k].shape for k in keys):
            print(f"{case} shapes differ")
            continue
        diff = max(float(np.abs(a[k] - b[k]).max(initial=0.0)) for k in keys)
        same = all(_digest(a[k]) == _digest(b[k]) for k in keys)
        print(f"{case} max|d| {diff:.3g}{' bit-equal' if same else ''}")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("src", nargs="?", help="src directory of the tree to fingerprint")
    parser.add_argument("--values", metavar="OUT.npz", help="also save every case's arrays")
    parser.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"))
    parser.add_argument("--cli", action="store_true", help="hash the files of CLI runs instead")
    args = parser.parse_args()
    if args.compare:
        _compare(*args.compare)
        return
    if args.src is None:
        parser.error("give SRC_DIR or --compare")
    sys.path.insert(0, os.path.abspath(args.src))
    if args.cli:
        for path, digest in _cli_files():
            print(f"{path} {digest}", flush=True)
        return
    values = {}
    for case, arrays in _all_cases():
        print(f"{case} {_digest(*arrays)}", flush=True)
        values.update({f"{case}|{i}": np.asarray(a) for i, a in enumerate(arrays)})
    if args.values:
        np.savez(args.values, **values)


if __name__ == "__main__":
    main()
