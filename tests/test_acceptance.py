"""End-to-end checks of the quantitative guarantees this library makes.

Each test covers one numbered guarantee, records a pass/fail line that the
terminal summary prints after the run, and only then asserts, so a single
run always reports the verdict of every check.  Desk scale throughout
(L <= 12); the one larger-scale check runs only with ENTDYN_HEAVY=1.
"""

import itertools
import os

import numpy as np
import pytest
from conftest import record_acceptance

from entdyn.basis import enumerate_sector
from entdyn.bipartition_markov import (
    stationary_distribution,
    transition_matrix,
    verify_ergodicity,
)
from entdyn.cli import cli
from entdyn.entanglement import (
    baee,
    haar_sector_mean_exact,
    hcee,
    subset_entropy,
)
from entdyn import experiments
from entdyn.evolution import propagate, run_rqc, spectral_decompose
from entdyn.experiments import (
    CIRCUIT_SAMPLES,
    DEFAULT_JZ,
    DEFAULT_T_LIST,
    RQC_DEPTH,
    THERMAL_W,
    ProtocolSpec,
    SweepTable,
    classify_dynamics,
    delta_s_sweep,
    derive_rng,
    mean_trajectory,
    pooled_disorder_ratios,
    reservoir_curve,
    sample_initial_product,
)
from entdyn.operators import (
    apply_gate,
    build_local_cut,
    build_two_qubit_gate,
    build_xxz,
    sample_fields,
)
from entdyn.state import random_sector_state
from oracles import haar_sector_average, oracle_subset_entropy


def _check(number, ok, detail):
    record_acceptance(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def haar12():
    """Exact sector-mean half-chain entropy at L=12, in bits."""
    return haar_sector_mean_exact(12)


SWAP = ProtocolSpec(kind="rqc", alpha=np.pi, beta=np.pi)


def _swap_rows(L, runs):
    """Per-run ``(initial, saturation)`` rows of the default SWAP sweep (seed 0).

    They come from the drivers' own loop, and each run draws from its own
    streams, so the first n rows are those of any n-run sweep.
    """
    T_arr = np.asarray(DEFAULT_T_LIST)
    spec, basis = experiments._setup(
        L, SWAP, runs, CIRCUIT_SAMPLES, RQC_DEPTH, THERMAL_W, DEFAULT_JZ
    )

    def prepare(run):
        psi0, terms = experiments._preparation(basis, 0, run, THERMAL_W, DEFAULT_JZ)
        return experiments._prepared_block(terms, psi0, T_arr)

    return experiments._each_run(
        basis, spec, runs, 0, CIRCUIT_SAMPLES, RQC_DEPTH, prepare, experiments._sweep_row
    )


def _swap_table(rows):
    return SweepTable._from_runs(rows, T=np.asarray(DEFAULT_T_LIST))


@pytest.fixture(scope="module")
def swap12_rows():
    """The 50 runs of the L = 12 SWAP sweep, computed once for criteria 7 and 10."""
    return _swap_rows(12, 50)


def _prepared_state(basis, run, prep_T=4.5, prep_W=0.5, jz=0.5, master_seed=0):
    psi0 = sample_initial_product(basis, derive_rng(master_seed, run, "psi0"))
    fields = sample_fields(basis.L, prep_W, derive_rng(master_seed, run, "prep"))
    decomp = spectral_decompose(build_xxz(basis, jz, fields))
    return propagate(decomp, psi0, prep_T)


# -- 1: the bond-average walk over bipartitions is exactly uniform ----------

def test_markov_chain_uniformity():
    worst_sym = worst_stoch = worst_flat = 0.0
    ergodic = True
    for L in (4, 6, 8, 10):
        tm = transition_matrix(L)
        worst_sym = max(worst_sym, float(np.abs(tm.P - tm.P.T).max()))
        worst_stoch = max(
            worst_stoch,
            float(np.abs(tm.P.sum(axis=1) - 1.0).max()),
            float(np.abs(tm.P.sum(axis=0) - 1.0).max()),
        )
        pi = stationary_distribution(tm.P)
        worst_flat = max(worst_flat, float(np.abs(pi - 1.0 / tm.n).max()))
        rep = verify_ergodicity(tm)
        ergodic = ergodic and rep.irreducible and rep.aperiodic
    expected4 = np.array(
        [
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 0.0, 2 / 3],
            [0.0, 2 / 3, 1 / 3],
        ]
    )
    hand = float(np.abs(transition_matrix(4).P - expected4).max())
    ok = (
        worst_sym <= 1e-14
        and worst_stoch <= 1e-14
        and worst_flat <= 1e-12
        and ergodic
        and hand <= 1e-14
    )
    _check(
        1,
        ok,
        f"asymmetry {worst_sym:.1e}, stochasticity {worst_stoch:.1e}, "
        f"stationary flatness {worst_flat:.1e}, L=4 matrix {hand:.1e}",
    )


# -- 2: deep SWAP circuits settle at the initial state's BAEE ---------------

def test_swap_circuit_settles_at_initial_baee():
    L, runs, circuits, depth = 10, 20, 20, 2000
    basis = enumerate_sector(L, 0)
    window = range(depth - 99, depth + 1)
    late, b_init = [], []
    for run in range(runs):
        init = _prepared_state(basis, run)
        b_init.append(baee(init))
        for m in range(circuits):
            bonds = derive_rng(0, run, f"circuit:{m}").integers(1, L, size=depth)
            traj = run_rqc(init, np.pi, np.pi, depth, record=window, bonds=bonds)
            late.append(float(traj.hcee.mean()))
    gap = abs(float(np.mean(late)) - float(np.mean(b_init)))
    _check(2, gap < 0.05, f"|late HCEE - BAEE| = {gap:.4f} bits (< 0.05)")


# -- 3: gap-ratio means separate the chaotic and localized chains -----------

def test_gap_ratio_bands():
    r_weak = float(pooled_disorder_ratios(12, 0.5, realizations=100).ratios.mean())
    r_strong = float(pooled_disorder_ratios(12, 5.0, realizations=100).ratios.mean())
    ok = 0.50 <= r_weak <= 0.545 and 0.37 <= r_strong <= 0.41
    _check(
        3,
        ok,
        f"r(W=0.5) = {r_weak:.4f} in [0.50, 0.545], "
        f"r(W=5.0) = {r_strong:.4f} in [0.37, 0.41]",
    )


# -- 4: two-site gate algebra ------------------------------------------------

def test_gate_algebra():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    )
    d_swap = float(
        np.abs(build_two_qubit_gate(np.pi, np.pi).u - np.exp(-1j * np.pi / 4) * swap).max()
    )
    d_form = 0.0
    for alpha in np.linspace(0.0, 2 * np.pi, 10):
        for beta in np.linspace(0.0, 2 * np.pi, 10):
            u = build_two_qubit_gate(alpha, beta).u
            phase = np.exp(1j * beta / 4)
            want = np.array(
                [0.0, phase * np.cos(alpha / 2), -1j * phase * np.sin(alpha / 2), 0.0]
            )
            d_form = max(d_form, float(np.abs(u[:, 1] - want).max()))
    basis = enumerate_sector(8, 0)
    rng = np.random.default_rng(4)
    d_mod = 0.0
    for alpha in (0.0, 2 * np.pi):
        gate = build_two_qubit_gate(alpha, 1.7)
        state = random_sector_state(basis, rng)
        for bond in range(1, 8):
            out = apply_gate(state, bond, gate)
            d_mod = max(
                d_mod,
                float(np.abs(np.abs(out.amplitudes) - np.abs(state.amplitudes)).max()),
            )
    ok = d_swap <= 1e-12 and d_form <= 1e-12 and d_mod <= 1e-12
    _check(
        4,
        ok,
        f"SWAP point {d_swap:.1e}, closed form {d_form:.1e}, "
        f"phase-gate moduli {d_mod:.1e}",
    )


# -- 5: entropy engine -------------------------------------------------------

def test_entropy_engine():
    rng = np.random.default_rng(5)
    d_sym = 0.0
    for L in (6, 8, 10):
        basis = enumerate_sector(L, 0)
        sites = range(1, L + 1)
        if L <= 8:
            subsets = [
                c
                for size in range(1, L)
                for c in itertools.combinations(sites, size)
            ]
        else:
            pool = [
                c for size in range(1, L) for c in itertools.combinations(sites, size)
            ]
            picks = rng.choice(len(pool), size=30, replace=False)
            subsets = [pool[int(i)] for i in picks]
        for _ in range(100):
            state = random_sector_state(basis, rng)
            for sub in subsets:
                comp = tuple(s for s in sites if s not in sub)
                d_sym = max(
                    d_sym, abs(subset_entropy(state, sub) - subset_entropy(state, comp))
                )
    d_oracle = 0.0
    for L in (6, 8):
        basis = enumerate_sector(L, 0)
        all_subsets = [
            c
            for size in range(1, L)
            for c in itertools.combinations(range(1, L + 1), size)
        ]
        for _ in range(3):
            state = random_sector_state(basis, rng)
            for sub in all_subsets:
                d_oracle = max(
                    d_oracle,
                    abs(subset_entropy(state, sub) - oracle_subset_entropy(state, sub)),
                )
    est = haar_sector_average(2, 20_000, derive_rng(0, 0, "haar"))
    exact = haar_sector_mean_exact(2)
    haar_dev = abs(est.mean - exact)
    ok = d_sym <= 1e-10 and d_oracle <= 1e-12 and haar_dev <= 3 * est.stderr
    _check(
        5,
        ok,
        f"complement symmetry {d_sym:.1e}, oracle gap {d_oracle:.1e}, "
        f"L=2 sector mean off by {haar_dev:.2e} (3 stderr = {3 * est.stderr:.2e})",
    )


# -- 6: the inert class ------------------------------------------------------

def test_inert_class():
    drift = 0.0
    for L in (8, 10, 12):
        basis = enumerate_sector(L, 0)
        for run, (alpha, beta) in enumerate(
            [(0.0, 0.9), (2 * np.pi, 2.3), (0.0, 5.0)]
        ):
            start = sample_initial_product(basis, derive_rng(0, run, "psi0"))
            traj = run_rqc(
                start, alpha, beta, 200, rng=derive_rng(0, run, "circuit:0")
            )
            # phase gates on a basis word keep the entropy pinned at zero
            drift = max(drift, float(np.abs(traj.hcee).max()))
    table = delta_s_sweep(
        12, ProtocolSpec(kind="anderson"), T_list=[4.5], runs=50, master_seed=0
    )
    d_anderson = float(table.delta_s[0])
    ok = drift <= 1e-10 and d_anderson < 0.2
    _check(
        6,
        ok,
        f"phase-circuit HCEE drift {drift:.1e}, "
        f"Anderson delta S = {d_anderson:.4f} bits (< 0.2)",
    )


# -- 7: strong disorder and SWAP both rise then fall -------------------------

def test_rise_then_fall_sweeps(swap12_rows):
    mbl = delta_s_sweep(12, ProtocolSpec(kind="hamiltonian_mbl"), runs=50, master_seed=0)
    y = mbl.delta_s
    peak = float(y[1:-1].max())
    m_first = peak - float(y[0])
    m_last = peak - float(y[-1])
    label_mbl = classify_dynamics(mbl).label
    # delta_s_sweep(12, SWAP, runs=50, master_seed=0)
    label_swap = classify_dynamics(_swap_table(swap12_rows)).label
    ok = (
        m_first > 0.1
        and m_last > 0.1
        and label_mbl == "rise_then_fall"
        and label_swap == "rise_then_fall"
    )
    _check(
        7,
        ok,
        f"peak margins {m_first:.3f}/{m_last:.3f} bits, "
        f"labels {label_mbl}/{label_swap}",
    )


# -- 8: weak disorder saturates at the Haar sector mean ----------------------

def test_thermal_sweep_tracks_haar(haar12):
    table = delta_s_sweep(12, ProtocolSpec(kind="thermal"), runs=200, master_seed=0)
    label = classify_dynamics(table).label
    gap = float(np.abs(table.s_sat - haar12).max())
    ok = label == "monotone_decreasing" and gap < 0.15
    _check(8, ok, f"label {label}, max |S_sat - Haar| = {gap:.4f} bits (< 0.15)")


# -- 9: the severed chain builds no entropy across the cut -------------------

def test_severed_chain_half_cut_entropy_is_zero():
    basis = enumerate_sector(12, 0)
    worst = 0.0
    for run in range(10):
        psi0 = sample_initial_product(basis, derive_rng(0, run, "psi0"))
        fields = sample_fields(12, 0.5, derive_rng(0, run, "prep"))
        decomp = spectral_decompose(build_local_cut(basis, 0.5, fields))
        for T in DEFAULT_T_LIST:
            worst = max(worst, hcee(propagate(decomp, psi0, float(T))))
    _check(9, worst < 1e-10, f"max HCEE over 10 disorders x {len(DEFAULT_T_LIST)} T = {worst:.1e}")


# -- 10: the reservoir curve rises to an interior peak and decays ------------

def test_reservoir_curve_shape(swap12_rows):
    # reservoir_curve(12, runs=32, master_seed=0), whose BAEE minus HCEE is
    # the SWAP sweep's delta S
    curve = _swap_table(swap12_rows[:32])
    e = curve.delta_s
    k = int(np.argmax(e))
    ok = e[0] < 1e-10 and 0 < k < e.size - 1 and e[-1] < 0.2 * e[k]
    _check(
        10,
        ok,
        f"excess starts {e[0]:.1e}, peaks {e[k]:.3f} bits at T={curve.T[k]:g}, "
        f"ends {e[-1]:.3f}",
    )


def test_reservoir_curve_is_the_first_swap_rows():
    # criteria 7 and 10 read the shared rows, so the public drivers are
    # checked against them here, bit for bit, at L = 8
    curve = reservoir_curve(8, runs=2, master_seed=0)
    table = _swap_table(_swap_rows(8, 3)[:2])
    for got, want in ((curve.hcee, table.s_initial), (curve.baee, table.s_sat)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.skipif(
    os.environ.get("ENTDYN_HEAVY") != "1",
    reason=(
        "about 4.3 h on one BLAS thread and two CPUs: 72 runs of one "
        "37-state BAEE block of ~215 s plus a ~1 s Chebyshev preparation, "
        "~0.2 GB peak; set ENTDYN_HEAVY=1"
    ),
)
def test_reservoir_curve_heavy_scale():
    curve = reservoir_curve(16, runs=72, master_seed=0)
    k = int(np.argmax(curve.excess))
    assert 2.0 <= curve.T[k] <= 4.5
    assert 1.1 <= curve.hcee[k] <= 1.6


# -- 11: strong-disorder growth is logarithmic and stays sub-Haar ------------

def test_mbl_growth_is_logarithmic(haar12):
    schedule = np.array([0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e12])
    traj = mean_trajectory(
        12,
        ProtocolSpec(kind="hamiltonian_mbl"),
        runs=50,
        master_seed=0,
        schedule=schedule,
    )
    s = dict(zip(traj.times.tolist(), traj.hcee.tolist()))
    decades = [s[10.0], s[1e2], s[1e3], s[1e4]]
    incs = np.diff(decades)
    below = haar12 - s[1e12]
    ok = bool((incs > 0.02).all()) and below > 0.3
    _check(
        11,
        ok,
        f"decade increments {np.round(incs, 3).tolist()} bits, "
        f"final {below:.3f} bits below Haar mean",
    )


# -- 12: command-line runs are reproducible byte for byte --------------------

def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    jobs = {
        "sweep": "L = 6\nruns = 2\nprotocol.kind = thermal\nT_list = 0.0, 4.5\n",
        "evolve": "L = 6\nruns = 2\nprotocol.kind = hamiltonian_mbl\n",
        "rqc": (
            "L = 6\nruns = 2\nprotocol.kind = rqc\n"
            "protocol.alpha = 2.2\nprotocol.beta = 0.8\ndepth = 60\n"
        ),
        "levelstats": "L = 8\nruns = 3\n",
        "markov": "L = 6\nmarkov.steps = 20000\nmarkov.burn_in = 200\n",
    }
    identical = True
    for name, text in jobs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        assert cli([name, "--config", str(cfg), "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli([name, "--config", str(cfg), "--out", str(out)]) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        identical = identical and first == second
    capsys.readouterr()
    _check(12, identical, f"{len(jobs)} commands rerun byte-identically")
