import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from entdyn.basis import enumerate_sector
from entdyn.entanglement import baee, haar_sector_mean_exact, hcee
from entdyn import evolution, experiments, operators
from entdyn.entanglement import _half_chain_entropies
from entdyn.errors import CapacityError, NumericError, ParameterError
from entdyn.evolution import floquet_power, propagate, run_rqc, spectral_decompose
from entdyn.experiments import (
    DEFAULT_T_LIST,
    FF_WINDOW,
    SAT_PERIODS,
    SAT_TIME,
    ClassLabel,
    ProtocolSpec,
    SweepTable,
    classify_dynamics,
    delta_s_sweep,
    derive_rng,
    eigenstate_sweep,
    mean_trajectory,
    pooled_disorder_ratios,
    reservoir_curve,
    sample_initial_product,
)
from entdyn.operators import (
    DisorderFields,
    _build_chain,
    build_ising_z,
    build_xxz,
    sample_fields,
)
from entdyn.evolution import (
    SpectralDecomposition,
    _chebyshev_block,
    build_floquet,
)
from entdyn.state import SectorState, random_sector_state

from oracles import run_one_thread

BLOCK_T = (0.0, 0.5, 2.0, 10.0, 500.0)
BLOCK_SPECS = [
    ProtocolSpec(kind=k)
    for k in ("thermal", "hamiltonian_mbl", "free_fermion", "floquet_mbl", "anderson")
] + [
    ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8),
    ProtocolSpec(kind="rqc", alpha=np.pi, beta=np.pi),
]


def _per_state_saturation(basis, spec, seed, run, circuit_samples, depth):
    """Saturation of one state at a time through the public per-state API."""
    spec = spec.normalized()
    kind = spec.kind
    fields = sample_fields(basis.L, spec.W, derive_rng(seed, run, f"quench:{kind}"))
    if kind == "floquet_mbl":
        H0 = build_ising_z(basis, fields)
        F = build_floquet(H0, build_xxz(basis, 0.0, DisorderFields.zeros(basis.L)))
        return lambda st: hcee(floquet_power(F, st, SAT_PERIODS))
    if kind == "rqc" and spec.is_swap:
        return baee
    if kind == "rqc":
        seqs = [
            derive_rng(seed, run, f"circuit:{m}").integers(1, basis.L, size=depth)
            for m in range(circuit_samples)
        ]
        window = range(depth - 99, depth + 1)
        return lambda st: np.mean([
            run_rqc(st, spec.alpha, spec.beta, depth, bonds=b, record=window).hcee.mean()
            for b in seqs
        ])
    d = spectral_decompose(build_xxz(basis, spec.jz, fields))
    if kind == "free_fermion":
        return lambda st: np.mean([hcee(propagate(d, st, t)) for t in FF_WINDOW])
    return lambda st: hcee(propagate(d, st, SAT_TIME))


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(0, 3, "psi0").integers(0, 2**31, size=4)
    b = derive_rng(0, 3, "psi0").integers(0, 2**31, size=4)
    c = derive_rng(0, 3, "prep").integers(0, 2**31, size=4)
    d = derive_rng(0, 4, "psi0").integers(0, 2**31, size=4)
    e = derive_rng(1, 3, "psi0").integers(0, 2**31, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_fractional_seeds_and_realization_counts_are_refused():
    # the fractional ones raised a bare TypeError, from range or SeedSequence
    calls = [
        ("realizations", lambda: pooled_disorder_ratios(6, 5.0, realizations=2.5)),
        ("realizations", lambda: pooled_disorder_ratios(6, 5.0, realizations="3")),
        ("master_seed", lambda: pooled_disorder_ratios(6, 5.0, master_seed=1.5)),
        ("run", lambda: derive_rng(0, 1.0, "psi0")),
        ("master_seed", lambda: derive_rng(-1, 0, "psi0")),
    ]
    for name, call in calls:
        with pytest.raises(ParameterError, match=name):
            call()
    # numpy integers are whole numbers, and draw the same stream
    a = derive_rng(np.int64(3), np.int32(2), "psi0").integers(0, 2**31, size=4)
    assert np.array_equal(a, derive_rng(3, 2, "psi0").integers(0, 2**31, size=4))


def test_protocol_defaults():
    assert ProtocolSpec(kind="thermal").normalized().W == 0.5
    assert ProtocolSpec(kind="thermal").normalized().jz == 0.5
    mbl = ProtocolSpec(kind="hamiltonian_mbl").normalized()
    assert mbl.W == 5.0 and mbl.jz == 0.5
    ff = ProtocolSpec(kind="free_fermion").normalized()
    assert ff.W == 0.0 and ff.jz == 0.0
    anderson = ProtocolSpec(kind="anderson").normalized()
    assert anderson.W == 5.0 and anderson.jz == 0.0
    flo = ProtocolSpec(kind="floquet_mbl").normalized()
    assert flo.W == 5.0 and flo.T0 == 1.0 and flo.T1 == 0.4


def test_protocol_validation():
    with pytest.raises(ParameterError):
        ProtocolSpec(kind="rqc").normalized()  # angles required
    with pytest.raises(ParameterError):
        ProtocolSpec(kind="bogus").normalized()
    swap = ProtocolSpec(kind="rqc", alpha=np.pi, beta=np.pi).normalized()
    assert swap.is_swap
    assert not ProtocolSpec(kind="rqc", alpha=1.0, beta=1.0).normalized().is_swap
    for field_name in ("W", "jz", "T0", "T1"):
        for value in (np.nan, np.inf):
            spec = ProtocolSpec(kind="floquet_mbl", **{field_name: value})
            with pytest.raises(ParameterError, match=field_name):
                spec.normalized()


def test_sample_initial_product_is_basis_state(basis8):
    st = sample_initial_product(basis8, derive_rng(0, 0, "psi0"))
    mags = np.abs(st.amplitudes)
    assert np.sum(mags > 1e-12) == 1
    assert abs(mags.max() - 1.0) < 1e-12


def test_prepare_thermalized_entangles(basis8):
    psi0, terms = experiments._preparation(basis8, 0, 1, 0.5, 0.5)
    expected = sample_initial_product(basis8, derive_rng(0, 1, "psi0"))
    assert np.array_equal(psi0.amplitudes, expected.amplitudes)
    fields = sample_fields(8, 0.5, derive_rng(0, 1, "prep"))
    assert np.array_equal(
        _build_chain(basis8, terms).elements, build_xxz(basis8, 0.5, fields).elements
    )
    block = experiments._prepared_block(terms, psi0, [0.0, 4.5])
    assert np.max(np.abs(block[:, 0] - psi0.amplitudes)) < 1e-12
    assert hcee(SectorState(basis8, block[:, 1])) > 0.3


def test_prepare_locally_entangled_keeps_half_cut_clean(basis8):
    psi0, terms = experiments._preparation(basis8, 0, 2, 0.5, 0.5, prep_local=True)
    block = experiments._prepared_block(terms, psi0, [1.0, 4.5, 32.0])
    for col in block.T:
        assert hcee(SectorState(basis8, col)) < 1e-12
    assert baee(SectorState(basis8, block[:, 1])) > 0.1


def test_import_leaves_the_chebyshev_modules_out():
    # scipy.sparse and scipy.special would add to every process's start-up;
    # only a Chebyshev block imports scipy.sparse, and nothing needs special
    code = (
        "import sys, entdyn; "
        "print(sorted(m for m in ('scipy.sparse', 'scipy.special') if m in sys.modules))"
    )
    env = dict(os.environ)
    src = str(Path(experiments.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    p = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "[]"


def _prep_route(L, T_list, monkeypatch):
    """The routes ``_prepared_block`` takes for run 0's chain."""
    basis = enumerate_sector(L, 0)
    psi0, terms = experiments._preparation(basis, 0, 0, 0.5, 0.5)
    taken = []
    for name, route in (("_chebyshev_block", "chebyshev"), ("_decompose_owned", "dense")):
        real = getattr(evolution, name)
        spy = lambda *args, real=real, route=route: taken.append(route) or real(*args)
        monkeypatch.setattr(experiments, name, spy)
    experiments._prepared_block(terms, psi0, np.asarray(T_list))
    return taken


def test_route_rule_keeps_the_warm_up_dense_and_sends_l14_to_chebyshev(monkeypatch):
    # the benchmark's warm-up call (L = 6, one prep time T = 1)
    assert _prep_route(6, (1.0,), monkeypatch) == ["dense"]
    assert _prep_route(14, DEFAULT_T_LIST, monkeypatch) == ["chebyshev"]
    # a prep time far beyond the reference list goes back to dense
    assert _prep_route(12, (0.0, 1e5), monkeypatch) == ["dense"]
    # unless a decomposition would not fit
    budget = operators._dense_peak(20, "decomposition") - 1
    monkeypatch.setattr(operators, "_memory_budget", lambda: budget)
    assert _prep_route(4, (1.0,), monkeypatch) == ["dense"]
    assert _prep_route(6, (1.0,), monkeypatch) == ["chebyshev"]


def _circuit_readings_l8(T_list):
    """Every reading of a generic-circuit sweep and trajectory and of the
    reservoir curve, at L = 8."""
    generic = ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8)
    sweep = delta_s_sweep(8, generic, T_list, runs=2, circuit_samples=2, depth=200)
    traj = mean_trajectory(8, generic, runs=2, schedule=[0, 10, 200], record_baee=True)
    curve = reservoir_curve(8, T_list, runs=2)
    return [sweep.s_initial, sweep.s_sat, traj.hcee, traj.baee, curve.hcee, curve.baee]


def test_circuits_run_by_chebyshev_where_no_decomposition_fits(monkeypatch):
    # with 500 kB an L = 8 decomposition (0.69 MB) does not fit: every
    # Hamiltonian and eigenstate driver refuses before its first run, and
    # circuits prepare by Chebyshev with the readings of the dense route
    T_list = (0.0, 4.5, 500.0)
    unconstrained = _circuit_readings_l8(T_list)
    monkeypatch.setattr(operators, "_memory_budget", lambda: 500_000)
    with monkeypatch.context() as m:
        m.setattr(experiments, "_preparation", lambda *args: pytest.fail("a run started"))
        for kind in ("thermal", "hamiltonian_mbl", "anderson", "free_fermion", "floquet_mbl"):
            with pytest.raises(CapacityError):
                delta_s_sweep(8, ProtocolSpec(kind=kind), T_list, runs=1)
        with pytest.raises(CapacityError):
            eigenstate_sweep(8, ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8), runs=1)
    for got, want in zip(_circuit_readings_l8(T_list), unconstrained):
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("local", [False, True], ids=["xxz", "severed"])
@pytest.mark.parametrize("L", [8, 10, 12])
def test_chebyshev_block_matches_dense_block(L, local, monkeypatch):
    basis = enumerate_sector(L, 0)
    psi0, terms = experiments._preparation(basis, 0, 3, 0.5, 0.5, prep_local=local)
    T_arr = np.asarray(DEFAULT_T_LIST)
    monkeypatch.setattr(experiments, "_chebyshev_wins", lambda *args: False)
    dense = experiments._prepared_block(terms, psi0, T_arr)
    cheb = _chebyshev_block(terms, psi0.amplitudes.real, T_arr)
    assert np.abs(cheb - dense).max() < 1e-12
    assert np.abs(cheb[:, 0] - psi0.amplitudes).max() < 1e-14
    s_dense = _half_chain_entropies(basis, dense)
    s_cheb = _half_chain_entropies(basis, cheb)
    assert np.abs(s_cheb - s_dense).max() < 1e-12
    if local:
        assert np.abs(s_cheb).max() < 1e-12


def test_chebyshev_block_guards_norm_drift(basis8, monkeypatch):
    psi0, terms = experiments._preparation(basis8, 0, 0, 0.5, 0.5)
    # an interval narrower than the spectrum makes the series diverge
    monkeypatch.setattr(evolution, "_CHEB_WIDEN", 0.5)
    with pytest.raises(NumericError):
        _chebyshev_block(terms, psi0.amplitudes.real, [0.0, 4.5])


def test_select_eigenstate(basis8, rng):
    H = build_xxz(basis8, 0.5, sample_fields(8, 5.0, rng))
    d = spectral_decompose(H)
    st = d.eigenstate(1)
    # rank 1 is the ground state
    res = H.elements @ st.amplitudes - d.values[0] * st.amplitudes
    assert np.max(np.abs(res)) < 1e-9
    with pytest.raises(ParameterError):
        d.eigenstate(0)
    with pytest.raises(ParameterError):
        d.eigenstate(basis8.dim + 1)


def _saturation(spec, st, seed, **kw):
    """Saturation of one state under run 0's quench engine."""
    engine = experiments._make_engine(st.basis, spec, seed, 0, **kw)
    return float(engine.saturation(st.amplitudes[:, None])[0])


def test_swap_saturation_is_exact_baee_and_draws_nothing(basis8, rng, monkeypatch):
    st = random_sector_state(basis8, rng)

    def no_draw(*args):
        raise AssertionError("pure-SWAP saturation drew randomness")

    monkeypatch.setattr(experiments, "derive_rng", no_draw)
    sat = _saturation(ProtocolSpec(kind="rqc", alpha=np.pi, beta=np.pi), st, 0)
    assert sat == baee(st)


def test_thermal_saturation_matches_documented_draw(basis8, rng):
    st = random_sector_state(basis8, rng)
    sat = _saturation(ProtocolSpec(kind="thermal"), st, 7)
    fields = sample_fields(8, 0.5, derive_rng(7, 0, "quench:thermal"))
    d = spectral_decompose(build_xxz(basis8, 0.5, fields))
    assert abs(sat - hcee(propagate(d, st, 1e12))) < 1e-12


def test_free_fermion_saturation_is_window_mean(basis8, rng):
    st = random_sector_state(basis8, rng)
    sat = _saturation(ProtocolSpec(kind="free_fermion"), st, 0)
    d = spectral_decompose(build_xxz(basis8, 0.0, DisorderFields.zeros(8)))
    manual = np.mean([hcee(propagate(d, st, t)) for t in FF_WINDOW])
    assert abs(sat - manual) < 1e-12
    assert FF_WINDOW[0] == 201.0 and FF_WINDOW[-1] == 300.0 and FF_WINDOW.size == 100


def test_floquet_saturation_matches_documented_draw(basis8, rng):
    st = random_sector_state(basis8, rng)
    sat = _saturation(ProtocolSpec(kind="floquet_mbl"), st, 9)
    fields = sample_fields(8, 5.0, derive_rng(9, 0, "quench:floquet_mbl"))
    F = build_floquet(
        build_ising_z(basis8, fields),
        build_xxz(basis8, 0.0, DisorderFields.zeros(8)),
        1.0,
        0.4,
    )
    assert abs(sat - hcee(floquet_power(F, st, 300_000_000_000))) < 1e-12


def test_rqc_saturation_is_window_mean_over_circuits(basis8, rng):
    st = random_sector_state(basis8, rng)
    spec = ProtocolSpec(kind="rqc", alpha=1.0, beta=2.0)
    sat = _saturation(spec, st, 4, circuit_samples=2, depth=150)
    means = []
    for m in range(2):
        bonds = derive_rng(4, 0, f"circuit:{m}").integers(1, 8, size=150)
        traj = run_rqc(st, 1.0, 2.0, 150, bonds=bonds, record=range(51, 151))
        means.append(traj.hcee.mean())
    assert abs(sat - np.mean(means)) < 1e-12


def test_delta_s_sweep_deterministic_and_shaped():
    spec = ProtocolSpec(kind="thermal")
    t1 = delta_s_sweep(6, spec, T_list=(0.0, 2.0, 8.0), runs=3, master_seed=5)
    t2 = delta_s_sweep(6, spec, T_list=(0.0, 2.0, 8.0), runs=3, master_seed=5)
    assert np.array_equal(t1.s_sat, t2.s_sat)
    assert np.array_equal(t1.s_initial, t2.s_initial)
    assert t1.T.tolist() == [0.0, 2.0, 8.0]
    assert t1.runs == 3
    assert t1.delta_s.shape == (3,)
    # T=0 initial states are products
    assert t1.s_initial[0] < 1e-12
    assert t1.stderr_initial[0] < 1e-12


def test_delta_s_sweep_single_run_has_zero_stderr():
    spec = ProtocolSpec(kind="thermal")
    t = delta_s_sweep(6, spec, T_list=(1.0,), runs=1, master_seed=2)
    assert t.stderr_initial[0] == 0.0 and t.stderr_sat[0] == 0.0


def test_default_t_list_pins():
    assert len(DEFAULT_T_LIST) == 37
    assert DEFAULT_T_LIST[0] == 0.0
    assert DEFAULT_T_LIST[-1] == 500.0
    assert 4.5 in DEFAULT_T_LIST
    assert all(a < b for a, b in zip(DEFAULT_T_LIST, DEFAULT_T_LIST[1:]))


def _table(T, s0, s1):
    T = np.asarray(T, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    z = np.zeros_like(s0)
    return SweepTable(
        T=T, s_initial=s0, s_sat=s1, stderr_initial=z, stderr_sat=z,
        runs=10, meta={},
    )


def test_classify_inert():
    t = _table([0, 1, 2, 3], [0.0, 0.5, 1.0, 1.5], [0.01, 0.52, 1.02, 1.51])
    lab = classify_dynamics(t)
    assert isinstance(lab, ClassLabel)
    assert lab.label == "inert"
    assert lab.diagnostics["max_abs_delta"] < 0.05


def test_classify_rise_then_fall():
    t = _table([0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [0.5, 2.2, 3.5, 3.6, 4.1])
    # deltas: 0.5, 1.2, 1.5, 0.6, 0.1 -> interior peak
    assert classify_dynamics(t).label == "rise_then_fall"


def test_classify_monotone_decreasing():
    t = _table([0, 1, 2, 3], [0, 1, 2, 3], [3.0, 3.2, 3.5, 3.6])
    # deltas: 3.0, 2.2, 1.5, 0.6
    assert classify_dynamics(t).label == "monotone_decreasing"


def test_classify_monotone_tolerates_small_noise():
    t = _table([0, 1, 2, 3], [0, 1, 2, 3], [3.0, 2.22, 1.55, 0.6])
    # deltas: 3.0, 1.22, -0.45, -2.4 with a small non-monotone wiggle
    t.s_sat[2] += 0.03
    assert classify_dynamics(t).label == "monotone_decreasing"


def test_classify_unclassified():
    # a deep interior dip fits neither shape
    t = _table([0, 1, 2, 3, 4], [0, 0, 0, 0, 0], [2.0, 0.2, 2.0, 0.2, 2.0])
    assert classify_dynamics(t).label == "unclassified"


def test_classify_sorts_by_initial_entropy():
    # rows arrive unordered in s_initial; classification must sort first
    t = _table([0, 2, 1], [0.0, 2.0, 1.0], [1.0, 1.2, 2.4])
    # sorted deltas: 1.0, 1.4, -0.8 -> rise then fall
    assert classify_dynamics(t).label == "rise_then_fall"


def test_mean_trajectory_thermal_shapes():
    spec = ProtocolSpec(kind="thermal")
    traj = mean_trajectory(6, spec, runs=2, master_seed=1,
                           schedule=np.array([0.0, 1.0, 10.0, 1e12]))
    assert traj.times.shape == (4,)
    assert traj.hcee.shape == (4,)
    assert traj.meta["realizations"] == 2
    # the t=0 point is the prepared state, which is already entangled
    assert traj.hcee[0] > 0.1


def test_mean_trajectory_rqc_integer_schedule():
    spec = ProtocolSpec(kind="rqc", alpha=1.0, beta=1.0)
    traj = mean_trajectory(6, spec, runs=2, master_seed=1, circuit_samples=2,
                           depth=40, schedule=np.array([0, 10, 40]))
    assert traj.times.tolist() == [0, 10, 40]
    # every run contributes circuit_samples trajectories
    assert traj.meta["realizations"] == 4


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda sp: "swap" if sp.is_swap else sp.kind)
def test_mean_trajectory_block_matches_per_time_loop(spec):
    L, seed, samples = 6, 2, 2
    schedule = {"floquet_mbl": [0, 1, 7, 300, 10**9], "rqc": [0, 1, 7, 40]}.get(
        spec.kind, [0.0, 0.5, 3.0, 1e4]
    )
    traj = mean_trajectory(L, spec, runs=2, master_seed=seed, schedule=schedule,
                           record_baee=True, circuit_samples=samples)
    basis = enumerate_sector(L, 0)
    h, b = [], []
    for run in range(2):
        psi0 = sample_initial_product(basis, derive_rng(seed, run, "psi0"))
        fields = sample_fields(L, 0.5, derive_rng(seed, run, "prep"))
        init = propagate(spectral_decompose(build_xxz(basis, 0.5, fields)), psi0, 4.5)
        if spec.kind == "rqc":
            # every gate sequence of the run, up to the last scheduled layer
            depth = schedule[-1]
            for m in range(samples):
                bonds = derive_rng(seed, run, f"circuit:{m}").integers(1, L, size=depth)
                ref = run_rqc(init, spec.alpha, spec.beta, depth, bonds=bonds,
                              record=schedule, record_baee=True)
                h.append(ref.hcee)
                b.append(ref.baee)
            continue
        d = experiments._make_engine(basis, spec, seed, run).decomp
        evolve = floquet_power if spec.kind == "floquet_mbl" else propagate
        states = [evolve(d, init, t) for t in schedule]
        h.append([hcee(st) for st in states])
        b.append([baee(st) for st in states])
    assert traj.times.tolist() == [float(t) for t in schedule]
    assert traj.meta["realizations"] == len(h)
    assert np.abs(traj.hcee - np.mean(h, axis=0)).max() < 1e-12
    assert np.abs(traj.baee - np.mean(b, axis=0)).max() < 1e-12


RQC = ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8)


@pytest.mark.parametrize(
    "driver, bad",
    [
        (delta_s_sweep, {"depth": 0}),
        (delta_s_sweep, {"depth": -1}),
        (delta_s_sweep, {"circuit_samples": 0}),
        (delta_s_sweep, {"circuit_samples": 2.5}),
        (eigenstate_sweep, {"depth": 0}),
        (eigenstate_sweep, {"circuit_samples": 2.5}),
        (mean_trajectory, {"circuit_samples": 0}),
        (mean_trajectory, {"circuit_samples": 2.5}),
        (mean_trajectory, {"depth": 2.5}),
        (mean_trajectory, {"depth": -1}),
        (delta_s_sweep, {"depth": 2.5}),
        (eigenstate_sweep, {"depth": -1}),
        (mean_trajectory, {"runs": 0}),
        (eigenstate_sweep, {"runs": 2.5}),
        (delta_s_sweep, {"master_seed": 1.5}),
        (delta_s_sweep, {"master_seed": np.float64(2.0)}),
        (mean_trajectory, {"master_seed": 1.5}),
    ],
    ids=lambda x: getattr(x, "__name__", None) or "-".join(f"{k}={v}" for k, v in x.items()),
)
def test_bad_circuit_parameters_are_refused(driver, bad, monkeypatch):
    # a sweep once returned s_sat = [nan] for depth 0 or no circuits;
    # mean_trajectory ran depth = 2.5 as three layers, and refused
    # circuit_samples = 0 only after run 0's block had been prepared; a
    # fractional master_seed raised a bare TypeError
    def no_work(*args, **kwargs):
        raise AssertionError("a run started before the refusal")

    monkeypatch.setattr(experiments, "_prepared_block", no_work)
    monkeypatch.setattr(experiments, "_decompose_owned", no_work)
    (name, _), = bad.items()
    for spec in (RQC, ProtocolSpec(kind="thermal")):
        with pytest.raises(ParameterError, match=name):
            driver(6, spec, **{"runs": 1, **bad})


def test_runs_free_each_decomposition_before_the_next_starts(monkeypatch):
    # the memory rule _preflight counts on: no dense step starts while an
    # earlier one's eigenvectors are alive; gc is off, so only dropping the
    # last reference frees one
    decompose = experiments._decompose_owned
    held: list = []
    alive_at_start: list = []

    def spy(op):
        alive_at_start.append(sum(ref() is not None for ref in held))
        decomp = decompose(op)
        held.append(weakref.ref(decomp))
        return decomp

    monkeypatch.setattr(experiments, "_decompose_owned", spy)
    thermal = ProtocolSpec(kind="thermal")
    calls = [
        lambda: delta_s_sweep(8, thermal, T_list=[0.5, 500.0], runs=3),
        lambda: eigenstate_sweep(8, thermal, runs=3),
        lambda: mean_trajectory(8, thermal, runs=3),
    ]
    gc.disable()
    try:
        for call in calls:
            held.clear()
            alive_at_start.clear()
            call()
            # a preparation and a quench per run
            assert alive_at_start == [0] * 6
    finally:
        gc.enable()


def test_default_schedule_refuses_a_fractional_depth_or_an_unbounded_end():
    # depth = 2.5 once gave layers [0, 1, 2, 3], depth = nan a schedule
    # ending at -2^63, and t_max = nan 28 NaN times
    for depth in (2.5, np.nan, 0, -3):
        with pytest.raises(ParameterError, match="depth"):
            experiments.default_schedule("rqc", depth)
    for kind in ("thermal", "floquet_mbl"):
        for t_max in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="t_max"):
                experiments.default_schedule(kind, t_max=t_max)


def test_severed_two_site_sweep_stays_a_product():
    # the L = 2 severed chain is diagonal, so no preparation time
    # entangles the two sites
    table = delta_s_sweep(
        2, ProtocolSpec(kind="thermal"), T_list=[0, 1, 4.5, 500], runs=2, prep_local=True
    )
    assert np.abs(table.s_initial).max() <= 1e-15


def test_circuit_trajectory_may_stop_at_layer_zero():
    traj = mean_trajectory(6, RQC, runs=1, schedule=[0])
    flat = mean_trajectory(6, ProtocolSpec(kind="thermal"), runs=1, schedule=[0.0])
    assert traj.times.tolist() == [0.0]
    assert abs(traj.hcee[0] - flat.hcee[0]) < 1e-12 and traj.hcee[0] > 0.1


@pytest.mark.parametrize("prep", [{"prep_W": np.nan}, {"prep_W": np.inf},
                                  {"prep_jz": np.nan}, {"prep_jz": np.inf}],
                         ids=lambda p: "-".join(f"{k}={v}" for k, v in p.items()))
def test_drivers_refuse_a_nonfinite_preparation(prep):
    (name, _), = prep.items()
    thermal = ProtocolSpec(kind="thermal")
    calls = [
        lambda: delta_s_sweep(6, thermal, T_list=(1.0,), runs=1, **prep),
        lambda: eigenstate_sweep(6, thermal, runs=1, **prep),
        lambda: mean_trajectory(6, thermal, runs=1, schedule=[1.0], **prep),
        lambda: reservoir_curve(6, T_list=(1.0,), runs=1, **prep),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            call()


def test_free_fermion_sweep_computes_its_window_factors_once_per_run(monkeypatch):
    calls = []
    phase_factors = experiments._phase_factors

    def counted(decomp, steps):
        calls.append(len(steps))
        return phase_factors(decomp, steps)

    monkeypatch.setattr(experiments, "_phase_factors", counted)
    delta_s_sweep(8, ProtocolSpec(kind="free_fermion"), T_list=BLOCK_T, runs=2)
    # once per run for the whole block, not once per prepared state
    assert calls.count(FF_WINDOW.size) == 2


def test_mean_trajectory_rejects_bad_schedules():
    flo = ProtocolSpec(kind="floquet_mbl")
    circ = ProtocolSpec(kind="rqc", alpha=1.0, beta=1.0)
    bad = [
        (ProtocolSpec(kind="thermal"), []),
        (ProtocolSpec(kind="thermal"), [0.0, -1.0]),
        (flo, [0.5, 2.7]),
        (flo, [0, np.inf]),
        (circ, [0, 10.5]),
        (circ, [-1, 10]),
        (circ, [40, 0, 5]),
        (ProtocolSpec(kind="thermal"), [1.0, 1.0]),
        (ProtocolSpec(kind="thermal"), [0.0, np.inf]),
        (ProtocolSpec(kind="thermal"), [0.0, np.nan]),
    ]
    for spec, schedule in bad:
        with pytest.raises(ParameterError):
            mean_trajectory(6, spec, runs=1, schedule=schedule)
    for prep_T in (-1.0, np.inf):
        with pytest.raises(ParameterError):
            mean_trajectory(6, flo, runs=1, schedule=[0, 2], prep_T=prep_T)
    # whole periods given as floats are fine
    traj = mean_trajectory(6, flo, runs=1, schedule=[0.0, 2.0])
    assert traj.times.tolist() == [0.0, 2.0]


def test_shallow_circuit_records_every_layer():
    circ = ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8)
    traj = mean_trajectory(6, circ, runs=1, depth=8)
    assert traj.times.tolist() == list(range(9))
    assert experiments.default_schedule("rqc", 10).tolist() == list(range(11))
    deep = experiments.default_schedule("rqc", 2000)
    assert deep[0] == 0 and deep[-1] == 2000 and deep.size < 2001
    with pytest.raises(ParameterError):
        experiments.default_schedule("rqc", 0)
    # the other kinds record up to their saturation readings by default
    flo = experiments.default_schedule("floquet_mbl")
    assert flo.dtype == np.int64 and flo[-1] == experiments.SAT_PERIODS
    assert experiments.default_schedule("thermal")[-1] == experiments.SAT_TIME


def test_eigenstate_sweep_ranks_cover_spectrum():
    spec = ProtocolSpec(kind="hamiltonian_mbl")
    table = eigenstate_sweep(6, spec, runs=2, master_seed=0)
    ranks = table.rank
    assert ranks[0] == 1
    assert ranks[-1] == 20  # dim of the L=6 sector
    assert np.all(np.diff(ranks) > 0)
    assert table.s_initial.shape == ranks.shape
    for bad in ([1.5], [0], [21], []):
        with pytest.raises(ParameterError):
            eigenstate_sweep(6, spec, ranks=bad, runs=1)


def test_reservoir_curve_shapes_and_excess():
    curve = reservoir_curve(6, T_list=(0.0, 2.0, 6.0), runs=2, master_seed=3)
    assert curve.T.tolist() == [0.0, 2.0, 6.0]
    assert np.array_equal(curve.excess, curve.baee - curve.hcee)
    assert curve.excess[0] < 1e-12  # product states at T=0
    assert curve.argmax_T in (0.0, 2.0, 6.0)


def test_reservoir_curve_rejects_bad_t_list():
    for bad in ([-1.0, 2.0], [], [0.0, np.inf]):
        with pytest.raises(ParameterError):
            reservoir_curve(6, T_list=bad, runs=1)
        with pytest.raises(ParameterError):
            delta_s_sweep(6, ProtocolSpec(kind="thermal"), T_list=bad, runs=1)


def test_pooled_disorder_ratios_deterministic():
    a = pooled_disorder_ratios(8, 5.0, realizations=3, master_seed=1)
    b = pooled_disorder_ratios(8, 5.0, realizations=3, master_seed=1)
    assert np.array_equal(a.ratios, b.ratios)
    # 70-dim sector: middle third has 23 levels -> 21 ratios per draw
    assert a.count == 3 * 21
    assert 0.0 <= a.mean <= 1.0


def test_haar_sector_average_l12_value():
    # regression pin for the desk-scale Haar mean used by the sweeps
    assert abs(haar_sector_mean_exact(12) - 5.157) < 0.02


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda sp: f"{sp.kind}-{sp.alpha}")
def test_delta_s_sweep_block_matches_per_state_loop(spec):
    L, runs, seed, samples, depth = 8, 2, 3, 2, 200
    table = delta_s_sweep(
        L, spec, T_list=BLOCK_T, runs=runs, master_seed=seed,
        circuit_samples=samples, depth=depth,
    )
    basis = enumerate_sector(L, 0)
    s_i = np.empty((runs, len(BLOCK_T)))
    s_s = np.empty((runs, len(BLOCK_T)))
    for run in range(runs):
        psi0 = sample_initial_product(basis, derive_rng(seed, run, "psi0"))
        fields = sample_fields(L, 0.5, derive_rng(seed, run, "prep"))
        prep = spectral_decompose(build_xxz(basis, 0.5, fields))
        sat = _per_state_saturation(basis, spec, seed, run, samples, depth)
        for j, T in enumerate(BLOCK_T):
            st = propagate(prep, psi0, T)
            s_i[run, j] = hcee(st)
            s_s[run, j] = sat(st)
    assert np.abs(table.s_initial - s_i.mean(axis=0)).max() < 1e-10
    assert np.abs(table.s_sat - s_s.mean(axis=0)).max() < 1e-10


def test_eigenstate_sweep_block_matches_per_state_loop():
    L, runs, seed = 8, 2, 3
    spec = ProtocolSpec(kind="hamiltonian_mbl")
    table = eigenstate_sweep(L, spec, runs=runs, master_seed=seed)
    basis = enumerate_sector(L, 0)
    s_i = np.empty((runs, table.rank.size))
    s_s = np.empty((runs, table.rank.size))
    for run in range(runs):
        fields = sample_fields(L, 0.5, derive_rng(seed, run, "prep"))
        d = spectral_decompose(build_xxz(basis, 0.5, fields))
        sat = _per_state_saturation(basis, spec, seed, run, 1, 1)
        for j, rank in enumerate(table.rank):
            st = d.eigenstate(int(rank))
            s_i[run, j] = hcee(st)
            s_s[run, j] = sat(st)
    assert np.abs(table.s_initial - s_i.mean(axis=0)).max() < 1e-10
    assert np.abs(table.s_sat - s_s.mean(axis=0)).max() < 1e-10


def _scaled(d):
    return SpectralDecomposition(d.kind, d.basis, d.values, d.vectors * (1 + 1e-5))


@pytest.mark.parametrize("kind", ["thermal", "free_fermion", "floquet_mbl"])
def test_block_path_guards_norm_drift(kind, monkeypatch):
    spec = ProtocolSpec(kind=kind)
    basis = enumerate_sector(8, 0)
    engine = experiments._make_engine(basis, spec, 0, 0)
    engine.decomp = _scaled(engine.decomp)
    block = np.eye(basis.dim, 3, dtype=np.complex128)
    with pytest.raises(NumericError):
        engine.saturation(block)
    # the preparation block is guarded the same way
    decompose = experiments._decompose_owned
    monkeypatch.setattr(
        experiments, "_decompose_owned", lambda op: _scaled(decompose(op))
    )
    with pytest.raises(NumericError):
        delta_s_sweep(8, spec, T_list=BLOCK_T, runs=1)


def _serial_readings(engine, block, steps, record_baee=False):
    """Half-chain entropies (and BAEE) of whole columns evolved over all steps at once."""
    from entdyn.entanglement import _bipartition_entropies

    factors = evolution._phase_factors(engine.decomp, steps)
    cols = [evolution._spectral_apply(engine.decomp, block[:, j : j + 1], factors)
            for j in range(block.shape[1])]
    hcee_ = np.array([_half_chain_entropies(engine.basis, c) for c in cols]).T
    if not record_baee:
        return hcee_, None
    return hcee_, np.array([_bipartition_entropies(engine.basis, c).mean(axis=1) for c in cols]).T


def _free_fermion_run(L, seed=3):
    """A free-fermion engine at L and its run's prepared block at ``BLOCK_T``."""
    basis = enumerate_sector(L, 0)
    engine = experiments._make_engine(basis, ProtocolSpec(kind="free_fermion"), seed, 0)
    psi0, terms = experiments._preparation(
        basis, seed, 0, experiments.THERMAL_W, experiments.DEFAULT_JZ
    )
    return engine, experiments._prepared_block(terms, psi0, np.array(BLOCK_T))


def test_overlapped_window_matches_the_serial_route_bitwise():
    code = """
import numpy as np
from entdyn import entanglement
from entdyn.experiments import FF_WINDOW
from test_experiments import _free_fermion_run, _serial_readings
steps = np.linspace(0.5, 40.0, 301)
for L in (10, 12):
    engine, block = _free_fermion_run(L)
    h_ref, _ = _serial_readings(engine, block, FF_WINDOW)
    if L == 10:
        h_traj, b_traj = _serial_readings(engine, block[:, :1], steps, record_baee=True)
    for cpus in (2, 1):
        entanglement._cpus = lambda: cpus
        (h, b), = engine.readings(block, FF_WINDOW)
        print(np.array_equal(h, h_ref), b is None)
        # the window mean sums each column's readings contiguously, as before
        print(np.array_equal(engine.saturation(block), h_ref.mean(axis=0)))
        if L == 10:
            (h, b), = engine.readings(block[:, :1], steps, record_baee=True)
            print(np.array_equal(h, h_traj), np.array_equal(b, b_traj))
"""
    assert run_one_thread(code).split() == ["True"] * 16


def test_worker_numeric_error_propagates_and_leaves_no_thread(monkeypatch):
    import threading

    from entdyn import entanglement

    engine, block = _free_fermion_run(8)
    apply = experiments._spectral_apply
    calls = []

    def nan_in_third_piece(decomp, part, factors):
        out = apply(decomp, part, factors)
        calls.append(None)
        if len(calls) == 3:
            out[:, 0] = np.nan  # past the norm guard, so the worker sees it
        return out

    raised_in = []
    kernel = entanglement._gram_entropies

    def spy(grams):
        try:
            return kernel(grams)
        except NumericError:
            raised_in.append(threading.current_thread() is threading.main_thread())
            raise

    monkeypatch.setattr(experiments, "_spectral_apply", nan_in_third_piece)
    monkeypatch.setattr(entanglement, "_gram_entropies", spy)
    monkeypatch.setattr(entanglement, "_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(NumericError):
        engine.readings(block, FF_WINDOW)
    assert raised_in == [False]
    assert threading.active_count() == threads


def test_overlap_worker_calls_no_traced_name(monkeypatch):
    import threading

    import entdyn
    from entdyn import entanglement

    from test_tracer_hooks import _tracer_layers

    off_main = []
    for mod, attr, _ in _tracer_layers():
        fn = getattr(getattr(entdyn, mod), attr)

        def recorded(*args, _fn=fn, _name=f"{mod}.{attr}", **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(getattr(entdyn, mod), attr, recorded)
    workers = []
    kernel = entanglement._gram_entropies

    def spy(grams):
        workers.append(threading.current_thread() is not threading.main_thread())
        return kernel(grams)

    monkeypatch.setattr(entanglement, "_gram_entropies", spy)
    monkeypatch.setattr(entanglement, "_cpus", lambda: 2)
    engine, block = _free_fermion_run(8)
    engine.readings(block, np.linspace(0.5, 40.0, 13), record_baee=True)
    assert any(workers) and not off_main
