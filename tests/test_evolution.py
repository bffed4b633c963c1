import tracemalloc
from decimal import Decimal, getcontext

import numpy as np
import pytest

from entdyn import _kernels, evolution, operators
from entdyn.basis import enumerate_sector
from entdyn.entanglement import baee, hcee, subset_entropy
from entdyn.entanglement import Bipartition
from entdyn.errors import CapacityError, NumericError, ParameterError
from entdyn.experiments import ProtocolSpec, _make_engine, delta_s_sweep, derive_rng
from entdyn.evolution import (
    build_floquet,
    floquet_power,
    hybrid_schedule,
    propagate,
    run_rqc,
    spectral_decompose,
    spectrum,
)
from entdyn.operators import (
    DisorderFields,
    OperatorMatrix,
    build_ising_z,
    build_xxz,
    sample_fields,
)
from entdyn.state import SectorState, random_sector_state

from oracles import (
    dense_ising_z,
    dense_xxz,
    oracle_floquet_step,
    oracle_propagate,
    run_one_thread,
    sector_submatrix,
)


def _sector_h(L, jz, rng, W=5.0):
    basis = enumerate_sector(L, 0)
    return basis, build_xxz(basis, jz, sample_fields(L, W, rng))


def test_decompose_reconstructs(rng):
    basis, H = _sector_h(6, 0.5, rng)
    d = spectral_decompose(H)
    assert np.all(np.diff(d.values) >= 0)
    assert np.max(np.abs(d.reconstruct() - H.elements)) < 1e-10


def test_decompose_rejects_nonhermitian(basis6):
    M = np.zeros((basis6.dim, basis6.dim), dtype=complex)
    M[0, 1] = 1.0
    with pytest.raises(NumericError):
        spectral_decompose(OperatorMatrix(basis6, M))


def test_diagonal_fast_path(rng):
    basis = enumerate_sector(6, 0)
    H = build_ising_z(basis, sample_fields(6, 5.0, rng))
    d = spectral_decompose(H)
    # eigenvectors of a diagonal operator are basis columns
    assert np.max(np.abs(np.abs(d.vectors).sum(axis=0) - 1.0)) < 1e-14
    assert np.max(np.abs(d.reconstruct() - H.elements)) < 1e-12
    assert np.allclose(np.sort(np.diag(H.elements).real), d.values)


def test_spectrum_matches_decompose(rng):
    basis, H = _sector_h(6, 0.5, rng)
    assert np.allclose(spectrum(H), spectral_decompose(H).values, atol=1e-12)


def test_owned_decomposition_matches_numpy_bitwise():
    code = """
import numpy as np
from entdyn.basis import enumerate_sector
from entdyn.evolution import _decompose_owned
from entdyn.operators import build_xxz, sample_fields
basis = enumerate_sector(10, 0)
for W, jz in [(0.5, 0.5), (5.0, 0.5), (0.0, 0.0)]:  # thermal, MBL, free fermions
    H = build_xxz(basis, jz, sample_fields(10, W, np.random.default_rng(4)))
    vals, vecs = np.linalg.eigh(H.elements)
    d = _decompose_owned(H)
    print(np.array_equal(d.values, vals), np.array_equal(d.vectors, vecs),
          d.vectors.flags.c_contiguous)
"""
    lines = run_one_thread(code).split("\n")[:3]
    assert lines == ["True True True"] * 3


def test_period_map_matches_three_gemm_oracle_bitwise():
    # the row-block map equals the earlier three-GEMM map bit for bit, and
    # build_floquet returns the sorted Schur form of that map
    code = """
import numpy as np, scipy.linalg
from entdyn import evolution
from entdyn.basis import enumerate_sector
from entdyn.operators import DisorderFields, build_ising_z, build_xxz, sample_fields
from oracles import oracle_period_map

maps = []
period_map = evolution._period_map

def keep_a_copy(*args):  # build_floquet overwrites the map with its Schur form
    F = period_map(*args)
    maps.append(F.copy(order="F"))
    return F

evolution._period_map = keep_a_copy
bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
for L in (8, 10):
    basis = enumerate_sector(L, 0)
    Hxy = build_xxz(basis, 0.0, DisorderFields.zeros(L))
    for seed in range(3):
        H0 = build_ising_z(basis, sample_fields(L, 5.0, np.random.default_rng(seed)))
        d = evolution.build_floquet(H0, Hxy, 1.0, 0.4)
        F = oracle_period_map(H0.elements, Hxy.elements, 1.0, 0.4)
        T, Z = scipy.linalg.schur(F, output="complex")
        theta = np.angle(np.diag(T))
        order = np.argsort(theta, kind="stable")
        print(np.array_equal(bits(maps.pop()), bits(F)),
              np.array_equal(bits(d.values), bits(theta[order])),
              np.array_equal(bits(d.vectors), bits(Z[:, order])),
              d.vectors.flags.c_contiguous)
"""
    lines = run_one_thread(code)
    assert lines.split("\n")[:6] == ["True True True True"] * 6


def test_public_decompose_copies_and_owned_overwrites(rng):
    basis, H = _sector_h(8, 0.5, rng)
    before = H.elements.copy()
    d = spectral_decompose(H)
    assert np.array_equal(H.elements, before)
    # the solver wrote its (Fortran-ordered) vectors over the matrix itself
    owned = evolution._decompose_owned(H)
    assert np.array_equal(owned.values, d.values)
    assert np.array_equal(H.elements.T, owned.vectors)


def test_dense_steps_refuse_beyond_the_memory_budget(rng, monkeypatch):
    basis, H = _sector_h(6, 0.5, rng)
    Hxy = build_xxz(basis, 0.0, DisorderFields.zeros(6))
    # a budget that holds a spectrum, which needs one copy of the operator,
    # but not a decomposition, which needs two matrices of work space
    budget = operators._dense_peak(basis.dim, "spectrum")
    monkeypatch.setattr(operators, "_memory_budget", lambda: budget)
    assert np.array_equal(spectrum(H), np.linalg.eigvalsh(H.elements))
    with pytest.raises(CapacityError):
        spectral_decompose(H)
    with pytest.raises(CapacityError):
        build_floquet(H, Hxy)
    budget = operators._dense_peak(basis.dim, "operator") - 1
    monkeypatch.setattr(operators, "_memory_budget", lambda: budget)
    with pytest.raises(CapacityError):
        build_xxz(basis, 0.5, DisorderFields.zeros(6))


@pytest.mark.parametrize(
    "step, call",
    [
        (
            "decomposition",
            "_decompose_owned(build_xxz({basis}, 0.5, DisorderFields.zeros({basis}.L)))",
        ),
        ("Floquet map", "_make_engine({basis}, ProtocolSpec(kind='floquet_mbl'), 0, 0)"),
    ],
    ids=["decomposition", "floquet"],
)
def test_dense_peak_estimate_is_honest(step, call):
    # The estimate may be loose, never below what the step really takes.
    # The child reads its peak from VmHWM: its ru_maxrss starts at this
    # process's peak, which the kernel carries over when it is spawned.
    code = f"""
from entdyn.basis import enumerate_sector
from entdyn.operators import _dense_peak
from entdyn.evolution import _decompose_owned
from entdyn.experiments import ProtocolSpec, _make_engine
from entdyn.operators import DisorderFields, build_xxz

def peak():
    with open("/proc/self/status") as f:
        line = next(x for x in f if x.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

{call.format(basis="enumerate_sector(4, 0)")}  # BLAS and import warm-up
basis = enumerate_sector(12, 0)
before = peak()
{call.format(basis="basis")}
print(peak() - before, _dense_peak(basis.dim, "{step}"), 8 * basis.dim**2)
"""
    rise, estimate, matrix = map(int, run_one_thread(code).split())
    assert 3 * matrix <= rise <= estimate


def test_propagate_matches_expm(rng):
    basis, H = _sector_h(6, 0.5, rng)
    state = random_sector_state(basis, rng)
    d = spectral_decompose(H)
    for t in (0.3, 3.7, 45.0):
        got = propagate(d, state, t)
        expected = oracle_propagate(H.elements, state, t)
        assert np.max(np.abs(got.amplitudes - expected)) < 1e-10


def test_propagate_time_zero_and_negative(rng):
    basis, H = _sector_h(6, 0.5, rng)
    state = random_sector_state(basis, rng)
    d = spectral_decompose(H)
    out = propagate(d, state, 0.0)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12
    with pytest.raises(ParameterError):
        propagate(d, state, -1.0)


def test_propagate_norm_at_saturation_time(rng):
    basis, H = _sector_h(8, 0.5, rng)
    state = random_sector_state(basis, rng)
    out = propagate(spectral_decompose(H), state, 1e12)
    assert abs(out.norm() - 1.0) < 1e-12


def test_eigenstate_evolves_by_phase_only(rng):
    basis, H = _sector_h(6, 0.5, rng)
    d = spectral_decompose(H)
    st = d.eigenstate(3)
    out = propagate(d, st, 7.7e11)
    overlap = abs(np.vdot(out.amplitudes, st.amplitudes))
    assert abs(overlap - 1.0) < 1e-9


def test_phase_reduction_against_decimal_oracle():
    # diagonal H with exactly representable integer eigenvalues; at
    # t = 1e12 the products E*t are exact 53-bit integers, so a 50-digit
    # decimal reduction mod 2 pi is an independent reference
    basis = enumerate_sector(4, 0)
    diag = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0])
    H = OperatorMatrix(basis, np.diag(diag).astype(complex))
    state = SectorState(basis, np.full(6, 1 / np.sqrt(6), dtype=complex))
    t = 1.0e12
    out = propagate(spectral_decompose(H), state, t)

    getcontext().prec = 50
    two_pi = Decimal("6.2831853071795864769252867665590057683943387987502")
    expected = np.empty(6, dtype=complex)
    for i, e in enumerate(diag):
        n = Decimal(int(e * t))
        phase = float(n % two_pi)
        expected[i] = np.exp(-1j * phase) / np.sqrt(6)
    # the 80-bit reduction is good to ~ E t * 2^-63 radians (1e-7 here);
    # a plain float64 reduction would already be off by ~1e-3
    assert np.max(np.abs(out.amplitudes - expected)) < 2e-6
    naive = np.exp(-1j * np.mod(diag * t, 2 * np.pi)) / np.sqrt(6)
    assert np.max(np.abs(out.amplitudes - expected)) < np.max(np.abs(naive - expected))


def test_hybrid_schedule_shape():
    times = hybrid_schedule()
    assert times[0] == 0.0
    assert times[-1] == 1e12
    assert times.size == 39
    assert np.all(np.diff(times) > 0)
    assert np.all(times[:11] == np.arange(11.0))


def test_hybrid_schedule_integer():
    times = hybrid_schedule(2000.0, integer=True)
    assert times.dtype == np.int64
    assert times[0] == 0 and times[-1] == 2000
    assert np.all(np.diff(times) > 0)


def test_hybrid_schedule_validation():
    # NaN once gave 28 NaN times, inf infinite ones, and a NaN integer
    # schedule ended at -2^63
    for t_max in (5.0, 10.0, np.nan, np.inf):
        for integer in (False, True):
            with pytest.raises(ParameterError, match="t_max"):
                hybrid_schedule(t_max, integer=integer)


def test_floquet_matches_expm_oracle(rng):
    L = 6
    basis = enumerate_sector(L, 0)
    fields = sample_fields(L, 5.0, rng)
    H0 = build_ising_z(basis, fields)
    Hxy = build_xxz(basis, 0.0, DisorderFields.zeros(L))
    F = build_floquet(H0, Hxy, T0=1.0, T1=0.4)
    U = oracle_floquet_step(H0.elements, Hxy.elements, 1.0, 0.4)
    state = random_sector_state(basis, rng)
    got = floquet_power(F, state, 1)
    assert np.max(np.abs(got.amplitudes - U @ state.amplitudes)) < 1e-8
    got3 = floquet_power(F, state, 3)
    assert np.max(np.abs(got3.amplitudes - U @ (U @ (U @ state.amplitudes)))) < 1e-8


def test_floquet_guards_read_the_last_partial_block(basis6, monkeypatch):
    # 100 rows: the second row block of F^H F is partial
    F = np.eye(100, dtype=complex)
    F[-1, -2] = 1e-3
    full = np.abs(F.conj().T @ F - np.eye(100)).max()
    assert evolution._unitarity_defect(F) == full == 1e-3
    H = OperatorMatrix(basis6, np.eye(basis6.dim))
    monkeypatch.setattr(evolution, "_period_map", lambda *a: 1.001 * np.eye(basis6.dim))
    with pytest.raises(NumericError):
        build_floquet(H, H)


def test_guards_raise_on_nan(basis6, monkeypatch):
    # a NaN compares False with every bound, so each guard must test
    # "not below the bound" rather than "above it"
    out = np.eye(3, dtype=complex)
    out[1, 1] = np.nan
    with pytest.raises(NumericError, match="norm drift"):
        evolution._renormalized(out, "test")
    F = np.eye(100, dtype=complex)
    F[-1, -1] = np.nan  # in the last row block, after a finite one
    assert np.isnan(evolution._unitarity_defect(F))
    M = np.zeros((100, 3))
    M[70, 0] = np.nan
    assert np.isnan(operators._max_abs(M))
    H = np.eye(basis6.dim)
    H[-1, -1] = np.nan
    with pytest.raises(NumericError, match="hermitian"):
        spectral_decompose(OperatorMatrix(basis6, H))
    # NaN and inf in the period map stop at the unitarity guard, before LAPACK
    H0 = OperatorMatrix(basis6, np.eye(basis6.dim))
    for bad in (np.nan, np.inf):
        F = np.eye(basis6.dim, dtype=complex)
        F[0, 1] = bad
        monkeypatch.setattr(evolution, "_period_map", lambda *a: np.asfortranarray(F))
        with pytest.raises(NumericError, match="not unitary"), np.errstate(invalid="ignore"):
            build_floquet(H0, H0)


def test_build_floquet_requires_diagonal_h0_and_keeps_its_operators(rng):
    basis, H = _sector_h(6, 0.5, rng)
    H0 = build_ising_z(basis, sample_fields(6, 5.0, rng))
    before = (H0.elements.copy(), H.elements.copy())
    d = build_floquet(H0, H)
    assert np.array_equal(H0.elements, before[0]) and np.array_equal(H.elements, before[1])
    assert d.vectors.flags.c_contiguous
    with pytest.raises(ParameterError, match="diagonal"):
        build_floquet(H, H)


def _floquet_engine_peak(L: int) -> tuple[int, int]:
    """tracemalloc peak of one Floquet ``_make_engine`` at ``L``, and its dim.

    tracemalloc sees numpy's buffers, LAPACK's work arrays among them.
    """
    spec = ProtocolSpec(kind="floquet_mbl")
    _make_engine(enumerate_sector(4, 0), spec, 0, 0)  # lazy imports
    basis = enumerate_sector(L, 0)
    tracemalloc.start()
    try:
        _make_engine(basis, spec, 0, 0)
        return tracemalloc.get_traced_memory()[1], basis.dim
    finally:
        tracemalloc.stop()


def test_floquet_engine_peak_stays_at_the_counted_matrices():
    # the map's two (64, dim) complex row blocks weigh 256 / dim matrices:
    # a full one at L = 10, where only the row term of the estimate covers
    # them, and 0.28 at L = 12, where the count alone does
    peak, dim = _floquet_engine_peak(10)
    assert peak <= operators._dense_peak(dim, "Floquet map")
    peak, dim = _floquet_engine_peak(12)
    assert peak <= operators._PEAK_MATRICES["Floquet map"] * 8 * dim**2
    assert peak <= operators._dense_peak(dim, "Floquet map")


def test_floquet_zero_times_is_identity(rng):
    L = 6
    basis = enumerate_sector(L, 0)
    H0 = build_ising_z(basis, sample_fields(L, 5.0, rng))
    Hxy = build_xxz(basis, 0.0, DisorderFields.zeros(L))
    F = build_floquet(H0, Hxy, T0=0.0, T1=0.0)
    state = random_sector_state(basis, rng)
    out = floquet_power(F, state, 5)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-10


def test_floquet_phases_sorted_unit_norm(rng):
    L = 6
    basis = enumerate_sector(L, 0)
    H0 = build_ising_z(basis, sample_fields(L, 5.0, rng))
    Hxy = build_xxz(basis, 0.0, DisorderFields.zeros(L))
    F = build_floquet(H0, Hxy)
    assert np.all(np.diff(F.values) >= 0)
    assert F.values.min() >= -np.pi - 1e-12
    assert F.values.max() <= np.pi + 1e-12
    # column vectors unitary
    V = F.vectors
    assert np.max(np.abs(V.conj().T @ V - np.eye(basis.dim))) < 1e-8


def test_floquet_long_power_preserves_norm(rng):
    L = 6
    basis = enumerate_sector(L, 0)
    H0 = build_ising_z(basis, sample_fields(L, 5.0, rng))
    Hxy = build_xxz(basis, 0.0, DisorderFields.zeros(L))
    F = build_floquet(H0, Hxy)
    state = random_sector_state(basis, rng)
    out = floquet_power(F, state, 300_000_000_000)
    assert abs(out.norm() - 1.0) < 1e-9


def test_run_rqc_records_requested_steps(rng, basis8):
    state = random_sector_state(basis8, rng)
    traj = run_rqc(state, 1.0, 1.0, 50, rng=np.random.default_rng(5), record=[0, 10, 50])
    assert traj.times.tolist() == [0, 10, 50]
    assert traj.hcee.shape == (3,)
    assert traj.meta["depth"] == 50


def test_run_rqc_needs_rng_or_bonds(basis8, rng):
    state = random_sector_state(basis8, rng)
    with pytest.raises(ParameterError):
        run_rqc(state, 1.0, 1.0, 10)
    with pytest.raises(ParameterError):
        run_rqc(state, 1.0, 1.0, 10, bonds=np.array([0, 1]))  # bond 0 invalid
    # fractional depths, bonds and recorded depths are refused, not truncated
    with pytest.raises(ParameterError):
        run_rqc(state, 1.0, 1.0, 5, bonds=[1, 2, 3, 4, 5], record=[0.5, 2.7])
    with pytest.raises(ParameterError):
        run_rqc(state, 1.0, 1.0, 5, bonds=[1.7, 2, 3, 4, 5])
    with pytest.raises(ParameterError):
        run_rqc(state, 1.0, 1.0, 5.5, rng=np.random.default_rng(0))


@pytest.mark.parametrize("alpha, beta", [(0.7, 2.1), (np.pi, np.pi)], ids=["generic", "swap"])
def test_circuit_readings_match_one_state_calls_and_baee(basis8, rng, alpha, beta):
    gate = operators.build_two_qubit_gate(alpha, beta)
    block = np.stack(
        [random_sector_state(basis8, rng).amplitudes for _ in range(3)], axis=1
    )
    bonds = np.random.default_rng(5).integers(1, 8, size=20)
    marks = [0, 3, 10, 20]
    h, b = evolution._circuit_readings(block.copy(), gate, basis8, bonds, marks, True)
    assert h.shape == b.shape == (4, 3)
    for j in range(3):
        hj, bj = evolution._circuit_readings(
            block[:, j].copy(), gate, basis8, bonds, marks, True
        )
        assert hj.shape == bj.shape == (4, 1)
        assert np.abs(h[:, j] - hj[:, 0]).max() < 1e-13
        assert np.abs(b[:, j] - bj[:, 0]).max() < 1e-13
    amps = block.copy()
    snaps = [
        amps / np.linalg.norm(amps, axis=0)
        for _ in evolution._apply_circuit(amps, gate, basis8, bonds, marks)
    ]
    expected = [[baee(SectorState(basis8, col)) for col in snap.T] for snap in snaps]
    assert np.abs(b - np.array(expected)).max() < 1e-13
    if operators.gate_class(alpha, beta) == "SWAP":
        # site permutations keep the bipartition average
        assert np.abs(b - b[0]).max() < 1e-12


def test_run_rqc_deterministic_given_bonds(basis8, rng):
    state = random_sector_state(basis8, rng)
    bonds = np.random.default_rng(9).integers(1, 8, size=30)
    t1 = run_rqc(state, 0.7, 2.1, 30, bonds=bonds)
    t2 = run_rqc(state, 0.7, 2.1, 30, bonds=bonds)
    assert np.array_equal(t1.hcee, t2.hcee)


def test_swap_circuit_tracks_permuted_cut(basis8, rng):
    # a SWAP gate permutes sites, so the trajectory HCEE must equal the
    # initial state's entropy across the permuted half cut
    state = random_sector_state(basis8, rng)
    bonds = np.random.default_rng(3).integers(1, 8, size=40)
    traj = run_rqc(state, np.pi, np.pi, 40, bonds=bonds, record=range(41))
    sig = list(range(9))  # sig[x] = original site now watched at slot x
    half = Bipartition.half_chain(8).sites
    assert abs(traj.hcee[0] - hcee(state)) < 1e-12
    for k, bond in enumerate(bonds, start=1):
        b = int(bond)
        sig[b], sig[b + 1] = sig[b + 1], sig[b]
        cut = tuple(sig[x] for x in half)
        assert abs(traj.hcee[k] - subset_entropy(state, cut)) < 1e-10


def test_run_rqc_baee_recording(basis8, rng):
    state = random_sector_state(basis8, rng)
    traj = run_rqc(
        state, 1.2, 0.4, 10, rng=np.random.default_rng(1),
        record=[0, 10], record_baee=True,
    )
    assert traj.baee is not None
    assert traj.baee.shape == (2,)


def _cut_bonds(L, rng):
    """Bonds with long runs off the centre bond and back-to-back centre bonds."""
    c = L // 2
    off = [b for b in range(1, L) if b != c]
    tail = rng.integers(1, L, size=20).tolist()
    return np.array(off * 2 + [c, c, c] + off[::-1] + [c] + off[:3] + tail)


@pytest.mark.parametrize("L", [8, 10, 12])
@pytest.mark.parametrize(
    "alpha, beta", [(2.2, 0.8), (np.pi, np.pi), (np.pi, 0.0)], ids=["generic", "swap", "class_c"]
)
@pytest.mark.parametrize("m", [None, 3], ids=["state", "block"])
def test_circuit_readings_match_a_reading_per_mark(L, alpha, beta, m, rng):
    basis = enumerate_sector(L, 0)
    gate = operators.build_two_qubit_gate(alpha, beta)
    amps = np.stack(
        [random_sector_state(basis, rng).amplitudes for _ in range(m or 1)], axis=1
    )
    amps = amps[:, 0] if m is None else amps
    bonds = _cut_bonds(L, rng)
    depth = bonds.size
    # every depth through the first runs, then sparse marks up to depth
    marks = sorted(set(range(2 * L + 2)) | set(range(2 * L + 2, depth, 3)) | {depth})
    h, _ = evolution._circuit_readings(amps.copy(), gate, basis, bonds, marks)
    work = amps.copy()
    expected = [
        evolution._half_chain_entropies(
            basis, (work / np.linalg.norm(work, axis=0)).reshape(basis.dim, -1)
        )
        for _ in evolution._apply_circuit(work, gate, basis, bonds, marks)
    ]
    assert h.shape == (len(marks), m or 1)
    assert np.abs(h - np.array(expected)).max() < 1e-13


@pytest.mark.parametrize("m", [None, 3], ids=["state", "block"])
def test_circuit_baee_blocks_match_a_reading_per_mark(basis8, m, rng):
    # 71 marks of one or three columns span several BAEE block calls
    gate = operators.build_two_qubit_gate(2.2, 0.8)
    amps = np.stack(
        [random_sector_state(basis8, rng).amplitudes for _ in range(m or 1)], axis=1
    )
    amps = amps[:, 0] if m is None else amps
    bonds, marks = rng.integers(1, 8, size=70), range(71)
    _, b = evolution._circuit_readings(amps.copy(), gate, basis8, bonds, marks, True)
    work = amps.copy()
    expected = [
        evolution._bipartition_entropies(
            basis8, (work / np.linalg.norm(work, axis=0)).reshape(basis8.dim, -1)
        ).mean(axis=1)
        for _ in evolution._apply_circuit(work, gate, basis8, bonds, marks)
    ]
    assert len(marks) * (m or 1) > evolution._BAEE_BLOCK
    assert b.shape == (len(marks), m or 1)
    assert np.array_equal(b, np.array(expected))


def _count_readings(monkeypatch):
    calls = []
    read = evolution._half_chain_entropies

    def counted(*args):
        calls.append(1)
        return read(*args)

    monkeypatch.setattr(evolution, "_half_chain_entropies", counted)
    return calls


def test_circuit_reads_the_half_chain_only_after_a_centre_gate(basis8, rng, monkeypatch):
    calls = _count_readings(monkeypatch)
    gate = operators.build_two_qubit_gate(2.2, 0.8)
    state = random_sector_state(basis8, rng).amplitudes
    # centre bond 4 at layers 2, 7 and 8: marks 3 and 9 read, marks 5 and 10 reuse
    bonds = np.array([1, 4, 3, 5, 6, 7, 4, 4, 2, 1])
    evolution._circuit_readings(state.copy(), gate, basis8, bonds, [0, 3, 5, 9, 10])
    assert len(calls) == 3
    calls.clear()
    evolution._circuit_readings(state.copy(), gate, basis8, bonds, [0, 5, 10], True)
    assert len(calls) == 3  # BAEE at every mark, the half chain as before
    # the saturation window of a circuit sweep: the last 100 of 2000 layers
    calls.clear()
    spec = ProtocolSpec(kind="rqc", alpha=2.2, beta=0.8)
    delta_s_sweep(12, spec, runs=1, master_seed=3, circuit_samples=1, depth=2000)
    bonds = derive_rng(3, 0, "circuit:0").integers(1, 12, size=2000)
    assert len(calls) == 1 + np.count_nonzero(bonds[1901:] == 6)


def test_circuit_norm_guard_checks_every_mark(basis8, rng, monkeypatch):
    gate_mix = _kernels.gate_mix

    def leaky(amps, *args):
        gate_mix(amps, *args)
        amps *= 1 + 1e-5

    monkeypatch.setattr(_kernels, "gate_mix", leaky)
    gate = operators.build_two_qubit_gate(2.2, 0.8)
    state = random_sector_state(basis8, rng).amplitudes
    # no gate crosses the cut, so every mark after 0 reuses the first reading
    bonds = np.array([1, 2, 3, 5, 6, 7])
    with pytest.raises(NumericError, match="norm drift"):
        evolution._circuit_readings(state.copy(), gate, basis8, bonds, range(7))
