import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from entdyn import entanglement
from entdyn.basis import _slot_rows, enumerate_sector, subsystem_split
from entdyn.entanglement import (
    Bipartition,
    baee,
    bipartition_entropies,
    enumerate_bipartitions,
    haar_sector_mean_exact,
    hcee,
    subset_entropy,
    _entropy_from_eigs,
    _half_chain_entropies,
)
from entdyn.errors import NumericError, ParameterError
from entdyn.state import SectorState, random_sector_state

from oracles import (
    haar_sector_average,
    oracle_baee,
    oracle_slot_row,
    oracle_subset_entropy,
    run_with_blas_threads,
)


def test_bipartition_canonical_contains_site_one():
    bp = Bipartition.from_sites(4, (3, 4))
    assert bp.sites == (1, 2)
    bp2 = Bipartition.from_sites(8, (1, 3, 5, 7))
    assert bp2.sites == (1, 3, 5, 7)
    assert Bipartition.half_chain(8).sites == (1, 2, 3, 4)


def test_bipartition_complement_and_mask():
    bp = Bipartition.from_sites(6, (1, 4, 5))
    assert bp.complement == (2, 3, 6)
    assert bp.mask == 0b011001
    assert Bipartition.from_mask(6, 0b100110).sites == bp.sites


def test_bipartition_rejects_wrong_size():
    with pytest.raises(ParameterError):
        Bipartition.from_sites(6, (1, 2))
    with pytest.raises(ParameterError):
        Bipartition.from_sites(6, (1, 2, 9))


def test_bipartition_refuses_fractional_sites_and_stray_mask_bits():
    with pytest.raises(ParameterError, match="whole numbers"):
        Bipartition.from_sites(4, [2.7, 3])
    with pytest.raises(ParameterError, match="outside sites"):
        Bipartition.from_mask(4, 0b10011)
    # the slot rows deposit codes at the sites in order, so the constructor
    # takes only strictly increasing sites in 1..L
    for L, sites in [(4, (1, 1)), (4, (1, 9)), (6, (1, 3, 2)), (4, (1, 0)), (6, (1, 2, 2))]:
        with pytest.raises(ParameterError, match="ascending"):
            Bipartition(L=L, sites=sites)
    assert Bipartition(L=6, sites=(1, 2, 6)).mask == 0b100011


def test_enumerate_bipartitions_counts():
    assert len(enumerate_bipartitions(4)) == 3
    assert len(enumerate_bipartitions(8)) == 35
    assert len(enumerate_bipartitions(12)) == math.comb(12, 6) // 2
    cuts = enumerate_bipartitions(8)
    masks = [bp.mask for bp in cuts]
    assert masks == sorted(masks)
    assert all(bp.sites[0] == 1 for bp in cuts)


def test_entropy_symmetric_under_complement(rng):
    for L in (6, 8):
        basis = enumerate_sector(L, 0)
        state = random_sector_state(basis, rng)
        for bp in enumerate_bipartitions(L)[::5]:
            sa = subset_entropy(state, bp.sites)
            sb = subset_entropy(state, bp.complement)
            assert abs(sa - sb) < 1e-10


def test_subset_entropy_matches_oracle_all_subsets(rng):
    basis = enumerate_sector(6, 0)
    state = random_sector_state(basis, rng)
    for size in range(1, 6):
        for sites in itertools.combinations(range(1, 7), size):
            got = subset_entropy(state, sites)
            want = oracle_subset_entropy(state, sites)
            assert abs(got - want) < 1e-12


def _unit_columns(basis, rng, m):
    z = rng.standard_normal((basis.dim, m)) + 1j * rng.standard_normal((basis.dim, m))
    z[:, 0] = z[:, 0].real  # real columns, as real eigenvectors give
    return z / np.linalg.norm(z, axis=0)


def test_hcee_is_half_chain_cut(rng):
    # one entropy route: batched and single-state readings agree exactly
    for L in (8, 10, 12):
        basis = enumerate_sector(L, 0)
        block = _unit_columns(basis, rng, 5)
        batched = _half_chain_entropies(basis, block)
        for j in range(block.shape[1]):
            state = SectorState(basis, block[:, j])
            assert batched[j] == hcee(state)
            assert hcee(state) == subset_entropy(state, range(1, L // 2 + 1))


def test_basis_state_has_zero_entropy(basis8):
    state = SectorState.from_word(basis8, int(basis8.states[7]))
    assert hcee(state) < 1e-14
    assert baee(state) < 1e-14


def test_bell_pair_baee():
    # Bell pair on sites (1,2), product |up down> on (3,4):
    # cut {1,2} sees no entanglement, the other two cuts see one bit
    basis = enumerate_sector(4, 0)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(0b0101)] = 1 / np.sqrt(2)  # up down up down
    amps[basis.index_of(0b0110)] = 1 / np.sqrt(2)  # down up up down
    state = SectorState(basis, amps)
    assert abs(subset_entropy(state, (1, 2)) - 0.0) < 1e-12
    assert abs(subset_entropy(state, (1, 3)) - 1.0) < 1e-12
    assert abs(subset_entropy(state, (1, 4)) - 1.0) < 1e-12
    assert abs(baee(state) - 2.0 / 3.0) < 1e-12
    assert abs(hcee(state)) < 1e-12


def test_baee_matches_oracle(rng):
    basis = enumerate_sector(6, 0)
    state = random_sector_state(basis, rng)
    assert abs(baee(state) - oracle_baee(state)) < 1e-12


def test_bipartition_entropies_batched_matches_scalar(rng, monkeypatch):
    for L in (8, 10, 12):
        basis = enumerate_sector(L, 0)
        state = random_sector_state(basis, rng)
        ent = bipartition_entropies(state)
        cuts = enumerate_bipartitions(L)
        assert ent.shape == (len(cuts),)
        for i, bp in enumerate(cuts):
            assert ent[i] == subset_entropy(state, bp.sites)
        # an odd chunk size exercises the chunked path
        with monkeypatch.context() as m:
            m.setattr(entanglement, "_CHUNK_ROWS", 7)
            assert np.array_equal(ent, bipartition_entropies(state))


def _block_mismatches():
    """(L, m) pairs whose block call differs in any bit from per-state rows."""
    bad = []
    for L in (8, 10, 12):
        basis = enumerate_sector(L, 0)
        block = _unit_columns(basis, np.random.default_rng(L), 200)
        rows = [bipartition_entropies(SectorState(basis, col)) for col in block.T]
        rows = np.array(rows).view(np.uint64)
        for m in (1, 5, 37, 200):
            got = entanglement._bipartition_entropies(basis, block[:, :m])
            if not np.array_equal(got.view(np.uint64), rows[:m]):
                bad.append((L, m))
    return bad


def test_block_matches_per_state_rows_bitwise():
    assert _block_mismatches() == []


def _entropy_bits(L, m, rng):
    """``uint64`` views of two block calls on one new basis.

    The first call fills the basis cache (block geometry, half codes) and
    the second reads it.
    """
    basis = enumerate_sector(L, 0)
    block = _unit_columns(basis, rng, m)
    first = entanglement._bipartition_entropies(basis, block)
    second = entanglement._bipartition_entropies(basis, block)
    return np.concatenate([first, second]).view(np.uint64)


# (L, states): a chunk holds max(1, 128 // states) bipartitions of every
# state, so each case runs several chunks, of one to 128 bipartitions
_POOL_CASES = [(8, 5), (10, 37), (12, 5), (12, 1), (14, 1), (8, 200)]


def test_pool_matches_one_worker_bitwise(monkeypatch):
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    for L, states in _POOL_CASES:
        pooled = _entropy_bits(L, states, np.random.default_rng(L))
        with monkeypatch.context() as m:
            m.setattr(entanglement, "_cpus", lambda: 1)
            serial = _entropy_bits(L, states, np.random.default_rng(L))
        # more workers than cores, switching threads often
        with monkeypatch.context() as m:
            m.setattr(entanglement, "_cpus", lambda: 8)
            sys.setswitchinterval(1e-6)
            try:
                crowded = _entropy_bits(L, states, np.random.default_rng(L))
            finally:
                sys.setswitchinterval(interval)
        assert np.array_equal(pooled, serial), L
        assert np.array_equal(crowded, serial), L
    assert threading.active_count() == threads


def _both_sides(L, subsets):
    rest = [[s for s in range(1, L + 1) if s not in sub] for sub in subsets]
    return np.array(subsets, dtype=np.int32), np.array(rest, dtype=np.int32)


def test_slot_rows_match_the_sorting_oracle():
    # every bipartition up to L = 12 and every 97th at L = 14 and 16, built
    # several to a call as the bipartition chunks build them
    for L in range(2, 17, 2):
        basis = enumerate_sector(L, 0)
        cuts = enumerate_bipartitions(L)
        step = 1 if L <= 12 else 97
        picked = [*range(0, len(cuts), step), len(cuts) - 1]
        for lo in range(0, len(picked), 5):
            chosen = [cuts[i].sites for i in picked[lo : lo + 5]]
            rows = _slot_rows(basis, *_both_sides(L, chosen))
            for sites, row in zip(chosen, rows):
                assert row.tolist() == oracle_slot_row(basis, sites), (L, sites)
    # unequal subsets, in the zero sector and off it
    for basis in (enumerate_sector(8, 0), enumerate_sector(8, 1), enumerate_sector(6, -1)):
        L = basis.L
        for nA in range(1, L):
            for sites in list(itertools.combinations(range(1, L + 1), nA))[::3]:
                want = oracle_slot_row(basis, sites)
                assert _slot_rows(basis, *_both_sides(L, [sites]))[0].tolist() == want
                positions = subsystem_split(basis, sites).positions
                assert positions.dtype == np.int64
                assert np.argsort(positions).tolist() == want, (L, basis.n_up, sites)


def test_subsystem_split_builds_its_tables_bit_by_bit():
    # the deposit table of a 15-site side is built one code bit at a time;
    # a (15, 2**15) bit matrix peaked at 4.2 MiB, the doubling loop at 0.7 MiB
    basis = enumerate_sector(16, 0)
    tracemalloc.start()
    try:
        subsystem_split(basis, (1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_bipartition_entropies_keep_no_dense_table(monkeypatch):
    # a (462, 924) int32 slot table kept on the basis peaked at 5.58 MB
    # here; building each chunk's rows from deposit tables peaks at 3.96 MB
    monkeypatch.setattr(entanglement, "_cpus", lambda: 1)
    basis = enumerate_sector(12, 0)
    block = _unit_columns(basis, np.random.default_rng(3), 37)
    tracemalloc.start()
    try:
        entanglement._bipartition_entropies(basis, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    limit = max(basis.dim, 2**basis.L)
    for value in basis._cache.values():
        for a in value if isinstance(value, tuple) else (value,):
            assert np.asarray(a).size <= limit
    assert peak < 4_800_000


def test_pool_raises_a_weight_defect(rng, monkeypatch):
    monkeypatch.setattr(entanglement, "_cpus", lambda: 4)
    threads = threading.active_count()
    basis = enumerate_sector(12, 0)
    state = random_sector_state(basis, rng)
    state.amplitudes *= 1 + 1e-6
    with pytest.raises(NumericError, match="spectral weight"):
        bipartition_entropies(state)
    with pytest.raises(NumericError, match="spectral weight"):
        baee(state)
    block = _unit_columns(basis, rng, 37)
    block[:, 20] *= 1 + 1e-6
    with pytest.raises(NumericError, match="spectral weight"):
        entanglement._bipartition_entropies(basis, block)
    assert threading.active_count() == threads


def test_bipartition_pool_runs_numpy_blas_on_one_thread():
    code = """
import numpy as np
from entdyn import entanglement
from entdyn.basis import enumerate_sector
from entdyn.errors import NumericError
import ctypes
from pathlib import Path
libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*"))
if not libs:
    print("absent")
    raise SystemExit
threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
seen, fail = [], []
kernel = entanglement._gram_entropies
def spy(grams):
    seen.append(threads())
    if fail:
        raise NumericError("planted")
    return kernel(grams)
entanglement._gram_entropies = spy
entanglement._cpus = lambda: 2
basis = enumerate_sector(8, 0)
block = np.eye(basis.dim, dtype=np.complex128)  # one bipartition per chunk
print(threads())
entanglement._bipartition_entropies(basis, block)
print(set(seen), threads())
seen.clear()
fail.append(True)
try:
    entanglement._bipartition_entropies(basis, block)
except NumericError:
    print(set(seen), threads())
fail.clear()
for cpus, states in ((2, 1), (1, basis.dim)):  # one chunk, then one CPU
    seen.clear()
    entanglement._cpus = lambda: cpus
    entanglement._bipartition_entropies(basis, block[:, :states])
    print(set(seen), threads())
"""
    lines = run_with_blas_threads(code, 2).splitlines()
    if lines == ["absent"]:
        pytest.skip("numpy does not bundle OpenBLAS here")
    assert lines == ["2"] + ["{1} 2"] * 4


def test_baee_is_mean_of_cut_entropies(rng, basis8):
    state = random_sector_state(basis8, rng)
    assert abs(baee(state) - bipartition_entropies(state).mean()) < 1e-13


def test_haar_average_l2_analytic():
    # dim-2 sector: S = H2(p) with p uniform, so E[S] = 1/(2 ln 2)
    rng = np.random.default_rng(77)
    est = haar_sector_average(2, 20_000, rng)
    target = 1.0 / (2.0 * np.log(2.0))
    assert haar_sector_mean_exact(2) == target
    assert abs(est.mean - target) < 3 * est.stderr
    assert est.samples == 20_000


def test_haar_sector_mean_exact_matches_digamma_form():
    from scipy.special import digamma

    for L in range(2, 17, 2):
        half, D = L // 2, math.comb(L, L // 2)
        nats = 0.0
        for k in range(half + 1):
            m, n = sorted((math.comb(half, k), math.comb(half, half - k)))
            nats += m * n / D * (digamma(D + 1) - digamma(n + 1) - (m - 1) / (2 * n))
        assert abs(haar_sector_mean_exact(L) - nats / math.log(2.0)) < 1e-12, L
    assert abs(haar_sector_mean_exact(12) - 5.156976) < 5e-7
    for bad in (0, 3, 7):
        with pytest.raises(ParameterError):
            haar_sector_mean_exact(bad)


def test_haar_sampler_agrees_with_exact_mean():
    for L in (4, 6):
        est = haar_sector_average(L, 4_000, np.random.default_rng(L))
        assert abs(est.mean - haar_sector_mean_exact(L)) < 3 * est.stderr, L


def test_haar_average_needs_samples(rng):
    with pytest.raises(ParameterError):
        haar_sector_average(4, 1, rng)


def test_haar_average_deterministic():
    a = haar_sector_average(4, 500, np.random.default_rng(5))
    b = haar_sector_average(4, 500, np.random.default_rng(5))
    assert a.mean == b.mean and a.stderr == b.stderr


def test_trace_guard_passes_every_accepted_norm(rng, basis8):
    state = random_sector_state(basis8, rng)
    for scale in (1 + 9e-9, 1 - 9e-9):
        scaled = SectorState(basis8, state.amplitudes * scale)
        assert abs(hcee(scaled) - hcee(state)) < 1e-6
        assert abs(baee(scaled) - baee(state)) < 1e-6


def test_sector_state_refuses_a_nan_norm():
    basis = enumerate_sector(4, 0)
    with pytest.raises(ParameterError, match="norm nan"):
        SectorState(basis, np.full(basis.dim, np.nan))


def test_trace_guard_rejects_a_weight_defect(rng, basis8):
    block = _unit_columns(basis8, rng, 3)
    block[:, 1] *= 1 + 1e-6
    with pytest.raises(NumericError, match="spectral weight"):
        _half_chain_entropies(basis8, block)


def test_entropy_guard_rejects_negative_weight():
    with pytest.raises(NumericError):
        _entropy_from_eigs(np.array([1.0, -1e-6]))


def test_entropy_guards_raise_on_nan(rng, basis8):
    # a NaN compares False with every bound, so each guard must test
    # "not within the bound" rather than "beyond it"
    with pytest.raises(NumericError, match="eigenvalue"):
        _entropy_from_eigs(np.array([0.5, np.nan, 0.5]))
    # word 0b11110000 is the 1x1 block of the half cut (no up spin on the left)
    block = _unit_columns(basis8, rng, 1)
    block[basis8.index_of(0b11110000), 0] = np.nan
    with pytest.raises(NumericError, match="spectral weight"):
        _half_chain_entropies(basis8, block)


def test_entropy_of_clipped_tiny_negatives():
    # rounding-level negatives are clipped, not fatal
    val = _entropy_from_eigs(np.array([1.0, -1e-15]))
    assert val == 0.0


def test_subset_entropy_validates(rng, basis8):
    state = random_sector_state(basis8, rng)
    with pytest.raises(ParameterError):
        subset_entropy(state, ())
    with pytest.raises(ParameterError):
        subset_entropy(state, tuple(range(1, 9)))
    with pytest.raises(ParameterError, match="whole numbers"):
        subset_entropy(state, [1.5, 2.5])
