import math
import tracemalloc

import numpy as np
import pytest

from entdyn import _kernels, bipartition_markov
from entdyn.bipartition_markov import (
    markov_report,
    monte_carlo_occupation,
    second_eigenvalue_modulus,
    stationary_distribution,
    swap_action,
    transition_matrix,
    verify_ergodicity,
)
from entdyn.entanglement import Bipartition
from entdyn.errors import ParameterError


def test_swap_action_interior_bond_is_identity():
    bp = Bipartition.from_sites(6, (1, 2, 3))
    assert swap_action(bp, 1).sites == bp.sites  # both ends inside A
    assert swap_action(bp, 4).sites == bp.sites  # both ends outside A


def test_swap_action_straddling_bond_moves_cut():
    bp = Bipartition.from_sites(6, (1, 2, 3))
    out = swap_action(bp, 3)
    assert out.sites == (1, 2, 4)


def test_swap_action_canonicalizes():
    # swapping site 1 out produces a set without site 1; the canonical
    # representative is the complement
    bp = Bipartition.from_sites(4, (1, 3))
    out = swap_action(bp, 1)
    assert 1 in out.sites


def test_transition_matrix_l4_exact():
    tm = transition_matrix(4)
    expected = np.array(
        [
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 0.0, 2 / 3],
            [0.0, 2 / 3, 1 / 3],
        ]
    )
    assert tm.n == 3
    assert [bp.sites for bp in tm.states] == [(1, 2), (1, 3), (1, 4)]
    assert np.max(np.abs(tm.P - expected)) < 1e-15


def test_transition_matrix_stochastic_and_symmetric():
    for L in (4, 6, 8, 10):
        tm = transition_matrix(L)
        assert tm.n == math.comb(L, L // 2) // 2
        assert np.max(np.abs(tm.P - tm.P.T)) < 1e-14
        assert np.max(np.abs(tm.P.sum(axis=0) - 1.0)) < 1e-14
        assert np.max(np.abs(tm.P.sum(axis=1) - 1.0)) < 1e-14


def test_transition_matrix_rejects_degenerate_sizes():
    with pytest.raises(ParameterError):
        transition_matrix(2)  # single-state chain
    with pytest.raises(ParameterError):
        transition_matrix(5)


def test_stationary_uniform():
    for L in (4, 6, 8):
        tm = transition_matrix(L)
        pi = stationary_distribution(tm.P)
        assert np.max(np.abs(pi - 1.0 / tm.n)) < 1e-12


def test_stationary_refuses_a_nonfinite_matrix():
    # an all-NaN P once returned NaNs; NaN at [2, 2] alone, which the
    # normalization row overwrites, once returned the uniform law
    P = transition_matrix(4).P
    bad = P.copy()
    bad[2, 2] = np.nan
    for M in (np.full((3, 3), np.nan), bad):
        with pytest.raises(ParameterError, match="finite"):
            stationary_distribution(M)


def test_ergodicity_report():
    rep = verify_ergodicity(transition_matrix(4))
    assert rep.irreducible
    assert rep.aperiodic
    assert rep.period == 1
    assert rep.has_self_loop
    rep8 = verify_ergodicity(transition_matrix(8))
    assert rep8.irreducible and rep8.aperiodic


def test_l4_middle_state_has_no_self_loop():
    tm = transition_matrix(4)
    i = tm.states.index(Bipartition.from_sites(4, (1, 3)))
    assert tm.P[i, i] == 0.0


def test_second_eigenvalue_modulus():
    tm = transition_matrix(4)
    slem = second_eigenvalue_modulus(tm.P)
    eigs = np.sort(np.abs(np.linalg.eigvals(tm.P)))[::-1]
    assert abs(slem - eigs[1]) < 1e-12
    assert slem < 1.0


def test_second_eigenvalue_modulus_refuses_a_nonsymmetric_matrix():
    P = transition_matrix(4).P.copy()
    P[0, 1] += 1e-9
    for bad in (P, P[:, :-1], np.full((3, 3), np.nan)):
        with pytest.raises(ParameterError, match="square and symmetric"):
            second_eigenvalue_modulus(bad)


def test_monte_carlo_occupation_converges():
    rng = np.random.default_rng(11)
    res = monte_carlo_occupation(4, 1_000_000, 10_000, rng)
    assert res.tv_distance < 0.01
    assert res.counts.sum() == 990_000


def test_monte_carlo_occupation_l8():
    rng = np.random.default_rng(12)
    res = monte_carlo_occupation(8, 10_000_000, 10_000, rng)
    assert res.tv_distance < 0.02


def test_monte_carlo_deterministic_per_seed():
    a = monte_carlo_occupation(6, 100_000, 1000, np.random.default_rng(3))
    b = monte_carlo_occupation(6, 100_000, 1000, np.random.default_rng(3))
    assert np.array_equal(a.counts, b.counts)
    assert a.tv_distance == b.tv_distance


@pytest.mark.parametrize("burn_in", [5, 20])  # before and after the first chunk boundary
def test_monte_carlo_chunks_walk_the_one_draw_stream(burn_in, monkeypatch):
    L, steps = 8, 40
    states, table = bipartition_markov._successor_table(L)
    s0 = states.index(Bipartition.half_chain(L))
    bonds = np.random.default_rng(9).integers(0, L - 1, size=steps)
    _, expected = _kernels.swap_walk(table, s0, bonds, burn_in)
    monkeypatch.setattr(bipartition_markov, "_WALK_CHUNK", 7)
    res = monte_carlo_occupation(L, steps, burn_in, np.random.default_rng(9))
    assert np.array_equal(res.counts, expected)
    assert res.counts.sum() == steps - burn_in


def test_monte_carlo_memory_stays_flat_in_steps():
    # one draw of all bonds took 15.3 MiB for 2,000,000 steps
    bipartition_markov._successor_table(6)
    tracemalloc.start()
    try:
        monte_carlo_occupation(6, 2_000_000, 1000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_markov_report_builds_the_successor_table_once(monkeypatch):
    builds = []
    enumerate_bipartitions = bipartition_markov.enumerate_bipartitions

    def spy(L):
        builds.append(L)
        return enumerate_bipartitions(L)

    monkeypatch.setattr(bipartition_markov, "enumerate_bipartitions", spy)
    bipartition_markov._successor_table.cache_clear()
    markov_report(6, 10_000, 100, np.random.default_rng(1))
    assert builds == [6]
    with pytest.raises(ValueError, match="read-only"):
        bipartition_markov._successor_table(6)[1][0, 0] = 0


def test_monte_carlo_validates():
    with pytest.raises(ParameterError):
        monte_carlo_occupation(4, 100, 100, np.random.default_rng(0))


def test_markov_report_keys():
    rep = markov_report(4, 200_000, 1000, np.random.default_rng(1))
    assert set(rep) == {
        "L",
        "N",
        "symmetric",
        "doubly_stochastic",
        "irreducible",
        "aperiodic",
        "slem",
        "tv_distance",
        "stationary",
    }
    assert rep["L"] == 4 and rep["N"] == 3
    assert rep["symmetric"] and rep["doubly_stochastic"]
    assert rep["irreducible"] and rep["aperiodic"]
    assert np.max(np.abs(np.array(rep["stationary"]) - 1 / 3)) < 1e-12
