"""The plain-numpy kernels against element-by-element and dense references."""

import itertools

import numpy as np

from entdyn import _kernels
from entdyn.evolution import _apply_circuit, run_rqc
from entdyn.operators import build_two_qubit_gate
from entdyn.state import random_sector_state

from oracles import dense_gate


def test_sector_words_matches_combinations():
    for L, n_up in [(4, 2), (6, 3), (6, 1), (8, 4), (10, 5), (12, 6)]:
        words = _kernels.sector_words(L, n_up)
        expected = sorted(
            sum(1 << p for p in c) for c in itertools.combinations(range(L), n_up)
        )
        assert words.dtype == np.int64
        assert words.tolist() == expected


def _circuit(amps, gate, basis, bonds):
    for _ in _apply_circuit(amps, gate, basis, bonds, []):
        pass
    return amps


def test_apply_circuit_matches_dense_oracle_up_to_phase(basis8, rng):
    # generic, SWAP, class A and class C gates
    bonds = rng.integers(1, 8, size=25)
    amps = rng.normal(size=basis8.dim) + 1j * rng.normal(size=basis8.dim)
    amps /= np.linalg.norm(amps)
    cols = (amps, 1j * amps, amps[::-1])
    for alpha, beta in [(1.2, 2.7), (np.pi, np.pi), (0.0, 1.7), (np.pi, 0.0)]:
        gate = build_two_qubit_gate(alpha, beta)
        psi = np.zeros(2**8, dtype=complex)
        psi[basis8.states] = amps
        for b in bonds:
            psi = dense_gate(8, int(b), gate.u) @ psi
        ones = [_circuit(col.copy(), gate, basis8, bonds) for col in cols]
        # the lean gate drops the global phase u[0, 0] once per gate
        phase = gate.u[0, 0] ** bonds.size
        assert np.max(np.abs(phase * ones[0] - psi[basis8.states])) < 1e-13
        # a (dim, m) block transforms column by column, each like one state
        block = _circuit(np.stack(cols, axis=1), gate, basis8, bonds)
        assert np.array_equal(block, np.stack(ones, axis=1))


def test_apply_circuit_calls_gate_mix_once_per_gate(basis8, rng, monkeypatch):
    # the benchmark counts gates by wrapping the module attribute
    # _kernels.gate_mix; one call per gate keeps that count meaningful
    calls = []
    gate_mix = _kernels.gate_mix

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return gate_mix(*args, **kwargs)

    monkeypatch.setattr(_kernels, "gate_mix", counted)
    state = random_sector_state(basis8, rng)
    run_rqc(state, 1.2, 0.4, 40, rng=np.random.default_rng(2), record=[0, 17, 40])
    assert calls == [(basis8.dim,)] * 40
    calls.clear()
    block = np.stack([state.amplitudes] * 3, axis=1)
    gate = build_two_qubit_gate(2.2, 0.8)
    _circuit(block, gate, basis8, rng.integers(1, 8, size=30))
    assert calls == [(basis8.dim, 3)] * 30


def test_swap_walk_matches_python_walk():
    table = np.array([[0, 1, 0], [1, 2, 0], [2, 2, 1]], dtype=np.int64)
    bonds = np.random.default_rng(1).integers(0, 3, size=500)
    final, counts = _kernels.swap_walk(table, 0, bonds, 50)
    s = 0
    slow = np.zeros(3, dtype=np.int64)
    for i, b in enumerate(bonds):
        s = table[s, b]
        if i >= 50:
            slow[s] += 1
    assert final == s
    assert np.array_equal(counts, slow)
    assert counts.sum() == 450
