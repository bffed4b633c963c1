"""The plain-numpy kernels against element-by-element Python references."""

import itertools

import numpy as np

from entdyn import _kernels
from entdyn.basis import bond_groups
from entdyn.operators import build_two_qubit_gate


def test_sector_words_matches_combinations():
    for L, n_up in [(4, 2), (6, 3), (6, 1), (8, 4), (10, 5), (12, 6)]:
        words = _kernels.sector_words(L, n_up)
        expected = sorted(
            sum(1 << p for p in c) for c in itertools.combinations(range(L), n_up)
        )
        assert words.dtype == np.int64
        assert words.tolist() == expected


def test_pack_bits_small():
    words = np.array([0b1011, 0b0100], dtype=np.int64)
    positions = np.array([2, 0], dtype=np.int64)
    out = _kernels.pack_bits(words, positions)
    # word 0b1011: bit2=0 -> out bit0, bit0=1 -> out bit1 => 0b10
    assert out.tolist() == [0b10, 0b01]


def test_gate_mix_matches_scalar_semantics(basis8, rng):
    gate = build_two_qubit_gate(1.2, 2.7)
    amps = rng.normal(size=basis8.dim) + 1j * rng.normal(size=basis8.dim)
    uu, dd, ud, du = bond_groups(basis8, 3)
    # element-by-element python complex arithmetic as the reference
    expected = amps.copy()
    for i in uu:
        expected[i] = complex(expected[i]) * complex(gate.u[0, 0])
    for i in dd:
        expected[i] = complex(expected[i]) * complex(gate.u[3, 3])
    for p, q in zip(ud, du):
        a, b = complex(expected[p]), complex(expected[q])
        expected[p] = complex(gate.u[1, 1]) * a + complex(gate.u[1, 2]) * b
        expected[q] = complex(gate.u[2, 1]) * a + complex(gate.u[2, 2]) * b
    got = amps.copy()
    _kernels.gate_mix(got, uu, dd, ud, du, gate.u)
    assert np.array_equal(got, expected)
    # a (dim, m) block transforms column by column, each like one state
    block = np.stack([amps, 1j * amps, amps[::-1]], axis=1)
    _kernels.gate_mix(block, uu, dd, ud, du, gate.u)
    for k, col in enumerate((amps, 1j * amps, amps[::-1])):
        one = col.copy()
        _kernels.gate_mix(one, uu, dd, ud, du, gate.u)
        assert np.array_equal(block[:, k], one)


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
