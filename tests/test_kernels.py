"""Backend equivalence: the numba kernels must reproduce the numpy path bit
for bit, not merely to tolerance."""

import itertools
import math

import numpy as np
import pytest

from entdyn import _kernels
from entdyn.basis import bond_groups, enumerate_sector
from entdyn.errors import ParameterError
from entdyn.operators import build_two_qubit_gate

needs_numba = pytest.mark.skipif(
    not _kernels.has_numba(), reason="numba unavailable"
)


@pytest.fixture()
def both_backends():
    yield
    _kernels.set_backend("auto")


def _with(backend, fn):
    _kernels.set_backend(backend)
    try:
        return fn()
    finally:
        _kernels.set_backend("auto")


def test_sector_words_matches_combinations():
    for L, n_up in [(4, 2), (6, 3), (6, 1), (8, 4), (10, 5)]:
        size = math.comb(L, n_up)
        words = _kernels.sector_words(L, n_up, size)
        expected = sorted(
            sum(1 << p for p in c) for c in itertools.combinations(range(L), n_up)
        )
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


@needs_numba
def test_backend_switch_reports(both_backends):
    _kernels.set_backend("numba")
    assert _kernels.backend() == "numba"
    _kernels.set_backend("numpy")
    assert _kernels.backend() == "numpy"


def test_set_backend_rejects_unknown():
    with pytest.raises(ParameterError):
        _kernels.set_backend("cuda")


@needs_numba
def test_sector_words_bit_identical(both_backends):
    for L, n_up in [(6, 3), (10, 5), (12, 6)]:
        size = math.comb(L, n_up)
        a = _with("numpy", lambda: _kernels.sector_words(L, n_up, size))
        b = _with("numba", lambda: _kernels.sector_words(L, n_up, size))
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype == np.int64


@needs_numba
def test_pack_bits_bit_identical(both_backends, basis8, rng):
    positions = np.array([0, 3, 5, 6], dtype=np.int64)
    a = _with("numpy", lambda: _kernels.pack_bits(basis8.states, positions))
    b = _with("numba", lambda: _kernels.pack_bits(basis8.states, positions))
    assert np.array_equal(a, b)


@needs_numba
def test_gate_mix_bit_identical(both_backends, basis8, rng):
    gate = build_two_qubit_gate(0.9, 5.1)
    uu, dd, ud, du = bond_groups(basis8, 4)
    for shape in ((basis8.dim,), (basis8.dim, 3)):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def run():
            out = amps.copy()
            _kernels.gate_mix(out, uu, dd, ud, du, gate.u)
            return out

        a = _with("numpy", run)
        b = _with("numba", run)
        # identical float operations in identical order on both paths
        assert np.array_equal(a, b)


@needs_numba
def test_swap_walk_bit_identical(both_backends):
    table = np.array([[0, 1, 0], [1, 2, 0], [2, 2, 1]], dtype=np.int64)
    bonds = np.random.default_rng(7).integers(0, 3, size=10_000)

    def run():
        return _kernels.swap_walk(table, 1, bonds, 100)

    fa, ca = _with("numpy", run)
    fb, cb = _with("numba", run)
    assert fa == fb
    assert np.array_equal(ca, cb)


def test_env_var_selects_backend(tmp_path):
    import subprocess
    import sys

    import os

    code = "import entdyn._kernels as k; print(k.backend())"
    env = {"PATH": "/usr/bin:/bin", "ENTDYN_BACKEND": "numpy"}
    if "PYTHONPATH" in os.environ:
        # an uninstalled checkout is importable only through PYTHONPATH
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "numpy"
