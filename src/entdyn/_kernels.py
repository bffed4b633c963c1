"""Loop-bound kernels in plain numpy.

Only the work that does not map onto dense linear algebra lives here:
basis enumeration, subset bit packing, two-site gate application and the
bipartition random walk.
"""

from __future__ import annotations

import numpy as np


def sector_words(L: int, n_up: int) -> np.ndarray:
    """All ``L``-bit words with ``n_up`` set bits, ascending (int64)."""
    words = np.arange(1 << L, dtype=np.int64)
    return words[np.bitwise_count(words) == n_up]


def pack_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Gather the bits of each word at ``positions`` into a compact word.

    Bit ``j`` of the result is bit ``positions[j]`` of the input word.
    """
    positions = np.asarray(positions, dtype=np.int64)
    out = np.zeros_like(words)
    for j in range(positions.size):
        out |= ((words >> positions[j]) & np.int64(1)) << np.int64(j)
    return out


def _cmul(g, x):
    # complex multiply spelled out in real arithmetic; numpy's fused SIMD
    # complex product rounds differently from Python's scalar complex
    # product, which test_gate_mix_matches_scalar_semantics checks bitwise
    out = np.empty_like(x)
    out.real = x.real * g.real - x.imag * g.imag
    out.imag = x.real * g.imag + x.imag * g.real
    return out


def gate_mix(amps: np.ndarray, uu, dd, ud, du, u4: np.ndarray) -> None:
    """Apply a magnetization-block two-site gate to ``amps`` in place.

    ``amps`` is one state ``(dim,)`` or a block ``(dim, m)`` of states, one
    per column.  ``uu``/``dd`` index basis states whose bond sites are both
    up / both down; ``ud``/``du`` are aligned index pairs coupled by the
    middle block of the 4x4 gate ``u4`` (ordering up-up, up-down, down-up,
    down-down).
    """
    amps[uu] = _cmul(u4[0, 0], amps[uu])
    amps[dd] = _cmul(u4[3, 3], amps[dd])
    a = amps[ud]
    b = amps[du]
    amps[ud] = _cmul(u4[1, 1], a) + _cmul(u4[1, 2], b)
    amps[du] = _cmul(u4[2, 1], a) + _cmul(u4[2, 2], b)


def swap_walk(table: np.ndarray, start: int, bonds: np.ndarray, burn_in: int):
    """Run the bipartition random walk defined by ``table``.

    ``table[s, b]`` is the successor of state ``s`` under bond ``b``.  The
    first ``burn_in`` transitions are discarded; every later visited state
    is tallied.  Returns ``(final_state, counts)``.
    """
    counts = np.zeros(table.shape[0], dtype=np.int64)
    s = start
    for i, b in enumerate(np.asarray(bonds, dtype=np.int64)):
        s = table[s, b]
        if i >= burn_in:
            counts[s] += 1
    return int(s), counts
