"""Loop-bound kernels in plain numpy.

Only the work that does not map onto dense linear algebra lives here:
basis enumeration, the flip-flop mixing of a two-site gate and the
bipartition random walk.
"""

from __future__ import annotations

import numpy as np


def sector_words(L: int, n_up: int) -> np.ndarray:
    """All ``L``-bit words with ``n_up`` set bits, ascending (int64)."""
    words = np.arange(1 << L, dtype=np.int64)
    return words[np.bitwise_count(words) == n_up]


def gate_mix(amps: np.ndarray, ud: np.ndarray, du: np.ndarray, mix: np.ndarray) -> None:
    """Mix the flip-flop pairs of ``amps`` in place by the 2x2 block ``mix``.

    ``amps`` is one state ``(dim,)`` or a block ``(dim, m)`` of states, one
    per column.  ``ud[k]``/``du[k]`` index a basis state and its partner
    with the two bond sites exchanged; ``(amps[ud], amps[du])`` becomes
    ``mix @ (amps[ud], amps[du])``.  Every other amplitude is left alone:
    with ``mix = TwoQubitGate.mix`` this applies a two-site gate up to its
    global phase ``u[0, 0]``.
    """
    a = amps[ud]
    b = amps[du]
    amps[ud] = mix[0, 0] * a + mix[0, 1] * b
    amps[du] = mix[1, 0] * a + mix[1, 1] * b


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
