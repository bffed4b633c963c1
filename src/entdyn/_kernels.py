"""Hot inner-loop kernels with interchangeable numba and pure-numpy backends.

The backend is selected once at import from the ``ENTDYN_BACKEND``
environment variable and can be switched at runtime with :func:`set_backend`:

* ``auto``  (default) -- jitted kernels when numba imports, numpy otherwise
* ``numba`` -- require the jitted kernels, raise if numba is unavailable
* ``numpy`` -- force the pure-python/numpy reference path

Both paths perform the same arithmetic in the same order, element by
element; no fastmath, no parallel reductions.  The equivalence tests assert
bit-identical outputs, so either backend can be trusted interchangeably.

Only genuinely loop-bound work lives here (basis enumeration, subset bit
packing, two-site gate application, the bipartition random walk).  Dense
linear algebra stays in numpy/LAPACK regardless of backend.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParameterError

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    _HAVE_NUMBA = False

_VALID = ("auto", "numba", "numpy")


def _resolve(name: str) -> str:
    if name not in _VALID:
        raise ParameterError(
            f"backend must be one of {_VALID}, got {name!r}"
        )
    if name == "auto":
        return "numba" if _HAVE_NUMBA else "numpy"
    if name == "numba" and not _HAVE_NUMBA:
        raise ParameterError("numba backend requested but numba is not importable")
    return name


_active = _resolve(os.environ.get("ENTDYN_BACKEND", "auto"))


def backend() -> str:
    """Name of the active backend, ``"numba"`` or ``"numpy"``."""
    return _active


def has_numba() -> bool:
    return _HAVE_NUMBA


def set_backend(name: str) -> str:
    """Switch backends at runtime; returns the resolved name."""
    global _active
    _active = _resolve(name)
    return _active


# ---------------------------------------------------------------------------
# pure-numpy reference implementations
# ---------------------------------------------------------------------------


def _sector_words_py(L: int, n_up: int, size: int) -> np.ndarray:
    out = np.empty(size, dtype=np.int64)
    x = (1 << n_up) - 1
    for k in range(size):
        out[k] = x
        if k + 1 < size:
            u = x & (-x)
            v = x + u
            x = v + (((x ^ v) // u) >> 2)
    return out


def _pack_bits_py(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    out = np.zeros_like(words)
    for j in range(positions.size):
        out |= ((words >> np.int64(positions[j])) & np.int64(1)) << np.int64(j)
    return out


def _cmul(g, x):
    # complex multiply spelled out in real arithmetic; numpy's fused SIMD
    # complex product rounds differently from the scalar algorithm the
    # jitted path compiles to, and backend equivalence is promised bitwise
    out = np.empty_like(x)
    out.real = x.real * g.real - x.imag * g.imag
    out.imag = x.real * g.imag + x.imag * g.real
    return out


def _gate_mix_py(amps, uu, dd, ud, du, g00, g11, g12, g21, g22, g33) -> None:
    amps[uu] = _cmul(g00, amps[uu])
    amps[dd] = _cmul(g33, amps[dd])
    a = amps[ud]
    b = amps[du]
    amps[ud] = _cmul(g11, a) + _cmul(g12, b)
    amps[du] = _cmul(g21, a) + _cmul(g22, b)


def _swap_walk_py(table, start, bonds, burn_in, counts) -> int:
    s = start
    for i in range(bonds.size):
        s = table[s, bonds[i]]
        if i >= burn_in:
            counts[s] += 1
    return s


# ---------------------------------------------------------------------------
# numba implementations, compiled on first use
# ---------------------------------------------------------------------------

_numba_impls: dict[str, object] = {}


def _build_numba():
    njit = numba.njit

    @njit(cache=False)
    def sector_words_nb(L, n_up, size):  # pragma: no cover - jitted
        out = np.empty(size, dtype=np.int64)
        x = np.int64((1 << n_up) - 1)
        for k in range(size):
            out[k] = x
            if k + 1 < size:
                u = x & (-x)
                v = x + u
                x = v + (((x ^ v) // u) >> 2)
        return out

    @njit(cache=False)
    def pack_bits_nb(words, positions):  # pragma: no cover - jitted
        out = np.zeros_like(words)
        for i in range(words.size):
            w = words[i]
            acc = np.int64(0)
            for j in range(positions.size):
                acc |= ((w >> positions[j]) & np.int64(1)) << np.int64(j)
            out[i] = acc
        return out

    @njit(cache=False)
    def gate_mix_nb(amps, uu, dd, ud, du, g00, g11, g12, g21, g22, g33):  # pragma: no cover
        # amps is (dim, m); each column is one state.  Scalar temporaries:
        # a row slice would be a view, overwritten before its partner row.
        m = amps.shape[1]
        for i in range(uu.size):
            for k in range(m):
                amps[uu[i], k] *= g00
        for i in range(dd.size):
            for k in range(m):
                amps[dd[i], k] *= g33
        for i in range(ud.size):
            p = ud[i]
            q = du[i]
            for k in range(m):
                a = amps[p, k]
                b = amps[q, k]
                amps[p, k] = g11 * a + g12 * b
                amps[q, k] = g21 * a + g22 * b

    @njit(cache=False)
    def swap_walk_nb(table, start, bonds, burn_in, counts):  # pragma: no cover
        s = start
        for i in range(bonds.size):
            s = table[s, bonds[i]]
            if i >= burn_in:
                counts[s] += 1
        return s

    _numba_impls.update(
        sector_words=sector_words_nb,
        pack_bits=pack_bits_nb,
        gate_mix=gate_mix_nb,
        swap_walk=swap_walk_nb,
    )


def _nb(name: str):
    if not _numba_impls:
        _build_numba()
    return _numba_impls[name]


# ---------------------------------------------------------------------------
# dispatching entry points
# ---------------------------------------------------------------------------


def sector_words(L: int, n_up: int, size: int) -> np.ndarray:
    """All ``L``-bit words with ``n_up`` set bits, ascending (int64)."""
    if _active == "numba":
        return _nb("sector_words")(np.int64(L), np.int64(n_up), np.int64(size))
    return _sector_words_py(L, n_up, size)


def pack_bits(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Gather the bits of each word at ``positions`` into a compact word.

    Bit ``j`` of the result is bit ``positions[j]`` of the input word.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if _active == "numba":
        return _nb("pack_bits")(words, positions)
    return _pack_bits_py(words, positions)


def gate_mix(amps: np.ndarray, uu, dd, ud, du, u4: np.ndarray) -> None:
    """Apply a magnetization-block two-site gate to ``amps`` in place.

    ``amps`` is one state ``(dim,)`` or a block ``(dim, m)`` of states, one
    per column.  ``uu``/``dd`` index basis states whose bond sites are both
    up / both down; ``ud``/``du`` are aligned index pairs coupled by the
    middle block of the 4x4 gate ``u4`` (ordering up-up, up-down, down-up,
    down-down).
    """
    g = (u4[0, 0], u4[1, 1], u4[1, 2], u4[2, 1], u4[2, 2], u4[3, 3])
    if _active == "numba":
        # a view, so the in-place update reaches a one-dimensional ``amps``
        _nb("gate_mix")(amps.reshape(amps.shape[0], -1), uu, dd, ud, du, *g)
    else:
        _gate_mix_py(amps, uu, dd, ud, du, *g)


def swap_walk(table: np.ndarray, start: int, bonds: np.ndarray, burn_in: int):
    """Run the bipartition random walk defined by ``table``.

    ``table[s, b]`` is the successor of state ``s`` under bond ``b``.  The
    first ``burn_in`` transitions are discarded; every later visited state
    is tallied.  Returns ``(final_state, counts)``.
    """
    counts = np.zeros(table.shape[0], dtype=np.int64)
    bonds = np.ascontiguousarray(bonds, dtype=np.int64)
    if _active == "numba":
        final = _nb("swap_walk")(table, np.int64(start), bonds, np.int64(burn_in), counts)
    else:
        final = _swap_walk_py(table, start, bonds, burn_in, counts)
    return int(final), counts
