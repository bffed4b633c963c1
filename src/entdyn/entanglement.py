"""Subsystem entropies of sector states and bipartition averages.

Entropies are von Neumann entropies in bits.  For a state in a fixed
magnetization sector, the reduced density matrix of a site subset A is
block diagonal over the A-side up count, and each block's nonzero
spectrum is that of the Gram matrix of the smaller side of the
coefficient block.

Every entropy goes through two shared stages.  A caller gathers the
amplitudes of many states (rows) into the block layout of a subset
through the subset's slot row (``basis._slot_rows`` builds every row);
``_layout_grams`` forms each block's Gram matrices for all rows at once,
and ``_gram_entropies`` takes their eigenvalues, checks that each row's
spectral weight is one, and applies the clip policy.  Three callers feed
them: ``subset_entropy`` (one state, any subset), ``_half_chain_entropies``
(a block of states, the half chain) and ``_bipartition_entropies`` (a
block of states, every canonical bipartition, both stages per chunk on a
thread pool); ``bipartition_entropies`` and ``baee`` are its one-column
calls.  ``_half_chain_overlapped`` runs the first stage of a sequence of
blocks on the calling thread and the second on one worker, a block behind.
Every BAEE call holds numpy's OpenBLAS at one thread.  Two aggregate
quantities drive the experiments:

* ``hcee``  -- entropy of the left half chain, sites 1..L/2.
* ``baee``  -- entropy averaged over every equal bipartition of the chain,
               one representative per complementary pair (the one
               containing site 1), enumerated exhaustively.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, fsum, log
from pathlib import Path
from queue import SimpleQueue

import numpy as np

from .basis import SectorBasis, _slot_rows, _split_geometry, _subset_row, _whole_numbers
from .errors import NumericError, ParameterError
from .state import _NORM_TOL, SectorState

_EIG_TOL = 1e-12
_SET_THREADS = "scipy_openblas_set_num_threads64_"
# a state whose norm SectorState accepts has spectral weight within this of 1
_TRACE_TOL = (1.0 + _NORM_TOL) ** 2 - 1.0 + 1e-12


def _entropy_from_eigs(w: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) along the last axis, with the clip policy.

    Eigenvalues in (-1e-12, 0) are rounding debris and clip to zero; more
    negative values indicate a real defect and raise ``NumericError``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size and not -float(w.min()) <= _EIG_TOL:  # NaN fails too
        raise NumericError(
            f"density matrix eigenvalue {float(w.min())} below -{_EIG_TOL}"
        )
    p = np.clip(w, 0.0, None)
    logs = np.log2(p, where=p > 0, out=np.zeros_like(p))
    return -(p * logs).sum(axis=-1)


@dataclass(frozen=True)
class Bipartition:
    """An equal split of the chain; the stored half contains site 1."""

    L: int
    sites: tuple[int, ...]

    def __post_init__(self):
        s = tuple(self.sites)
        ascending = list(s) == sorted(set(s))
        if len(s) != self.L // 2 or s[:1] != (1,) or s[-1] > self.L or not ascending:
            raise ParameterError(
                f"canonical bipartition of L={self.L} must hold L/2 ascending "
                f"sites in 1..{self.L} including site 1, got {s}"
            )

    @property
    def mask(self) -> int:
        return sum(1 << (s - 1) for s in self.sites)

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.sites)
        return tuple(s for s in range(1, self.L + 1) if s not in inside)

    @classmethod
    def from_sites(cls, L: int, sites) -> "Bipartition":
        """Canonicalize an arbitrary half-subset (or its complement)."""
        if L < 2 or L % 2 != 0:
            raise ParameterError(f"L must be even and at least 2, got {L}")
        half = tuple(sorted(_whole_numbers(list(sites), "sites").tolist()))
        if len(half) != L // 2 or len(set(half)) != len(half):
            raise ParameterError(f"need L/2 distinct sites, got {half}")
        if half and (half[0] < 1 or half[-1] > L):
            raise ParameterError(f"sites must lie in 1..{L}, got {half}")
        if 1 not in half:
            inside = set(half)
            half = tuple(s for s in range(1, L + 1) if s not in inside)
        return cls(L=L, sites=half)

    @classmethod
    def from_mask(cls, L: int, mask: int) -> "Bipartition":
        if mask < 0 or mask >> L:
            raise ParameterError(f"mask {mask} sets bits outside sites 1..{L}")
        return cls.from_sites(L, [s for s in range(1, L + 1) if (mask >> (s - 1)) & 1])

    @classmethod
    def half_chain(cls, L: int) -> "Bipartition":
        return cls.from_sites(L, range(1, L // 2 + 1))


@lru_cache(maxsize=None)
def enumerate_bipartitions(L: int) -> tuple[Bipartition, ...]:
    """All canonical equal bipartitions, ascending by site mask."""
    if L < 2 or L % 2 != 0:
        raise ParameterError(f"L must be even and at least 2, got {L}")
    bips = [
        Bipartition(L=L, sites=(1,) + rest)
        for rest in combinations(range(2, L + 1), L // 2 - 1)
    ]
    bips.sort(key=lambda b: b.mask)
    return tuple(bips)


def _layout_grams(basis: SectorBasis, buf: np.ndarray, nA: int):
    """Per block of the size-``nA`` layout, the Gram stack of all rows of ``buf``.

    A one-row or one-column block yields its ``(m, 1)`` weights instead.
    """
    _, shapes, offsets = _split_geometry(basis, nA)
    m = buf.shape[0]
    for (r, c), o in zip(shapes.tolist(), offsets.tolist()):
        Z = buf[:, o : o + r * c].reshape(m, r, c)
        if r == 1 or c == 1:
            yield np.sum(Z.real**2 + Z.imag**2, axis=(1, 2))[:, None]
        elif r <= c:
            yield Z @ Z.conj().transpose(0, 2, 1)
        else:
            yield Z.conj().transpose(0, 2, 1) @ Z


def _gram_entropies(grams) -> np.ndarray:
    """Entropy of every row from its blocks' Gram stacks, one ``eigvalsh`` each.

    The trace check and the clip policy apply once to all the eigenvalues.
    Fed by :func:`_layout_grams`, each stack is freed before the next forms.
    """
    parts = []
    for g in grams:
        try:
            parts.append(g if g.ndim == 2 else np.linalg.eigvalsh(g))
        except np.linalg.LinAlgError as exc:  # NaN amplitudes
            raise NumericError(f"subset spectrum: {exc}") from exc
        del g
    w = np.concatenate(parts, axis=1)
    dev = np.abs(np.clip(w, 0.0, None).sum(axis=1) - 1.0)
    if dev.size and not dev.max() <= _TRACE_TOL:  # NaN fails too
        raise NumericError(f"subset spectral weight deviates from 1 by {dev.max():.3g}")
    return _entropy_from_eigs(w)


def _subset_grams(basis: SectorBasis, subset, block: np.ndarray):
    """The Gram stacks of ``subset`` for every unit column of a ``(dim, m)`` block."""
    sites, row = _subset_row(basis, subset)
    return _layout_grams(basis, np.asarray(block, dtype=np.complex128)[row].T, len(sites))


def subset_entropy(state: SectorState, subset) -> float:
    """Entropy of a subset without forming the full reduced matrix."""
    return float(_gram_entropies(_subset_grams(state.basis, subset, state.amplitudes[:, None]))[0])


def hcee(state: SectorState) -> float:
    """Half-chain entanglement entropy, subset = sites 1..L/2."""
    return subset_entropy(state, range(1, state.basis.L // 2 + 1))


def _half_chain_entropies(basis: SectorBasis, block: np.ndarray) -> np.ndarray:
    """Half-chain entropy of every unit column of a ``(dim, m)`` block."""
    return _gram_entropies(_subset_grams(basis, range(1, basis.L // 2 + 1), block))


# rows (bipartitions x states) per chunk of the bipartition entropies
_CHUNK_ROWS = 128


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _one_blas_thread():
    """numpy's bundled OpenBLAS on one thread inside the block, if it has one.

    A pooled section keeps every CPU busy, and BLAS threads on top only
    contend; a serial section held at one thread too gives the pool's bits.
    """
    libs = (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*")
    lib = next((b for b in map(ctypes.CDLL, map(str, libs)) if hasattr(b, _SET_THREADS)), None)
    if lib is None:
        yield
        return
    get, set_ = lib.scipy_openblas_get_num_threads64_, getattr(lib, _SET_THREADS)
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _half_chain_overlapped(basis: SectorBasis, evolve, n: int) -> list:
    """Half-chain entropies of the blocks ``evolve(0), ..., evolve(n - 1)``.

    With two or more CPUs and blocks, the calling thread evolves each block
    and forms its Gram stacks, while one worker thread takes the spectra,
    trace check and clip policy of the block before.  Otherwise both stages
    run inline.  The blocks go through two queues: a future per block
    allocated on the C heap at moments that depend on thread timing, which
    made the peak memory vary between processes.
    """
    if n == 1 or _cpus() == 1:
        return [_half_chain_entropies(basis, evolve(i)) for i in range(n)]
    sites, todo, done, out = range(1, basis.L // 2 + 1), SimpleQueue(), SimpleQueue(), []

    def work() -> None:
        for grams in iter(todo.get, None):
            try:
                done.put(_gram_entropies(grams))
            except BaseException as exc:  # raised again on the calling thread
                done.put(exc)
            del grams

    worker = threading.Thread(target=work)
    worker.start()
    try:
        for i in range(n + 1):  # one block in flight at a time
            grams = list(_subset_grams(basis, sites, evolve(i))) if i < n else None
            if i:
                out.append(done.get())
                if isinstance(out[-1], BaseException):
                    raise out[-1]
            todo.put(grams)
            del grams
    finally:
        todo.put(None)
        worker.join()
    return out


def _bipartition_entropies(basis: SectorBasis, block: np.ndarray) -> np.ndarray:
    """Entropy of every canonical bipartition of every unit column of a block.

    Returns ``(m, n)`` for a ``(dim, m)`` block and the n bipartitions in
    enumeration order.  Each chunk takes ``c = max(1, _CHUNK_ROWS // m)``
    bipartitions of all m states, gathers their ``m * c`` rows, takes
    their entropies and writes its own columns of the result.  The chunks
    run on a thread pool with one worker per CPU the process may use (the
    calling thread alone on one CPU): LAPACK and the Gram products release
    the GIL.  Either way numpy's OpenBLAS runs on one thread.  No chunk
    depends on another, and each row's entropy depends on that row alone,
    so the entropies are the same bits for any number of workers, states or
    BLAS threads.  Workers only read the basis cache.
    """
    half = basis.L // 2
    cuts = enumerate_bipartitions(basis.L)
    n = len(cuts)
    sites_a = np.array([bp.sites for bp in cuts], dtype=np.int32)
    sites_b = np.array([bp.complement for bp in cuts], dtype=np.int32)
    _subset_row(basis, cuts[0].sites)  # fills every table the workers read
    amps = np.ascontiguousarray(block.T, dtype=np.complex128)
    m = amps.shape[0]
    c = max(1, _CHUNK_ROWS // m)
    out = np.empty((m, n), dtype=np.float64)

    def chunk(start: int) -> None:
        stop = min(start + c, n)
        rows = _slot_rows(basis, sites_a[start:stop], sites_b[start:stop])
        buf = np.take(amps, rows, axis=1).reshape(m * (stop - start), basis.dim)
        ent = _gram_entropies(_layout_grams(basis, buf, half))
        out[:, start:stop] = ent.reshape(m, stop - start)

    starts = range(0, n, c)
    workers = min(len(starts), _cpus())
    with _one_blas_thread():
        if workers == 1:
            for start in starts:
                chunk(start)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for _ in pool.map(chunk, starts):
                    pass
    return out


def bipartition_entropies(state: SectorState) -> np.ndarray:
    """Entropy of every canonical bipartition, in enumeration order."""
    return _bipartition_entropies(state.basis, state.amplitudes[:, None])[0]


def baee(state: SectorState) -> float:
    """Bipartition-averaged entanglement entropy (exhaustive mean)."""
    return float(bipartition_entropies(state).mean())


def haar_sector_mean_exact(L: int) -> float:
    """Mean half-chain entropy (bits) of Haar-random states of the zero sector.

    The sector state's reduced matrix is block diagonal over the up count
    k of the left half; with block sides m <= n and sector dimension D,
    the mean is the sum over blocks of
    ``(d_A d_B / D) [psi(D+1) - psi(n+1) - (m-1)/(2n)]`` nats (Bianchi &
    Dona, PRD 100, 105010), with ``psi(k+1) = H_k - gamma``.
    """
    if L < 2 or L % 2 != 0:
        raise ParameterError(f"L must be even and at least 2, got {L}")
    half = L // 2
    D = comb(L, half)
    total = 0.0
    for k in range(half + 1):
        d = comb(half, k)  # square block: d_A = C(L/2, k) = C(L/2, L/2 - k) = d_B
        harmonic = fsum(1.0 / j for j in range(d + 1, D + 1))  # H_D - H_d
        total += d * d / D * (harmonic - (d - 1) / (2 * d))
    return total / log(2.0)
