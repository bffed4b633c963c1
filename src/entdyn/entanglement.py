"""Subsystem entropies of sector states and bipartition averages.

Entropies are von Neumann entropies in bits.  For a state in a fixed
magnetization sector, the reduced density matrix of a site subset A is
block diagonal over the A-side up count, and each block's nonzero
spectrum is that of the Gram matrix of the smaller side of the
coefficient block.

Every entropy goes through one kernel, ``_entropies_of_scattered``.  A
caller lays the amplitudes of many states (rows) out in the block layout
of ``subsystem_split``, by scatter or by gather; the kernel forms each
block's Gram matrices for all rows at once, gathers the eigenvalues,
checks that each row's spectral weight is one, and applies the clip
policy.  Three callers feed it: ``subset_entropy`` (one state, any
subset), ``_half_chain_entropies`` (many states, the half chain) and
``bipartition_entropies`` (one state, many half-size subsets, on a thread
pool).  Two aggregate quantities drive the experiments:

* ``hcee``  -- entropy of the left half chain, sites 1..L/2.
* ``baee``  -- entropy averaged over every equal bipartition of the chain,
               one representative per complementary pair (the one
               containing site 1), enumerated exhaustively.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .basis import (
    SectorBasis,
    _split_geometry,
    _subset_positions,
    enumerate_sector,
    subsystem_split,
)
from .errors import NumericError, ParameterError
from .state import _NORM_TOL, SectorState

_EIG_TOL = 1e-12
# a state whose norm SectorState accepts has spectral weight within this of 1
_TRACE_TOL = (1.0 + _NORM_TOL) ** 2 - 1.0 + 1e-12


def _entropy_from_eigs(w: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) along the last axis, with the clip policy.

    Eigenvalues in (-1e-12, 0) are rounding debris and clip to zero; more
    negative values indicate a real defect and raise ``NumericError``.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size and float(w.min()) < -_EIG_TOL:
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
        if len(self.sites) != self.L // 2 or self.sites[0] != 1:
            raise ParameterError(
                f"canonical bipartition of L={self.L} must hold L/2 sites "
                f"including site 1, got {self.sites}"
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
        half = tuple(sorted(int(s) for s in sites))
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
        sites = [s for s in range(1, L + 1) if (mask >> (s - 1)) & 1]
        return cls.from_sites(L, sites)

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


def _entropies_of_scattered(basis: SectorBasis, buf: np.ndarray, nA: int) -> np.ndarray:
    """Entropy of every row of ``buf``, laid out in the size-``nA`` block order.

    The one spectral kernel: it forms each block's Gram matrix for all rows
    at once, gathers every row's block eigenvalues into one ``(m, n)``
    array, and applies the trace check and the clip policy once per call.
    """
    _, shapes, offsets, _, _ = _split_geometry(basis, nA)
    m = buf.shape[0]
    parts = []
    for (r, c), o in zip(shapes.tolist(), offsets.tolist()):
        Z = buf[:, o : o + r * c].reshape(m, r, c)
        if r == 1 or c == 1:
            parts.append(np.sum(Z.real**2 + Z.imag**2, axis=(1, 2))[:, None])
        elif r <= c:
            parts.append(np.linalg.eigvalsh(Z @ Z.conj().transpose(0, 2, 1)))
        else:
            parts.append(np.linalg.eigvalsh(Z.conj().transpose(0, 2, 1) @ Z))
    w = np.concatenate(parts, axis=1)
    dev = np.abs(np.clip(w, 0.0, None).sum(axis=1) - 1.0)
    if dev.size and dev.max() > _TRACE_TOL:
        raise NumericError(f"subset spectral weight deviates from 1 by {dev.max():.3g}")
    return _entropy_from_eigs(w)


def _subset_entropies(basis: SectorBasis, subset, block: np.ndarray) -> np.ndarray:
    """Entropy of ``subset`` for every unit column of a ``(dim, m)`` block."""
    split = subsystem_split(basis, subset)
    buf = np.zeros((block.shape[1], basis.dim), dtype=np.complex128)
    buf[:, split.positions] = block.T
    return _entropies_of_scattered(basis, buf, len(split.subset))


def subset_entropy(state: SectorState, subset) -> float:
    """Entropy of a subset without forming the full reduced matrix."""
    return float(_subset_entropies(state.basis, subset, state.amplitudes[:, None])[0])


def hcee(state: SectorState) -> float:
    """Half-chain entanglement entropy, subset = sites 1..L/2."""
    return subset_entropy(state, range(1, state.basis.L // 2 + 1))


def _half_chain_entropies(basis: SectorBasis, block: np.ndarray) -> np.ndarray:
    """Half-chain entropy of every unit column of a ``(dim, m)`` block."""
    return _subset_entropies(basis, range(1, basis.L // 2 + 1), block)


_SLOTS_CACHE_MAX_L = 14


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bipartition_slots(basis: SectorBasis, start: int, stop: int) -> np.ndarray:
    """Sector ordinal at every block-layout slot, for bipartitions[start:stop].

    Row ``i`` inverts the positions of bipartition ``start + i``, so
    ``amps[rows]`` lays one state out in the blocks of every bipartition.
    """
    rows = np.empty((stop - start, basis.dim), dtype=np.int32)
    ordinals = np.arange(basis.dim, dtype=np.int32)
    for row, bp in zip(rows, enumerate_bipartitions(basis.L)[start:stop]):
        row[_subset_positions(basis, bp.sites)] = ordinals
    return rows


def _check_chunk_size(chunk_size) -> None:
    if (
        isinstance(chunk_size, bool)
        or not isinstance(chunk_size, (int, np.integer))
        or chunk_size < 1
    ):
        raise ParameterError(
            f"chunk_size must be a positive integer, got {chunk_size!r}"
        )


def bipartition_entropies(state: SectorState, chunk_size: int = 128) -> np.ndarray:
    """Entropy of every canonical bipartition, in enumeration order.

    The bipartitions go in chunks of ``chunk_size``; each chunk gathers its
    rows, takes their entropies and writes its own slice of the result.
    The chunks run on a thread pool with one worker per CPU the process
    may use (the calling thread alone on one CPU): LAPACK and the Gram
    products release the GIL.  No chunk depends on another, so the
    entropies are the same bits for any number of workers.  Up to
    L = 14 the gather rows are kept on the basis, stored once all chunks
    have filled them; workers never write the basis cache.
    """
    _check_chunk_size(chunk_size)
    basis = state.basis
    half = basis.L // 2
    n = len(enumerate_bipartitions(basis.L))
    _split_geometry(basis, half)  # cached here, only read by the workers
    cached = basis._cache.get("baee_slots")
    fresh = None
    if cached is None and basis.L <= _SLOTS_CACHE_MAX_L:
        fresh = np.empty((n, basis.dim), dtype=np.int32)
    amps = state.amplitudes
    out = np.empty(n, dtype=np.float64)

    def chunk(start: int) -> None:
        stop = min(start + chunk_size, n)
        if cached is not None:
            rows = cached[start:stop]
        else:
            rows = _bipartition_slots(basis, start, stop)
            if fresh is not None:
                fresh[start:stop] = rows
        out[start:stop] = _entropies_of_scattered(basis, amps[rows], half)

    starts = range(0, n, chunk_size)
    workers = min(len(starts), _cpus())
    if workers == 1:
        for start in starts:
            chunk(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(chunk, starts):
                pass
    if fresh is not None:
        basis._cache["baee_slots"] = fresh
    return out


def baee(state: SectorState, chunk_size: int = 128) -> float:
    """Bipartition-averaged entanglement entropy (exhaustive mean)."""
    return float(bipartition_entropies(state, chunk_size=chunk_size).mean())


@dataclass(frozen=True)
class HaarEstimate:
    """Monte Carlo estimate of the sector-mean half-chain entropy."""

    L: int
    mean: float
    stderr: float
    samples: int


def haar_sector_average(
    L: int, samples: int, rng: np.random.Generator, batch: int = 1024
) -> HaarEstimate:
    """Sample Haar sector states and average their half-chain entropy."""
    if samples < 2:
        raise ParameterError(f"need at least 2 samples, got {samples}")
    basis = enumerate_sector(L, 0)
    values = np.empty(samples, dtype=np.float64)
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        z = rng.standard_normal((m, basis.dim)) + 1j * rng.standard_normal(
            (m, basis.dim)
        )
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        values[done : done + m] = _half_chain_entropies(basis, z.T)
        done += m
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples))
    return HaarEstimate(L=L, mean=mean, stderr=stderr, samples=samples)
