"""Fixed-magnetization basis of a spin-1/2 chain and subsystem block maps.

Sites are numbered 1..L left to right.  A basis state is an L-bit integer
word in which bit ``i - 1`` holds site ``i``; a set bit is spin up.  A
sector collects every word with a fixed number of up spins
``n_up = L/2 + sz_total`` and stores them ascending, so the ordinal of a
word inside the sector is its position in that sorted list.

``subsystem_split`` decomposes the sector along an arbitrary site subset A:
because total magnetization is fixed, the coefficient matrix between A and
its complement is block diagonal, one block per A-side up count.  The split
records, for every sector ordinal, its flat position in that block layout.
The map is a bijection onto ``range(dim)``: a permutation, never a
projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import CapacityError, ParameterError, StateNotInSector

_MAX_L = 20


def popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).astype(np.int64)


@dataclass(eq=False)
class SectorBasis:
    """All L-site words with fixed total magnetization, ascending."""

    L: int
    sz_total: float
    n_up: int
    states: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return int(self.states.size)

    def index_of(self, word: int) -> int:
        """Sector ordinal of ``word``; StateNotInSector if absent."""
        pos = int(np.searchsorted(self.states, word))
        if pos >= self.dim or int(self.states[pos]) != int(word):
            raise StateNotInSector(
                f"word {int(word)} is not in the L={self.L}, n_up={self.n_up} sector"
            )
        return pos

    def index_many(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of`."""
        pos = np.searchsorted(self.states, words)
        if (pos >= self.dim).any() or not np.array_equal(self.states[pos], words):
            raise StateNotInSector("some words are not in the sector")
        return pos.astype(np.int64)

    def bitstring(self, word: int) -> str:
        """Site-1-first occupation string, '1' for up."""
        return "".join("1" if (int(word) >> i) & 1 else "0" for i in range(self.L))


def enumerate_sector(L: int, sz_total: float) -> SectorBasis:
    """Build the fixed-``sz_total`` sector basis of an even-length chain."""
    if not isinstance(L, (int, np.integer)):
        raise ParameterError(f"L must be an integer, got {L!r}")
    L = int(L)
    if L < 2 or L % 2 != 0:
        raise ParameterError(f"L must be even and at least 2, got {L}")
    if L > _MAX_L:
        raise CapacityError(f"L = {L} exceeds the supported maximum {_MAX_L}")
    n_up_f = L / 2 + float(sz_total)
    n_up = round(n_up_f)
    if abs(n_up_f - n_up) > 1e-9 or n_up < 0 or n_up > L:
        raise ParameterError(
            f"sz_total = {sz_total} does not give an integer up count in 0..{L}"
        )
    words = _kernels.sector_words(L, n_up)
    return SectorBasis(L=L, sz_total=float(sz_total), n_up=n_up, states=words)


@lru_cache(maxsize=None)
def _rank_table(n: int) -> np.ndarray:
    """rank[w] = position of w among equal-popcount n-bit words, ascending."""
    vals = np.arange(1 << n, dtype=np.int64)
    pc = popcount(vals)
    rank = np.empty(vals.size, dtype=np.int64)
    for k in range(n + 1):
        sel = np.flatnonzero(pc == k)
        rank[sel] = np.arange(sel.size, dtype=np.int64)
    return rank


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as int64, refusing any entry that is not a whole number."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the test below
        out = raw.astype(np.int64)
    if not np.array_equal(out, raw):
        raise ParameterError(f"{what} must be whole numbers")
    return out


def _validate_subset(L: int, subset) -> tuple[int, ...]:
    sites = tuple(sorted(_whole_numbers(list(subset), "subset sites").tolist()))
    if len(sites) == 0:
        raise ParameterError("subset must be nonempty")
    if len(set(sites)) != len(sites):
        raise ParameterError(f"subset has repeated sites: {sites}")
    if sites[0] < 1 or sites[-1] > L:
        raise ParameterError(f"subset sites must lie in 1..{L}, got {sites}")
    if len(sites) == L:
        raise ParameterError("subset must be a proper subset of the chain")
    return sites


@dataclass(eq=False)
class SubsystemSplit:
    """Block layout of a sector along a site subset A.

    Blocks are ordered by ascending A-side up count ``block_nup[j]``; block
    ``j`` is an ``r x c`` matrix with ``(r, c) = block_shape[j]``, stored
    row-major at ``block_offset[j]`` of the flat layout.  ``positions[n]``
    is the flat slot of sector ordinal ``n``, and the assignment is a
    permutation of ``range(dim)``.
    """

    basis: SectorBasis
    subset: tuple[int, ...]
    block_nup: np.ndarray
    block_shape: np.ndarray
    block_offset: np.ndarray
    positions: np.ndarray


def _split_geometry(basis: SectorBasis, nA: int):
    """Shared block shapes/offsets for any size-nA subset (cached)."""
    key = ("geometry", nA)
    if key in basis._cache:
        return basis._cache[key]
    nB = basis.L - nA
    n_up = basis.n_up
    k_lo = max(0, n_up - nB)
    k_hi = min(nA, n_up)
    ks = np.arange(k_lo, k_hi + 1, dtype=np.int64)
    shapes = np.array(
        [[math.comb(nA, int(k)), math.comb(nB, n_up - int(k))] for k in ks], dtype=np.int64
    )
    sizes = shapes[:, 0] * shapes[:, 1]
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    # lookup tables indexed directly by the A-side up count
    off_by_k = np.full(nA + 1, -1, dtype=np.int64)
    cols_by_k = np.full(nA + 1, -1, dtype=np.int64)
    off_by_k[ks] = offsets
    cols_by_k[ks] = shapes[:, 1]
    geo = (ks, shapes, offsets, off_by_k, cols_by_k)
    basis._cache[key] = geo
    return geo


def _subset_positions(basis: SectorBasis, sites: tuple[int, ...]) -> np.ndarray:
    """Flat block-layout position of every sector ordinal for subset A."""
    posA = np.array([s - 1 for s in sites], dtype=np.int64)
    in_a = np.zeros(basis.L, dtype=bool)
    in_a[posA] = True
    posB = np.flatnonzero(~in_a).astype(np.int64)
    nA = posA.size
    a = _kernels.pack_bits(basis.states, posA)
    b = _kernels.pack_bits(basis.states, posB)
    ka = popcount(a)
    _, _, _, off_by_k, cols_by_k = _split_geometry(basis, nA)
    rank_a = _rank_table(nA)
    rank_b = _rank_table(basis.L - nA)
    return off_by_k[ka] + rank_a[a] * cols_by_k[ka] + rank_b[b]


def subsystem_split(basis: SectorBasis, subset) -> SubsystemSplit:
    """Decompose the sector along subset A (1-based sites).

    The positions are cached per basis; the split itself is not, because
    it refers to the basis, and a basis whose cache refers back to it
    lives until a full garbage collection.
    """
    sites = _validate_subset(basis.L, subset)
    key = ("split", sites)
    if key not in basis._cache:
        basis._cache[key] = _subset_positions(basis, sites)
    ks, shapes, offsets, _, _ = _split_geometry(basis, len(sites))
    return SubsystemSplit(
        basis=basis,
        subset=sites,
        block_nup=ks.copy(),
        block_shape=shapes.copy(),
        block_offset=offsets.copy(),
        positions=basis._cache[key],
    )


def bond_groups(basis: SectorBasis, bond: int):
    """Flip-flop partner pairs of the bond between sites (bond, bond + 1).

    Returns ``(ud, du)``: the ordinals with the bond sites up-down, and
    aligned with them the ordinals of the same words with the two bond bits
    exchanged.  Every other ordinal has equal bond bits, so a two-site
    gate or hopping term on the bond couples only these pairs.
    """
    if not 1 <= bond <= basis.L - 1:
        raise ParameterError(f"bond must be in 1..{basis.L - 1}, got {bond}")
    key = ("bond", bond)
    if key in basis._cache:
        return basis._cache[key]
    bi, bj = bond - 1, bond
    w = basis.states
    ud = np.flatnonzero(((w >> bi) & 1 == 1) & ((w >> bj) & 1 == 0)).astype(np.int64)
    mask = np.int64((1 << bi) | (1 << bj))
    du = basis.index_many(w[ud] ^ mask)
    groups = (ud, du)
    basis._cache[key] = groups
    return groups
