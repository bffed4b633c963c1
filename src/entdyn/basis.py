"""Fixed-magnetization basis of a spin-1/2 chain and subsystem block maps.

Sites are numbered 1..L left to right.  A basis state is an L-bit integer
word in which bit ``i - 1`` holds site ``i``; a set bit is spin up.  A
sector collects every word with a fixed number of up spins
``n_up = L/2 + sz_total`` and stores them ascending, so the ordinal of a
word inside the sector is its position in that sorted list.

``subsystem_split`` decomposes the sector along an arbitrary site subset A:
because total magnetization is fixed, the coefficient matrix between A and
its complement is block diagonal, one block per A-side up count.  Block k
holds the A-side codes with k up spins (rows) against the B-side codes
with ``n_up - k`` (columns), ascending and row-major, a code packing a
side's bits in site order.  So a slot holds the same two codes in every
subset of a size, and ``_slot_rows`` builds each subset's slot row, the
sector ordinal at every slot, from them.  The split's ``positions``
invert that row: a permutation of ``range(dim)``, never a projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import CapacityError, ParameterError, StateNotInSector

_MAX_L = 20


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
    """Shared ``(ks, shapes, offsets)`` of the blocks of any size-nA subset (cached)."""
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
    geo = (ks, shapes, offsets)
    basis._cache[key] = geo
    return geo


def _ordinals(basis: SectorBasis) -> np.ndarray:
    """Sector ordinal of every L-bit word, indexed by the word (cached)."""
    if "ordinal" not in basis._cache:
        ordinal = np.zeros(1 << basis.L, dtype=np.int32)
        ordinal[basis.states] = np.arange(basis.dim, dtype=np.int32)
        basis._cache["ordinal"] = ordinal
    return basis._cache["ordinal"]


def _slot_codes(basis: SectorBasis, nA: int):
    """``(code_a, code_b)``: the A- and B-side codes at every slot of the
    size-nA block layout (cached)."""
    key = ("codes", nA)
    if key not in basis._cache:
        ks = _split_geometry(basis, nA)[0].tolist()
        nB, n_up = basis.L - nA, basis.n_up
        pairs = [(_kernels.sector_words(nA, k), _kernels.sector_words(nB, n_up - k)) for k in ks]
        code_a = np.concatenate([np.repeat(a, b.size) for a, b in pairs]).astype(np.int32)
        code_b = np.concatenate([np.tile(b, a.size) for a, b in pairs]).astype(np.int32)
        basis._cache[key] = (code_a, code_b)
    return basis._cache[key]


def _deposit(sites: np.ndarray) -> np.ndarray:
    """``dep[i, code]``: the word with the bits of ``code`` at ``sites[i]``.

    ``sites`` is ``(c, n)``, 1-based and ascending along each row; bit ``j``
    of a code goes to site ``sites[i, j]``.
    """
    weights = 1 << (sites - 1)
    dep = np.zeros((sites.shape[0], 1), dtype=np.int32)
    for j in range(sites.shape[1]):  # codes with bit j set follow those without
        dep = np.concatenate([dep, dep | weights[:, j, None]], axis=1)
    return dep


def _slot_rows(basis: SectorBasis, sites_a: np.ndarray, sites_b: np.ndarray) -> np.ndarray:
    """Sector ordinal at every block-layout slot of each of c subsets.

    ``sites_a`` ``(c, nA)`` holds each subset's sites and ``sites_b`` its
    complement's, 1-based and ascending; row ``i`` of the ``(c, dim)``
    result lays a state out in the blocks of subset ``i`` as
    ``amps[row]``.  The one builder of slot rows: the half chain, every
    bipartition chunk and ``subsystem_split`` use it.
    """
    code_a, code_b = _slot_codes(basis, sites_a.shape[1])
    return _ordinals(basis)[_deposit(sites_a)[:, code_a] | _deposit(sites_b)[:, code_b]]


def _subset_row(basis: SectorBasis, subset):
    """``(sites, row)``: a subset's validated sites and its slot row (cached)."""
    sites = _validate_subset(basis.L, subset)
    key = ("row", sites)
    if key not in basis._cache:
        rest = [s for s in range(1, basis.L + 1) if s not in sites]
        a, b = (np.array([part], dtype=np.int32) for part in (sites, rest))
        basis._cache[key] = _slot_rows(basis, a, b)[0]
    return sites, basis._cache[key]


def subsystem_split(basis: SectorBasis, subset) -> SubsystemSplit:
    """Decompose the sector along subset A (1-based sites).

    The slot row is cached per basis; the split itself is not, because
    it refers to the basis, and a basis whose cache refers back to it
    lives until a full garbage collection.
    """
    sites, row = _subset_row(basis, subset)
    positions = np.empty(basis.dim, dtype=np.int64)
    positions[row] = np.arange(basis.dim)
    ks, shapes, offsets = _split_geometry(basis, len(sites))
    return SubsystemSplit(
        basis=basis,
        subset=sites,
        block_nup=ks.copy(),
        block_shape=shapes.copy(),
        block_offset=offsets.copy(),
        positions=positions,
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
    du = _ordinals(basis)[w[ud] ^ mask].astype(np.int64)
    groups = (ud, du)
    basis._cache[key] = groups
    return groups
