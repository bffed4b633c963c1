import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from entdyn.basis import (
    SectorBasis,
    bond_groups,
    enumerate_sector,
    subsystem_split,
)
from entdyn.entanglement import baee, hcee
from entdyn.errors import CapacityError, ParameterError, StateNotInSector
from entdyn.state import random_sector_state


def test_sector_dimensions():
    assert enumerate_sector(4, 0).dim == 6
    assert enumerate_sector(8, 0).dim == 70
    assert enumerate_sector(12, 0).dim == 924


def test_words_sorted_and_at_half_filling(basis8):
    words = basis8.states
    assert np.all(np.diff(words) > 0)
    assert np.all(np.bitwise_count(words.astype(np.uint64)) == 4)


def test_words_match_combinations():
    basis = enumerate_sector(6, 0)
    expected = sorted(
        sum(1 << p for p in combo) for combo in itertools.combinations(range(6), 3)
    )
    assert basis.states.tolist() == expected


def test_nonzero_magnetization_sector():
    basis = enumerate_sector(6, 1)  # four up spins
    assert basis.n_up == 4
    assert basis.dim == math.comb(6, 4)


def test_bitstring_site_one_first(basis6):
    # word 0b000111 is sites 1..3 up
    assert basis6.bitstring(0b000111) == "111000"
    assert basis6.bitstring(0b101010) == "010101"


def test_index_round_trip(basis8):
    for i in (0, 17, basis8.dim - 1):
        assert basis8.index_of(int(basis8.states[i])) == i


def test_index_of_rejects_foreign_word(basis8):
    with pytest.raises(StateNotInSector):
        basis8.index_of(0b1)  # popcount 1, not in the n_up=4 sector
    with pytest.raises(StateNotInSector):
        basis8.index_of(0b11111111)  # popcount 8


def test_enumerate_sector_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        enumerate_sector(5, 0)
    with pytest.raises(ParameterError):
        enumerate_sector(6, 10)  # n_up out of range
    with pytest.raises(CapacityError):
        enumerate_sector(22, 0)


def test_subsystem_split_is_permutation(basis8):
    split = subsystem_split(basis8, (1, 2, 3, 4))
    assert np.array_equal(np.sort(split.positions), np.arange(basis8.dim))
    sizes = [r * c for r, c in split.block_shape]
    assert sum(sizes) == basis8.dim


def test_subsystem_split_block_sizes(basis8):
    # A of size 3: block k holds C(3,k) x C(5,4-k) entries
    split = subsystem_split(basis8, (2, 5, 7))
    shapes = {int(k): tuple(s) for k, s in zip(split.block_nup, split.block_shape)}
    for k, (r, c) in shapes.items():
        assert r == math.comb(3, k)
        assert c == math.comb(5, 4 - k)


def test_subsystem_split_scatter_matches_bits(basis6):
    split = subsystem_split(basis6, (1, 4))
    # every word's position must sit in the block for its A-side up count
    for i, word in enumerate(basis6.states):
        k = bin(int(word) & 0b001001).count("1")
        pos = int(split.positions[i])
        off = int(split.block_offset[list(split.block_nup).index(k)])
        r, c = split.block_shape[list(split.block_nup).index(k)]
        assert off <= pos < off + r * c


def test_subset_validation(basis8):
    with pytest.raises(ParameterError):
        subsystem_split(basis8, (0, 1))
    with pytest.raises(ParameterError):
        subsystem_split(basis8, (1, 9))
    with pytest.raises(ParameterError):
        subsystem_split(basis8, (1, 1, 2))
    with pytest.raises(ParameterError):
        subsystem_split(basis8, ())
    with pytest.raises(ParameterError):
        subsystem_split(basis8, tuple(range(1, 9)))  # proper subsets only


def test_subset_refuses_fractional_sites(basis6):
    with pytest.raises(ParameterError, match="whole numbers"):
        subsystem_split(basis6, [1.9, 2.2])


def test_bond_groups_partition(basis8):
    # the lean gate mixes only these pairs; it relies on every other ordinal
    # having equal bond bits, which a gate with u[0, 0] == u[3, 3] only phases
    words = basis8.states
    for bond in range(1, 8):
        ud, du = bond_groups(basis8, bond)
        lo = (words >> (bond - 1)) & 1
        hi = (words >> bond) & 1
        assert np.all((lo[ud] == 1) & (hi[ud] == 0))
        # du is ud with the two bond bits swapped, pair by pair
        assert np.array_equal(words[du], words[ud] ^ ((1 << (bond - 1)) | (1 << bond)))
        rest = np.setdiff1d(np.arange(basis8.dim), np.concatenate([ud, du]))
        assert rest.size == basis8.dim - 2 * ud.size
        assert np.all(lo[rest] == hi[rest])


def test_bond_groups_bounds(basis8):
    with pytest.raises(ParameterError):
        bond_groups(basis8, 0)
    with pytest.raises(ParameterError):
        bond_groups(basis8, 8)


def test_basis_dies_without_a_garbage_collection():
    # nothing the basis caches may refer back to it, or every driver call's
    # basis and its cached rows would wait for a full collection
    gc.disable()
    try:
        basis = enumerate_sector(8, 0)
        state = random_sector_state(basis, np.random.default_rng(1))
        assert subsystem_split(basis, (1, 3)).basis is basis
        baee(state)
        hcee(state)
        bond_groups(basis, 2)
        assert len(basis._cache) >= 4
        ref = weakref.ref(basis)
        del basis, state
        assert ref() is None
    finally:
        gc.enable()
