import numpy as np
import pytest

from entdyn import operators
from entdyn.basis import enumerate_sector
from entdyn.entanglement import hcee
from entdyn.errors import ParameterError
from entdyn.operators import (
    DisorderFields,
    OperatorMatrix,
    apply_gate,
    build_ising_z,
    build_local_cut,
    build_two_qubit_gate,
    build_xxz,
    gate_class,
    sample_fields,
)
from entdyn.state import SectorState, random_sector_state

from oracles import (
    dense_gate,
    dense_ising_z,
    dense_xxz,
    sector_submatrix,
)


def test_xxz_two_site_matrix():
    basis = enumerate_sector(2, 0)
    H = build_xxz(basis, 0.5, DisorderFields.zeros(2))
    # basis words ascending: |up down> = 0b01, |down up> = 0b10
    expected = np.array([[-0.125, 0.5], [0.5, -0.125]])
    assert np.allclose(H.elements, expected, atol=1e-15)


def test_xxz_matches_dense_oracle(rng):
    basis = enumerate_sector(6, 0)
    h = rng.uniform(-5.0, 5.0, size=6)
    H = build_xxz(basis, 0.5, DisorderFields(h=h, W=5.0))
    dense = sector_submatrix(dense_xxz(6, 0.5, h), basis)
    assert np.max(np.abs(H.elements - dense)) < 1e-12


def test_xxz_free_fermion_point(rng):
    basis = enumerate_sector(6, 0)
    h = rng.uniform(-5.0, 5.0, size=6)
    H = build_xxz(basis, 0.0, DisorderFields(h=h, W=5.0))
    dense = sector_submatrix(dense_xxz(6, 0.0, h), basis)
    assert np.max(np.abs(H.elements - dense)) < 1e-12


def test_ising_z_matches_dense_oracle(rng):
    basis = enumerate_sector(6, 0)
    h = rng.uniform(-5.0, 5.0, size=6)
    H = build_ising_z(basis, DisorderFields(h=h, W=5.0))
    dense = sector_submatrix(dense_ising_z(6, h), basis)
    assert np.max(np.abs(H.elements - dense)) < 1e-12
    # diagonal in the computational basis
    assert np.max(np.abs(H.elements - np.diag(np.diag(H.elements)))) == 0.0


def test_local_cut_severs_central_bond(rng):
    L = 6
    basis = enumerate_sector(L, 0)
    h = rng.uniform(-0.5, 0.5, size=L)
    H = build_local_cut(basis, 0.5, DisorderFields(h=h, W=0.5))
    # oracle: full XXZ minus every term of bond L/2
    from oracles import SX, SY, SZ, site_operator

    dense = dense_xxz(L, 0.5, h)
    b = L // 2
    dense -= site_operator(L, {b: SX, b + 1: SX})
    dense -= site_operator(L, {b: SY, b + 1: SY})
    dense -= 0.5 * site_operator(L, {b: SZ, b + 1: SZ})
    assert np.max(np.abs(H.elements - sector_submatrix(dense, basis))) < 1e-12


def test_hermiticity(rng):
    basis = enumerate_sector(8, 0)
    H = build_xxz(basis, 0.5, sample_fields(8, 5.0, rng))
    assert H.hermiticity_defect() < 1e-14


def test_hamiltonians_store_float64(rng):
    basis = enumerate_sector(6, 0)
    fields = sample_fields(6, 5.0, rng)
    for H in (
        build_xxz(basis, 0.5, fields),
        build_ising_z(basis, fields),
        build_local_cut(basis, 0.5, fields),
    ):
        assert H.elements.dtype == np.float64 and H.elements.flags.c_contiguous


def test_operator_rejects_imaginary_part(basis6):
    M = np.zeros((basis6.dim, basis6.dim), dtype=complex)
    M[0, 0] = 2.0
    H = OperatorMatrix(basis6, M)
    assert H.elements.dtype == np.float64 and H.elements[0, 0] == 2.0
    M[0, 1], M[1, 0] = 1j, -1j
    with pytest.raises(ParameterError):
        OperatorMatrix(basis6, M)


def test_blocked_guards_read_the_last_partial_block(rng):
    # dim 924 is not a multiple of the row block, so the last block is partial
    basis = enumerate_sector(12, 0)
    H = build_xxz(basis, 0.5, sample_fields(12, 0.5, rng))
    assert basis.dim % operators._ROW_BLOCK != 0
    assert H.hermiticity_defect() == 0.0
    H.elements[-1, -3] += 1e-6
    H.elements[-2, -1] = -7.0
    full = H.elements
    assert H.hermiticity_defect() == np.abs(full - full.T).max()
    assert operators._max_abs(full) == np.abs(full).max() == 7.0


def test_sample_fields_bounds_and_w_zero():
    rng = np.random.default_rng(3)
    f = sample_fields(10, 5.0, rng)
    assert f.h.shape == (10,)
    assert np.all(np.abs(f.h) <= 5.0)
    rng2 = np.random.default_rng(3)
    before = rng2.bit_generator.state
    f0 = sample_fields(10, 0.0, rng2)
    assert np.all(f0.h == 0.0)
    # the clean chain draws nothing
    assert rng2.bit_generator.state == before
    # NaN used to pass as a clean chain and inf to overflow in the draw
    for W in (np.nan, np.inf, -1.0):
        with pytest.raises(ParameterError, match="W must be finite and nonnegative"):
            sample_fields(10, W, rng)


def test_gate_unitary_and_entries():
    for alpha, beta in [(0.3, 1.1), (np.pi, np.pi), (0.0, 4.0), (2 * np.pi, 0.0)]:
        g = build_two_qubit_gate(alpha, beta)
        assert np.max(np.abs(g.u.conj().T @ g.u - np.eye(4))) < 1e-14
        assert g.u[0, 0] == g.u[3, 3]
        assert g.u[0, 1] == g.u[1, 0] == 0.0


def test_gate_swap_point():
    g = build_two_qubit_gate(np.pi, np.pi)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(g.u - np.exp(-1j * np.pi / 4) * swap)) < 1e-12


def test_gate_closed_form_on_antialigned():
    # action on |up down>: e^{i beta/4} (cos(alpha/2)|up down> - i sin(alpha/2)|down up>)
    for alpha in np.linspace(0.0, 2 * np.pi, 10):
        for beta in np.linspace(0.0, 2 * np.pi, 10):
            g = build_two_qubit_gate(alpha, beta)
            col = g.u[:, 1]
            phase = np.exp(1j * beta / 4)
            assert abs(col[1] - phase * np.cos(alpha / 2)) < 1e-12
            assert abs(col[2] - phase * (-1j) * np.sin(alpha / 2)) < 1e-12
            assert col[0] == col[3] == 0.0


def test_gate_angle_validation():
    with pytest.raises(ParameterError):
        build_two_qubit_gate(-0.5, 1.0)
    with pytest.raises(ParameterError):
        build_two_qubit_gate(1.0, 7.0)


def test_gate_class_table():
    pi = np.pi
    assert gate_class(0.0, 1.7) == "A"
    assert gate_class(2 * pi, 0.3) == "A"
    assert gate_class(pi, pi) == "SWAP"
    assert gate_class(pi, 0.0) == "C"
    assert gate_class(pi, 2 * pi) == "C"
    assert gate_class(pi, 1.0) == "D"
    assert gate_class(1.0, 0.0) == "B"
    assert gate_class(1.0, 2 * pi) == "B"
    assert gate_class(1.0, 1.0) == "generic"


def test_apply_gate_matches_dense_oracle(rng):
    # the public apply_gate keeps the full gate, global phase included:
    # generic, SWAP and class A gates
    basis = enumerate_sector(6, 0)
    state = random_sector_state(basis, rng)
    psi = np.zeros(2**6, dtype=complex)
    psi[basis.states] = state.amplitudes
    for alpha, beta in [(1.9, 0.7), (np.pi, np.pi), (0.0, 1.7)]:
        g = build_two_qubit_gate(alpha, beta)
        for bond in (1, 3, 5):
            out = apply_gate(state, bond, g)
            expected = (dense_gate(6, bond, g.u) @ psi)[basis.states]
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-13


def test_apply_gate_worked_transform():
    # alpha=pi on the first bond of (|uud d> + |udu d>)/sqrt(2) gives
    # (e^{-i b/4}|uud d> - i e^{i b/4}|duu d>)/sqrt(2)
    beta = 1.3
    basis = enumerate_sector(4, 0)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(0b0011)] = 1 / np.sqrt(2)
    amps[basis.index_of(0b0101)] = 1 / np.sqrt(2)
    state = SectorState(basis, amps)
    out = apply_gate(state, 1, build_two_qubit_gate(np.pi, beta))
    expected = np.zeros(basis.dim, dtype=complex)
    expected[basis.index_of(0b0011)] = np.exp(-1j * beta / 4) / np.sqrt(2)
    expected[basis.index_of(0b0110)] = -1j * np.exp(1j * beta / 4) / np.sqrt(2)
    assert np.max(np.abs(out.amplitudes - expected)) < 1e-14


def test_class_a_preserves_moduli(rng):
    basis = enumerate_sector(8, 0)
    state = random_sector_state(basis, rng)
    for beta in (0.4, 2.0, np.pi):
        out = apply_gate(state, 4, build_two_qubit_gate(0.0, beta))
        assert np.max(np.abs(np.abs(out.amplitudes) - np.abs(state.amplitudes))) < 1e-12


def test_class_a_can_shift_entropy_of_entangled_state(rng):
    # diagonal gates fix every |amplitude| yet can still move the
    # half-chain entropy of an entangled state through the phases
    basis = enumerate_sector(8, 0)
    state = random_sector_state(basis, rng)
    out = apply_gate(state, 4, build_two_qubit_gate(0.0, 1.0))
    assert abs(hcee(out) - hcee(state)) > 1e-3


def test_class_a_fixes_entropy_of_basis_state():
    basis = enumerate_sector(8, 0)
    state = SectorState.from_word(basis, int(basis.states[13]))
    out = apply_gate(state, 4, build_two_qubit_gate(0.0, 1.0))
    assert abs(hcee(out) - hcee(state)) < 1e-14
