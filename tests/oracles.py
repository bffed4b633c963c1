"""Slow reference implementations used to cross-check the library.

Everything here works in the full 2**L Hilbert space with dense tensors,
deliberately sharing no code with the package internals: entropies come
from an SVD after axis permutation, Hamiltonians from explicit Kronecker
products, and time evolution from ``scipy.linalg.expm``.  Meant for
L <= 10.  ``run_one_thread`` runs a bitwise check in a fresh interpreter
(``run_with_blas_threads`` with another thread count).
``haar_sector_average`` is the Monte Carlo reference for the closed-form
Haar sector mean; it reads the package's batched half-chain entropies.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np
import scipy.linalg

import entdyn
from entdyn.basis import SectorBasis, enumerate_sector
from entdyn.entanglement import _half_chain_entropies, enumerate_bipartitions
from entdyn.errors import ParameterError
from entdyn.state import SectorState


def run_one_thread(code: str) -> str:
    """Run ``code`` in a fresh interpreter with one BLAS thread; its stdout.

    numpy and scipy each bundle their own BLAS, and with several threads the
    two may split a product differently, which moves the last bits.  The
    child imports ``entdyn`` from this checkout and can import this module.
    """
    return run_with_blas_threads(code, 1)


def run_with_blas_threads(code: str, threads: int) -> str:
    """Run ``code`` in a fresh interpreter with ``threads`` BLAS threads; its stdout."""
    env = dict(os.environ)
    n = str(threads)
    env.update(OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
    src = str(Path(entdyn.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join([src, tests, env.get("PYTHONPATH", "")])
    p = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert p.returncode == 0, p.stderr
    return p.stdout


I2 = np.eye(2)
SX = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
SY = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]])
# bit value 1 is spin up (+1/2), bit value 0 is spin down (-1/2)
SZ = 0.5 * np.diag([-1.0, 1.0])


def dense_embedding(state: SectorState) -> np.ndarray:
    """Embed a sector state into the full 2**L space, index = basis word."""
    basis = state.basis
    psi = np.zeros(2**basis.L, dtype=complex)
    psi[basis.states] = state.amplitudes
    return psi


def site_operator(L: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with ``ops[site]`` acting on 1-based sites.

    Site s occupies bit s-1 of the word, so the most significant factor
    is site L.
    """
    factors = [ops.get(s, I2) for s in range(L, 0, -1)]
    return reduce(np.kron, factors)


def dense_xxz(L: int, jz: float, h: np.ndarray) -> np.ndarray:
    H = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(1, L):
        H += site_operator(L, {i: SX, i + 1: SX})
        H += site_operator(L, {i: SY, i + 1: SY})
        H += jz * site_operator(L, {i: SZ, i + 1: SZ})
    for i in range(1, L + 1):
        H += h[i - 1] * site_operator(L, {i: SZ})
    return H


def dense_ising_z(L: int, h: np.ndarray) -> np.ndarray:
    H = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(1, L):
        H += site_operator(L, {i: SZ, i + 1: SZ})
    for i in range(1, L + 1):
        H += h[i - 1] * site_operator(L, {i: SZ})
    return H


def sector_submatrix(dense: np.ndarray, basis: SectorBasis) -> np.ndarray:
    idx = basis.states
    return dense[np.ix_(idx, idx)]


def oracle_subset_entropy(state: SectorState, subset) -> float:
    """Von Neumann entropy (bits) of ``subset`` via dense SVD."""
    L = state.basis.L
    sites = tuple(sorted(int(s) for s in subset))
    psi = dense_embedding(state).reshape((2,) * L)
    axes = [L - s for s in sites]
    rest = [a for a in range(L) if a not in axes]
    psi = np.transpose(psi, axes + rest).reshape(2 ** len(sites), -1)
    sv = np.linalg.svd(psi, compute_uv=False)
    p = sv[sv > 1e-14] ** 2
    return float(-(p * np.log2(p)).sum())


def oracle_slot_row(basis: SectorBasis, subset) -> list[int]:
    """Sector ordinals in the block layout of ``subset``, by plain sorting.

    A word sorts by its A-side up count, then by its A bits packed in site
    order, then by its B bits packed the same way: blocks by up count, rows
    by A code and columns by B code, row-major.
    """
    sites = sorted(int(s) for s in subset)
    rest = [s for s in range(1, basis.L + 1) if s not in sites]

    def pack(word: int, where: list[int]) -> int:
        return sum(((word >> (s - 1)) & 1) << j for j, s in enumerate(where))

    def key(n: int):
        word = words[n]
        a = pack(word, sites)
        return (bin(a).count("1"), a, pack(word, rest))

    words = [int(w) for w in basis.states]
    return sorted(range(len(words)), key=key)


def oracle_baee(state: SectorState) -> float:
    cuts = enumerate_bipartitions(state.basis.L)
    return float(np.mean([oracle_subset_entropy(state, bp.sites) for bp in cuts]))


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


def dense_gate(L: int, bond: int, u: np.ndarray) -> np.ndarray:
    """Embed a two-qubit unitary on (bond, bond+1) into 2**L.

    ``u`` is given in the (uu, ud, du, dd) ordering where the first index
    of the pair is the lower site; bit value 1 means spin up.  Build the
    4x4 in occupation-number order on bits (b-1, b) and kron it in.
    """
    # occupation index n = bit(site b) * 2 + bit(site b+1) maps to the
    # gate's own ordering (uu, ud, du, dd) with up = 1:
    # n=3 -> uu(0), n=2 -> ud(1), n=1 -> du(2), n=0 -> dd(3)
    perm = [3, 2, 1, 0]
    g = np.empty((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            g[a, b] = u[perm[a], perm[b]]
    # g now acts on (bit b, bit b+1) with the most significant factor the
    # higher site; site_operator handles arbitrary placement only for
    # single-site factors, so assemble by hand.
    lower, upper = bond, bond + 1
    dim_below = 2 ** (lower - 1)
    dim_above = 2 ** (L - upper)
    # index = above * 4*dim_below + pair * dim_below + below with
    # pair = bit(upper)*2 + bit(lower)
    full = np.kron(np.eye(dim_above), np.kron(_pair_matrix(g), np.eye(dim_below)))
    return full


def _pair_matrix(g: np.ndarray) -> np.ndarray:
    """Reorder ``g`` from (bit_lower, bit_upper) to kron order (upper, lower)."""
    out = np.empty_like(g)
    for a in range(4):
        for b in range(4):
            # kron index = bit_upper*2 + bit_lower; g index = bit_lower*2 + bit_upper
            ka = ((a & 1) << 1) | (a >> 1)
            kb = ((b & 1) << 1) | (b >> 1)
            out[a, b] = g[ka, kb]
    return out


def oracle_propagate(H_sector: np.ndarray, state: SectorState, t: float) -> np.ndarray:
    U = scipy.linalg.expm(-1j * t * H_sector)
    return U @ state.amplitudes


def oracle_floquet_step(
    H0_sector: np.ndarray, Hxy_sector: np.ndarray, T0: float, T1: float
) -> np.ndarray:
    U0 = scipy.linalg.expm(-1j * T0 * H0_sector)
    U1 = scipy.linalg.expm(-1j * T1 * Hxy_sector)
    return U0 @ U1


_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768394")


def _phases(values: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i values t)``, the products reduced mod 2 pi in extended precision."""
    prod = values.astype(np.longdouble) * np.longdouble(t)
    return np.exp(-1j * np.mod(prod, _TWO_PI_LD).astype(np.float64))


def oracle_period_map(
    H0_sector: np.ndarray, Hxy_sector: np.ndarray, T0: float, T1: float
) -> np.ndarray:
    """``exp(-i T0 H0) exp(-i T1 Hxy)`` by three complex GEMMs, C-ordered.

    The earlier dense formula, kept as the bitwise reference of the
    package's period map: the kick ``U1 = V1 p1 V1^H`` from the complex
    eigenvectors of ``Hxy``, then ``V0 p0 V0^H U1`` with the permutation
    eigenvectors ``V0`` of the diagonal ``H0``, columns in ascending order
    of its diagonal.  With one BLAS thread ``np.linalg.eigh`` gives the
    package's kick eigenvectors bit for bit.
    """
    e1, V1 = np.linalg.eigh(Hxy_sector)
    V1 = V1.astype(np.complex128)
    U1 = (V1 * _phases(e1, T1)) @ V1.conj().T
    d = np.diag(H0_sector).copy()
    order = np.argsort(d, kind="stable")
    V0 = np.zeros(H0_sector.shape, dtype=np.complex128)
    V0[order, np.arange(d.size)] = 1.0
    W = V0.conj().T @ U1
    return (V0 * _phases(d[order], T0)) @ W
