"""Dense sector Hamiltonians, disorder fields, and two-site gates.

All Hamiltonians act on an open spin-1/2 chain restricted to one
magnetization sector:

* ``build_xxz``       -- nearest-neighbour flip-flop with strength-``jz``
                         Ising term plus on-site random fields,
                         ``sum_i (SxSx + SySy + jz SzSz) + sum_i h_i Sz_i``.
* ``build_ising_z``   -- the diagonal part only, with unit Ising coupling,
                         ``sum_i SzSz + sum_i h_i Sz_i``.
* ``build_local_cut`` -- the XXZ chain with every term on the central bond
                         removed, so the two halves evolve independently
                         while all on-site fields stay active.

Each is its chain's terms (``_chain_terms``: the diagonal and the flip-flop
entries) scattered into a dense matrix; a Chebyshev preparation uses the
terms alone.

Two-site gates conserve magnetization and are parameterized by a flip-flop
angle ``alpha`` and an Ising angle ``beta``; in the two-site basis
(up-up, up-down, down-up, down-down) the gate is diagonal phase
``exp(-i beta/4)`` on the aligned states and mixes the anti-aligned pair
through ``exp(i beta/4) [cos(alpha/2) I - i sin(alpha/2) X]``.
``alpha = beta = pi`` gives SWAP up to the global phase ``exp(-i pi/4)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .basis import SectorBasis, bond_groups
from .errors import CapacityError, ParameterError
from .state import SectorState

_ANGLE_TOL = 1e-12
# Rows per pass of the full-matrix guards: their temporaries are (64, dim),
# not dim x dim.  At dim 924, 256 rows left 0.56 matrices of freed blocks
# resident through the decomposition; at dim 3432 the hermiticity check
# took 0.22 s with 64 rows and 0.21 s with 256.
_ROW_BLOCK = 64


# Peak of each dense step in real dim x dim matrices, the operators included:
# dsyevd overwrites the operator with its eigenvectors and needs two more for
# work space; eigvalsh works on a copy; building H0, Hxy and their Floquet
# map and taking its complex Schur form in place raised the peak by 4.71
# matrices at dim 924 and 4.11 at dim 3432 (a Floquet _make_engine in a
# fresh process, VmHWM).
_PEAK_MATRICES = {"operator": 1, "decomposition": 3, "spectrum": 2, "Floquet map": 5}
# Doubles per row on top: the solver's vectors, the guards' row blocks and
# the pages that BLAS touches in its own buffers.  A decomposition at dim 924
# raised the peak by 3.53 matrices, 3 and about 490 doubles per row.
_PEAK_ROW_DOUBLES = 1024


def _memory_budget() -> int:
    """Bytes of physical memory, the budget of every dense step."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _dense_peak(dim: int, step: str) -> int:
    """Estimated peak bytes of one dense ``step`` at dimension ``dim``."""
    return 8 * dim * (_PEAK_MATRICES[step] * dim + _PEAK_ROW_DOUBLES)


def _fits(dim: int, step: str) -> bool:
    """Whether memory can hold a dense ``step`` at dimension ``dim``."""
    return _dense_peak(dim, step) <= _memory_budget()


def _require_dense(dim: int, step: str) -> None:
    """Raise ``CapacityError`` before a dense ``step`` that memory cannot hold."""
    if not _fits(dim, step):
        need, budget = _dense_peak(dim, step), _memory_budget()
        raise CapacityError(
            f"the {step} at dimension {dim} needs about {need / 2**30:.2f} GiB, "
            f"more than the {budget / 2**30:.2f} GiB of physical memory"
        )


@dataclass(eq=False)
class OperatorMatrix:
    """A dense real symmetric operator on one sector basis, stored as float64.

    Every Hamiltonian of the package is real in the sector basis, so a
    matrix with a nonzero imaginary part is rejected.
    """

    basis: SectorBasis
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.basis.dim
        el = np.asarray(self.elements)
        if np.iscomplexobj(el):
            if el.imag.any():
                raise ParameterError("operator elements must be real")
            el = el.real
        el = np.ascontiguousarray(el, dtype=np.float64)
        if el.shape != (d, d):
            raise ParameterError(f"elements must be ({d}, {d}), got {el.shape}")
        self.elements = el

    @property
    def dim(self) -> int:
        return self.basis.dim

    def hermiticity_defect(self) -> float:
        """``max |H - H^T|``, read in row blocks; NaN if any entry is."""
        H = self.elements
        return float(np.max([
            np.abs(H[i : i + _ROW_BLOCK] - H[:, i : i + _ROW_BLOCK].T).max()
            for i in range(0, self.dim, _ROW_BLOCK)
        ]))


def _max_abs(M: np.ndarray) -> float:
    """``max |M|`` of a 2-d array, read in row blocks; NaN if any entry is."""
    return float(np.max([
        np.abs(M[i : i + _ROW_BLOCK]).max() for i in range(0, M.shape[0], _ROW_BLOCK)
    ]))


@dataclass(frozen=True)
class DisorderFields:
    """On-site longitudinal fields drawn uniformly from [-W, W]."""

    h: np.ndarray
    W: float

    @classmethod
    def zeros(cls, L: int) -> "DisorderFields":
        return cls(h=np.zeros(L, dtype=np.float64), W=0.0)


def sample_fields(L: int, W: float, rng: np.random.Generator) -> DisorderFields:
    """Draw one disorder realization of ``L`` fields uniform on [-W, W]."""
    if L < 1:
        raise ParameterError(f"L must be positive, got {L}")
    W = float(W)
    if not 0 <= W < np.inf:
        raise ParameterError(f"W must be finite and nonnegative, got {W}")
    h = rng.uniform(-W, W, size=L) if W > 0 else np.zeros(L, dtype=np.float64)
    return DisorderFields(h=np.asarray(h, dtype=np.float64), W=W)


def _check_fields(basis: SectorBasis, fields: DisorderFields) -> np.ndarray:
    h = np.asarray(fields.h, dtype=np.float64)
    if h.shape != (basis.L,):
        raise ParameterError(f"fields.h must have length {basis.L}, got {h.shape}")
    return h


def _sz_table(basis: SectorBasis) -> np.ndarray:
    """sz value (+-1/2) of each site for every sector word, shape (dim, L)."""
    key = "sz_table"
    if key not in basis._cache:
        bits = (basis.states[:, None] >> np.arange(basis.L, dtype=np.int64)) & 1
        basis._cache[key] = bits.astype(np.float64) - 0.5
    return basis._cache[key]


def _chain_terms(
    basis: SectorBasis,
    flip_bonds: dict[int, float],
    zz_bonds: dict[int, float],
    h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The entries of a chain operator: ``(diag, rows, cols, vals)``.

    ``diag`` holds the fields and Ising terms of every sector word; the
    flip-flop term of each bond adds ``vals`` at ``(rows, cols)``, its
    ``(ud, du)`` pairs both ways.  No two entries share a position: two
    words linked by a flip differ on one bond only.
    """
    sz = _sz_table(basis)
    diag = sz @ h
    for bond, c in zz_bonds.items():
        diag = diag + c * sz[:, bond - 1] * sz[:, bond]
    rows, cols, vals = [np.int64([])], [np.int64([])], [np.float64([])]
    for bond, c in flip_bonds.items():
        ud, du = bond_groups(basis, bond)
        rows += [ud, du]
        cols += [du, ud]
        vals.append(np.full(2 * ud.size, c))
    return diag, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _build_chain(basis: SectorBasis, terms) -> OperatorMatrix:
    """The dense operator of :func:`_chain_terms`, each entry written once."""
    _require_dense(basis.dim, "operator")
    diag, rows, cols, vals = terms
    H = np.zeros((basis.dim, basis.dim), dtype=np.float64)
    np.fill_diagonal(H, diag)
    H[rows, cols] = vals
    return OperatorMatrix(basis=basis, elements=H)


def _xxz_terms(basis: SectorBasis, jz: float, fields: DisorderFields, severed=False):
    """Terms of the XXZ chain; ``severed`` drops every term of the central bond."""
    h = _check_fields(basis, fields)
    cut = basis.L // 2 if severed else None
    bonds = [b for b in range(1, basis.L) if b != cut]
    return _chain_terms(
        basis,
        flip_bonds={b: 0.5 for b in bonds},
        zz_bonds={b: float(jz) for b in bonds},
        h=h,
    )


def build_xxz(basis: SectorBasis, jz: float, fields: DisorderFields) -> OperatorMatrix:
    """Open-chain XXZ Hamiltonian with on-site fields."""
    return _build_chain(basis, _xxz_terms(basis, jz, fields))


def build_ising_z(basis: SectorBasis, fields: DisorderFields) -> OperatorMatrix:
    """Diagonal Hamiltonian: unit nearest-neighbour Ising term plus fields."""
    h = _check_fields(basis, fields)
    zz_bonds = {b: 1.0 for b in range(1, basis.L)}
    return _build_chain(basis, _chain_terms(basis, flip_bonds={}, zz_bonds=zz_bonds, h=h))


def build_local_cut(basis: SectorBasis, jz: float, fields: DisorderFields) -> OperatorMatrix:
    """XXZ chain with the central bond fully severed.

    Every bond term (flip-flop and Ising alike) on the bond between sites
    L/2 and L/2 + 1 is dropped; on-site fields act on all sites.  Evolution
    then factorizes across the half-chain cut.
    """
    return _build_chain(basis, _xxz_terms(basis, jz, fields, severed=True))


@dataclass(frozen=True)
class TwoQubitGate:
    """Magnetization-conserving two-site gate with angles in [0, 2 pi]."""

    alpha: float
    beta: float
    u: np.ndarray = field(repr=False, compare=False)

    @property
    def mix(self) -> np.ndarray:
        """Flip-flop block ``u[1:3, 1:3] / u[0, 0]``: as ``u[0, 0] == u[3, 3]``,
        the gate is ``u[0, 0]`` times one that mixes only the ud/du pairs."""
        return self.u[1:3, 1:3] / self.u[0, 0]


def _check_angle(name: str, value: float) -> float:
    v = float(value)
    if not (-_ANGLE_TOL <= v <= 2 * np.pi + _ANGLE_TOL):
        raise ParameterError(f"{name} must lie in [0, 2 pi], got {v}")
    return min(max(v, 0.0), 2 * np.pi)


def build_two_qubit_gate(alpha: float, beta: float) -> TwoQubitGate:
    """Construct the gate matrix in the (uu, ud, du, dd) two-site basis."""
    alpha = _check_angle("alpha", alpha)
    beta = _check_angle("beta", beta)
    u = np.zeros((4, 4), dtype=np.complex128)
    diag_phase = np.exp(-1j * beta / 4)
    mix_phase = np.exp(1j * beta / 4)
    c = np.cos(alpha / 2)
    s = np.sin(alpha / 2)
    u[0, 0] = diag_phase
    u[3, 3] = diag_phase
    u[1, 1] = mix_phase * c
    u[2, 2] = mix_phase * c
    u[1, 2] = -1j * mix_phase * s
    u[2, 1] = -1j * mix_phase * s
    return TwoQubitGate(alpha=alpha, beta=beta, u=u)


def _near(x: float, target: float) -> bool:
    return abs(x - target) < _ANGLE_TOL


def gate_class(alpha: float, beta: float) -> str:
    """Dynamical class of the gate family.

    ``A``: diagonal gates (alpha in {0, 2 pi}), inert at the amplitude
    level.  ``SWAP``: (pi, pi), pure transport.  ``C``: alpha = pi with
    trivial Ising angle.  ``D``: alpha = pi with any other Ising angle.
    ``B``: partial flip-flop with trivial Ising angle.  Everything else is
    ``generic``.
    """
    a = _check_angle("alpha", alpha)
    b = _check_angle("beta", beta)
    beta_trivial = _near(b, 0.0) or _near(b, 2 * np.pi)
    if _near(a, 0.0) or _near(a, 2 * np.pi):
        return "A"
    if _near(a, np.pi):
        if _near(b, np.pi):
            return "SWAP"
        return "C" if beta_trivial else "D"
    return "B" if beta_trivial else "generic"


def apply_gate(state: SectorState, bond: int, gate: TwoQubitGate) -> SectorState:
    """Apply a two-site gate on sites (bond, bond + 1); returns a new state."""
    ud, du = bond_groups(state.basis, bond)
    amps = state.amplitudes.copy()
    _kernels.gate_mix(amps, ud, du, gate.mix)
    return SectorState(state.basis, gate.u[0, 0] * amps)
