"""Exact time evolution: spectral propagation, Floquet maps, random circuits.

Quench evolution is spectral: decompose once, then any time follows from
``psi(t) = V exp(-i E t) V* psi``.  The phase products ``E t`` (and
``n theta`` for Floquet powers) are reduced modulo 2 pi in 80-bit extended
precision before exponentiation, which keeps the reduction arithmetic
faithful out to t ~ 1e12 (residual of order 1e-6 rad from the reduction
itself; the physical dephasing at such times is insensitive to it).

Prepared states are needed only up to T = 500, where a Chebyshev expansion
of ``exp(-i H T)`` applied to the sparse chain (``_chebyshev_block``) gives
every T from one recurrence without forming a dense matrix; a cost rule
(``_chebyshev_wins``) picks it or the decomposition for each preparation
that memory could decompose.

Floquet maps are diagonalized through a complex Schur factorization.  For a
unitary (hence normal) matrix the Schur form is diagonal and the transform
is itself unitary, so it yields an orthonormal eigenbasis even across
numerically close eigenphase clusters, where a generic eigensolver can
lose orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import _kernels
from .basis import SectorBasis, _whole_numbers, bond_groups
from .entanglement import _bipartition_entropies, _half_chain_entropies
# _baee and _hcee are unused here: entbench/tracer.py wraps them
from .entanglement import baee as _baee  # noqa: F401
from .entanglement import hcee as _hcee  # noqa: F401
from .errors import NumericError, ParameterError
from .operators import (
    _ROW_BLOCK,
    OperatorMatrix,
    TwoQubitGate,
    _max_abs,
    _require_dense,
    build_two_qubit_gate,
)
from .state import SectorState

_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768394")
_HERM_TOL = 1e-10
_UNITARY_TOL = 1e-8
_NORM_DRIFT_TOL = 1e-6
# The Chebyshev block widens the Gershgorin interval by 1% and sums its
# vectors 64 at a time.
_CHEB_WIDEN = 1.01
_CHEB_CHUNK = 64
_BAEE_BLOCK = 64  # circuit snapshot columns per BAEE block call
LINEAR_MAX = 10.0
N_LINEAR = 10
N_LOG = 28
# Seconds of each route, fitted at L = 6 to 14 on one BLAS thread (2-core
# Xeon VM, OpenBLAS): the dense route per matrix entry and per dim^3 (0.2 s
# at dim 924, 11 s at dim 3432); a Chebyshev step, per step, per stored
# entry of the chain, and per entry of the columns it is summed into.
_DENSE_ENTRY_S = 1e-7
_EIGH_S = 2.5e-10
_STEP_S = 1e-5
_NNZ_S = 1.7e-9
_SUM_S = 2.3e-10


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigensystem of a sector operator.

    ``kind`` is ``"hermitian"`` (``values`` are energies) or ``"unitary"``
    (``values`` are eigenphases in (-pi, pi]).  ``values`` ascend and
    ``vectors[:, k]`` is the matching orthonormal eigenvector, float64 for
    the hermitian kind and complex for the unitary one.
    """

    kind: str
    basis: SectorBasis
    values: np.ndarray
    vectors: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def reconstruct(self) -> np.ndarray:
        """Reassemble the operator matrix (test and diagnostics helper)."""
        lam = self.values if self.kind == "hermitian" else np.exp(1j * self.values)
        return (self.vectors * lam) @ self.vectors.conj().T

    def eigenstate(self, rank: int) -> SectorState:
        """Eigenvector by 1-based ascending rank."""
        if not 1 <= rank <= self.dim:
            raise ParameterError(f"rank must be in 1..{self.dim}, got {rank}")
        v = self.vectors[:, rank - 1].copy()
        return SectorState(self.basis, v / np.linalg.norm(v))


def _reduced_phases(values: np.ndarray, factor) -> np.ndarray:
    """``values * factor mod 2 pi`` computed in extended precision."""
    prod = values.astype(np.longdouble) * np.asarray(factor, dtype=np.longdouble)
    return np.mod(prod, _TWO_PI_LD).astype(np.float64)


def _check_hermitian(op: OperatorMatrix) -> None:
    defect = op.hermiticity_defect()
    if not defect <= _HERM_TOL * max(1.0, _max_abs(op.elements)):
        raise NumericError(f"operator is not hermitian (defect {defect})")


def _decompose_owned(op: OperatorMatrix) -> SpectralDecomposition:
    """:func:`spectral_decompose` in place: overwrites ``op.elements``.

    For the drivers, which hand over the operator they built.  LAPACK writes
    the eigenvectors over the matrix, so the peak is the matrix and the
    solver's work space.
    """
    _require_dense(op.dim, "decomposition")
    _check_hermitian(op)
    # H.T is the Fortran view of the symmetric matrix, so it is not copied
    vals, vecs = scipy.linalg.eigh(
        op.elements.T, driver="evd", overwrite_a=True, check_finite=False
    )
    # C order keeps the GEMMs of _spectral_apply, and so every output,
    # bit-identical to np.linalg.eigh's vectors
    return SpectralDecomposition(
        kind="hermitian",
        basis=op.basis,
        values=vals,
        vectors=np.ascontiguousarray(vecs),
    )


def spectral_decompose(op: OperatorMatrix) -> SpectralDecomposition:
    """Eigendecomposition of a hermitian sector operator, values ascending.

    LAPACK's divide-and-conquer solver works on a copy, so ``op`` is left
    unchanged.
    """
    return _decompose_owned(OperatorMatrix(op.basis, op.elements.copy()))


def spectrum(op: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of a hermitian sector operator, values only."""
    _require_dense(op.dim, "spectrum")
    _check_hermitian(op)
    return np.linalg.eigvalsh(op.elements)


def _phase_factors(decomp: SpectralDecomposition, steps) -> np.ndarray:
    """Eigenbasis factors of one evolution per step, shape ``(dim, len(steps))``.

    Steps are times for a hermitian decomposition (``exp(-i E t)``) and
    whole periods for a unitary one (``exp(i theta n)``).
    """
    sign = -1j if decomp.kind == "hermitian" else 1j
    steps = np.asarray(steps)
    return np.exp(sign * _reduced_phases(decomp.values[:, None], steps[None, :]))


def _spectral_apply(
    decomp: SpectralDecomposition, block: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """``V (factors * V^H block)`` for a ``(dim, m)`` block of unit columns.

    ``factors`` comes from :func:`_phase_factors`; its columns broadcast
    against the block's, so one state can be evolved to many steps or many
    states by one step.  Real eigenvectors act through one real GEMM on the
    float view of the complex amplitudes.  Every result column passes the
    norm-drift guard and is renormalized.
    """
    V = decomp.vectors
    block = np.ascontiguousarray(block, dtype=np.complex128)
    if V.dtype == np.float64:
        c = (V.T @ block.view(np.float64)).view(np.complex128) * factors
        out = (V @ c.view(np.float64)).view(np.complex128)
    else:
        # V^H block as (block^H V)^H, without a conjugated copy of V
        c = (block.T.conj() @ V).conj().T * factors
        out = V @ c
    return _renormalized(out, f"{decomp.kind} evolution")


def _renormalized(out: np.ndarray, what: str) -> np.ndarray:
    """Columns of ``out`` scaled to unit norm, in place, after the drift guard."""
    out /= _checked_norms(out, what)
    return out


def _checked_norms(out: np.ndarray, what: str) -> np.ndarray:
    """Column norms of ``out``; ``NumericError`` when one has drifted from 1
    by more than ``_NORM_DRIFT_TOL`` or is not finite."""
    n = np.linalg.norm(out, axis=0)
    drift = float(np.abs(n - 1.0).max())
    if not drift <= _NORM_DRIFT_TOL:  # NaN fails too
        raise NumericError(f"{what} norm drift {drift}")
    return n


def propagate(decomp: SpectralDecomposition, state: SectorState, t: float) -> SectorState:
    """Evolve ``state`` for time ``t >= 0`` under a hermitian decomposition."""
    if decomp.kind != "hermitian":
        raise ParameterError("propagate needs a hermitian decomposition")
    if decomp.basis is not state.basis:
        raise ParameterError("state and decomposition use different bases")
    t = float(t)
    if t < 0:
        raise ParameterError(f"t must be nonnegative, got {t}")
    amps = _spectral_apply(decomp, state.amplitudes[:, None], _phase_factors(decomp, [t]))
    return SectorState(state.basis, amps[:, 0])


def _spectral_interval(terms) -> tuple[float, float]:
    """Centre and half-width of the Gershgorin interval of chain ``terms``."""
    diag, rows, _, vals = terms
    radius = np.bincount(rows, weights=np.abs(vals), minlength=diag.size)
    lo, hi = float((diag - radius).min()), float((diag + radius).max())
    return (hi + lo) / 2, (hi - lo) / 2


def _chebyshev_order(z):
    """Terms of the Chebyshev series of ``exp(-i z x)`` on [-1, 1], as a
    float for each ``z``.

    The coefficients ``J_k(z)`` fall off within a few ``z^(1/3)`` past
    ``k = z``; the terms past this order sum to less than 1e-20 (checked
    against Bessel values for z up to 2e4).
    """
    return np.ceil(z + 12 * np.cbrt(z)) + 25


def _chebyshev_series(z: float) -> np.ndarray:
    """Coefficients of ``exp(-i z x) = sum_k a_k T_k(x)`` on [-1, 1].

    By Jacobi-Anger ``exp(-i z cos t) = sum_k (-i)^k J_k(z) exp(i k t)``, so
    bin k of the FFT of ``exp(-i z cos t)`` on m points, divided by m, is
    ``(-i)^k J_k(z)``; with m at least twice the order plus 64 the aliased
    bins are below rounding.  ``a_k`` is twice that for k >= 1.
    """
    k = int(_chebyshev_order(z))
    m = 2 * k + 64
    a = np.fft.fft(np.exp(-1j * z * np.cos(2 * np.pi / m * np.arange(m))))[:k] / m
    a[1:] *= 2
    return a


def _chebyshev_block(terms, psi0: np.ndarray, T_arr) -> np.ndarray:
    """``exp(-i H T) psi0`` for every T, shape ``(dim, len(T_arr))``.

    ``H`` is the chain of ``terms`` (:func:`operators._chain_terms`) and
    ``psi0`` a real vector.  One Chebyshev recurrence serves every T
    (Tal-Ezer & Kosloff 1984): ``H`` is shifted and scaled onto [-1, 1]
    by its Gershgorin interval, widened by 1%, and as ``H`` and ``psi0``
    are real so is every vector ``T_k(H') psi0``.  They are summed in chunks
    of ``_CHEB_CHUNK`` by one real GEMM each, against the float view of the
    complex coefficients of those columns whose series reaches the chunk;
    a short T's series ends early.  Every column passes the norm-drift guard.
    """
    import scipy.sparse  # only this route needs it; ``import entdyn`` stays lean

    diag, rows, cols, vals = terms
    dim = diag.size
    T = np.asarray(T_arr, dtype=np.float64)
    c, half = _spectral_interval(terms)
    r = _CHEB_WIDEN * half or 1.0
    # columns by falling series length, so those a chunk reaches come first
    series = [_chebyshev_series(r * t) * np.exp(-1j * c * t) for t in T]
    by_len = np.argsort([-a.size for a in series], kind="stable")
    series = [series[j] for j in by_len]
    order = series[0].size
    # 2 H' = 2 (H - c) / r, so that each step is one product and one difference
    idx = np.arange(dim)
    A = scipy.sparse.csr_array(
        (
            np.concatenate([diag - c, vals]) * (2 / r),
            (np.concatenate([idx, rows]), np.concatenate([idx, cols])),
        ),
        shape=(dim, dim),
    )
    size = min(_CHEB_CHUNK, order)
    chunk = np.empty((size, dim))
    coef = np.empty((size, T.size), dtype=np.complex128)
    out = np.zeros((dim, T.size), dtype=np.complex128)
    for k in range(order):
        j = k % size
        if k == 0:
            chunk[0] = psi0
        elif k == 1:
            np.multiply(A @ chunk[0], 0.5, out=chunk[1])
        else:
            np.subtract(A @ chunk[j - 1], chunk[j - 2], out=chunk[j])
        if j == size - 1 or k == order - 1:
            k0 = k - j
            n = sum(a.size > k0 for a in series)
            for i, a in enumerate(series[:n]):
                part = a[k0 : k + 1]
                coef[: part.size, i] = part
                coef[part.size : j + 1, i] = 0.0
            c_f = coef[: j + 1, :n].view(np.float64)
            out[:, :n] += (chunk[: j + 1].T @ c_f).view(np.complex128)
    prepared = np.empty_like(out)
    prepared[:, by_len] = out
    return _renormalized(prepared, "Chebyshev evolution")


def _chebyshev_wins(dim: int, nnz: int, half_width: float, T_arr) -> bool:
    """Whether a prepared block costs less by Chebyshev than densely.

    The dense route builds, checks and decomposes the chain; the
    Chebyshev route takes as many steps over a chain of ``nnz`` stored
    entries as the longest T's series has terms, and sums each step into
    the columns whose series reaches it.  ``half_width`` is that of the
    chain's spectral interval.
    """
    T = np.asarray(T_arr, dtype=np.float64)
    orders = _chebyshev_order(_CHEB_WIDEN * half_width * T)
    cheb = orders.max() * (_STEP_S + _NNZ_S * nnz) + _SUM_S * dim * orders.sum()
    return cheb < dim**2 * (_DENSE_ENTRY_S + _EIGH_S * dim)


def build_floquet(
    H0: OperatorMatrix,
    Hxy: OperatorMatrix,
    T0: float = 1.0,
    T1: float = 0.4,
) -> SpectralDecomposition:
    """Diagonalize the period map ``exp(-i T0 H0) exp(-i T1 Hxy)``.

    ``H0`` must be diagonal (the z-basis Ising part); neither operator is
    changed.  Returns a unitary-kind decomposition with eigenphases
    ``theta`` in (-pi, pi] ascending, so one period acts as
    ``Z exp(i theta) Z*``.

    About four real dim x dim matrices are alive at any step: only the
    diagonal of ``H0`` and a copy of ``Hxy`` are kept, so operators passed
    as temporaries (as the drivers pass them) are freed early, each factor
    is dropped once the next no longer needs it, and LAPACK writes the
    Schur form over the map.
    """
    if H0.basis is not Hxy.basis:
        raise ParameterError("H0 and Hxy must share a basis")
    basis = H0.basis
    _require_dense(basis.dim, "Floquet map")
    d0 = np.diagonal(H0.elements).copy()
    if np.count_nonzero(H0.elements) != np.count_nonzero(d0):
        raise ParameterError("H0 must be diagonal")
    del H0
    kick = _decompose_owned(OperatorMatrix(basis, Hxy.elements.copy()))
    del Hxy
    # complex eigenvectors keep the products, and so the eigenphases that a
    # 3e11-period reading amplifies, exactly as with complex arithmetic
    V1 = kick.vectors.astype(np.complex128)
    p1 = np.exp(-1j * _reduced_phases(kick.values, T1))
    del kick
    F = _period_map(np.exp(-1j * _reduced_phases(d0, T0)), V1, p1)
    del V1
    defect = _unitarity_defect(F)
    # ``not <=`` raises on NaN too, so this guard keeps NaN and inf from LAPACK
    if not defect <= _UNITARY_TOL:
        raise NumericError(f"period map is not unitary (defect {defect})")
    # zgees in place on the Fortran-ordered map, with the work size that
    # scipy.linalg.schur would query, so the arithmetic is the same
    gees, = scipy.linalg.get_lapack_funcs(("gees",), (F,))
    lwork = int(gees(_no_sort, F, lwork=-1, overwrite_a=True)[-2][0].real)
    T, _, _, Z, _, info = gees(_no_sort, F, lwork=lwork, overwrite_a=True)
    del F
    if info != 0:
        raise NumericError(f"complex Schur factorization failed (info {info})")
    lam = np.diagonal(T).copy()
    np.fill_diagonal(T, 0.0)
    off = _max_abs(T)
    del T
    if not off <= _UNITARY_TOL:
        raise NumericError(f"period map is not normal (Schur residue {off})")
    mod_err = float(np.abs(np.abs(lam) - 1.0).max())
    if not mod_err <= 1e-10:
        raise NumericError(f"eigenphase modulus deviates from 1 by {mod_err}")
    theta = np.angle(lam)
    order = np.argsort(theta, kind="stable")
    # C order, gathered in row blocks: the Fortran-ordered Z has no one-copy
    # reorder into C order (np.take would first copy it whole)
    vectors = np.empty_like(Z, order="C")
    for i in range(0, basis.dim, _ROW_BLOCK):
        vectors[i : i + _ROW_BLOCK] = Z[i : i + _ROW_BLOCK, order]
    return SpectralDecomposition(
        kind="unitary", basis=basis, values=theta[order], vectors=vectors
    )


def _no_sort(x):
    """Eigenvalue selector of an unsorted Schur form (never called)."""


def _unitarity_defect(F: np.ndarray) -> float:
    """``max |F^H F - 1|``, formed in row blocks of ``F^H F``; NaN if any entry is."""
    worst = []
    for i in range(0, F.shape[0], _ROW_BLOCK):
        G = F[:, i : i + _ROW_BLOCK].conj().T @ F
        G[np.arange(G.shape[0]), i + np.arange(G.shape[0])] -= 1.0
        worst.append(np.abs(G).max())
    return float(np.max(worst))


def _period_map(p0: np.ndarray, V1: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """The period map ``diag(p0) V1 diag(p1) V1^T``, Fortran-ordered.

    ``V1`` holds the kick's real eigenvectors as complex numbers, so
    ``V1.T`` stands for ``V1^H``.  The map is formed one row block at a
    time and the diagonal factor applied as a BLAS product with a
    ``(b, b)`` diagonal block.  The Schur eigenphases must stay those of
    exactly this product: scaling the rows elementwise instead moves them
    by about 9e-15, which after 3e11 periods moves the saturation entropy
    by about 1e-4 bits.
    """
    dim = p0.size
    F = np.empty((dim, dim), dtype=np.complex128, order="F")
    for i in range(0, dim, _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        F[rows] = np.diag(p0[rows]) @ ((V1[rows] * p1) @ V1.T)
    return F


def floquet_power(
    decomp: SpectralDecomposition, state: SectorState, n: int
) -> SectorState:
    """Apply ``n`` whole periods of a unitary decomposition."""
    if decomp.kind != "unitary":
        raise ParameterError("floquet_power needs a unitary decomposition")
    if decomp.basis is not state.basis:
        raise ParameterError("state and decomposition use different bases")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ParameterError(f"n must be a nonnegative integer, got {n!r}")
    amps = _spectral_apply(
        decomp, state.amplitudes[:, None], _phase_factors(decomp, [int(n)])
    )
    return SectorState(state.basis, amps[:, 0])


@dataclass(eq=False)
class Trajectory:
    """Entropy samples along an evolution.

    ``times`` is the sampled axis (continuous time, period count, or
    circuit depth), ``hcee`` the half-chain entropy at each sample, and
    ``baee`` the bipartition average when it was recorded.
    """

    times: np.ndarray
    hcee: np.ndarray
    baee: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.hcee = np.asarray(self.hcee, dtype=np.float64)
        if self.times.shape != self.hcee.shape:
            raise ParameterError("times and hcee must have matching shapes")
        if self.baee is not None:
            self.baee = np.asarray(self.baee, dtype=np.float64)
            if self.baee.shape != self.times.shape:
                raise ParameterError("baee must match times in shape")


def hybrid_schedule(t_max: float = 1e12, integer: bool = False) -> np.ndarray:
    """Dense linear sampling up to ``LINEAR_MAX``, logarithmic beyond.

    Returns ``N_LINEAR + 1`` equally spaced points on [0, LINEAR_MAX]
    followed by ``N_LOG`` log-spaced points up to a finite ``t_max``.  With
    ``integer=True`` the points are rounded to unique whole steps (for
    period counts and circuit depths).
    """
    if not LINEAR_MAX < t_max < np.inf:
        raise ParameterError(f"t_max must be finite and exceed {LINEAR_MAX:g}, got {t_max}")
    lin = np.linspace(0.0, LINEAR_MAX, N_LINEAR + 1)
    log = np.geomspace(LINEAR_MAX, t_max, N_LOG + 1)[1:]
    times = np.concatenate([lin, log])
    if integer:
        times = np.unique(np.rint(times)).astype(np.int64)
    return times


def run_rqc(
    state: SectorState,
    alpha: float,
    beta: float,
    depth: int,
    rng: np.random.Generator | None = None,
    record=None,
    record_baee: bool = False,
    bonds: np.ndarray | None = None,
) -> Trajectory:
    """Apply ``depth`` random-bond two-site gates, recording entropies.

    Bonds are drawn uniformly from 1..L-1 with ``rng`` unless an explicit
    ``bonds`` sequence is supplied.  ``record`` lists the depths at which
    entropy snapshots are taken (default: every depth 0..depth).  A
    depth with no gate on the centre bond since the last computed reading
    reuses that half-chain entropy (:func:`_circuit_readings`): no other
    gate acts across the cut.
    """
    basis = state.basis
    if not isinstance(depth, (int, np.integer)) or depth < 0:
        raise ParameterError(f"depth must be a nonnegative integer, got {depth!r}")
    if bonds is None:
        if rng is None:
            raise ParameterError("run_rqc needs either rng or an explicit bond list")
        bonds = rng.integers(1, basis.L, size=depth)
    bonds = _whole_numbers(bonds, "bond indices")
    if bonds.shape != (depth,):
        raise ParameterError(f"bonds must have shape ({depth},), got {bonds.shape}")
    if depth and (bonds.min() < 1 or bonds.max() > basis.L - 1):
        raise ParameterError("bond indices must lie in 1..L-1")
    if record is None:
        record = range(depth + 1)
    marks = np.unique(_whole_numbers(list(record), "recorded depths"))
    if marks.size == 0:
        raise ParameterError("record must name at least one depth")
    if marks.min() < 0 or marks.max() > depth:
        raise ParameterError("recorded depths must lie in 0..depth")
    gate: TwoQubitGate = build_two_qubit_gate(alpha, beta)
    s_h, s_b = _circuit_readings(
        state.amplitudes.copy(), gate, basis, bonds, marks, record_baee
    )
    return Trajectory(
        times=marks.astype(np.float64),
        hcee=s_h[:, 0],
        baee=None if s_b is None else s_b[:, 0],
        meta={"alpha": gate.alpha, "beta": gate.beta, "depth": depth},
    )


def _circuit_readings(
    amps: np.ndarray, gate: TwoQubitGate, basis: SectorBasis, bonds, marks, record_baee=False
):
    """Half-chain entropy (and BAEE) of a circuit's snapshots at ``marks``.

    Runs :func:`_apply_circuit` on ``amps`` in place, one state ``(dim,)``
    or a block ``(dim, m)``, and reads each snapshot, renormalized, with one
    batched entropy call.  A gate off the centre bond ``L // 2`` is a
    unitary inside one half and leaves the half-chain spectrum unchanged,
    so a mark with no centre-bond gate since the last computed one reuses
    that reading; it differs from a fresh one only by rounding (~1e-15
    bits).  Every mark's norm passes the drift guard.  The BAEE reads up to
    ``_BAEE_BLOCK`` snapshot columns per call, bit for bit a call per mark.
    Returns ``(hcee, baee)`` of shape ``(len(marks), m)`` for increasing
    ``marks`` in 0..len(bonds), with m = 1 for one state and ``baee`` None
    unless ``record_baee``.
    """
    crossed = np.concatenate(([0], np.cumsum(np.asarray(bonds) == basis.L // 2)))
    s_h, s_b, snaps, last = [], [], [], -1
    for d in _apply_circuit(amps, gate, basis, bonds, marks):
        n = _checked_norms(amps, "circuit")
        fresh = crossed[d] != last
        if fresh or record_baee:
            snap = (amps / n).reshape(basis.dim, -1)
        if fresh:
            h, last = _half_chain_entropies(basis, snap), crossed[d]
        s_h.append(h)
        if record_baee:
            snaps.append(snap)
        if snaps and (len(snaps) * snap.shape[1] >= _BAEE_BLOCK or d == marks[-1]):
            s_b.append(_bipartition_entropies(basis, np.hstack(snaps)).mean(axis=1))
            snaps = []
    return np.array(s_h), (np.concatenate(s_b).reshape(len(s_h), -1) if record_baee else None)


def _apply_circuit(amps: np.ndarray, gate: TwoQubitGate, basis: SectorBasis, bonds, marks):
    """Apply ``gate`` on each of ``bonds`` in turn to ``amps`` in place.

    ``amps`` is one state ``(dim,)`` or a block of states ``(dim, m)``.
    Each gate is applied without its global phase ``gate.u[0, 0]`` (see
    ``TwoQubitGate.mix``), so after ``d`` gates ``amps`` holds the circuit's
    output divided by ``gate.u[0, 0] ** d``; no entropy reading sees that
    phase.  The generator pauses (yielding the depth) before the first gate
    if 0 is in ``marks`` and after every gate whose depth is in ``marks``.
    """
    groups = [bond_groups(basis, b) for b in range(1, basis.L)]
    mix = gate.mix
    mark_set = set(int(m) for m in marks)
    if 0 in mark_set:
        yield 0
    for d, b in enumerate(bonds, start=1):
        ud, du = groups[b - 1]
        _kernels.gate_mix(amps, ud, du, mix)
        if d in mark_set:
            yield d
