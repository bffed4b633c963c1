"""Protocol drivers: entangled-state preparation, quenches, and sweeps.

The central experiment prepares an entangled initial state by evolving a
random half-filling product state for a time ``T`` under a weakly
disordered XXZ chain, then hands it to one of six dynamical protocols and
compares the initial half-chain entropy with the protocol's saturation
value:

* ``thermal``         -- XXZ, weak disorder (W = 0.5)
* ``hamiltonian_mbl`` -- XXZ, strong disorder (W = 5.0)
* ``free_fermion``    -- XX chain, no interaction, no disorder
* ``floquet_mbl``     -- kicked map exp(-i T0 H0) exp(-i T1 Hxy) with a
                         strongly disordered diagonal H0
* ``anderson``        -- XX chain, strong disorder
* ``rqc``             -- random two-site gate circuits, including SWAP

Every driver runs :func:`_each_run`: each run prepares its states as one
block, draws its quench once (``_make_engine``) and reads the block out at
a list of steps (``_QuenchEngine.readings``).  A saturation value is the mean of those
readings over a window: Hamiltonian protocols read t = 1e12 (free
fermions instead average t = 201..300, since they never dephase into a
flat plateau); the Floquet map reads 3e11 periods; generic circuits
average the last hundred of 2000 layers over several gate sequences.
Pure-SWAP circuits need no simulation at all: site permutations only
shuffle bipartitions, so the exact steady value is the bipartition-averaged
entropy of the initial state, and the reservoir curve is the SWAP sweep.

Per-run randomness is split into independent, stably tagged streams
(initial product word, preparation disorder, quench disorder, circuit
sequences), so any protocol can be recomputed in isolation and sweeps
over T reuse one disorder draw per run, as the reference experiments do.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import SectorBasis, _whole_numbers, enumerate_sector
# baee, hcee, propagate, floquet_power, run_rqc, spectral_decompose and
# build_local_cut are unused here: entbench/tracer.py wraps them
from .entanglement import _bipartition_entropies, _half_chain_entropies, _half_chain_overlapped
from .entanglement import baee, hcee  # noqa: F401
from .errors import ParameterError
from .evolution import (  # noqa: F401
    SpectralDecomposition,
    Trajectory,
    _chebyshev_block,
    _chebyshev_wins,
    _circuit_readings,
    _decompose_owned,
    _phase_factors,
    _spectral_apply,
    _spectral_interval,
    build_floquet,
    floquet_power,
    hybrid_schedule,
    propagate,
    run_rqc,
    spectral_decompose,
    spectrum,
)
from .operators import (  # noqa: F401
    DisorderFields,
    _build_chain,
    _fits,
    _require_dense,
    _xxz_terms,
    build_ising_z,
    build_local_cut,
    build_two_qubit_gate,
    build_xxz,
    gate_class,
    sample_fields,
)
from .spectral_stats import RatioSample, middle_third, pool_ratios, spacing_ratios
from .state import SectorState

KINDS = ("thermal", "hamiltonian_mbl", "free_fermion", "floquet_mbl", "anderson", "rqc")

THERMAL_W = 0.5
MBL_W = 5.0
DEFAULT_JZ = 0.5
DEFAULT_PREP_T = 4.5

# each kind's quench disorder W and coupling jz when a spec leaves them unset
_CANONICAL_W_JZ = {
    "thermal": (THERMAL_W, DEFAULT_JZ),
    "hamiltonian_mbl": (MBL_W, DEFAULT_JZ),
    "free_fermion": (0.0, 0.0),
    "floquet_mbl": (MBL_W, 0.0),
    "anderson": (MBL_W, 0.0),
    "rqc": (0.0, 0.0),
}

SAT_TIME = 1.0e12
SAT_PERIODS = 300_000_000_000
FF_WINDOW = np.arange(201.0, 301.0)
RQC_DEPTH = 2000
CIRCUIT_SAMPLES = 5

DESK_L = 12
DESK_RUNS = 50
HEAVY_L = 16
HEAVY_RUNS = 72

# Preparation times swept in the reference experiments: dense early steps,
# then stretching increments, and one deep-saturation point.
DEFAULT_T_LIST = (
    0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75,
    3.0, 3.3, 3.6, 3.9, 4.2, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0,
    8.5, 9.0, 9.5, 10.0, 11.0, 12.2, 13.7, 15.7, 19.0, 24.0, 32.0, 500.0,
)

# Eigenstate ranks spanning the full spectrum at dimension 12870; other
# dimensions use the proportionally rescaled, deduplicated list.
RANKS_DIM_12870 = (
    1, 2, 4, 8, 15, 29, 52, 87, 142, 222, 337, 494, 704, 978, 1324,
    1750, 2259, 2855, 3533, 4283, 5095, 5950, 6826, 7700, 8548, 9348,
    10079, 10727, 11280, 11737, 12098, 12371, 12568, 12701, 12785,
    12833, 12857, 12867, 12870,
)


def scaled_rank_list(dim: int) -> tuple[int, ...]:
    """Rescale the reference rank ladder to a spectrum of size ``dim``."""
    if dim < 1:
        raise ParameterError(f"dim must be positive, got {dim}")
    top = RANKS_DIM_12870[-1]
    out = []
    for r in RANKS_DIM_12870:
        s = 1 + round((r - 1) * (dim - 1) / (top - 1))
        s = min(max(s, 1), dim)
        if not out or s != out[-1]:
            out.append(s)
    return tuple(out)


def derive_rng(master_seed: int, run: int, tag: str) -> np.random.Generator:
    """Independent, reproducible stream for (seed, run, purpose).

    The purpose tag is folded in through a CRC so streams stay stable
    across releases and are uncorrelated between purposes.
    """
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (master_seed, run)):
        raise ParameterError(f"master_seed {master_seed!r} and run {run!r} must be integers >= 0")
    key = zlib.crc32(tag.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence((master_seed, run, key)))


@dataclass(frozen=True)
class ProtocolSpec:
    """One dynamical protocol with its couplings.

    Unset numeric fields are filled by :meth:`normalized` with the
    protocol's canonical values; ``rqc`` requires explicit gate angles.
    """

    kind: str
    W: float | None = None
    jz: float | None = None
    alpha: float | None = None
    beta: float | None = None
    T0: float = 1.0
    T1: float = 0.4

    def normalized(self) -> "ProtocolSpec":
        if self.kind not in KINDS:
            raise ParameterError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "rqc" and (self.alpha is None or self.beta is None):
            raise ParameterError("rqc protocol needs explicit alpha and beta")
        W, jz = _CANONICAL_W_JZ[self.kind]
        W = W if self.W is None else self.W
        jz = jz if self.jz is None else self.jz
        for name, value in (("W", W), ("jz", jz), ("T0", self.T0), ("T1", self.T1)):
            if not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if W < 0:
            raise ParameterError(f"W must be nonnegative, got {W}")
        return replace(self, W=float(W), jz=float(jz))

    @property
    def is_swap(self) -> bool:
        return (
            self.kind == "rqc"
            and self.alpha is not None
            and self.beta is not None
            and gate_class(self.alpha, self.beta) == "SWAP"
        )


# ---------------------------------------------------------------------------
# state preparation
# ---------------------------------------------------------------------------


def sample_initial_product(basis: SectorBasis, rng: np.random.Generator) -> SectorState:
    """A uniformly random product state of the sector (one basis word)."""
    word = int(basis.states[int(rng.integers(0, basis.dim))])
    return SectorState.from_word(basis, word)


def _preparation(
    basis: SectorBasis,
    master_seed: int,
    run: int,
    prep_W: float,
    prep_jz: float,
    prep_local: bool = False,
) -> tuple[SectorState, tuple]:
    """A run's product state and the terms of its preparation chain.

    The chain is the weakly disordered XXZ chain, or with ``prep_local``
    the same chain severed at the centre, whose halves never couple.  Its
    terms (:func:`operators._chain_terms`) are small; :func:`_prepared_block`
    decides whether it is ever formed as a dense matrix.
    """
    psi0 = sample_initial_product(basis, derive_rng(master_seed, run, "psi0"))
    fields = sample_fields(basis.L, prep_W, derive_rng(master_seed, run, "prep"))
    return psi0, _xxz_terms(basis, prep_jz, fields, severed=prep_local)


def _prepared_block(terms, psi0: SectorState, T_arr) -> np.ndarray:
    """Columns ``|psi0(T)>`` for every preparation time, one block per run.

    One Chebyshev recurrence over the chain's terms makes it, never forming
    a dim x dim matrix, unless the decomposition of the dense chain is both
    estimated cheaper (:func:`evolution._chebyshev_wins`: below L = 12 for
    ``DEFAULT_T_LIST``, below L = 10 for T = 4.5 alone) and fits in memory
    (:func:`operators._fits`).  So a preparation needs no dense step that
    :func:`_preflight` has not reserved.  ``psi0`` is a basis word, so its
    amplitudes are real.
    """
    dim = psi0.basis.dim
    _, half = _spectral_interval(terms)
    nnz = terms[0].size + terms[1].size
    if not _fits(dim, "decomposition") or _chebyshev_wins(dim, nnz, half, T_arr):
        return _chebyshev_block(terms, psi0.amplitudes.real, T_arr)
    prep = _decompose_owned(_build_chain(psi0.basis, terms))
    return _spectral_apply(prep, psi0.amplitudes[:, None], _phase_factors(prep, T_arr))


def _prep_times(T_list) -> np.ndarray:
    """The preparation times of a sweep, validated."""
    T_arr = np.asarray(
        DEFAULT_T_LIST if T_list is None else list(T_list), dtype=np.float64
    )
    if T_arr.size == 0 or not (np.isfinite(T_arr) & (T_arr >= 0)).all():
        raise ParameterError("T_list must be nonempty, finite and nonnegative")
    return T_arr


# ---------------------------------------------------------------------------
# quench engines and saturation
# ---------------------------------------------------------------------------


def _check_count(name: str, value) -> None:
    """Refuse a run or circuit count or a depth below 1 or not a whole number."""
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(eq=False)
class _QuenchEngine:
    """The quench of one run, read out on any block of states.

    Hamiltonian and Floquet kinds carry the quench decomposition; circuits
    draw ``circuit_samples`` sequences of ``depth`` bonds per reading, and
    pure SWAP draws none.
    """

    spec: ProtocolSpec
    basis: SectorBasis
    decomp: SpectralDecomposition | None = None
    master_seed: int = 0
    run: int = 0
    circuit_samples: int = CIRCUIT_SAMPLES
    depth: int = RQC_DEPTH

    def readings(self, block: np.ndarray, steps, record_baee: bool = False) -> list:
        """Half-chain entropy (and BAEE) of a ``(dim, m)`` block at every step.

        ``steps`` are times, or whole periods or layers in increasing order.
        Returns one ``(hcee, baee)`` pair per realization (one gate sequence
        of a circuit, else the run's decomposition), each ``(len(steps), m)``
        and ``baee`` None unless ``record_baee``.  The phase factors are
        computed once per call.  One step evolves and reads the whole block
        on the calling thread.  Several evolve one column at a time, which
        keeps each column's readings contiguous for the window mean, through
        :func:`entanglement._half_chain_overlapped`: the calling thread
        evolves a column, takes its BAEE and forms its half-chain Gram
        stacks, while one worker thread takes the spectra, trace check and
        clip policy of the column before.
        """
        basis = self.basis
        if self.spec.kind == "rqc":
            gate = build_two_qubit_gate(self.spec.alpha, self.spec.beta)
            out = []
            for m in range(self.circuit_samples):
                rng = derive_rng(self.master_seed, self.run, f"circuit:{m}")
                amps = block.astype(np.complex128, order="C")
                bonds = rng.integers(1, basis.L, size=self.depth)
                out.append(_circuit_readings(amps, gate, basis, bonds, steps, record_baee))
            return out
        factors = _phase_factors(self.decomp, steps)
        one_step = factors.shape[1] == 1
        parts = [block] if one_step else [block[:, j : j + 1] for j in range(block.shape[1])]
        ba = []

        def evolve(i: int) -> np.ndarray:
            states = _spectral_apply(self.decomp, parts[i], factors)
            if record_baee:
                ba.append(_bipartition_entropies(basis, states).mean(axis=1))
            return states

        hc = _half_chain_overlapped(basis, evolve, len(parts))
        # (readings, parts, k) -> (readings, len(steps), m)
        read = np.array([hc, ba] if record_baee else [hc])
        read = read if one_step else read.transpose(0, 2, 1)
        return [(read[0], read[1] if record_baee else None)]

    def saturation(self, block: np.ndarray) -> np.ndarray:
        """Saturation entropy of every unit column of a ``(dim, m)`` block.

        Pure SWAP reads the BAEE of the block itself, its exact steady
        value.  Every other kind averages :meth:`readings` over its window:
        ``SAT_TIME`` or ``SAT_PERIODS`` alone, ``FF_WINDOW`` for free
        fermions, the last hundred layers of every gate sequence for circuits.
        """
        kind = self.spec.kind
        if self.spec.is_swap:
            return _bipartition_entropies(self.basis, block).mean(axis=1)
        if kind == "rqc":
            window = range(max(1, self.depth - 99), self.depth + 1)
        elif kind == "free_fermion":
            window = FF_WINDOW
        else:
            window = [SAT_PERIODS if kind == "floquet_mbl" else SAT_TIME]
        return np.mean([h.mean(axis=0) for h, _ in self.readings(block, window)], axis=0)


def _make_engine(
    basis: SectorBasis,
    spec: ProtocolSpec,
    master_seed: int,
    run: int,
    circuit_samples: int = CIRCUIT_SAMPLES,
    depth: int = RQC_DEPTH,
) -> _QuenchEngine:
    """The quench of one run: its disorder draw and operator, or circuits.

    The driver checks its circuit count and depth once, in :func:`_setup`.
    """
    spec = spec.normalized()
    engine = _QuenchEngine(
        spec=spec,
        basis=basis,
        master_seed=master_seed,
        run=run,
        circuit_samples=circuit_samples,
        depth=depth,
    )
    if spec.kind == "rqc":
        return engine
    fields = sample_fields(
        basis.L, spec.W, derive_rng(master_seed, run, f"quench:{spec.kind}")
    )
    if spec.kind == "floquet_mbl":
        # temporaries, which build_floquet frees once it has what it needs
        engine.decomp = build_floquet(
            build_ising_z(basis, fields),
            build_xxz(basis, 0.0, DisorderFields.zeros(basis.L)),
            spec.T0,
            spec.T1,
        )
    else:
        engine.decomp = _decompose_owned(build_xxz(basis, spec.jz, fields))
    return engine


def _preflight(basis: SectorBasis, kind: str, eigenstates: bool) -> None:
    """Refuse a run up front if its largest dense step exceeds memory.

    That step is the Floquet map for ``floquet_mbl``, and one decomposition
    for the other Hamiltonian kinds and for eigenstate preparations.  A
    circuit run with prepared states (the reservoir curve's SWAP sweep among
    them) reserves nothing: :func:`_prepared_block` takes the Chebyshev
    route whenever a decomposition would not fit.  No step runs while
    another step's dim x dim results are still held: a preparation drops
    its eigenvectors before it returns, and :func:`_each_run` drops each
    engine before the next run's preparation.
    """
    if kind == "floquet_mbl":
        _require_dense(basis.dim, "Floquet map")
    elif kind != "rqc" or eigenstates:
        _require_dense(basis.dim, "decomposition")


def default_schedule(kind: str, depth: int = RQC_DEPTH, t_max: float | None = None) -> np.ndarray:
    """The times, whole periods or layers a ``kind`` trajectory records by default.

    A circuit records up to its last layer ``depth``: every layer up to
    depth 10, the end of :func:`hybrid_schedule`'s linear part, else that
    schedule up to ``depth``.  The other kinds follow
    :func:`hybrid_schedule` up to ``t_max``, by default ``SAT_PERIODS``
    whole periods for the Floquet map and ``SAT_TIME`` for the Hamiltonian
    kinds.
    """
    if kind == "rqc":
        _check_count("depth", depth)
        if depth <= 10:
            return np.arange(depth + 1, dtype=np.int64)
        return hybrid_schedule(t_max=depth, integer=True)
    floquet = kind == "floquet_mbl"
    if t_max is None:
        t_max = SAT_PERIODS if floquet else SAT_TIME
    return hybrid_schedule(t_max=t_max, integer=floquet)


def _setup(
    L: int, spec: ProtocolSpec, runs: int, circuit_samples, depth, prep_W, prep_jz,
    eigenstates: bool = False,
) -> tuple[ProtocolSpec, SectorBasis]:
    """Check a driver call whole before its first run; its spec and basis.

    ``eigenstates`` marks a driver that prepares eigenstates of the dense chain.
    """
    for name, value in (("runs", runs), ("circuit_samples", circuit_samples), ("depth", depth)):
        _check_count(name, value)
    for name, value in (("prep_W", prep_W), ("prep_jz", prep_jz)):
        if not np.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")
    spec = spec.normalized()
    basis = enumerate_sector(L, 0)
    _preflight(basis, spec.kind, eigenstates)
    return spec, basis


def _each_run(basis, spec, runs, master_seed, circuit_samples, depth, prepare, read) -> list:
    """Every run of a driver: prepare its states, draw its quench, read them.

    ``prepare(run)`` returns the run's ``(dim, m)`` block of states and
    ``read(engine, block)`` its readings; one entry per run.  The engine,
    and the quench decomposition it holds, goes before the next run's
    preparation: the memory rule :func:`_preflight` counts on.
    """
    out = []
    for run in range(runs):
        block = prepare(run)
        engine = _make_engine(basis, spec, master_seed, run, circuit_samples, depth)
        out.append(read(engine, block))
        del engine
    return out


def mean_trajectory(
    L: int,
    spec: ProtocolSpec,
    runs: int = DESK_RUNS,
    master_seed: int = 0,
    schedule=None,
    prep_T: float = DEFAULT_PREP_T,
    prep_W: float = THERMAL_W,
    prep_jz: float = DEFAULT_JZ,
    prep_local: bool = False,
    record_baee: bool = False,
    circuit_samples: int = 1,
    depth: int = RQC_DEPTH,
) -> Trajectory:
    """Disorder/realization-averaged entropy trajectory of one protocol.

    Each run prepares |psi(prep_T)> from its own product state and
    preparation disorder, then evolves it with the run's quench draw;
    circuits additionally average ``circuit_samples`` gate sequences.
    ``schedule`` lists times for Hamiltonian kinds and whole periods or
    layers for the Floquet map and circuits.
    """
    if not 0 <= prep_T < np.inf:
        raise ParameterError(f"prep_T must be finite and nonnegative, got {prep_T}")
    spec, basis = _setup(L, spec, runs, circuit_samples, depth, prep_W, prep_jz)
    kind = spec.kind
    if schedule is None:
        schedule = default_schedule(kind, depth)
    times = np.asarray(schedule, dtype=np.float64)
    # circuits record their snapshots in depth order, so every kind takes
    # its schedule in increasing order
    if times.ndim != 1 or times.size == 0 or not (
        np.isfinite(times).all() and times[0] >= 0 and (np.diff(times) > 0).all()
    ):
        raise ParameterError(
            "schedule must be nonempty, finite, nonnegative and strictly increasing"
        )
    steps = times
    if kind in ("floquet_mbl", "rqc"):
        steps = _whole_numbers(times, f"the periods or layers of a {kind} schedule")

    def prepare(run):
        psi0, terms = _preparation(basis, master_seed, run, prep_W, prep_jz, prep_local)
        return _prepared_block(terms, psi0, [prep_T])

    # a circuit runs up to the last scheduled layer
    per_run = _each_run(
        basis, spec, runs, master_seed, circuit_samples, int(steps.max()), prepare,
        lambda engine, init: engine.readings(init, steps, record_baee),
    )
    rows = [pair for realizations in per_run for pair in realizations]
    return Trajectory(
        times=times,
        hcee=np.mean([s_h[:, 0] for s_h, _ in rows], axis=0),
        baee=np.mean([s_b[:, 0] for _, s_b in rows], axis=0) if record_baee else None,
        meta={
            "kind": kind, "L": L, "runs": runs, "master_seed": master_seed,
            "prep_T": prep_T, "prep_W": prep_W, "prep_jz": prep_jz,
            "prep_local": prep_local, "realizations": len(rows),
        },
    )


# ---------------------------------------------------------------------------
# sweeps over the preparation time
# ---------------------------------------------------------------------------


@dataclass(eq=False, kw_only=True)
class _EntropyTable:
    """Run-averaged initial and saturation entropies with their standard errors."""

    s_initial: np.ndarray
    s_sat: np.ndarray
    stderr_initial: np.ndarray
    stderr_sat: np.ndarray
    runs: int
    meta: dict = field(default_factory=dict)

    @property
    def delta_s(self) -> np.ndarray:
        return self.s_sat - self.s_initial

    @classmethod
    def _from_runs(cls, rows: list, **columns):
        """The table of per-run ``(initial, saturation)`` rows and ``columns``."""
        n = len(rows)
        for name, values in zip(("initial", "sat"), map(np.array, zip(*rows))):
            columns[f"s_{name}"] = mean = values.mean(axis=0)
            columns[f"stderr_{name}"] = (
                values.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
            )
        return cls(runs=n, **columns)


def _sweep_row(engine: _QuenchEngine, block: np.ndarray) -> tuple:
    """A sweep run's initial half-chain entropies and saturations."""
    return _half_chain_entropies(engine.basis, block), engine.saturation(block)


@dataclass(eq=False, kw_only=True)
class SweepTable(_EntropyTable):
    """Disorder-averaged initial and saturation entropies per prep time."""

    T: np.ndarray


def delta_s_sweep(
    L: int,
    spec: ProtocolSpec,
    T_list=None,
    runs: int = DESK_RUNS,
    master_seed: int = 0,
    circuit_samples: int = CIRCUIT_SAMPLES,
    depth: int = RQC_DEPTH,
    prep_W: float = THERMAL_W,
    prep_jz: float = DEFAULT_JZ,
    prep_local: bool = False,
) -> SweepTable:
    """Initial vs saturation entropy across preparation times.

    Per run: one random product state, one preparation disorder, and one
    quench setup (disorder or circuit sequences) shared by every ``T``.
    """
    T_arr = _prep_times(T_list)
    spec, basis = _setup(L, spec, runs, circuit_samples, depth, prep_W, prep_jz)

    def prepare(run):
        psi0, terms = _preparation(basis, master_seed, run, prep_W, prep_jz, prep_local)
        return _prepared_block(terms, psi0, T_arr)

    return SweepTable._from_runs(
        _each_run(basis, spec, runs, master_seed, circuit_samples, depth, prepare, _sweep_row),
        T=T_arr,
        meta={
            "kind": spec.kind, "W": spec.W, "jz": spec.jz,
            "alpha": spec.alpha, "beta": spec.beta, "L": L, "master_seed": master_seed,
            "circuit_samples": circuit_samples, "depth": depth,
            "prep_W": prep_W, "prep_jz": prep_jz, "prep_local": prep_local,
        },
    )


@dataclass(eq=False, kw_only=True)
class EigensweepTable(_EntropyTable):
    """Initial vs saturation entropy for eigenstate initial conditions."""

    rank: np.ndarray
    energy: np.ndarray


def eigenstate_sweep(
    L: int,
    spec: ProtocolSpec,
    ranks=None,
    runs: int = DESK_RUNS,
    master_seed: int = 0,
    circuit_samples: int = CIRCUIT_SAMPLES,
    depth: int = RQC_DEPTH,
    prep_W: float = THERMAL_W,
    prep_jz: float = DEFAULT_JZ,
) -> EigensweepTable:
    """Sweep initial entropy using eigenstates of the weak-disorder chain.

    Eigenstates taken across the whole spectrum of the preparation
    Hamiltonian span initial entropies from area-law edges to volume-law
    bulk; each is quenched exactly like a prepared state.
    """
    spec, basis = _setup(L, spec, runs, circuit_samples, depth, prep_W, prep_jz, eigenstates=True)
    rank_arr = _whole_numbers(
        scaled_rank_list(basis.dim) if ranks is None else list(ranks), "ranks"
    )
    if rank_arr.size == 0 or rank_arr.min() < 1 or rank_arr.max() > basis.dim:
        raise ParameterError(f"ranks must lie in 1..{basis.dim}")
    energies = []

    def prepare(run):
        _, terms = _preparation(basis, master_seed, run, prep_W, prep_jz)
        decomp = _decompose_owned(_build_chain(basis, terms))
        energies.append(decomp.values[rank_arr - 1])
        states = decomp.vectors[:, rank_arr - 1].astype(np.complex128, order="C")
        return states / np.linalg.norm(states, axis=0)

    # the runs fill ``energies``, so they come before the table
    rows = _each_run(basis, spec, runs, master_seed, circuit_samples, depth, prepare, _sweep_row)
    return EigensweepTable._from_runs(
        rows,
        rank=rank_arr,
        energy=np.mean(energies, axis=0),
        meta={
            "kind": spec.kind, "L": L, "master_seed": master_seed,
            "prep_W": prep_W, "prep_jz": prep_jz,
        },
    )


# ---------------------------------------------------------------------------
# reservoir curve
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ReservoirCurve:
    """Run-averaged HCEE and BAEE along the preparation evolution."""

    T: np.ndarray
    hcee: np.ndarray
    baee: np.ndarray
    runs: int
    meta: dict = field(default_factory=dict)

    @property
    def excess(self) -> np.ndarray:
        return self.baee - self.hcee

    @property
    def argmax_T(self) -> float:
        return float(self.T[int(np.argmax(self.excess))])


def reservoir_curve(
    L: int,
    T_list=None,
    runs: int = DESK_RUNS,
    master_seed: int = 0,
    prep_W: float = THERMAL_W,
    prep_jz: float = DEFAULT_JZ,
) -> ReservoirCurve:
    """Average BAEE and HCEE of |psi(T)> over disorder and product states.

    The excess BAEE - HCEE measures entanglement held away from the
    central cut; it starts at zero, peaks at intermediate T, and decays
    as the state scrambles.  Pure SWAP circuits spread a state's
    entanglement evenly over all bipartitions, so their saturation is its
    BAEE: the curve is the SWAP :func:`delta_s_sweep`.
    """
    swap = ProtocolSpec(kind="rqc", alpha=np.pi, beta=np.pi)
    table = delta_s_sweep(L, swap, T_list, runs, master_seed, prep_W=prep_W, prep_jz=prep_jz)
    return ReservoirCurve(
        T=table.T,
        hcee=table.s_initial,
        baee=table.s_sat,
        runs=runs,
        meta={"L": L, "master_seed": master_seed, "prep_W": prep_W, "prep_jz": prep_jz},
    )


# ---------------------------------------------------------------------------
# classification of sweep shapes
# ---------------------------------------------------------------------------


# bits: the largest |delta S| of an inert sweep, the least rise of a peak
# over both ends, and the largest RMS distance from a nonincreasing fit
EPS_INERT = 0.05
EPS_PEAK = 0.1
EPS_FIT = 0.05


@dataclass(frozen=True)
class ClassLabel:
    """Shape class of a delta-S sweep with its decision diagnostics."""

    label: str
    diagnostics: dict


def _isotonic_decreasing(y: np.ndarray) -> np.ndarray:
    """Least-squares nonincreasing fit by pooling adjacent violators."""
    z = y[::-1]
    levels: list[float] = []
    weights: list[int] = []
    for v in z:
        levels.append(float(v))
        weights.append(1)
        while len(levels) > 1 and levels[-2] > levels[-1]:
            w = weights[-1] + weights[-2]
            lv = (levels[-1] * weights[-1] + levels[-2] * weights[-2]) / w
            levels.pop()
            weights.pop()
            levels[-1] = lv
            weights[-1] = w
    fit = np.concatenate([np.full(w, lv) for lv, w in zip(levels, weights)])
    return fit[::-1]


def classify_dynamics(table: SweepTable) -> ClassLabel:
    """Assign a sweep to one of three dynamical shape classes.

    Rows are ordered by mean initial entropy; then, in order of
    precedence: every |delta S| below ``EPS_INERT`` is ``inert``; an
    interior maximum exceeding both endpoints by ``EPS_PEAK`` is
    ``rise_then_fall``; a curve within ``EPS_FIT`` RMS of its best
    nonincreasing fit is ``monotone_decreasing``; anything else is
    ``unclassified``.
    """
    order = np.argsort(table.s_initial, kind="stable")
    y = table.delta_s[order]
    diag: dict = {"max_abs_delta": float(np.abs(y).max())}
    if diag["max_abs_delta"] < EPS_INERT:
        return ClassLabel("inert", diag)
    if y.size >= 3:
        interior = y[1:-1]
        k = int(np.argmax(interior)) + 1
        peak = float(y[k])
        diag.update(
            peak_value=peak,
            peak_minus_first=float(peak - y[0]),
            peak_minus_last=float(peak - y[-1]),
        )
        if peak - y[0] >= EPS_PEAK and peak - y[-1] >= EPS_PEAK:
            return ClassLabel("rise_then_fall", diag)
    fit = _isotonic_decreasing(y)
    rms = float(np.sqrt(np.mean((y - fit) ** 2)))
    diag["monotone_fit_rms"] = rms
    if rms <= EPS_FIT:
        return ClassLabel("monotone_decreasing", diag)
    return ClassLabel("unclassified", diag)


# ---------------------------------------------------------------------------
# disorder-pooled level statistics
# ---------------------------------------------------------------------------


def pooled_disorder_ratios(
    L: int,
    W: float,
    jz: float = DEFAULT_JZ,
    realizations: int = 100,
    master_seed: int = 0,
) -> RatioSample:
    """Middle-third gap ratios pooled over disorder realizations."""
    _check_count("realizations", realizations)
    basis = enumerate_sector(L, 0)
    samples = []
    for i in range(realizations):
        fields = sample_fields(L, W, derive_rng(master_seed, i, "levelstats"))
        H = build_xxz(basis, jz, fields)
        samples.append(spacing_ratios(middle_third(spectrum(H))))
    return pool_ratios(samples)
