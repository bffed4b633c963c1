"""Entanglement dynamics of disordered spin-1/2 chains.

Exact-diagonalization toolkit for quench protocols started from
entangled initial states: sector bases, XXZ/Ising Hamiltonians, Floquet
operators, random two-qubit circuits, half-chain and bipartition-averaged
entanglement entropies, the SWAP bipartition Markov chain, and
level-spacing diagnostics.
"""

__version__ = "0.1.0"

from .basis import SectorBasis, enumerate_sector, subsystem_split
from .bipartition_markov import (
    markov_report,
    monte_carlo_occupation,
    second_eigenvalue_modulus,
    stationary_distribution,
    swap_action,
    transition_matrix,
    verify_ergodicity,
)
from .config import RunConfig, parse_config, resolve_heavy, serialize_config, with_overrides
from .entanglement import (
    Bipartition,
    baee,
    bipartition_entropies,
    enumerate_bipartitions,
    haar_sector_mean_exact,
    hcee,
    subset_entropy,
)
from .errors import (
    CapacityError,
    ConfigError,
    EntdynError,
    NumericError,
    ParameterError,
    StateNotInSector,
)
from .evolution import (
    SpectralDecomposition,
    Trajectory,
    build_floquet,
    floquet_power,
    hybrid_schedule,
    propagate,
    run_rqc,
    spectral_decompose,
    spectrum,
)
from .experiments import (
    ProtocolSpec,
    classify_dynamics,
    delta_s_sweep,
    derive_rng,
    eigenstate_sweep,
    mean_trajectory,
    pooled_disorder_ratios,
    reservoir_curve,
    sample_initial_product,
)
from .operators import (
    DisorderFields,
    TwoQubitGate,
    apply_gate,
    build_ising_z,
    build_local_cut,
    build_two_qubit_gate,
    build_xxz,
    gate_class,
    sample_fields,
)
from .spectral_stats import (
    middle_third,
    pool_ratios,
    ratio_histogram,
    reference_curves,
    spacing_ratios,
)
from .state import SectorState, random_sector_state

__all__ = [
    "__version__",
    "SectorBasis",
    "enumerate_sector",
    "subsystem_split",
    "SectorState",
    "random_sector_state",
    "DisorderFields",
    "sample_fields",
    "build_xxz",
    "build_ising_z",
    "build_local_cut",
    "TwoQubitGate",
    "build_two_qubit_gate",
    "gate_class",
    "apply_gate",
    "Bipartition",
    "enumerate_bipartitions",
    "subset_entropy",
    "hcee",
    "bipartition_entropies",
    "baee",
    "haar_sector_mean_exact",
    "SpectralDecomposition",
    "spectral_decompose",
    "spectrum",
    "propagate",
    "build_floquet",
    "floquet_power",
    "Trajectory",
    "hybrid_schedule",
    "run_rqc",
    "middle_third",
    "spacing_ratios",
    "pool_ratios",
    "ratio_histogram",
    "reference_curves",
    "swap_action",
    "transition_matrix",
    "stationary_distribution",
    "verify_ergodicity",
    "second_eigenvalue_modulus",
    "monte_carlo_occupation",
    "markov_report",
    "ProtocolSpec",
    "derive_rng",
    "sample_initial_product",
    "mean_trajectory",
    "delta_s_sweep",
    "eigenstate_sweep",
    "reservoir_curve",
    "classify_dynamics",
    "pooled_disorder_ratios",
    "RunConfig",
    "parse_config",
    "serialize_config",
    "with_overrides",
    "resolve_heavy",
    "EntdynError",
    "ParameterError",
    "CapacityError",
    "NumericError",
    "ConfigError",
    "StateNotInSector",
]
