"""Normalized amplitude vectors over a magnetization sector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import SectorBasis
from .errors import ParameterError

_NORM_TOL = 1e-8


@dataclass(eq=False)
class SectorState:
    """A unit vector of complex amplitudes aligned with ``basis.states``."""

    basis: SectorBasis
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ParameterError(
                f"amplitudes must have shape ({self.basis.dim},), got {amps.shape}"
            )
        n = float(np.linalg.norm(amps))
        if not abs(n - 1.0) <= _NORM_TOL:
            raise ParameterError(f"state norm {n} deviates from 1 beyond {_NORM_TOL}")
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.basis.dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "SectorState":
        return SectorState(self.basis, self.amplitudes.copy())

    @classmethod
    def from_word(cls, basis: SectorBasis, word: int) -> "SectorState":
        """The computational basis state for one occupation word."""
        amps = np.zeros(basis.dim, dtype=np.complex128)
        amps[basis.index_of(word)] = 1.0
        return cls(basis, amps)


def random_sector_state(basis: SectorBasis, rng: np.random.Generator) -> SectorState:
    """Haar-random sector state: normalized i.i.d. complex Gaussian amplitudes."""
    z = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return SectorState(basis, z / np.linalg.norm(z))
