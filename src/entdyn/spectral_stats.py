"""Level-spacing ratio statistics for sorted energy spectra.

The diagnostic is the consecutive-gap ratio
``r_n = min(d_n, d_{n+1}) / max(d_n, d_{n+1})`` with ``d_n`` the n-th level
spacing, evaluated on the middle third of the spectrum where the density
of states is flattest.  Its distribution separates localized from ergodic
spectra: Poisson statistics give ``p(r) = 2 / (1 + r)^2`` with mean
``2 ln 2 - 1 ~ 0.386``, while the orthogonal-ensemble surmise gives
``p(r) = (27/2) (r + r^2) / (1 + r + r^2)^{5/2}`` with mean
``4 - 2 sqrt(3) ~ 0.536``.  Both densities are normalized on [0, 1], the
range of the min/max ratio (the factor 2 relative to the unfolded surmise
accounts for folding r -> 1/r into the unit interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

DEGENERACY_TOL = 1e-13
RATIO_BINS = 25


def _check_sorted(energies: np.ndarray) -> np.ndarray:
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim != 1:
        raise ParameterError(f"energies must be one-dimensional, got shape {e.shape}")
    if not np.isfinite(e).all():
        raise ParameterError("energies must be finite")
    if e.size >= 2 and np.diff(e).min() < 0:
        raise ParameterError("energies must be sorted ascending")
    return e


def middle_third(energies: np.ndarray) -> np.ndarray:
    """The central window of a sorted spectrum.

    With ``n = floor(len/3)``, returns levels ``n .. 2n - 1`` (length n).
    """
    e = _check_sorted(energies)
    n = e.size // 3
    if n == 0:
        raise ParameterError(f"need at least 3 levels, got {e.size}")
    return e[n : 2 * n].copy()


@dataclass(frozen=True)
class RatioSample:
    """Gap ratios from one or more spectra, with the skip tally."""

    ratios: np.ndarray
    skipped: int

    @property
    def mean(self) -> float:
        return float(self.ratios.mean())

    @property
    def count(self) -> int:
        return int(self.ratios.size)


def spacing_ratios(energies: np.ndarray) -> RatioSample:
    """Consecutive-gap ratios of a sorted spectrum.

    Ratios touching a degenerate spacing (gap below ``DEGENERACY_TOL``)
    are skipped and counted rather than polluting the sample with 0/0.
    """
    e = _check_sorted(energies)
    if e.size < 3:
        raise ParameterError(f"need at least 3 levels for one ratio, got {e.size}")
    d = np.diff(e)
    ok = d > DEGENERACY_TOL
    pair_ok = ok[:-1] & ok[1:]
    lo = np.minimum(d[:-1], d[1:])
    hi = np.maximum(d[:-1], d[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(pair_ok, lo / np.where(hi > 0, hi, 1.0), 0.0)
    return RatioSample(ratios=r[pair_ok], skipped=int((~pair_ok).sum()))


def pool_ratios(samples) -> RatioSample:
    """Merge ratio samples from independent spectra."""
    samples = list(samples)
    if not samples:
        raise ParameterError("need at least one sample to pool")
    return RatioSample(
        ratios=np.concatenate([s.ratios for s in samples]),
        skipped=int(sum(s.skipped for s in samples)),
    )


@dataclass(frozen=True)
class Histogram:
    """Equal-width density histogram on [0, 1]; bin integrals sum to 1."""

    bin_left: np.ndarray
    bin_right: np.ndarray
    density: np.ndarray


def ratio_histogram(sample: RatioSample) -> Histogram:
    """Density of the gap ratios in ``RATIO_BINS`` equal bins on [0, 1]."""
    if sample.count == 0:
        raise ParameterError("cannot histogram an empty ratio sample")
    density, edges = np.histogram(sample.ratios, bins=RATIO_BINS, range=(0.0, 1.0), density=True)
    return Histogram(bin_left=edges[:-1], bin_right=edges[1:], density=density)


@dataclass(frozen=True)
class ReferenceCurves:
    """Analytic gap-ratio densities on [0, 1] and their means."""

    poisson_mean: float = 2.0 * np.log(2.0) - 1.0
    goe_mean: float = 4.0 - 2.0 * np.sqrt(3.0)

    @staticmethod
    def poisson_pdf(r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return 2.0 / (1.0 + r) ** 2

    @staticmethod
    def goe_pdf(r) -> np.ndarray:
        # 27/4 is the min-ratio constant on [0, 1]: the folded surmise
        # 2 * (27/8) (r + r^2) / (1 + r + r^2)^{5/2}
        r = np.asarray(r, dtype=np.float64)
        return (27.0 / 4.0) * (r + r**2) / (1.0 + r + r**2) ** 2.5


def reference_curves() -> ReferenceCurves:
    return ReferenceCurves()
