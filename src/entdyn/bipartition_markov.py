"""The Markov chain that SWAP circuits induce on equal bipartitions.

A SWAP gate on bond (i, i+1) relabels two sites, so it maps one equal
bipartition to another: the partition changes exactly when the bond
straddles it.  With bonds drawn uniformly from the L-1 chain bonds, the
partition performs a random walk whose transition probabilities are
``P[x, y] = k(x, y) / (L - 1)`` with ``k`` the number of bonds sending x
to y.  The matrix is symmetric and doubly stochastic, so the uniform
distribution over all ``C(L-1, L/2-1)`` canonical bipartitions is
stationary; the walk is irreducible, and self-loops (bonds interior to
either side) make it aperiodic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from . import _kernels
from .entanglement import Bipartition, enumerate_bipartitions
from .errors import CapacityError, NumericError, ParameterError

_MAX_DENSE_L = 14
_STATIONARY_TOL = 1e-12
_WALK_CHUNK = 1 << 16  # bonds drawn and walked at a time


def swap_action(bp: Bipartition, bond: int) -> Bipartition:
    """Image of a bipartition under the SWAP on sites (bond, bond + 1)."""
    if not 1 <= bond <= bp.L - 1:
        raise ParameterError(f"bond must be in 1..{bp.L - 1}, got {bond}")
    i, j = bond, bond + 1
    inside = set(bp.sites)
    if (i in inside) == (j in inside):
        return bp
    swapped = (inside - {i, j}) | ({i, j} - inside)
    return Bipartition.from_sites(bp.L, sorted(swapped))


@dataclass(eq=False)
class TransitionMatrix:
    """Dense bond-average transition matrix over canonical bipartitions."""

    L: int
    states: tuple[Bipartition, ...]
    P: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.states)


@lru_cache(maxsize=1)
def _successor_table(L: int) -> tuple[tuple[Bipartition, ...], np.ndarray]:
    """The canonical bipartitions and their read-only successor table."""
    states = enumerate_bipartitions(L)
    index = {bp.mask: i for i, bp in enumerate(states)}
    table = np.empty((len(states), L - 1), dtype=np.int64)
    for i, bp in enumerate(states):
        for b in range(1, L):
            table[i, b - 1] = index[swap_action(bp, b).mask]
    table.flags.writeable = False
    return states, table


def transition_matrix(L: int) -> TransitionMatrix:
    """Exact transition matrix; dense storage supports L up to 14.

    ``L = 2`` is rejected: its single bipartition makes the chain a
    degenerate one-state walk.
    """
    if L < 4 or L % 2 != 0:
        raise ParameterError(f"L must be even and at least 4, got {L}")
    if L > _MAX_DENSE_L:
        raise CapacityError(f"dense transition matrix supports L <= {_MAX_DENSE_L}")
    states, table = _successor_table(L)
    n = len(states)
    counts = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for b in range(L - 1):
            counts[i, table[i, b]] += 1
    return TransitionMatrix(L=L, states=states, P=counts / float(L - 1))


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix, solved directly.

    Solves ``pi (P - I) = 0`` with the normalization ``sum(pi) = 1`` as a
    replacement equation; power iteration stalls around 1e-12 once the
    spectral gap is small, which is not good enough for the exactness
    checks this chain supports.  Raises ``NumericError`` when the residual
    ``max|pi P - pi|`` exceeds ``_STATIONARY_TOL``.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ParameterError(f"P must be square, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise ParameterError("P must be finite")
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"stationary solve failed: {exc}")
    residual = float(np.abs(pi @ P - pi).max())
    if not residual <= _STATIONARY_TOL:
        raise NumericError(f"stationary residual {residual:.3e} exceeds {_STATIONARY_TOL:.3e}")
    return pi / pi.sum()


@dataclass(frozen=True)
class ErgodicityReport:
    irreducible: bool
    aperiodic: bool
    period: int
    has_self_loop: bool


def verify_ergodicity(tm: TransitionMatrix) -> ErgodicityReport:
    """Breadth-first reachability and cycle-length gcd of the walk graph."""
    P = tm.P
    n = P.shape[0]
    if n < 2:
        raise ParameterError("ergodicity analysis needs at least two states")
    adj = [np.flatnonzero(P[i] > 0) for i in range(n)]
    level = np.full(n, -1, dtype=np.int64)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    irreducible = bool((level >= 0).all())
    g = 0
    if irreducible:
        for u in range(n):
            for v in adj[u]:
                g = gcd(g, int(level[u] + 1 - level[v]))
    period = abs(g) if irreducible else 0
    return ErgodicityReport(
        irreducible=irreducible,
        aperiodic=irreducible and period == 1,
        period=period,
        has_self_loop=bool(np.diag(P).max() > 0),
    )


def second_eigenvalue_modulus(P: np.ndarray) -> float:
    """Modulus of the subdominant eigenvalue (convergence rate) of symmetric ``P``."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or not np.abs(P - P.T).max(initial=0) <= 1e-15:
        raise ParameterError("transition matrix must be square and symmetric")
    mods = np.sort(np.abs(np.linalg.eigvalsh(P)))
    return float(mods[-2]) if mods.size > 1 else 0.0


@dataclass(frozen=True)
class OccupationResult:
    """Visit statistics of a simulated bipartition walk."""

    counts: np.ndarray
    tv_distance: float


def monte_carlo_occupation(
    L: int,
    steps: int,
    burn_in: int,
    rng: np.random.Generator,
) -> OccupationResult:
    """Simulate the walk and compare occupation to the uniform law.

    The walk starts from the half-chain bipartition.  ``burn_in``
    transitions are discarded, the remaining ``steps - burn_in`` visited
    states are tallied, and ``tv_distance`` is the total-variation gap to
    uniform.  Bonds are drawn and walked ``_WALK_CHUNK`` at a time, so
    memory stays flat in ``steps``; the draws are the same stream as one
    call for all of them.
    """
    if burn_in < 0 or steps <= burn_in:
        raise ParameterError("need steps > burn_in >= 0")
    states, table = _successor_table(L)
    s0 = [bp.mask for bp in states].index(Bipartition.half_chain(L).mask)
    s, counts = s0, np.zeros(len(states), dtype=np.int64)
    for start in range(0, steps, _WALK_CHUNK):
        bonds = rng.integers(0, L - 1, size=min(_WALK_CHUNK, steps - start))
        s, tally = _kernels.swap_walk(table, s, bonds, max(burn_in - start, 0))
        counts += tally
    freq = counts / float(steps - burn_in)
    tv = 0.5 * float(np.abs(freq - 1.0 / len(states)).sum())
    return OccupationResult(counts=counts, tv_distance=tv)


def markov_report(
    L: int, steps: int, burn_in: int, rng: np.random.Generator
) -> dict:
    """Exact-chain checks plus a Monte Carlo occupation comparison."""
    tm = transition_matrix(L)
    P = tm.P
    n = tm.n
    slem = second_eigenvalue_modulus(P)  # refuses an asymmetric P, so "symmetric" holds
    rows = np.abs(P.sum(axis=1) - 1.0).max()
    cols = np.abs(P.sum(axis=0) - 1.0).max()
    erg = verify_ergodicity(tm)
    occ = monte_carlo_occupation(L, steps, burn_in, rng)
    return {
        "L": L,
        "N": n,
        "symmetric": True,
        "doubly_stochastic": bool(max(rows, cols) <= 1e-14),
        "irreducible": erg.irreducible,
        "aperiodic": erg.aperiodic,
        "slem": slem,
        "tv_distance": occ.tv_distance,
        "stationary": [float(x) for x in stationary_distribution(P)],
    }
