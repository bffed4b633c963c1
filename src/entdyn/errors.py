"""Exception types shared across the package.

Three failure families are kept distinct so callers (and the CLI exit-code
policy) can tell bad input apart from numerical trouble:

* ``ParameterError``   -- invalid arguments or unsupported regimes.
* ``CapacityError``    -- request exceeds what this machine can hold: a
                          dense step whose estimated peak memory is larger
                          than physical memory, or a size beyond a fixed cap.
* ``NumericError``     -- a computation left its validity envelope
                          (non-unitary operator, negative spectral weight,
                          failed convergence).
* ``ConfigError``      -- malformed run configuration text.
"""

from __future__ import annotations


class EntdynError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(EntdynError, ValueError):
    """Arguments are outside the supported domain."""


class CapacityError(EntdynError, ValueError):
    """Problem size exceeds what this machine's memory or a fixed cap allows.

    Dense steps estimate their peak before allocating and raise this when
    the estimate is larger than physical memory, so an oversized run stops
    up front (CLI exit code 2) instead of running out of memory.
    """


class NumericError(EntdynError, ArithmeticError):
    """A numerical invariant was violated during computation."""


class ConfigError(EntdynError, ValueError):
    """Run-configuration text could not be parsed or validated."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class StateNotInSector(EntdynError, KeyError):
    """A basis word does not belong to the requested symmetry sector."""
