"""Exception types shared across the package, and the bound of its range checks.

A class's ``exit_code`` and ``report`` (its stderr line's prefix) are its CLI outcome.
"""

import sys

FLOAT_MAX = sys.float_info.max  # NaN, the infinities and larger integers fail <= it


class IgenKrylovError(Exception):
    """Base class for all package errors."""

    exit_code = 3
    report = "error"


class InputError(IgenKrylovError):
    """An argument is unusable: degenerate data, such as a zero right-hand side, or a
    vector of the wrong length for a compiled product."""


class NumericalError(IgenKrylovError):
    """A numerical invariant was violated (loss of positive-definiteness, NaNs)."""

    report = "numerical failure"


class ConfigError(IgenKrylovError):
    """Configuration is missing required fields or fails validation."""

    exit_code = 2
    report = "configuration error"
