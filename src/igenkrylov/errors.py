"""Exception types shared across the package, and the bound of its range checks.

The classes match the CLI's three outcomes: ``ConfigError`` exits 2, a
``NumericalError`` exits 3 as a numerical failure, and an ``InputError`` exits
3 as an error.
"""

import sys

FLOAT_MAX = sys.float_info.max  # NaN, the infinities and larger integers fail <= it


class IgenKrylovError(Exception):
    """Base class for all package errors."""


class InputError(IgenKrylovError):
    """An argument is unusable: a wrong shape, a parameter out of range, or degenerate data."""


class NumericalError(IgenKrylovError):
    """A numerical invariant was violated (loss of positive-definiteness, NaNs)."""


class ConfigError(IgenKrylovError):
    """Configuration is missing required fields or fails validation."""
