"""Exception types shared across the package, and the bound of its range checks."""

import sys

FLOAT_MAX = sys.float_info.max  # NaN, the infinities and larger integers fail <= it


class IgenKrylovError(Exception):
    """Base class for all package errors."""


class DimensionError(IgenKrylovError):
    """Operand shapes are incompatible with the operator or grid."""


class InvalidInputError(IgenKrylovError):
    """Input vector contains non-finite entries or is otherwise unusable."""


class InvalidParameterError(IgenKrylovError):
    """A scalar parameter is outside its admissible range."""


class NumericalError(IgenKrylovError):
    """A numerical invariant was violated (loss of positive-definiteness, NaNs)."""


class DegenerateInputError(IgenKrylovError):
    """Input is degenerate for the requested operation (e.g. zero right-hand side)."""


class ConfigError(IgenKrylovError):
    """Configuration is missing required fields or fails validation."""

