"""Exception types shared across the package."""


class IgenKrylovError(Exception):
    """Base class for all package errors."""


class DimensionError(IgenKrylovError):
    """Operand shapes are incompatible with the operator or grid."""


class InvalidInputError(IgenKrylovError):
    """Input vector contains non-finite entries or is otherwise unusable."""


class InvalidParameterError(IgenKrylovError):
    """A scalar parameter is outside its admissible range."""


class UnsupportedError(IgenKrylovError):
    """Requested operation is not supported by this operator kind."""


class NumericalError(IgenKrylovError):
    """A numerical invariant was violated (loss of positive-definiteness, NaNs)."""


class DegenerateInputError(IgenKrylovError):
    """Input is degenerate for the requested operation (e.g. zero right-hand side)."""


class ConfigError(IgenKrylovError):
    """Configuration is missing required fields or fails validation."""


class BreakdownSignal(Exception):
    """Krylov recurrence hit a (near-)zero normalization coefficient.

    This is a control-flow signal, not an error: the decomposition state is
    still consistent and the driver may solve with the columns built so far.
    """

    def __init__(self, message, where=""):
        super().__init__(message)
        self.where = where
