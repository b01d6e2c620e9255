"""Matrix-free hybrid Krylov solvers for generalized Tikhonov inverse problems.

Subpackages:
  linop    - linear-operator abstraction and inexact matrix-vector products
  prior    - Matern covariance (FFT-Toeplitz), noise model, weighted norms
  bidiag   - the bidiagonalization family with full reorthogonalization
  solve    - projected Tikhonov solves and the outer iterative driver
  regparam - optimal / discrepancy-principle / weighted-GCV parameter rules
  tomo     - parallel-beam CT operator, phantom, observation synthesis
  harness  - experiment commands behind the ``igenkrylov`` CLI
"""

from . import bidiag, config, harness, linop, prior, regparam, solve, tomo
from .errors import (
    BreakdownSignal,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    IgenKrylovError,
    InvalidInputError,
    InvalidParameterError,
    NumericalError,
    UnsupportedError,
)

__version__ = "0.1.0"
