"""Matrix-free hybrid Krylov solvers for generalized Tikhonov inverse problems.

Modules:
  linop    - linear-operator abstraction and inexact matrix-vector products
  prior    - Matern covariance (FFT-Toeplitz), noise model, weighted norms
  bidiag   - the bidiagonalization family with full reorthogonalization
  solve    - projected Tikhonov solves and the one outer driver
  regparam - optimal / discrepancy-principle / weighted-GCV parameter rules
  tomo     - parallel-beam CT operator, phantom, observation synthesis
  rng      - named counter-based random substreams of a seed
  errors   - the package's error classes, each with its CLI exit code
  config   - JSON experiment configuration, checked on construction
  harness  - experiment commands behind the ``igenkrylov`` CLI
  cli      - argparse front end; importing it pins the BLAS thread count
"""

__version__ = "0.1.0"
