"""Prior and noise models: Matern covariance with fast matvecs.

The covariance matrix Q on a regular 2-d grid with a stationary kernel is
block-Toeplitz, so Q x can be evaluated by embedding into a circulant
matrix, diagonalizing with the FFT, and truncating. Along each axis the
circulant has the smallest FFT-friendly size m_i >= 2*n_i - 1, and its
entries at offsets |d| >= n_i are zero; the truncated product is exact for
any such m_i.
Q is never factorized or inverted anywhere in the package; all solvers only
need its action.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from .errors import DimensionError, InvalidParameterError, NumericalError

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class MaternKernel:
    """Stationary Matern covariance with smoothness ``nu`` and scale ``alpha``.

    ``alpha`` is the inverse correlation length (alpha = 1/ell). ``nu`` = 1/2
    gives the exponential kernel; half-integer orders use closed forms and
    other orders fall back to a numerical modified-Bessel evaluation.
    """

    nu: float
    alpha: float

    def __post_init__(self):
        if self.nu <= 0 or self.alpha <= 0:
            raise InvalidParameterError("nu and alpha must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise InvalidParameterError("distances must be nonnegative")
        t = math.sqrt(2.0 * self.nu) * self.alpha * r
        if self.nu == 0.5:
            val = np.exp(-t)
        elif self.nu == 1.5:
            s = _SQRT3 * self.alpha * r
            val = (1.0 + s) * np.exp(-s)
        elif self.nu == 2.5:
            s = _SQRT5 * self.alpha * r
            val = (1.0 + s + s * s / 3.0) * np.exp(-s)
        else:
            val = np.empty_like(t)
            zero = t == 0
            tv = t[~zero]
            val[~zero] = (
                (2.0 ** (1.0 - self.nu) / gamma_fn(self.nu)) * tv**self.nu * kv(self.nu, tv)
            )
            val[zero] = 1.0
        return val


@dataclass(frozen=True)
class Grid:
    """Regular 2-d grid of cell centers on the unit square.

    Vectorized column-major ("stack the columns"): vector index v maps to
    cell (row, col) = (v % n1, v // n1).
    """

    shape: tuple

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) != 2 or any(s < 1 for s in shape):
            raise InvalidParameterError(f"unsupported grid shape {shape}")
        object.__setattr__(self, "shape", shape)

    @property
    def npoints(self):
        return int(np.prod(self.shape))


def _fast_len(target):
    """Smallest 2^a 3^b 5^c >= target, a length the FFT transforms fast.

    Equal to scipy.fft.next_fast_len(target, real=True); computed here because
    importing scipy.fft adds about 1 MB to the resident size of a process.
    """
    n = target
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _embedding_symbol(grid, kernel, shape):
    """FFT of the circulant embedding of the block-Toeplitz covariance.

    Entry j of an axis of size m holds the signed offset d = j (j < n) or
    j - m; offsets with |d| >= n never meet the truncated product and are zero.
    """
    dist, keep = [], []
    for n, m in zip(grid.shape, shape):
        j = np.arange(m)
        d = np.abs(np.where(j < n, j, j - m))
        dist.append(d * (1.0 / n))
        keep.append(d < n)
    r = np.hypot(dist[0][:, None], dist[1][None, :])
    inside = keep[0][:, None] & keep[1][None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.rfftn(np.where(inside, kernel(r), 0.0))


class CovarianceOperator:
    """Symmetric PSD covariance operator Q on a regular grid.

    Q is applied in O(n log n) through the circulant embedding. Instances
    are immutable after construction and safe for concurrent matvecs. A
    kernel that is not finite on the grid raises NumericalError here.
    """

    def __init__(self, grid, kernel):
        self.grid = grid
        self.kernel = kernel
        self.n = self.grid.npoints
        self._fft_shape = tuple(_fast_len(2 * n - 1) for n in self.grid.shape)
        self._symbol = _embedding_symbol(self.grid, kernel, self._fft_shape)
        if not np.isfinite(self._symbol).all():
            raise NumericalError("covariance is not finite: its kernel overflows on this grid")

    @property
    def is_identity(self):
        return False

    def apply(self, x):
        """Q x by the 1-D transforms ``rfftn``/``irfftn`` make on the padded grid, pruned.

        The last axis is transformed for the data rows only and, on the way
        back, only for the rows the truncation keeps; axis 0 is transformed in
        place at its full padded length. Each kept value comes
        from the same sequence of 1-D transforms as on the zero-padded array,
        so the result is bitwise the padded product.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(f"expected vector of length {self.n}")
        shape, m = self.grid.shape, self._fft_shape
        f = np.zeros(self._symbol.shape, dtype=complex)
        np.fft.rfft(x.reshape(shape, order="F"), n=m[1], axis=1, out=f[: shape[0]])
        np.fft.fft(f, axis=0, out=f)
        f *= self._symbol
        np.fft.ifft(f, axis=0, out=f)
        return np.fft.irfft(f[: shape[0]], n=m[1], axis=1)[:, : shape[1]].ravel(order="F")


class IdentityCovariance:
    """Q = I; used to reduce the generalized methods to their standard forms."""

    def __init__(self, n):
        self.n = int(n)

    @property
    def is_identity(self):
        return True

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(f"expected vector of length {self.n}")
        return x


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise covariance R = sigma^2 I with cheap inverse."""

    sigma: float
    dimension: int

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidParameterError("sigma must be positive")
        if self.dimension < 1:
            raise InvalidParameterError("dimension must be positive")

    def apply_rinv(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionError(f"expected vector of length {self.dimension}")
        if self.sigma == 1.0:
            return x
        return x / (self.sigma * self.sigma)


@dataclass
class PriorModel:
    """Gaussian prior: mean ``mu`` and covariance operator ``Q``."""

    mu: np.ndarray
    Q: object

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.shape != (self.Q.n,):
            raise DimensionError("prior mean and covariance dimensions disagree")

    @property
    def n(self):
        return self.Q.n


def identity_prior(n):
    """Prior with zero mean and Q = I (standard, non-generalized setting)."""
    return PriorModel(mu=np.zeros(n), Q=IdentityCovariance(n))


def weighted_norm(x, weight_apply):
    """sqrt(x^T W x) for an SPD weight given by its action.

    A quadratic form below -1e-10 * ||x||^2 signals loss of positive
    definiteness and raises; tiny negative values are clamped to zero.
    """
    x = np.asarray(x, dtype=float)
    q = float(np.dot(x, weight_apply(x)))
    floor = -1e-10 * float(np.dot(x, x))
    if q < floor:
        raise NumericalError(f"quadratic form {q:.3e} is negative beyond tolerance")
    return math.sqrt(max(q, 0.0))
