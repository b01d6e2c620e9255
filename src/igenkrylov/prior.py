"""Prior and noise models: Matern covariance with fast matvecs.

The covariance matrix Q on a regular 2-d grid, given by its (rows, columns)
shape, with a stationary kernel is block-Toeplitz, so Q x can be evaluated
by embedding into a circulant matrix, diagonalizing with the FFT, and
truncating. Along each axis the circulant has the smallest FFT-friendly size
m_i >= 2*n_i - 1, and its entries at offsets |d| >= n_i are zero; the
truncated product is exact for any such m_i.
Q is never factorized or inverted anywhere in the package; all solvers only
need its action.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class MaternKernel:
    """Stationary Matern covariance with smoothness ``nu`` and scale ``alpha``.

    ``alpha`` is the inverse correlation length (alpha = 1/ell). ``nu`` = 1/2
    gives the exponential kernel; half-integer orders use closed forms and
    other orders fall back to a numerical modified-Bessel evaluation.
    """

    nu: float
    alpha: float

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        t = math.sqrt(2.0 * self.nu) * self.alpha * r
        if self.nu == 0.5:
            val = np.exp(-t)
        elif self.nu == 1.5:
            val = (1.0 + t) * np.exp(-t)
        elif self.nu == 2.5:
            val = (1.0 + t + t * t / 3.0) * np.exp(-t)
        else:
            # Imported here, its only use: scipy.special adds about 6 MB to the
            # resident size of a process, and the orders above never need it.
            from scipy.special import gamma as gamma_fn
            from scipy.special import kv

            val = np.empty_like(t)
            zero = t == 0
            tv = t[~zero]
            val[~zero] = (
                (2.0 ** (1.0 - self.nu) / gamma_fn(self.nu)) * tv**self.nu * kv(self.nu, tv)
            )
            val[zero] = 1.0
        return val


def _fast_len(target):
    """Smallest 2^a 3^b 5^c >= target, a length the FFT transforms fast.

    Equal to scipy.fft.next_fast_len(target, real=True); computed here because
    importing scipy.fft adds about 6 MB to the peak resident size of a process.
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


def _embedding_symbol(grid_shape, kernel, fft_shape):
    """FFT of the circulant embedding of the block-Toeplitz covariance.

    Entry j of an axis of size m holds the signed offset d = j (j < n) or
    j - m; offsets with |d| >= n never meet the truncated product and are zero.
    """
    dist, keep = [], []
    for n, m in zip(grid_shape, fft_shape):
        j = np.arange(m)
        d = np.abs(np.where(j < n, j, j - m))
        dist.append(d * (1.0 / n))
        keep.append(d < n)
    r = np.hypot(dist[0][:, None], dist[1][None, :])
    inside = keep[0][:, None] & keep[1][None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.rfftn(np.where(inside, kernel(r), 0.0))


class CovarianceOperator:
    """Symmetric PSD covariance operator Q on a regular 2-d grid of cell centers.

    ``grid_shape`` is its (rows, columns) on the unit square; vectors stack
    its columns, so index v is cell (row, col) = (v % rows, v // rows). Q is
    applied in O(n log n) through the circulant embedding. Instances are
    immutable after construction. A kernel that is not finite on the grid
    raises NumericalError here.
    """

    def __init__(self, grid_shape, kernel):
        grid_shape = tuple(int(s) for s in grid_shape)
        self.grid_shape = grid_shape
        self._fft_shape = tuple(_fast_len(2 * n - 1) for n in grid_shape)
        self._symbol = _embedding_symbol(grid_shape, kernel, self._fft_shape)
        if not np.isfinite(self._symbol).all():
            raise NumericalError("covariance is not finite: its kernel overflows on this grid")

    def apply(self, x):
        """Q x by the 1-D transforms ``rfftn``/``irfftn`` make on the padded grid, pruned.

        The last axis is transformed for the data rows only and, on the way
        back, only for the rows the truncation keeps; axis 0 is transformed in
        place at its full padded length. Each kept value comes
        from the same sequence of 1-D transforms as on the zero-padded array,
        so the result is bitwise the padded product.
        """
        x = np.asarray(x, dtype=float)
        shape, m = self.grid_shape, self._fft_shape
        f = np.zeros(self._symbol.shape, dtype=complex)
        np.fft.rfft(x.reshape(shape, order="F"), n=m[1], axis=1, out=f[: shape[0]])
        np.fft.fft(f, axis=0, out=f)
        f *= self._symbol
        np.fft.ifft(f, axis=0, out=f)
        return np.fft.irfft(f[: shape[0]], n=m[1], axis=1)[:, : shape[1]].ravel(order="F")


class IdentityCovariance:
    """Q = I; used to reduce the generalized methods to their standard forms."""

    def apply(self, x):
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise covariance R = sigma^2 I with cheap inverse."""

    sigma: float

    def apply_rinv(self, x):
        return np.asarray(x, dtype=float) / (self.sigma * self.sigma)


def weighted_norm(x, wx):
    """sqrt(x^T W x) for an SPD weight W, given the vectors x and W x.

    The caller applies W, so a product it needs anyway is not made twice. A
    quadratic form below -1e-10 * ||x||^2 signals loss of positive
    definiteness and raises NumericalError; tiny negative values are clamped
    to zero.
    """
    q = float(np.dot(x, wx))
    floor = -1e-10 * float(np.dot(x, x))
    if q < floor:
        raise NumericalError(f"quadratic form {q:.3e} is negative beyond tolerance")
    return math.sqrt(max(q, 0.0))
