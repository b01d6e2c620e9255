"""Matrix-free linear operators and inexact matrix-vector products.

Operators expose ``apply`` / ``apply_adjoint`` only; nothing here assumes the
matrix is stored. Inexactness is modeled as an additive random matrix per
iteration: the forward product at iteration k returns (A + E_k) x and the
adjoint returns (A + F_k)^T y, where E_k and F_k have i.i.d. N(0, beta^2)
entries. The error matrices are never stored for large operators; their
action is streamed row-block by row-block from a counter-based generator
keyed by (seed, k, direction, block), which makes every perturbed product
bitwise reproducible and exactly proportional to beta.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    InvalidInputError,
    InvalidParameterError,
    UnsupportedError,
)
from .rng import DIR_ADJOINT, DIR_FORWARD, TAG_MATVEC_ERROR, substream

# Rows of an error matrix generated per block. Fixed: changing it would change
# nothing mathematically but is kept stable so streams stay reproducible.
ROW_BLOCK = 256

# Largest nrows*ncols for which an error matrix may be materialized (diagnostics).
MATERIALIZE_LIMIT = 10**6


class LinearOperator:
    """Abstract m-by-n map with forward and adjoint application."""

    kind = "abstract"

    def __init__(self, nrows, ncols):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        if self.nrows <= 0 or self.ncols <= 0:
            raise InvalidParameterError("operator dimensions must be positive")

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def apply(self, x):
        x = self._check_vector(x, self.ncols)
        return self._apply(x)

    def apply_adjoint(self, y):
        y = self._check_vector(y, self.nrows)
        return self._apply_adjoint(y)

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, y):
        raise NotImplementedError

    def perturbed_variant(self, model, k):
        """Operator realizing structural (non-additive) inexactness at iteration k."""
        raise UnsupportedError(
            f"operator kind {self.kind!r} has no structural perturbation variant"
        )

    @staticmethod
    def _check_vector(v, expected):
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or v.size != expected:
            raise DimensionError(f"expected vector of length {expected}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("input vector contains non-finite entries")
        return v


class DenseOperator(LinearOperator):
    """Operator backed by an explicit dense matrix."""

    kind = "dense"

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise DimensionError("dense operator needs a 2-d array")
        super().__init__(mat.shape[0], mat.shape[1])
        self.mat = mat

    def _apply(self, x):
        return self.mat @ x

    def _apply_adjoint(self, y):
        return self.mat.T @ y


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, n):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _apply_adjoint(self, y):
        return y.copy()


class ComposedOperator(LinearOperator):
    """Composition outer @ inner, applied matrix-free."""

    kind = "composed"

    def __init__(self, outer, inner):
        if outer.ncols != inner.nrows:
            raise DimensionError("composition dimension mismatch")
        super().__init__(outer.nrows, inner.ncols)
        self.outer = outer
        self.inner = inner

    def _apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def _apply_adjoint(self, y):
        return self.inner.apply_adjoint(self.outer.apply_adjoint(y))


MODES = ("none", "gaussian-entry", "angle-perturbation")


@dataclass(frozen=True)
class InexactnessModel:
    """How matrix-vector products are corrupted, and from which random stream.

    ``beta`` is the entry standard deviation of the additive error matrices;
    ``schedule`` holds per-iteration magnitudes for the angle-perturbation
    mode. Given the same (seed, iteration, direction) the realized error is
    identical across runs and thread schedules.
    """

    mode: str = "none"
    beta: float = 0.0
    schedule: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(f"unknown inexactness mode {self.mode!r}")
        if self.beta < 0:
            raise InvalidParameterError("beta must be nonnegative")
        if self.schedule is not None:
            object.__setattr__(self, "schedule", tuple(float(a) for a in self.schedule))
        if self.mode == "angle-perturbation" and self.schedule is None:
            raise InvalidParameterError("angle-perturbation mode requires a schedule")

    @property
    def active(self):
        if self.mode == "none":
            return False
        if self.mode == "gaussian-entry":
            return self.beta > 0
        return True


EXACT = InexactnessModel()


def _gaussian_blocks(seed, k, direction, nrows, ncols):
    """Yield (row_start, block) for the standard-normal matrix G_k."""
    for start in range(0, nrows, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, nrows)
        gen = substream(seed, TAG_MATVEC_ERROR, k, direction, start // ROW_BLOCK)
        yield start, gen.standard_normal((stop - start, ncols))


def _stream_forward(model, k, nrows, ncols, x):
    """Compute G_k x without materializing G_k."""
    out = np.empty(nrows)
    for start, block in _gaussian_blocks(model.seed, k, DIR_FORWARD, nrows, ncols):
        out[start : start + block.shape[0]] = block @ x
    return out


def _stream_adjoint(model, k, nrows, ncols, y):
    """Compute F_k^T y without materializing F_k."""
    out = np.zeros(ncols)
    for start, block in _gaussian_blocks(model.seed, k, DIR_ADJOINT, nrows, ncols):
        out += block.T @ y[start : start + block.shape[0]]
    return out


def materialize_error(model, nrows, ncols, k, direction):
    """Dense error matrix (beta-scaled) for oracle tests; capped in size.

    Blocks match the streamed products, so ``materialize_error(...) @ x``
    agrees with the streamed perturbation up to summation rounding.
    """
    if nrows * ncols > MATERIALIZE_LIMIT:
        raise CapacityError(f"refusing to materialize {nrows}x{ncols} error matrix")
    dir_code = DIR_FORWARD if direction == "forward" else DIR_ADJOINT
    G = np.empty((nrows, ncols))
    for start, block in _gaussian_blocks(model.seed, k, dir_code, nrows, ncols):
        G[start : start + block.shape[0]] = block
    return model.beta * G


def perturbed_apply(op, model, k, x):
    """Forward product with iteration-k inexactness: (A + E_k) x."""
    if model is None or not model.active:
        return op.apply(x)
    if model.mode == "angle-perturbation":
        return op.perturbed_variant(model, k).apply(x)
    x = op._check_vector(x, op.ncols)
    exact = op._apply(x)
    return exact + model.beta * _stream_forward(model, k, op.nrows, op.ncols, x)


def perturbed_apply_adjoint(op, model, k, y):
    """Adjoint product with iteration-k inexactness: (A + F_k)^T y."""
    if model is None or not model.active:
        return op.apply_adjoint(y)
    if model.mode == "angle-perturbation":
        return op.perturbed_variant(model, k).apply_adjoint(y)
    y = op._check_vector(y, op.nrows)
    exact = op._apply_adjoint(y)
    return exact + model.beta * _stream_adjoint(model, k, op.nrows, op.ncols, y)
