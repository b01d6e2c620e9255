"""Matrix-free linear operators and inexact matrix-vector products.

Operators expose ``apply`` / ``apply_adjoint`` only; nothing here assumes the
matrix is stored. Inexactness is modeled as an additive random matrix per
iteration: the forward product at iteration k returns (A + E_k) x and the
adjoint returns (A + F_k)^T y, where E_k and F_k have i.i.d. N(0, beta^2)
entries.

Each (k, direction) error matrix enters exactly one product per run, so only
the law of that one product matters, and it is exact to draw from it: for a
fixed x, E_k x has the law of beta ||x||_2 g with g ~ N(0, I_m), and F_k^T y
that of beta ||y||_2 h with h ~ N(0, I_n). A perturbed product therefore draws
one standard-normal vector of its output length from the substream keyed by
(seed, k, direction). The price is that the error is not linear across two
products at the same (k, direction): a caller that reused an error matrix
would get two independent draws, not one matrix applied twice. The draws are
bitwise reproducible, independent of the thread schedule, exactly
proportional to beta, and independent between the two directions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    InvalidParameterError,
    UnsupportedError,
)
from .rng import DIR_ADJOINT, DIR_FORWARD, TAG_MATVEC_ERROR, substream


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


def _error_draw(model, k, direction, v, size):
    """One draw of the error product E v: beta ||v||_2 times a standard normal."""
    g = substream(model.seed, TAG_MATVEC_ERROR, k, direction).standard_normal(size)
    return (model.beta * np.linalg.norm(v)) * g


def perturbed_apply(op, model, k, x):
    """Forward product with iteration-k inexactness: (A + E_k) x."""
    if not model.active:
        return op.apply(x)
    if model.mode == "angle-perturbation":
        return op.perturbed_variant(model, k).apply(x)
    x = op._check_vector(x, op.ncols)
    return op._apply(x) + _error_draw(model, k, DIR_FORWARD, x, op.nrows)


def perturbed_apply_adjoint(op, model, k, y):
    """Adjoint product with iteration-k inexactness: (A + F_k)^T y."""
    if not model.active:
        return op.apply_adjoint(y)
    if model.mode == "angle-perturbation":
        return op.perturbed_variant(model, k).apply_adjoint(y)
    y = op._check_vector(y, op.nrows)
    return op._apply_adjoint(y) + _error_draw(model, k, DIR_ADJOINT, y, op.ncols)
