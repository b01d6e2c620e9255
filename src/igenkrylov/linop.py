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
bitwise reproducible, independent of call order, exactly proportional to
beta, and independent between the two directions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .rng import DIR_ADJOINT, DIR_FORWARD, TAG_MATVEC_ERROR, substream


class LinearOperator:
    """Abstract m-by-n map with forward and adjoint application."""

    def __init__(self, nrows, ncols):
        self.nrows = int(nrows)
        self.ncols = int(ncols)

    def apply(self, x):
        return self._apply(np.asarray(x, dtype=float))

    def apply_adjoint(self, y):
        return self._apply_adjoint(np.asarray(y, dtype=float))

    def _apply(self, x):
        raise NotImplementedError

    def _apply_adjoint(self, y):
        raise NotImplementedError


MODES = ("none", "gaussian-entry", "angle-perturbation")


@dataclass(frozen=True)
class InexactnessModel:
    """How matrix-vector products are corrupted, and from which random stream.

    ``beta`` is the entry standard deviation of the additive error matrices.
    The angle-perturbation mode jitters iteration k by ``magnitude(k)`` of its
    ``schedule`` ``(start, end, steps)``. Given the same (seed, iteration,
    direction) the realized error is identical across runs.
    """

    mode: str = "none"
    beta: float = 0.0
    schedule: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.schedule is not None:
            start, end, steps = self.schedule
            object.__setattr__(self, "schedule", (float(start), float(end), steps))

    def magnitude(self, k):
        """``np.geomspace(start, end, steps)[k - 1]`` bit for bit: its operations on one exponent."""
        start, end, steps = self.schedule
        if not 1 <= k <= steps:
            raise InputError(f"iteration {k} is outside the {steps}-step schedule")
        if k == 1:
            return start
        if k == steps:
            return end
        log_start = np.log10(start)
        step = (np.log10(end) - log_start) / (steps - 1)
        return float(np.power(10.0, (k - 1) * step + log_start))

    @property
    def active(self):
        return self.mode != "none" and (self.mode != "gaussian-entry" or self.beta > 0)


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
    return op.apply(x) + _error_draw(model, k, DIR_FORWARD, x, op.nrows)


def perturbed_apply_adjoint(op, model, k, y):
    """Adjoint product with iteration-k inexactness: (A + F_k)^T y."""
    if not model.active:
        return op.apply_adjoint(y)
    if model.mode == "angle-perturbation":
        return op.perturbed_variant(model, k).apply_adjoint(y)
    return op.apply_adjoint(y) + _error_draw(model, k, DIR_ADJOINT, y, op.ncols)
