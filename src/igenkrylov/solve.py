"""Projected Tikhonov solves and the outer iterative driver.

The decomposition reduces the generalized least-squares problem to a small
(k+1)-by-k problem  min ||M y - beta1 e1||^2 + lambda^2 ||y||^2, solved here
through the SVD of M and its filter factors
phi_i = sigma_i^2 / (sigma_i^2 + lambda^2). The solution in original
coordinates is mu + Q (V y) = mu + Z y, with Z = Q V kept by the
decomposition, so recovering it applies no covariance product.

The outer driver ``run_iterative_solve`` takes the lambda rule as a
``regparam.RegConfig`` and asks the rule's chooser for lambda at every
iteration.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import bidiag
from .errors import BreakdownSignal, DimensionError, NumericalError

RANK_RTOL = 1e-12


class Filters(NamedTuple):
    """Tikhonov filter factors of the projected SVD at one lambda.

    ``phi`` = sigma^2 / (sigma^2 + lambda^2), ``psi`` = 1 - phi and
    ``gain`` = phi / sigma, the latter two evaluated directly so that neither
    loses digits where phi is close to 1 or sigma is close to 0.
    """

    phi: np.ndarray
    psi: np.ndarray
    gain: np.ndarray


@dataclass
class ProjectedProblem:
    """Small projected least-squares problem with a cached SVD."""

    M: np.ndarray
    beta1: float
    _svd: tuple = field(default=None, repr=False, compare=False)
    _projection: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.M = np.asarray(self.M, dtype=float)
        if self.M.ndim != 2 or self.M.shape[1] < 1:
            raise DimensionError("projected matrix must have at least one column")
        if not np.all(np.isfinite(self.M)):
            raise NumericalError("projected matrix contains non-finite entries")

    @property
    def svd(self):
        if self._svd is None:
            U, s, Vt = np.linalg.svd(self.M, full_matrices=False)
            self._svd = (U, s, Vt)
        return self._svd

    @property
    def sigma_max(self):
        s = self.svd[1]
        return float(s[0]) if s.size else 0.0

    @property
    def svd_projection(self):
        """(singular values, U^T beta1 e1, squared residual tail outside range(M))."""
        if self._projection is None:
            U, s, _ = self.svd
            bhat = self.beta1 * U[0, :]
            tail2 = max(self.beta1**2 - float(np.dot(bhat, bhat)), 0.0)
            self._projection = (s, bhat, tail2)
        return self._projection

    def filters(self, lam):
        """Filter factors at ``lam``, a scalar or a 1-D array of positive values.

        An array gives one row of factors per lambda, so a rule can evaluate a
        whole grid in one call. At lambda = 0 (a scalar) the SVD is truncated:
        it keeps the singular values above RANK_RTOL * sigma_max, which gives
        the minimum-norm solution of a rank-deficient M.
        """
        s = self.svd[1]
        if np.ndim(lam) == 0:
            if lam == 0.0:
                keep = s > RANK_RTOL * self.sigma_max
                phi = keep.astype(float)
                return Filters(phi, 1.0 - phi, np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0))
            if not lam > 0.0:
                raise NumericalError("lambda must be nonnegative")
            lam2 = float(lam) * float(lam)
        else:
            lam = np.asarray(lam, dtype=float)
            if lam.ndim != 1 or not (lam > 0.0).all():
                raise NumericalError("a lambda grid must be a 1-D array of positive values")
            lam2 = (lam * lam)[:, None]
        denom = s * s + lam2
        return Filters(s * s / denom, lam2 / denom, s / denom)

    def residual_norm2(self, filt):
        """Squared projected residual ||M y - beta1 e1||^2 for the given filters.

        Closed form sum(((1 - phi_i) bhat_i)^2) + tail^2, without forming y;
        one value per row of an array of filters.
        """
        _, bhat, tail2 = self.svd_projection
        return np.sum((filt.psi * bhat) ** 2, axis=-1) + tail2


@dataclass
class SolveOutcome:
    y: np.ndarray
    lambda_used: float
    projected_residual_norm: float


def projected_tikhonov(prob, lam):
    """Minimize ||M y - beta1 e1||^2 + lambda^2 ||y||^2 via the SVD of M.

    At lambda = 0 a rank-deficient M gets the minimum-norm solution through
    truncation at a relative rank tolerance.
    """
    gain = prob.filters(lam).gain
    _, bhat, _ = prob.svd_projection
    y = prob.svd[2].T @ (gain * bhat)
    resid = prob.M @ y
    resid[0] -= prob.beta1
    return SolveOutcome(y=y, lambda_used=float(lam), projected_residual_norm=float(np.linalg.norm(resid)))


def recover_solution(prior, Z, y):
    """Solution in original coordinates: mu + Z y, where Z = Q V (no covariance product)."""
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != y.size:
        raise DimensionError("basis and coefficient dimensions disagree")
    return prior.mu + Z @ y


@dataclass
class ReconRecord:
    """Per-iteration history of an iterative reconstruction."""

    iterations: int
    relerr: list
    lambdas: list
    proj_residual: list
    solution: np.ndarray
    stop_reason: str
    timings: dict

    @property
    def final_relerr(self):
        return self.relerr[-1] if self.relerr else None

    @property
    def min_relerr(self):
        return min(self.relerr) if self.relerr else None

    @property
    def argmin_iter(self):
        if not self.relerr:
            return None
        return int(np.argmin(self.relerr)) + 1


def run_iterative_solve(A, inexact, prior, noise, b, max_iter, rule, noise_norm=None, s_true=None):
    """Run ``max_iter`` iterations of the decomposition, selecting lambda each iteration.

    ``rule`` is a ``regparam.RegConfig``; ``noise_norm`` (the noise norm in
    the residual's metric) is required by its dp rule and ``s_true`` by its
    oracle rule. Records the relative error against ``s_true`` (when given),
    the selected lambda, and the projected residual at every iteration, and
    keeps the final iterate. Breakdown of the recurrence is a normal early
    stop.
    """
    if max_iter < 1:
        raise DimensionError("max_iter must be at least 1")
    s_true = None if s_true is None else np.asarray(s_true, dtype=float)
    s_true_norm = float(np.linalg.norm(s_true)) if s_true is not None else 0.0

    timings = {"decomposition_s": 0.0, "param_selection_s": 0.0, "projected_solve_s": 0.0}
    relerr, lambdas, residuals = [], [], []
    stop_reason = "max_iter"
    solution = prior.mu.copy()

    t0 = time.perf_counter()
    state = bidiag.igenGK_init(A, inexact, prior, noise, b)
    timings["decomposition_s"] += time.perf_counter() - t0

    choose = rule.chooser(prior, noise_norm, s_true)
    for it in range(1, max_iter + 1):
        t0 = time.perf_counter()
        try:
            bidiag.igenGK_step(state, A, inexact, prior, noise)
            stepped = True
        except BreakdownSignal:
            stop_reason = "breakdown"
            stepped = state.M.shape[1] >= it  # terminal square commit still solvable
        timings["decomposition_s"] += time.perf_counter() - t0
        if not stepped:
            break

        prob = ProjectedProblem(M=state.M, beta1=state.beta1)
        Zk = state.Z[:, : state.M.shape[1]]

        t0 = time.perf_counter()
        lam = choose(prob, Zk)
        timings["param_selection_s"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        outcome = projected_tikhonov(prob, lam)
        solution = recover_solution(prior, Zk, outcome.y)
        timings["projected_solve_s"] += time.perf_counter() - t0

        lambdas.append(outcome.lambda_used)
        residuals.append(outcome.projected_residual_norm)
        if s_true is not None:
            relerr.append(float(np.linalg.norm(solution - s_true) / s_true_norm))
        if stop_reason == "breakdown":
            break

    return ReconRecord(
        iterations=len(lambdas),
        relerr=relerr,
        lambdas=lambdas,
        proj_residual=residuals,
        solution=solution,
        stop_reason=stop_reason,
        timings=timings,
    )
