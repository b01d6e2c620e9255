"""Projected Tikhonov solves and the outer iterative driver.

The decomposition reduces the generalized least-squares problem to a small
(k+1)-by-k problem  min ||M y - beta1 e1||^2 + lambda^2 ||y||^2, solved here
through the SVD of M and its filter factors
phi_i = sigma_i^2 / (sigma_i^2 + lambda^2). The solution in original
coordinates is mu + Q (V y) = mu + Z y, with Z = Q V kept by the
decomposition, so recovering it applies no covariance product.

The outer driver ``run_iterative_solve`` runs the decomposition once
(``bidiag.igenGK_run``). Lambda never feeds back into the recurrence and a
step only appends to M and Z, so it then visits k = 1, 2, ...: the lambda
rule picks lambda on the leading (k+1)-by-k block of M, and one projected
solve at it is recovered with the first k columns of Z.
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bidiag
from .errors import DimensionError, NumericalError

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


class ProjectedProblem:
    """Small projected least-squares problem min ||M y - beta1 e1||, factored once.

    The SVD M = U diag(s) Vt is taken on construction; the problem keeps
    ``s``, ``Vt``, ``bhat`` = U^T beta1 e1, ``tail2`` (the squared part of
    beta1 e1 outside range(M)) and ``sigma_max``. A zero M, whose lambda
    grid would collapse to zero, raises NumericalError.
    """

    def __init__(self, M, beta1):
        self.M = np.asarray(M, dtype=float)
        self.beta1 = beta1
        if self.M.ndim != 2 or self.M.shape[1] < 1:
            raise DimensionError("projected matrix must have at least one column")
        if not np.all(np.isfinite(self.M)):
            raise NumericalError("projected matrix contains non-finite entries")
        U, self.s, self.Vt = np.linalg.svd(self.M, full_matrices=False)
        self.bhat = beta1 * U[0, :]
        self.tail2 = max(beta1**2 - float(np.dot(self.bhat, self.bhat)), 0.0)
        self.sigma_max = float(self.s[0])
        if self.sigma_max <= 0.0:
            raise NumericalError("projected matrix is zero")

    def filters(self, lam):
        """Filter factors at ``lam``, a scalar or a 1-D array of positive values.

        An array gives one row of factors per lambda, so a rule can evaluate a
        whole grid in one call. At lambda = 0 (a scalar) the SVD is truncated:
        it keeps the singular values above RANK_RTOL * sigma_max, which gives
        the minimum-norm solution of a rank-deficient M.
        """
        s = self.s
        if np.ndim(lam) == 0 and lam == 0.0:
            keep = s > RANK_RTOL * self.sigma_max
            phi = keep.astype(float)
            return Filters(phi, 1.0 - phi, np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0))
        lam2 = _squared(lam)
        denom = s * s + lam2
        return Filters(s * s / denom, lam2 / denom, s / denom)

    def gain(self, lam):
        """``filters(lam).gain`` alone, for a positive scalar or 1-D array ``lam``."""
        s = self.s
        return s / (s * s + _squared(lam))

    def residual_norm2(self, filt):
        """Squared projected residual ||M y - beta1 e1||^2 for the given filters.

        Closed form sum(((1 - phi_i) bhat_i)^2) + tail^2, without forming y;
        one value per row of an array of filters.
        """
        return np.sum((filt.psi * self.bhat) ** 2, axis=-1) + self.tail2


def _squared(lam):
    """lambda^2 of a positive scalar, or of a 1-D array as a column (one row per lambda)."""
    if np.ndim(lam) == 0:
        if not lam > 0.0:
            raise NumericalError("lambda must be nonnegative")
        return float(lam) * float(lam)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or not (lam > 0.0).all():
        raise NumericalError("a lambda grid must be a 1-D array of positive values")
    return (lam * lam)[:, None]


def projected_tikhonov(prob, lam):
    """Minimize ||M y - beta1 e1||^2 + lambda^2 ||y||^2 via the SVD of M.

    Returns ``(y, residual_norm)``, the residual ||M y - beta1 e1|| formed
    explicitly. At lambda = 0 a rank-deficient M gets the minimum-norm
    solution through truncation at a relative rank tolerance.
    """
    y = prob.Vt.T @ (prob.filters(lam).gain * prob.bhat)
    resid = prob.M @ y
    resid[0] -= prob.beta1
    return y, float(np.linalg.norm(resid))


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
    """Run up to ``max_iter`` iterations of the decomposition, then select lambda and solve at each.

    ``rule`` is a ``regparam.RegConfig``; ``noise_norm`` (the noise norm in
    the residual's metric) is required by its dp rule and ``s_true`` by its
    oracle rule. The decomposition runs once; breakdown of the recurrence is
    a normal early stop. Then, for each iteration k, the projected problem
    of the leading blocks of M and Z is factored once, the rule picks lambda
    and one projected solve is made at it. Records the relative error
    against ``s_true`` (when given), the selected lambda, and the projected
    residual at every iteration, and keeps the final iterate.
    """
    if max_iter < 1:
        raise DimensionError("max_iter must be at least 1")
    s_true = None if s_true is None else np.asarray(s_true, dtype=float)
    s_true_norm = float(np.linalg.norm(s_true)) if s_true is not None else 0.0

    timings = {"decomposition_s": 0.0, "param_selection_s": 0.0, "projected_solve_s": 0.0}
    relerr, lambdas, residuals = [], [], []

    t0 = time.perf_counter()
    state, stop_reason = bidiag.igenGK_run(A, inexact, prior, noise, b, max_iter)
    timings["decomposition_s"] = time.perf_counter() - t0

    Z = state.Z[:, : state.k]
    t0 = time.perf_counter()
    choose = rule.chooser(prior, Z, noise_norm, s_true)
    timings["param_selection_s"] += time.perf_counter() - t0
    # A lambda_fixed near the float limit makes filters' unused psi inf/inf, silently.
    with bidiag.overflow_checked():
        for k in range(1, state.k + 1):
            t0 = time.perf_counter()
            prob = ProjectedProblem(M=state.M[: k + 1, :k], beta1=state.beta1)
            timings["projected_solve_s"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            lam = choose(prob)
            timings["param_selection_s"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            y, residual = projected_tikhonov(prob, lam)
            solution = recover_solution(prior, Z[:, :k], y)
            timings["projected_solve_s"] += time.perf_counter() - t0

            lambdas.append(float(lam))
            residuals.append(residual)
            if s_true is not None:
                relerr.append(float(np.linalg.norm(solution - s_true) / s_true_norm))

    return ReconRecord(
        iterations=len(lambdas),
        relerr=relerr,
        lambdas=lambdas,
        proj_residual=residuals,
        solution=solution,
        stop_reason=stop_reason,
        timings=timings,
    )
