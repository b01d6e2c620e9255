"""Projected Tikhonov solves and the outer iterative driver.

The decomposition reduces the generalized least-squares problem to a small
(k+1)-by-k problem  min ||M y - beta1 e1||^2 + lambda^2 ||y||^2, solved here
through the SVD of M and its filter factors
phi_i = sigma_i^2 / (sigma_i^2 + lambda^2). The prior mean is zero, so the
solution in original coordinates is Q (V y) = Z y, with Z = Q V kept by the
decomposition, and recovering it applies no covariance product.

The outer driver ``run_iterative_solve`` is the only code that projects a
decomposition: one ``bidiag.igenGK_run`` of a ``Problem``, then ``project``
under each of its rules. Lambda never feeds back into the recurrence and a
step only appends to M and Z, so ``project`` reads one finished state at
k = 1, 2, ...: the rule picks lambda on M[: k + 1, :k], and one projected
solve at it is recovered with Z[:, :k].
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bidiag
from .errors import InputError, NumericalError

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

        An array gives one row of factors per lambda, so a rule evaluates a whole
        grid in one call; a scalar is a one-point grid and gives its one row. At
        lambda = 0 (a scalar) the SVD is truncated: it keeps the singular values
        above RANK_RTOL * sigma_max, the minimum-norm solution of a rank-deficient M.
        """
        s = self.s
        lam = np.asarray(lam, dtype=float)
        if lam.ndim == 0 and lam == 0.0:
            keep = s > RANK_RTOL * self.sigma_max
            phi = keep.astype(float)
            return Filters(phi, 1.0 - phi, np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0))
        lam2 = (lam * lam)[..., None]
        denom = s * s + lam2
        return Filters(s * s / denom, lam2 / denom, s / denom)

    def residual_norm2(self, filt):
        """Squared projected residual ||M y - beta1 e1||^2 for the given filters.

        Closed form sum(((1 - phi_i) bhat_i)^2) + tail^2, without forming y;
        one value per row of an array of filters.
        """
        return np.sum((filt.psi * self.bhat) ** 2, axis=-1) + self.tail2


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


def recover_solution(Z, y):
    """Solution in original coordinates: Z y, where Z = Q V (no covariance product)."""
    return np.asarray(Z, dtype=float) @ np.asarray(y, dtype=float)


class Iterate(NamedTuple):
    """One iteration of a solve: a row of ``history.csv``."""

    k: int
    relerr: float
    lam: float
    proj_residual: float


@dataclass
class ReconRecord:
    """An iterative reconstruction: one ``Iterate`` per iteration and the final iterate."""

    history: list
    solution: np.ndarray
    stop_reason: str  # "breakdown" if a breakdown ended the decomposition, else "max_iter"
    timings: dict

    @property
    def iterations(self):
        return len(self.history)

    @property
    def relerr(self):
        return [row.relerr for row in self.history]

    @property
    def final_relerr(self):
        return self.history[-1].relerr


@dataclass(frozen=True)
class Problem:
    """The generalized Tikhonov problem of one experiment, and what its rules read.

    The oracle rule reads ``s_true``. Only the dp rule reads ``noise_norm``, in
    the residual's R^{-1} metric; a solve without it may leave it None.
    """

    A: object  # the forward operator, a linop.LinearOperator
    prior: object  # the prior covariance Q
    noise: object  # the noise model R = sigma^2 I: prior.NoiseModel
    s_true: np.ndarray
    b: np.ndarray
    noise_norm: float


def run_iterative_solve(problem, inexact, max_iter, rules):
    """``project`` of one ``bidiag.igenGK_run`` of ``problem`` under each of ``rules``.

    The run makes ``max_iter`` steps under ``inexact``. ``rules`` maps names to
    ``regparam.RegConfig``s; every one is given the problem's noise norm and
    truth, as in ``project``. Returns the records by name, in order; the first
    one's timings also hold ``decomposition_s``. The state is freed.
    """
    p = problem
    t0 = time.perf_counter()
    state = bidiag.igenGK_run(p.A, inexact, p.prior, p.noise, p.b, max_iter)
    decomposition_s = time.perf_counter() - t0
    records = {name: project(state, r, p.noise_norm, p.s_true) for name, r in rules.items()}
    next(iter(records.values())).timings["decomposition_s"] = decomposition_s
    return records


def project(state, rule, noise_norm, s_true):
    """Select lambda and solve at each iteration of a decomposition ``state`` of k >= 1 steps.

    ``rule`` is a ``regparam.RegConfig``; its dp rule reads ``noise_norm``, its
    oracle rule ``s_true``. The state is only read. For each iteration k, the
    projected problem of the leading blocks of M and Z is factored once, the
    rule picks lambda and one projected solve is made at it. Records one
    ``Iterate`` per iteration, k = 1, 2, ...: the relative error against
    ``s_true``, the selected lambda and the projected residual, and keeps the
    final iterate and the stop reason, read from ``state.terminated``.
    ``param_selection_s`` times the rule and its chooser; ``projected_solve_s``
    is the rest of the wall time.
    """
    if state.k < 1:
        raise InputError("the decomposition has no step to project")
    s_true = np.asarray(s_true, dtype=float)
    s_true_norm = float(np.linalg.norm(s_true))
    history = []

    start = time.perf_counter()
    choose = rule.chooser(state.Z, noise_norm, s_true)
    selection_s = time.perf_counter() - start
    # A lambda_fixed near the float limit makes filters' unused psi inf/inf, silently.
    with bidiag.overflow_checked():
        for k in range(1, state.k + 1):
            prob = ProjectedProblem(M=state.M[: k + 1, :k], beta1=state.beta1)
            t0 = time.perf_counter()
            lam = choose(prob)
            selection_s += time.perf_counter() - t0
            y, residual = projected_tikhonov(prob, lam)
            solution = recover_solution(state.Z[:, :k], y)
            relerr = float(np.linalg.norm(solution - s_true) / s_true_norm)
            history.append(Iterate(k, relerr, float(lam), residual))

    rest_s = time.perf_counter() - start - selection_s
    timings = {"param_selection_s": selection_s, "projected_solve_s": rest_s}
    return ReconRecord(history, solution, "breakdown" if state.terminated else "max_iter", timings)
