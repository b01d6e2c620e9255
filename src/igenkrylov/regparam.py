"""Tikhonov parameter selection on the projected problem.

Three rules operate on the small (k+1)-by-k projected least-squares problem:
an oracle rule minimizing the true reconstruction error, the discrepancy
principle, and weighted GCV. Each returns lambda only; the projected solve
at that lambda is made once, by the solve driver. Each rule evaluates its
objective in the coordinates of the SVD that ``ProjectedProblem`` takes on
construction, through the filter factors of ``ProjectedProblem.filters`` (the
oracle rule needs only their ``gain``), so one evaluation is k-sized work and
never touches an n-vector:

- the oracle error ||mu + Z y - s_true||^2 is the least-squares residual
  ||R_k y + e_k||^2 plus a constant, from the triangular factor R of one thin
  QR of [Z, mu - s_true] (``OracleError``), taken from the final basis of a
  solve; iteration k reads its leading k-by-k block and k entries, since
  lambda never feeds back into the decomposition (Chung & Saibaba, SISC
  39(5), 2017);
- the oracle and WGCV rules evaluate all points of the lambda grid in one
  call and refine its minimum in at most three rounds of one call each, over
  grids precomputed for a unit sigma_max (``_grid_then_refine``); values
  within a rounding bound of the minimum tie, and a tie goes to the largest
  lambda, so that the choice is reproducible where the objective is flat;
- the discrepancy principle brackets its root on the same grid and refines
  it by a safeguarded secant step in log lambda.

This module is the one home of the rule names and of ``RegConfig``, the rule
object from the configuration's ``reg`` section to the per-iteration dispatch
(``RegConfig.chooser``); configuration, CLI and harness read them from here.
"""

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

# Neither is called in this module: a rule returns lambda and the solve driver
# makes the projected solve. Both stay bound here, where the benchmark's tracer
# wraps them.
from .solve import projected_tikhonov, recover_solution  # noqa: F401

log = logging.getLogger(__name__)

# The rules that select lambda on the projected problem at every iteration;
# under the other two it comes from the configuration.
SELECTING_RULES = ("optimal", "dp", "wgcv")
RULES = ("none", "fixed") + SELECTING_RULES
OMEGA_MODES = ("fixed", "adaptive")

GRID_POINTS = 50
GRID_FLOOR_RTOL = 1e-12
GRID_TOP_FACTOR = 10.0
REFINE_RELWIDTH = 1e-4
REFINE_POINTS = 65
# A value ties with the minimum when it exceeds it by at most TIE_RTOL * k
# times the rounding scale at the minimum (k columns of M). The first-order
# rounding error of a length-k evaluation is a few k * eps times that scale;
# the wide margin keeps ties from changing when Z or M change at rounding level.
TIE_RTOL = 256.0 * np.finfo(float).eps
_FLOAT_MAX = sys.float_info.max  # NaN, the infinities and larger integers fail <= it


# The lambda grid is UNIT_GRID * sigma_max. A refinement round spans a
# bracket of two steps of the grid or round before it, and its points are the
# bracket's lower end times the round's unit array, so every bracket of a
# round spans the same ratio. Rounds go on until a bracket is narrower than
# REFINE_RELWIDTH relative (three rounds of REFINE_POINTS).
UNIT_GRID = np.geomspace(GRID_FLOOR_RTOL, GRID_TOP_FACTOR, GRID_POINTS)


def _refine_rounds():
    rounds = []
    ratio = (UNIT_GRID[1] / UNIT_GRID[0]) ** 2
    while 1.0 - 1.0 / ratio > REFINE_RELWIDTH:
        rounds.append(np.geomspace(1.0, ratio, REFINE_POINTS))
        ratio = rounds[-1][2]
    return tuple(rounds)


REFINE_ROUNDS = _refine_rounds()


def _check_omega(omega):
    if not 0.0 < omega <= 1.0:
        raise ConfigError("omega must lie in (0, 1]")


@dataclass(frozen=True)
class RegConfig:
    """The lambda rule of a run: the ``reg`` section of the configuration.

    fixed requires ``lambda_fixed``; dp matches the residual to ``nu_dp``
    times the noise norm that ``chooser`` is given; wgcv takes a weight omega
    in (0, 1] either fixed or adapted along the iteration. The fields are
    checked once, on construction.
    """

    rule: str = "none"
    lambda_fixed: float = None
    nu_dp: float = 1.0
    omega: float = 1.0
    omega_mode: str = "fixed"

    def __post_init__(self):
        if self.rule not in RULES:
            raise ConfigError(f"unknown regularization rule {self.rule!r}")
        if self.rule == "fixed" and self.lambda_fixed is None:
            raise ConfigError("rule 'fixed' requires lambda_fixed")
        if self.lambda_fixed is not None and not 0.0 <= self.lambda_fixed <= _FLOAT_MAX:
            raise ConfigError("lambda_fixed must be finite and nonnegative")
        if not 0.0 < self.nu_dp <= _FLOAT_MAX:
            raise ConfigError("nu_dp must be finite and positive")
        _check_omega(self.omega)
        if self.omega_mode not in OMEGA_MODES:
            raise ConfigError(f"unknown omega_mode {self.omega_mode!r}")

    def chooser(self, prior, Z, noise_norm=None, s_true=None):
        """Per-solve selection: ``choose(prob) -> lambda``, Z = Q V_k the final basis.

        ``noise_norm`` is the norm of the data noise in the residual's metric,
        required by dp; ``s_true`` is required by the oracle rule. The
        chooser carries the state of one solve: in adaptive WGCV mode the
        ``suggest_omega`` values so far (omega is their mean), under the
        oracle rule the ``OracleError`` of Z, built here once. The selectors
        are looked up in this module at call time.
        """
        if self.rule == "dp" and noise_norm is None:
            raise ConfigError("rule 'dp' requires noise_norm")
        suggestions = []
        oracle = OracleError(prior, s_true, Z) if self.rule == "optimal" else None

        def choose(prob):
            if self.rule == "none":
                return 0.0
            if self.rule == "fixed":
                return float(self.lambda_fixed)
            if self.rule == "optimal":
                return select_lambda_optimal(prob, oracle)
            if self.rule == "dp":
                return select_lambda_dp(prob, self.nu_dp * noise_norm)
            omega = self.omega
            if self.omega_mode == "adaptive":
                suggestions.append(suggest_omega(prob))
                omega = float(np.mean(suggestions))
            return select_lambda_wgcv(prob, omega)

        return choose


class OracleError:
    """The oracle error ||mu + Z y - s_true||^2 as a least-squares residual.

    With d = mu - s_true and the thin QR [Z, d] = Q R of a basis Z with K
    columns, taken once, O(n K^2), the error for y on the first k columns of
    Z is ||R_k y + e_k||^2 + dd - e_k^T e_k, with R_k = R[:k, :k],
    e_k = R[:k, K] and dd = ||d||^2. R_k is the triangular factor of the first
    k columns alone, up to rounding, so ``error_terms`` of a projected problem
    with k columns reads the leading block; no matrix of squared condition
    (the Gram matrix Z^T Z) is formed.
    """

    def __init__(self, prior, s_true, Z):
        if s_true is None:
            raise ConfigError("optimal rule requires the true solution")
        d = prior.mu - np.asarray(s_true, dtype=float)
        self.dd = float(np.dot(d, d))
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != d.size:
            raise DimensionError("basis and solution dimensions disagree")
        K = Z.shape[1]
        R = np.linalg.qr(np.column_stack([Z, d]), mode="r")
        self.R = R[:K, :K]
        self.e = R[:K, K]

    def error_terms(self, prob):
        """The error as ``const`` plus a function of lambda: ``(const, terms)``.

        With y = Vt^T z and z = gain(lambda) * bhat, the residual is
        r = B gain(lambda) + e_k with B = R_k Vt^T diag(bhat), formed once
        here. ``terms(lam)``, for a scalar or a 1-D grid, returns sum(r^2) and
        a scale of its rounding error, sum(|r| (|B gain| + |e_k|)). Both are
        k-sized work and compute only the gains of ``ProjectedProblem.filters``;
        ``const`` = dd - e_k^T e_k is the same at every lambda and is left
        out of both.
        """
        k = prob.M.shape[1]
        if k > self.R.shape[1]:
            raise DimensionError("basis and coefficient dimensions disagree")
        B = self.R[:k, :k] @ (prob.Vt.T * prob.bhat)
        e = self.e[:k]
        abs_e = np.abs(e)

        def terms(lam):
            Bg = prob.gain(lam) @ B.T
            r = Bg + e
            return (r * r).sum(axis=-1), (np.abs(r) * (np.abs(Bg) + abs_e)).sum(axis=-1)

        return self.dd - float(np.dot(e, e)), terms


def _lambda_grid(prob):
    return UNIT_GRID * prob.sigma_max


def _largest_tie(vals, scale, k):
    """The index of the largest lambda tied with the minimum of ``vals``, the
    bound of that tie and the number of values within it (lambdas ascending)."""
    i = int(np.argmin(vals))
    tol = TIE_RTOL * k * scale[i]
    ties = np.flatnonzero(vals <= vals[i] + tol)
    return int(ties[-1]), tol, ties.size


def _grid_then_refine(prob, terms):
    """Minimize an objective over the lambda grid, then refine its minimum.

    ``terms(lams)`` returns, for a 1-D array of lambdas, the objective up to
    a constant and a scale of its rounding error, one of each per lambda.
    Values within ``TIE_RTOL * k * scale`` of the smallest one (k the number
    of columns of M, the scale taken at the smallest) are ties, and a tie
    goes to the largest lambda.

    The grid is evaluated in one call. If several grid points tie, the
    objective is flat to rounding there (far below sigma_min(M) every filter
    factor is 1), no refinement can resolve it, and the largest of them is
    returned. Otherwise the bracket of two steps around the best point
    (clipped at the ends of the grid or round) is refined in rounds, one call
    each over the points of a ``REFINE_ROUNDS`` array. A round's best point
    replaces the best so far only if it is lower by more than the tie bound,
    so that a best point at the edge of a flat stretch stays where it is;
    the next bracket is centred on the best so far either way.
    """
    k = prob.s.size
    lams = _lambda_grid(prob)
    vals, scale = terms(lams)
    j, tol, tied = _largest_tie(vals, scale, k)
    best, fbest = lams[j], vals[j]
    if tied > 1:
        return float(best)
    for unit in REFINE_ROUNDS:
        lams = lams[min(max(j - 1, 0), lams.size - 3)] * unit
        vals, scale = terms(lams)
        i, round_tol, _ = _largest_tie(vals, scale, k)
        if vals[i] < fbest - tol:
            best, fbest, tol = lams[i], vals[i], round_tol
        j = int(np.argmin(np.abs(lams - best)))
    return float(best)


def select_lambda_optimal(prob, oracle):
    """Oracle rule: the lambda minimizing the reconstruction error against the true solution.

    The error is evaluated from ``oracle``, the ``OracleError`` of the
    solve's basis Z = Q V; a problem with k columns reads its leading k-by-k
    block, and each evaluation is k-sized work.
    """
    return _grid_then_refine(prob, oracle.error_terms(prob)[1])


def select_lambda_dp(prob, target):
    """Discrepancy principle: the lambda at which the projected residual matches ``target``.

    ``target`` is nu_dp times the noise norm in the residual's metric.

    The projected residual is nondecreasing in lambda and is evaluated in
    closed form from the filter factors. The root is bracketed between two
    neighbouring points of the lambda grid, all evaluated in one call, and
    refined by safeguarded secant steps in log-lambda until the residual is
    within 1e-6 relative of the target. If the lambda=0 residual already
    exceeds the target, lambda=0 is returned; if even the top of the grid
    cannot reach the target, the top is returned. Both saturations are
    logged.
    """

    def residual(lam):
        return np.sqrt(prob.residual_norm2(prob.filters(lam)))

    tol = 1e-6 * max(target, prob.beta1 * 1e-300)
    r0 = residual(0.0)
    if r0 >= target:
        if r0 > target + tol:
            log.warning("dp: residual at lambda=0 (%.6e) already exceeds target %.6e", r0, target)
        return 0.0

    grid = _lambda_grid(prob)
    r = residual(grid)
    if r[-1] < target:
        log.warning(
            "dp: target %.6e unreachable, residual at lambda=%.3e is %.6e", target, grid[-1], r[-1]
        )
        return float(grid[-1])
    if r[0] >= target:
        return float(grid[0])

    # r[j - 1] < target <= r[j]. Secant steps on log(r / target) against
    # log(lambda) through the two latest points; the root stays bracketed in
    # [a, b], and a step that would leave the bracket bisects it instead.
    j = int(np.argmax(r >= target))
    a, b = math.log(grid[j - 1]), math.log(grid[j])
    t0, f0 = a, math.log(r[j - 1] / target)
    t1, f1 = b, math.log(r[j] / target)
    for _ in range(100):
        t = t1 - f1 * (t1 - t0) / (f1 - f0) if f1 != f0 else 0.5 * (a + b)
        if not a < t < b:
            t = 0.5 * (a + b)
        rt = float(residual(math.exp(t)))
        if abs(rt - target) <= tol:
            return math.exp(t)
        ft = math.log(rt / target)
        if ft < 0.0:
            a = t
        else:
            b = t
        t0, f0, t1, f1 = t1, f1, t, ft
        if b - a <= 1e-14 * max(abs(a), abs(b), 1.0):
            break
    return math.exp(0.5 * (a + b))


def _wgcv_objective(prob, omega):
    """G_omega as a function of lambda, a scalar or a 1-D grid."""
    rows = prob.M.shape[0]

    def value(lam):
        filt = prob.filters(lam)
        trace = rows - omega * filt.phi.sum(axis=-1)
        return prob.residual_norm2(filt) / (trace * trace)

    return value


def wgcv_value(prob, lam, omega):
    """Weighted GCV functional G_omega(lambda) for the projected problem, at one lambda.

    Numerator: squared projected residual. Denominator: the squared weighted
    trace (k+1) - omega * sum_i phi_i. omega = 1 is standard GCV.
    """
    return float(_wgcv_objective(prob, omega)(lam))


def select_lambda_wgcv(prob, omega):
    """The lambda minimizing the weighted GCV functional with weight ``omega``."""
    omega = float(omega)
    _check_omega(omega)
    value = _wgcv_objective(prob, omega)
    # One rounded expression of positive parts: the value is its own scale.
    return _grid_then_refine(prob, lambda lams: (value(lams),) * 2)


def suggest_omega(prob):
    """Adaptive weight: make G_omega stationary at lambda = sigma_min(M).

    Treats the smallest projected singular value as the tentative optimal
    regularization level and solves dG/dlambda = 0 there for omega in closed
    form; clamped into (0, 1]. The adaptive WGCV rule averages these
    suggestions along the iteration.
    """
    smin = float(prob.s[-1])
    if smin <= 0:
        return 1.0
    lam = smin
    filt = prob.filters(lam)
    num = prob.residual_norm2(filt)
    dpsi = 2.0 * lam * filt.gain * filt.gain  # d(psi_i)/dlambda = -d(phi_i)/dlambda
    dnum = float(np.sum(2.0 * filt.psi * prob.bhat * prob.bhat * dpsi))
    phi_sum = float(np.sum(filt.phi))
    S = float(np.sum(dpsi))  # = -d(phi_sum)/dlambda
    rows = prob.M.shape[0]
    denom = dnum * phi_sum + 2.0 * num * S
    if denom <= 0 or dnum <= 0:
        return 1.0
    return float(min(1.0, dnum * rows / denom))
