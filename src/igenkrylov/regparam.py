"""Tikhonov parameter selection on the projected problem.

Three rules operate on the small (k+1)-by-k projected least-squares problem:
an oracle rule minimizing the true reconstruction error, the discrepancy
principle, and weighted GCV. Each returns lambda only; the projected solve
at that lambda is made once, by the solve driver. Each rule evaluates its
objective in the coordinates of the SVD that ``ProjectedProblem`` takes on
construction, through the filter factors of ``ProjectedProblem.filters`` (the
oracle rule needs only their ``gain``), so one evaluation is k-sized work and
never touches an n-vector:

- the oracle error ||Z y - s_true||^2 (the prior mean is zero, so the solution
  is Z y) is the least-squares residual ||R_k y + e_k||^2 plus a constant,
  from the triangular factor R of one thin QR of [Z, -s_true] (``OracleError``),
  taken from the final basis of a solve; iteration k reads its leading k-by-k
  block and k entries, since lambda never feeds back into the decomposition
  (Chung & Saibaba, SISC 39(5), 2017);
- every rule evaluates all points of the lambda grid in one call and refines
  its minimum in at most four rounds of one call each, over grids
  precomputed for a unit sigma_max (``_grid_then_refine``); values within a
  rounding bound of the minimum tie, and a tie goes to the largest lambda, so
  that the choice is reproducible where the objective is flat. The
  discrepancy principle minimizes the distance of the squared residual from
  the squared target, whose one minimum is the root.

This module is the one home of the rule names and of ``RegConfig``, the rule
object from the configuration's ``reg`` section to the per-iteration dispatch
(``RegConfig.chooser``); configuration, CLI and harness read them from here.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import FLOAT_MAX, ConfigError

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
REFINE_POINTS = 65
# A value ties with the minimum when it exceeds it by at most TIE_RTOL * k
# times the rounding scale at the minimum (k columns of M). The first-order
# rounding error of a length-k evaluation is a few k * eps times that scale;
# the wide margin keeps ties from changing when Z or M change at rounding level.
TIE_RTOL = 256.0 * np.finfo(float).eps


# The lambda grid is UNIT_GRID * sigma_max. Each of the four refinement rounds
# spans a bracket of two steps of the grid or round before it, and its points
# are the bracket's lower end times the round's unit array of REFINE_POINTS, so
# every bracket of a round spans the same ratio. The last round's step is about
# 5.9e-7 relative.
UNIT_GRID = np.geomspace(GRID_FLOOR_RTOL, GRID_TOP_FACTOR, GRID_POINTS)


def _refine_rounds():
    rounds = []
    ratio = (UNIT_GRID[1] / UNIT_GRID[0]) ** 2
    for _ in range(4):
        rounds.append(np.geomspace(1.0, ratio, REFINE_POINTS))
        ratio = rounds[-1][2]
    return tuple(rounds)


REFINE_ROUNDS = _refine_rounds()


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
        if self.lambda_fixed is not None and not 0.0 <= self.lambda_fixed <= FLOAT_MAX:
            raise ConfigError("lambda_fixed must be finite and nonnegative")
        if not 0.0 < self.nu_dp <= FLOAT_MAX:
            raise ConfigError("nu_dp must be finite and positive")
        if not 0.0 < self.omega <= 1.0:
            raise ConfigError("omega must lie in (0, 1]")
        if self.omega_mode not in OMEGA_MODES:
            raise ConfigError(f"unknown omega_mode {self.omega_mode!r}")

    def chooser(self, Z, noise_norm, s_true):
        """Per-solve selection: ``choose(prob) -> lambda``, Z = Q V_k the final basis.

        ``noise_norm`` is the norm of the data noise in the residual's metric,
        read by dp; ``s_true`` is the true solution, read by the oracle rule. The
        chooser carries the state of one solve: in adaptive WGCV mode the
        ``suggest_omega`` values so far (omega is their mean), under the
        oracle rule the ``OracleError`` of Z, built here once. The selectors
        are looked up in this module at call time.
        """
        suggestions = []
        oracle = OracleError(s_true, Z) if self.rule == "optimal" else None

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
    """The oracle error ||Z y - s_true||^2 as a least-squares residual.

    With d = -s_true and the thin QR [Z, d] = Q R of a basis Z with K
    columns, taken once, O(n K^2), the error for y on the first k columns of
    Z is ||R_k y + e_k||^2 + ||d||^2 - e_k^T e_k, with R_k = R[:k, :k] and
    e_k = R[:k, K]. R_k is the triangular factor of the first k columns
    alone, up to rounding, so ``error_terms`` of a projected problem with k
    columns reads the leading block; no matrix of squared condition (the Gram
    matrix Z^T Z) is formed.
    """

    def __init__(self, s_true, Z):
        d = -np.asarray(s_true, dtype=float)
        Z = np.asarray(Z, dtype=float)
        K = Z.shape[1]
        R = np.linalg.qr(np.column_stack([Z, d]), mode="r")
        self.R = R[:K, :K]
        self.e = R[:K, K]

    def error_terms(self, prob):
        """``terms``, the error as a function of lambda up to a constant.

        With y = Vt^T z and z = gain(lambda) * bhat, the residual is
        r = B gain(lambda) + e_k with B = R_k Vt^T diag(bhat), formed once
        here. ``terms(lam)``, for a scalar or a 1-D grid, returns sum(r^2) and
        a scale of its rounding error, sum(|r| (|B gain| + |e_k|)). Both are
        k-sized work and read only the gains of ``ProjectedProblem.filters``;
        ||d||^2 - e_k^T e_k is the same at every lambda and is left out of
        both.
        """
        k = prob.M.shape[1]
        B = self.R[:k, :k] @ (prob.Vt.T * prob.bhat)
        e = self.e[:k]
        abs_e = np.abs(e)

        def terms(lam):
            Bg = prob.filters(lam).gain @ B.T
            r = Bg + e
            return (r * r).sum(axis=-1), (np.abs(r) * (np.abs(Bg) + abs_e)).sum(axis=-1)

        return terms


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
    return _grid_then_refine(prob, oracle.error_terms(prob))


def select_lambda_dp(prob, target):
    """Discrepancy principle: the lambda at which the projected residual matches ``target``.

    ``target`` is nu_dp times the noise norm in the residual's metric.

    The squared projected residual r^2 is nondecreasing in lambda and is
    evaluated in closed form from the filter factors, so |r^2 - target^2| has
    one minimum, at the root, and ``_grid_then_refine`` finds it: the residual
    there is within 1e-6 relative of the target. If the lambda=0 residual
    already exceeds the target, lambda=0 is returned; if even the top of the
    grid cannot reach the target, the top is returned. Both saturations are
    logged. A root below the grid floor returns the floor.
    """

    def residual2(lam):
        return prob.residual_norm2(prob.filters(lam))

    r0 = math.sqrt(residual2(0.0))
    if r0 >= target:
        if r0 > target + 1e-6 * max(target, prob.beta1 * 1e-300):
            log.warning("dp: residual at lambda=0 (%.6e) already exceeds target %.6e", r0, target)
        return 0.0

    t2 = target * target

    def terms(lams):
        r2 = residual2(lams)
        return np.abs(r2 - t2), r2 + t2

    lam = _grid_then_refine(prob, terms)
    if lam == _lambda_grid(prob)[-1] and (r_top := math.sqrt(residual2(lam))) < target:
        log.warning(
            "dp: target %.6e unreachable, residual at lambda=%.3e is %.6e", target, lam, r_top
        )
    return lam


def wgcv_value(prob, lam, omega):
    """Weighted GCV functional G_omega(lambda) of the projected problem, one value per lambda.

    ``lam`` is a scalar or a 1-D grid. Numerator: squared projected residual.
    Denominator: the squared weighted trace (k+1) - omega * sum_i phi_i.
    omega = 1 is standard GCV. On a square M that trace is 0 where every
    phi_i rounds to 1, and G is +inf there.
    """
    filt = prob.filters(lam)
    trace = prob.M.shape[0] - omega * filt.phi.sum(axis=-1)
    with np.errstate(divide="ignore"):
        return prob.residual_norm2(filt) / (trace * trace)


def select_lambda_wgcv(prob, omega):
    """The lambda minimizing the weighted GCV functional with weight ``omega``."""
    omega = float(omega)
    # One rounded expression of positive parts: the value is its own scale.
    return _grid_then_refine(prob, lambda lams: (wgcv_value(prob, lams, omega),) * 2)


def suggest_omega(prob):
    """Adaptive weight: make G_omega stationary at lambda = sigma_min(M).

    Treats the smallest projected singular value as the tentative optimal
    regularization level and solves dG/dlambda = 0 there for omega in closed
    form; clamped into (0, 1]. The adaptive WGCV rule averages these
    suggestions along the iteration.
    """
    lam = float(prob.s[-1])
    if lam <= 0:
        return 1.0
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
