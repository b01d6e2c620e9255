"""Tikhonov parameter selection on the projected problem.

Three rules operate on the small (k+1)-by-k projected least-squares problem:
an oracle rule minimizing the true reconstruction error, the discrepancy
principle, and weighted GCV. All are pure functions of the projected problem
and their auxiliary inputs, evaluated through the filter factors of its
cached SVD (``ProjectedProblem.filters``). This module is the one home of the
rule names, their field checks and the per-iteration dispatch
(``RegRule.chooser``); configuration, CLI and harness read them from here.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .solve import projected_tikhonov, recover_solution

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
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def check_rule_fields(rule, lambda_fixed, nu_dp, omega, omega_mode):
    """Field checks shared by ``config.RegConfig`` and ``RegRule``."""
    if rule not in RULES:
        raise ConfigError(f"unknown regularization rule {rule!r}")
    if rule == "fixed" and lambda_fixed is None:
        raise ConfigError("rule 'fixed' requires lambda_fixed")
    if nu_dp <= 0:
        raise ConfigError("nu_dp must be positive")
    _check_omega(omega)
    if omega_mode not in OMEGA_MODES:
        raise ConfigError(f"unknown omega_mode {omega_mode!r}")


def _check_omega(omega):
    if not 0.0 < omega <= 1.0:
        raise ConfigError("omega must lie in (0, 1]")


@dataclass(frozen=True)
class RegRule:
    """Which rule selects lambda, plus the rule's inputs.

    dp requires ``noise_norm`` (the norm of the data noise in the residual's
    metric); fixed requires ``lambda_fixed``; wgcv takes a weight omega in
    (0, 1] either fixed or adapted along the iteration.
    """

    kind: str = "none"
    lambda_fixed: float = None
    nu_dp: float = 1.0
    noise_norm: float = None
    omega: float = 1.0
    omega_mode: str = "fixed"

    def __post_init__(self):
        check_rule_fields(self.kind, self.lambda_fixed, self.nu_dp, self.omega, self.omega_mode)
        if self.kind == "dp" and self.noise_norm is None:
            raise ConfigError("rule 'dp' requires noise_norm")

    @classmethod
    def from_config(cls, reg, noise_norm):
        """Rule for a ``config.RegConfig``; ``noise_norm`` is in the residual's metric."""
        return cls(
            kind=reg.rule,
            lambda_fixed=reg.lambda_fixed,
            nu_dp=reg.nu_dp,
            noise_norm=noise_norm,
            omega=reg.omega,
            omega_mode=reg.omega_mode,
        )

    def chooser(self, prior, s_true=None):
        """Per-solve selection: ``choose(prob, Z) -> (lambda, omega)``, Z = Q V_k.

        ``omega`` is the WGCV weight used, None under the other rules. In
        adaptive mode it is the mean of ``suggest_omega`` over the iterations
        so far, which is the state the chooser carries. The selectors are
        looked up in this module at call time.
        """
        suggestions = []

        def choose(prob, Z):
            if self.kind == "none":
                return 0.0, None
            if self.kind == "fixed":
                return float(self.lambda_fixed), None
            if self.kind == "optimal":
                return select_lambda_optimal(prob, Z, prior, s_true)[0], None
            if self.kind == "dp":
                return select_lambda_dp(prob, self)[0], None
            om = self.omega
            if self.omega_mode == "adaptive":
                suggestions.append(suggest_omega(prob))
                om = float(np.mean(suggestions))
            lam, _, om = select_lambda_wgcv(prob, self, omega=om)
            return lam, om

        return choose


def _lambda_bounds(prob):
    s1 = prob.sigma_max
    return GRID_FLOOR_RTOL * s1, GRID_TOP_FACTOR * s1


def _lambda_grid(prob):
    return np.geomspace(*_lambda_bounds(prob), GRID_POINTS)


def _golden_refine(f, lo, hi):
    """Golden-section minimization of f on [lo, hi] to relative width 1e-4."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > REFINE_RELWIDTH * b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _grid_then_refine(prob, objective):
    """Minimize an objective over the log-lambda grid, then refine locally."""
    grid = _lambda_grid(prob)
    vals = np.array([objective(lam) for lam in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    if hi > lo:
        lam = _golden_refine(objective, lo, hi)
        if objective(lam) > vals[i]:
            lam = grid[i]
    else:
        lam = grid[i]
    return float(lam)


def select_lambda_optimal(prob, Z, prior, s_true):
    """Oracle rule: minimize the reconstruction error against the true solution.

    ``Z`` = Q V_k, so each evaluation of the error is an n-by-k product.
    """
    if s_true is None:
        raise ConfigError("optimal rule requires the true solution")
    s_true = np.asarray(s_true, dtype=float)

    def objective(lam):
        y = projected_tikhonov(prob, lam).y
        s = recover_solution(prior, Z, y)
        d = s - s_true
        return float(np.dot(d, d))

    lam = _grid_then_refine(prob, objective)
    return lam, projected_tikhonov(prob, lam).y


def select_lambda_dp(prob, rule):
    """Discrepancy principle: residual norm matches nu_dp times the noise norm.

    The projected residual is nondecreasing in lambda, so the root is found by
    bisection in log-lambda to 1e-6 relative accuracy in the residual, which
    is evaluated in closed form from the filter factors. If the lambda=0
    residual already exceeds the target, lambda=0 is returned; if even the top
    of the grid cannot reach the target, the top is returned. Both
    saturations are logged.
    """
    if rule.noise_norm is None:
        raise ConfigError("dp rule requires noise_norm")
    lam = _dp_lambda(prob, rule.nu_dp * rule.noise_norm)
    return lam, projected_tikhonov(prob, lam).y


def _dp_lambda(prob, target):
    def residual(lam):
        return math.sqrt(prob.residual_norm2(prob.filters(lam)))

    tol = 1e-6 * max(target, prob.beta1 * 1e-300)
    r0 = residual(0.0)
    if r0 >= target:
        if r0 > target + tol:
            log.warning("dp: residual at lambda=0 (%.6e) already exceeds target %.6e", r0, target)
        return 0.0

    lo, hi = _lambda_bounds(prob)
    r_hi = residual(hi)
    if r_hi < target:
        log.warning(
            "dp: target %.6e unreachable, residual at lambda=%.3e is %.6e", target, hi, r_hi
        )
        return hi
    if residual(lo) >= target:
        return lo

    for _ in range(200):
        mid = math.sqrt(lo * hi)
        r = residual(mid)
        if abs(r - target) <= tol:
            lo = hi = mid
            break
        if r < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return math.sqrt(lo * hi)


def wgcv_value(prob, lam, omega):
    """Weighted GCV functional G_omega(lambda) for the projected problem.

    Numerator: squared projected residual. Denominator: the squared weighted
    trace (k+1) - omega * sum_i phi_i. omega = 1 is standard GCV.
    """
    filt = prob.filters(lam)
    trace = prob.M.shape[0] - omega * float(np.sum(filt.phi))
    return prob.residual_norm2(filt) / (trace * trace)


def select_lambda_wgcv(prob, rule, omega=None):
    """Minimize the weighted GCV functional over the lambda grid."""
    om = rule.omega if omega is None else float(omega)
    _check_omega(om)
    lam = _grid_then_refine(prob, lambda lam: wgcv_value(prob, lam, om))
    return lam, projected_tikhonov(prob, lam).y, om


def suggest_omega(prob):
    """Adaptive weight: make G_omega stationary at lambda = sigma_min(M).

    Treats the smallest projected singular value as the tentative optimal
    regularization level and solves dG/dlambda = 0 there for omega in closed
    form; clamped into (0, 1]. The adaptive WGCV rule averages these
    suggestions along the iteration.
    """
    s, bhat, _ = prob.svd_projection
    smin = float(s[-1]) if s.size else 0.0
    if smin <= 0:
        return 1.0
    lam = smin
    filt = prob.filters(lam)
    num = prob.residual_norm2(filt)
    dpsi = 2.0 * lam * filt.gain * filt.gain  # d(psi_i)/dlambda = -d(phi_i)/dlambda
    dnum = float(np.sum(2.0 * filt.psi * bhat * bhat * dpsi))
    phi_sum = float(np.sum(filt.phi))
    S = float(np.sum(dpsi))  # = -d(phi_sum)/dlambda
    rows = prob.M.shape[0]
    denom = dnum * phi_sum + 2.0 * num * S
    if denom <= 0 or dnum <= 0:
        return 1.0
    return float(min(1.0, dnum * rows / denom))
