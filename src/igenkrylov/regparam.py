"""Tikhonov parameter selection on the projected problem.

Three rules operate on the small (k+1)-by-k projected least-squares problem:
an oracle rule minimizing the true reconstruction error, the discrepancy
principle, and weighted GCV. Each evaluates its objective in the coordinates
of the projected SVD, through the filter factors of
``ProjectedProblem.filters``, so one evaluation is k-sized work and never
touches an n-vector:

- the oracle error ||mu + Z y - s_true||^2 is dd + 2 c^T y + y^T G y, with
  the k-by-k Gram matrix G = Z^T Z and c = Z^T (mu - s_true) kept by
  ``OracleGram``, which a solve grows by one row and column per iteration
  (Chung & Saibaba, SISC 39(5), 2017);
- the grid search of the oracle and WGCV rules evaluates all grid points in
  one call, and golden-section refinement evaluates scalars;
- the discrepancy principle brackets its root on the same grid and refines
  it by a safeguarded secant step in log lambda.

This module is the one home of the rule names and of ``RegConfig``, the rule
object from the configuration's ``reg`` section to the per-iteration dispatch
(``RegConfig.chooser``); configuration, CLI and harness read them from here.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

# recover_solution is not called here any more; it stays bound in this module,
# where the benchmark's tracer wraps it next to projected_tikhonov.
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
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        if self.nu_dp <= 0:
            raise ConfigError("nu_dp must be positive")
        _check_omega(self.omega)
        if self.omega_mode not in OMEGA_MODES:
            raise ConfigError(f"unknown omega_mode {self.omega_mode!r}")

    def chooser(self, prior, noise_norm=None, s_true=None):
        """Per-solve selection: ``choose(prob, Z) -> lambda``, Z = Q V_k.

        ``noise_norm`` is the norm of the data noise in the residual's metric,
        required by dp; ``s_true`` is required by the oracle rule. The
        chooser carries the state of one solve: in adaptive WGCV mode the
        ``suggest_omega`` values so far (omega is their mean), under the
        oracle rule the ``OracleGram`` of the growing Z. The selectors are
        looked up in this module at call time.
        """
        if self.rule == "dp" and noise_norm is None:
            raise ConfigError("rule 'dp' requires noise_norm")
        suggestions = []
        gram = OracleGram(prior, s_true) if self.rule == "optimal" else None

        def choose(prob, Z):
            if self.rule == "none":
                return 0.0
            if self.rule == "fixed":
                return float(self.lambda_fixed)
            if self.rule == "optimal":
                return select_lambda_optimal(prob, Z, prior, s_true, gram=gram)[0]
            if self.rule == "dp":
                return select_lambda_dp(prob, self.nu_dp * noise_norm)[0]
            omega = self.omega
            if self.omega_mode == "adaptive":
                suggestions.append(suggest_omega(prob))
                omega = float(np.mean(suggestions))
            return select_lambda_wgcv(prob, omega)[0]

        return choose


class OracleGram:
    """Gram data of the oracle error ||mu + Z y - s_true||^2 = dd + 2 c^T y + y^T G y.

    G = Z^T Z, c = Z^T d and dd = ||d||^2, with d = mu - s_true. ``update``
    brings G and c up to date with a basis Z. When Z has exactly one column
    more than at the last update, the earlier columns are taken as unchanged
    (a solve only appends to Z) and only the new row and column are computed,
    O(n k); otherwise G and c are rebuilt from Z, O(n k^2).
    """

    def __init__(self, prior, s_true):
        if s_true is None:
            raise ConfigError("optimal rule requires the true solution")
        self.d = prior.mu - np.asarray(s_true, dtype=float)
        self.dd = float(np.dot(self.d, self.d))
        self.G = np.zeros((0, 0))
        self.c = np.zeros(0)

    def update(self, Z):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != self.d.size:
            raise DimensionError("basis and solution dimensions disagree")
        k = Z.shape[1]
        if k == self.c.size + 1:
            znew = Z[:, -1]
            g = Z.T @ znew
            G = np.empty((k, k))
            G[:-1, :-1] = self.G
            G[-1, :] = g
            G[:, -1] = g
            self.G, self.c = G, np.append(self.c, np.dot(znew, self.d))
        else:
            self.G, self.c = Z.T @ Z, Z.T @ self.d

    def objective(self, prob):
        """The error as a function of lambda, a scalar or a 1-D grid.

        With y = Vt^T z and z = gain(lambda) * bhat, the error is
        dd + 2 c^T y + y^T G y. It is evaluated in the eigenvectors P of G:
        with u = P^T y, e = P^T c and t = -e / w it reads
        const + sum_i w_i (u_i - t_i)^2, a sum of nonnegative terms whose
        rounding error scales with the distance from the unconstrained
        minimizer, not with dd, so that a minimum near zero error (s_true in
        range(Z)) is still resolved. Eigenvalues at rounding level of the
        largest keep the expanded form 2 e_i u_i + w_i u_i^2. The
        eigen-decomposition and the rotation R = Vt P are done once here;
        each evaluation is k-sized.
        """
        if self.c.size != prob.M.shape[1]:
            raise DimensionError("basis and coefficient dimensions disagree")
        _, bhat, _ = prob.svd_projection
        w, P = np.linalg.eigh(self.G)
        R = prob.svd[2] @ P
        e = P.T @ self.c
        big = w > w.size * np.finfo(float).eps * max(w[-1], 0.0)
        t = np.where(big, -e / np.where(big, w, 1.0), 0.0)
        lin = np.where(big, 0.0, 2.0 * e)
        const = self.dd - float(np.sum(w[big] * t[big] ** 2))

        def error(lam):
            u = (prob.filters(lam).gain * bhat) @ R
            du = u - t
            return const + (w * du * du + lin * u).sum(axis=-1)

        return error


def _lambda_grid(prob):
    s1 = prob.sigma_max
    return np.geomspace(GRID_FLOOR_RTOL * s1, GRID_TOP_FACTOR * s1, GRID_POINTS)


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
    """Minimize an objective over the log-lambda grid, then refine locally.

    ``objective`` takes a scalar lambda or the whole grid, for which it
    returns one value per grid point.
    """
    grid = _lambda_grid(prob)
    vals = objective(grid)
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


def select_lambda_optimal(prob, Z, prior, s_true, gram=None):
    """Oracle rule: minimize the reconstruction error against the true solution.

    ``Z`` = Q V_k. The error is evaluated from the Gram data of Z
    (``OracleGram``), k-sized work per evaluation. A solve passes the
    ``gram`` it carries across iterations, which is updated here by the new
    column of Z; without one, G and c are built from Z in one shot.
    """
    if gram is None:
        gram = OracleGram(prior, s_true)
    gram.update(Z)
    lam = _grid_then_refine(prob, gram.objective(prob))
    return lam, projected_tikhonov(prob, lam).y


def select_lambda_dp(prob, target):
    """Discrepancy principle: the projected residual norm matches ``target``.

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
    lam = _dp_lambda(prob, target)
    return lam, projected_tikhonov(prob, lam).y


def _dp_lambda(prob, target):
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
    """Minimize the weighted GCV functional with weight ``omega`` over the lambda grid."""
    omega = float(omega)
    _check_omega(omega)
    lam = _grid_then_refine(prob, _wgcv_objective(prob, omega))
    return lam, projected_tikhonov(prob, lam).y


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
