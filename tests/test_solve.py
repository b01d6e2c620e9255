import time

import numpy as np
import pytest

from igenkrylov import bidiag, linop, prior, regparam, solve, tomo
from igenkrylov.errors import InputError, NumericalError

from conftest import (
    DenseOperator,
    DenseSPDCovariance,
    IdentityOperator,
    dense_generalized_tikhonov,
    random_spd,
    solve_one,
)


def make_prob(M, beta1):
    return solve.ProjectedProblem(M=np.asarray(M, dtype=float), beta1=beta1)


def test_tall_column_consistent():
    y, residual = solve.projected_tikhonov(make_prob([[1.0], [0.0]], 2.0), 0.0)
    np.testing.assert_allclose(y, [2.0], atol=1e-15)
    assert residual <= 1e-15


def test_tall_column_regularized():
    y, residual = solve.projected_tikhonov(make_prob([[1.0], [0.0]], 2.0), 1.0)
    np.testing.assert_allclose(y, [1.0], rtol=1e-15)
    assert residual == pytest.approx(1.0, rel=1e-14)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 7))
    beta1 = 1.7
    lam = 0.3
    y, _ = solve.projected_tikhonov(make_prob(M, beta1), lam)
    e1 = np.zeros(8)
    e1[0] = beta1
    y_ref = np.linalg.solve(M.T @ M + lam * lam * np.eye(7), M.T @ e1)
    assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)


def test_minimum_norm_at_rank_deficiency():
    col = np.array([[1.0], [2.0], [0.0]])
    M = np.hstack([col, col])  # rank one, two columns
    y, _ = solve.projected_tikhonov(make_prob(M, 1.0), 0.0)
    e1 = np.zeros(3)
    e1[0] = 1.0
    y_ref = np.linalg.pinv(M) @ e1
    np.testing.assert_allclose(y, y_ref, atol=1e-12)


def test_rejects_nonfinite_matrix():
    with pytest.raises(NumericalError):
        make_prob([[np.nan], [0.0]], 1.0)


def test_rejects_zero_matrix():
    # A zero M has sigma_max = 0, which no lambda grid can scale with.
    with pytest.raises(NumericalError):
        make_prob([[0.0], [0.0]], 1.0)


def test_svd_cache_reconstructs():
    rng = np.random.default_rng(1)
    prob = make_prob(rng.standard_normal((6, 5)), 1.3)
    # M^T M = Vt^T diag(s^2) Vt, and Vt has orthonormal rows.
    gram = prob.Vt.T @ np.diag(prob.s**2) @ prob.Vt
    assert np.linalg.norm(gram - prob.M.T @ prob.M) <= 1e-12 * np.linalg.norm(prob.M) ** 2
    np.testing.assert_allclose(prob.Vt @ prob.Vt.T, np.eye(5), atol=1e-12)
    assert prob.sigma_max == prob.s[0]
    # bhat = U^T beta1 e1 with U = M Vt^T / s; tail2 is the rest of ||beta1 e1||^2.
    e1 = np.zeros(6)
    e1[0] = prob.beta1
    np.testing.assert_allclose(prob.bhat, (prob.M @ prob.Vt.T).T @ e1 / prob.s, atol=1e-12)
    lsq = prob.M @ np.linalg.lstsq(prob.M, e1, rcond=None)[0] - e1
    assert prob.tail2 == pytest.approx(float(lsq @ lsq), rel=1e-10)


def test_residual_recomputable():
    rng = np.random.default_rng(2)
    prob = make_prob(rng.standard_normal((7, 5)), 2.3)
    y, residual = solve.projected_tikhonov(prob, 0.5)
    e1 = np.zeros(7)
    e1[0] = prob.beta1
    direct = np.linalg.norm(prob.M @ y - e1)
    assert abs(direct - residual) <= 1e-12 * max(direct, 1.0)


def test_monotone_in_lambda():
    rng = np.random.default_rng(3)
    prob = make_prob(rng.standard_normal((9, 6)), 1.0)
    lams = np.geomspace(1e-8, 1e3, 40)
    outs = [solve.projected_tikhonov(prob, lam) for lam in lams]
    residuals = [residual for _, residual in outs]
    ynorms = [np.linalg.norm(y) for y, _ in outs]
    assert np.all(np.diff(residuals) >= -1e-12)
    assert np.all(np.diff(ynorms) <= 1e-12)


def test_infinite_regularization_limit():
    rng = np.random.default_rng(4)
    prob = make_prob(rng.standard_normal((9, 6)), 1.0)
    y0, _ = solve.projected_tikhonov(prob, 0.0)
    yinf, _ = solve.projected_tikhonov(prob, 1e8 * prob.sigma_max)
    assert np.linalg.norm(yinf) <= 1e-6 * np.linalg.norm(y0)


def test_scalar_lambda_is_a_one_point_grid():
    """filters(lam) is the row of filters(grid) at lam, bit for bit, in phi, psi and gain."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 10))
        prob = make_prob(rng.standard_normal((k + 1, k)) * 10.0 ** rng.uniform(-3, 3), 1.0)
        grid = np.geomspace(1e-12, 10.0, 65) * prob.sigma_max
        rows = prob.filters(grid)
        for i, lam in enumerate(grid):
            for one, row in zip(prob.filters(float(lam)), rows):
                assert np.array_equal(one, row[i]), seed


def test_zero_lambda_truncates_at_the_rank_tolerance():
    """At lambda = 0 only the singular values above RANK_RTOL * sigma_max are kept."""
    s = np.array([1.0, 2.0 * solve.RANK_RTOL, 0.5 * solve.RANK_RTOL])
    prob = make_prob(np.vstack([np.diag(s), np.zeros((1, 3))]), 1.0)
    for zero in (0.0, 0, np.float64(0.0)):
        phi, psi, gain = prob.filters(zero)
        assert phi.tolist() == [1.0, 1.0, 0.0] and psi.tolist() == [0.0, 0.0, 1.0]
        assert gain.tolist() == [1.0 / s[0], 1.0 / s[1], 0.0]


def test_recover_trivial_cases():
    V = np.random.default_rng(5).standard_normal((4, 2))
    np.testing.assert_array_equal(solve.recover_solution(V, np.zeros(2)), np.zeros(4))
    y = np.array([1.0, -2.0])
    np.testing.assert_allclose(solve.recover_solution(V, y), V @ y, rtol=1e-15)


def test_recover_dense_covariance_oracle():
    rng = np.random.default_rng(6)
    Qm = random_spd(6, rng)
    V = rng.standard_normal((6, 3))
    y = rng.standard_normal(3)
    np.testing.assert_allclose(solve.recover_solution(Qm @ V, y), Qm @ (V @ y), atol=1e-12)


def test_identity_problem_solved_in_one_step():
    n = 8
    rng = np.random.default_rng(7)
    s_true = rng.standard_normal(n)
    A = IdentityOperator(n)
    Q = prior.IdentityCovariance()
    nm = prior.NoiseModel(sigma=1.0)
    none = regparam.RegConfig(rule="none")
    rec = solve_one(A, linop.EXACT, Q, nm, s_true, 5, none, s_true=s_true)
    assert rec.stop_reason == "breakdown"
    assert rec.relerr[0] <= 1e-12


def full_rank_generalized_problem(seed):
    rng = np.random.default_rng(seed)
    Amat = rng.standard_normal((20, 15))
    Qm = random_spd(15, rng, cond=5.0)
    sigma = 1.3
    b = rng.standard_normal(20)
    A = DenseOperator(Amat)
    Q = DenseSPDCovariance(Qm)
    nm = prior.NoiseModel(sigma=sigma)
    return Amat, Qm, sigma, b, A, Q, nm


def test_full_subspace_matches_dense_oracle():
    Amat, Qm, sigma, b, A, Q, nm = full_rank_generalized_problem(8)
    s_ref = dense_generalized_tikhonov(Amat, Qm, sigma, b, 0.0)
    rec = solve_one(A, linop.EXACT, Q, nm, b, 15, regparam.RegConfig(rule="none"), s_ref)
    assert np.linalg.norm(rec.solution - s_ref) <= 1e-8 * np.linalg.norm(s_ref)


def test_galerkin_residual_consistency():
    Amat, Qm, sigma, b, A, Q, nm = full_rank_generalized_problem(9)
    rule = regparam.RegConfig(rule="fixed", lambda_fixed=0.4)
    rec = solve_one(A, linop.EXACT, Q, nm, b, 8, rule, np.ones(15))
    x = np.linalg.solve(Qm, rec.solution)  # x with s = Q x; oracle-side inverse
    full_res = Amat @ Qm @ x - b
    weighted = np.linalg.norm(full_res) / sigma
    projected = rec.history[-1].proj_residual
    assert abs(weighted - projected) <= 1e-8 * max(weighted, 1.0)


def test_history_has_one_row_per_iteration():
    """One row per iteration, k = 1..K in order."""
    _, _, _, b, A, Q, nm = full_rank_generalized_problem(9)
    rule = regparam.RegConfig(rule="fixed", lambda_fixed=0.4)
    rec = solve_one(A, linop.EXACT, Q, nm, b, 8, rule, np.ones(15))
    assert [row.k for row in rec.history] == list(range(1, 9))
    assert rec.iterations == 8
    assert [row.lam for row in rec.history] == [0.4] * 8


def test_driver_is_deterministic():
    Amat, Qm, sigma, b, A, Q, nm = full_rank_generalized_problem(10)
    rule = regparam.RegConfig(rule="none")
    r1 = solve_one(A, linop.EXACT, Q, nm, b, 6, rule, np.ones(15))
    r2 = solve_one(A, linop.EXACT, Q, nm, b, 6, rule, np.ones(15))
    np.testing.assert_array_equal(r1.solution, r2.solution)
    assert [row.lam for row in r1.history] == [row.lam for row in r2.history]
    assert [row.proj_residual for row in r1.history] == [row.proj_residual for row in r2.history]


def test_timings_are_three_buckets_and_project_splits_its_wall_time():
    """A solve's timings are its three buckets, each finite and nonnegative, and
    the two buckets of a project call add up to at most its wall time."""
    _, _, _, b, A, Q, nm = full_rank_generalized_problem(12)
    rule = regparam.RegConfig(rule="wgcv", omega_mode="adaptive")
    rec = solve_one(A, linop.EXACT, Q, nm, b, 8, rule, np.ones(15))
    assert set(rec.timings) == {"decomposition_s", "param_selection_s", "projected_solve_s"}
    assert all(np.isfinite(v) and v >= 0.0 for v in rec.timings.values())
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 8)
    t0 = time.perf_counter()
    projected = solve.project(state, rule, None, np.ones(15))
    wall = time.perf_counter() - t0
    assert set(projected.timings) == {"param_selection_s", "projected_solve_s"}
    assert min(projected.timings.values()) >= 0.0
    assert sum(projected.timings.values()) <= wall


def test_degenerate_adjoint_of_rhs_is_input_error():
    # A^T b = 0 with b != 0: no Krylov column exists, so the driver reports bad input
    A = DenseOperator(np.diag([1.0, 0.0]))
    b = np.array([0.0, 1.0])
    with pytest.raises(InputError, match="adjoint of right-hand side is degenerate"):
        solve_one(A, linop.EXACT, prior.IdentityCovariance(), prior.NoiseModel(sigma=1.0), b, 3,
                  regparam.RegConfig(rule="none"), np.ones(2))


def test_driver_rejects_zero_iterations():
    _, _, _, b, A, Q, nm = full_rank_generalized_problem(11)
    with pytest.raises(InputError, match="the decomposition has no step to project"):
        solve_one(A, linop.EXACT, Q, nm, b, 0, regparam.RegConfig(rule="none"), np.ones(15))


def test_project_rejects_a_state_without_steps():
    _, _, _, b, A, Q, nm = full_rank_generalized_problem(11)
    state = bidiag.igenGK_init(A, Q, nm, b, 1)
    with pytest.raises(InputError, match="the decomposition has no step to project"):
        solve.project(state, regparam.RegConfig(rule="none"), None, np.ones(15))


def test_one_decomposition_projects_as_each_rule_solves(small_ct):
    """project only reads the state: one run_iterative_solve under several rules
    gives, for each rule, the history and solution of projecting one igenGK_run
    state bit for bit, and only its first record holds the decomposition time."""
    geom, A = small_ct
    s_true = tomo.make_phantom(geom.n)
    b, noise_norm = tomo.synthesize_observation(A, s_true, 0.04, seed=3)
    kernel = prior.MaternKernel(nu=1.5, alpha=10.0)
    Q = prior.CovarianceOperator((geom.n, geom.n), kernel)
    nm = prior.NoiseModel(sigma=1.0)
    inexact = linop.InexactnessModel(mode="gaussian-entry", beta=1e-2, seed=5)
    args = (A, inexact, Q, nm, b, 10)
    state = bidiag.igenGK_run(*args)
    before = [arr.copy() for arr in (state.U, state.M, state.Z, state.C)]
    rules = {
        "none": regparam.RegConfig(rule="none"),
        "fixed": regparam.RegConfig(rule="fixed", lambda_fixed=0.3),
        "optimal": regparam.RegConfig(rule="optimal"),
        "dp": regparam.RegConfig(rule="dp"),
        "wgcv": regparam.RegConfig(rule="wgcv"),
        "adaptive": regparam.RegConfig(rule="wgcv", omega_mode="adaptive"),
    }
    solved = solve.run_iterative_solve(*args, rules, noise_norm, s_true)
    assert list(solved) == list(rules)
    for name, rule in rules.items():
        projected = solve.project(state, rule, noise_norm, s_true)
        assert projected.iterations == 10
        assert projected.history == solved[name].history, name
        assert projected.solution.tobytes() == solved[name].solution.tobytes(), name
        assert projected.stop_reason == solved[name].stop_reason
    assert ["decomposition_s" in rec.timings for rec in solved.values()] == [True] + [False] * 5
    after = (state.U, state.M, state.Z, state.C)
    assert [arr.tobytes() for arr in after] == [arr.tobytes() for arr in before]
