import numpy as np
import pytest

from igenkrylov import linop, prior, regparam, solve
from igenkrylov.errors import DegenerateInputError, DimensionError, NumericalError

from conftest import (
    DenseOperator,
    DenseSPDCovariance,
    IdentityOperator,
    dense_generalized_tikhonov,
    random_spd,
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


def test_recover_trivial_cases():
    pm = prior.identity_prior(4)
    V = np.random.default_rng(5).standard_normal((4, 2))
    np.testing.assert_array_equal(solve.recover_solution(pm, V, np.zeros(2)), pm.mu)
    y = np.array([1.0, -2.0])
    np.testing.assert_allclose(solve.recover_solution(pm, V, y), V @ y, rtol=1e-15)


def test_recover_dense_covariance_oracle():
    rng = np.random.default_rng(6)
    Qm = random_spd(6, rng)
    mu = rng.standard_normal(6)
    pm = prior.PriorModel(mu=mu, Q=DenseSPDCovariance(Qm))
    Z = Qm @ rng.standard_normal((6, 3))
    y = rng.standard_normal(3)
    expected = mu + Z @ y
    np.testing.assert_allclose(solve.recover_solution(pm, Z, y), expected, atol=1e-12)
    with pytest.raises(DimensionError):
        solve.recover_solution(pm, Z, np.ones(4))


def test_identity_problem_solved_in_one_step():
    n = 8
    rng = np.random.default_rng(7)
    s_true = rng.standard_normal(n)
    A = IdentityOperator(n)
    pm = prior.identity_prior(n)
    nm = prior.NoiseModel(sigma=1.0, dimension=n)
    none = regparam.RegConfig(rule="none")
    rec = solve.run_iterative_solve(A, linop.EXACT, pm, nm, s_true, 5, none, s_true=s_true)
    assert rec.stop_reason == "breakdown"
    assert rec.relerr[0] <= 1e-12


def full_rank_generalized_problem(seed):
    rng = np.random.default_rng(seed)
    Amat = rng.standard_normal((20, 15))
    Qm = random_spd(15, rng, cond=5.0)
    sigma = 1.3
    b = rng.standard_normal(20)
    A = DenseOperator(Amat)
    pm = prior.PriorModel(mu=np.zeros(15), Q=DenseSPDCovariance(Qm))
    nm = prior.NoiseModel(sigma=sigma, dimension=20)
    return Amat, Qm, sigma, b, A, pm, nm


def test_full_subspace_matches_dense_oracle():
    Amat, Qm, sigma, b, A, pm, nm = full_rank_generalized_problem(8)
    rec = solve.run_iterative_solve(A, linop.EXACT, pm, nm, b, 15, regparam.RegConfig(rule="none"))
    s_ref = dense_generalized_tikhonov(Amat, Qm, sigma, b, 0.0)
    assert np.linalg.norm(rec.solution - s_ref) <= 1e-8 * np.linalg.norm(s_ref)


def test_galerkin_residual_consistency():
    Amat, Qm, sigma, b, A, pm, nm = full_rank_generalized_problem(9)
    rule = regparam.RegConfig(rule="fixed", lambda_fixed=0.4)
    rec = solve.run_iterative_solve(A, linop.EXACT, pm, nm, b, 8, rule)
    x = np.linalg.solve(Qm, rec.solution)  # x with s = Q x (mu = 0); oracle-side inverse
    full_res = Amat @ Qm @ x - b
    weighted = np.linalg.norm(full_res) / sigma
    projected = rec.proj_residual[-1]
    assert abs(weighted - projected) <= 1e-8 * max(weighted, 1.0)


def test_driver_is_deterministic():
    Amat, Qm, sigma, b, A, pm, nm = full_rank_generalized_problem(10)
    rule = regparam.RegConfig(rule="none")
    r1 = solve.run_iterative_solve(A, linop.EXACT, pm, nm, b, 6, rule)
    r2 = solve.run_iterative_solve(A, linop.EXACT, pm, nm, b, 6, rule)
    np.testing.assert_array_equal(r1.solution, r2.solution)
    assert r1.lambdas == r2.lambdas
    assert r1.proj_residual == r2.proj_residual


def test_degenerate_adjoint_of_rhs_is_input_error():
    # A^T b = 0 with b != 0: no Krylov column exists, so the driver reports bad input
    A = DenseOperator(np.diag([1.0, 0.0]))
    b = np.array([0.0, 1.0])
    with pytest.raises(DegenerateInputError):
        solve.run_iterative_solve(A, linop.EXACT, prior.identity_prior(2),
                                  prior.NoiseModel(sigma=1.0, dimension=2), b, 3,
                                  regparam.RegConfig(rule="none"))


def test_driver_rejects_zero_iterations():
    _, _, _, b, A, pm, nm = full_rank_generalized_problem(11)
    with pytest.raises(DimensionError):
        solve.run_iterative_solve(A, linop.EXACT, pm, nm, b, 0, regparam.RegConfig(rule="none"))
