import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igenkrylov import bidiag, config, harness, regparam, solve
from igenkrylov.config import RegConfig
from igenkrylov.errors import ConfigError


def make_prob(M, beta1=1.0):
    return solve.ProjectedProblem(M=np.asarray(M, dtype=float), beta1=beta1)


def select_optimal(prob, Z, s_true):
    """The oracle rule's lambda, from the ``OracleError`` of Z."""
    return regparam.select_lambda_optimal(prob, regparam.OracleError(s_true, Z))


def scalar_toy():
    """M = [[1],[0]], beta1 = 1: y(lam) = 1/(1+lam^2), residual = lam^2/(1+lam^2)."""
    return make_prob([[1.0], [0.0]], 1.0)


def gcv_reference(M, beta1, lam, omega=1.0):
    """WGCV value from the explicit matrix formula (independent of the SVD path)."""
    rows, cols = M.shape
    e1 = np.zeros(rows)
    e1[0] = beta1
    inner = np.linalg.inv(M.T @ M + lam * lam * np.eye(cols))
    y = inner @ (M.T @ e1)
    num = np.linalg.norm(M @ y - e1) ** 2
    trace = np.trace(np.eye(rows) - omega * M @ inner @ M.T)
    return num / trace**2


def test_rule_validation():
    with pytest.raises(ConfigError):
        RegConfig(rule="fixed")
    with pytest.raises(ConfigError):
        RegConfig(rule="wgcv", omega=0.0)
    with pytest.raises(ConfigError):
        RegConfig(rule="nope")


@pytest.mark.parametrize(
    "fields",
    [
        {"rule": "nope"},
        {"rule": "fixed"},
        {"rule": "wgcv", "omega": 0.0},
        {"rule": "wgcv", "omega_mode": "sometimes"},
        {"rule": "dp", "nu_dp": 0.0},
    ],
)
def test_config_and_rule_share_checks(fields):
    assert RegConfig is regparam.RegConfig
    with pytest.raises(ConfigError):
        RegConfig(**fields)


@pytest.mark.parametrize("kind", regparam.RULES)
def test_every_rule_name_dispatches(kind):
    rng = np.random.default_rng(10)
    prob = make_prob(rng.standard_normal((7, 6)), 1.2)
    V = rng.standard_normal((9, 6))
    rule = RegConfig(rule=kind, lambda_fixed=0.3)
    choose = rule.chooser(V, 0.4, rng.standard_normal(9))
    lam = choose(prob)
    assert np.isfinite(lam) and lam >= 0.0


def test_adaptive_wgcv_averages_suggestions():
    rng = np.random.default_rng(11)
    probs = [make_prob(rng.standard_normal((k + 1, k)), 1.0) for k in (3, 4, 5)]
    rule = RegConfig(rule="wgcv", omega_mode="adaptive")
    choose = rule.chooser(np.zeros((5, 5)), None, np.ones(5))
    for i, prob in enumerate(probs):
        lam = choose(prob)
        expected = float(np.mean([regparam.suggest_omega(p) for p in probs[: i + 1]]))
        assert lam == regparam.select_lambda_wgcv(prob, expected)


def test_dp_closed_form_residual_matches_explicit():
    rng = np.random.default_rng(12)
    for rows, cols in ((7, 6), (12, 9), (4, 1)):
        prob = make_prob(rng.standard_normal((rows, cols)), 1.7)
        for lam in np.concatenate([[0.0], regparam._lambda_grid(prob)]):
            closed = np.sqrt(prob.residual_norm2(prob.filters(lam)))
            explicit = solve.projected_tikhonov(prob, lam)[1]
            assert abs(closed - explicit) <= 1e-10 * explicit


def test_dp_closed_form_root():
    prob = scalar_toy()
    lam = regparam.select_lambda_dp(prob, 0.5)
    y, _ = solve.projected_tikhonov(prob, lam)
    assert lam == pytest.approx(1.0, abs=1e-4)
    assert y[0] == pytest.approx(0.5, abs=1e-4)


def test_dp_zero_target_consistent_system():
    prob = scalar_toy()
    lam = regparam.select_lambda_dp(prob, 0.0)
    assert lam <= regparam.GRID_FLOOR_RTOL * prob.sigma_max
    assert solve.projected_tikhonov(prob, lam)[1] <= 1e-6


def dp_warnings(caplog, prob, target):
    """``select_lambda_dp(prob, target)`` and the number of warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="igenkrylov.regparam"):
        lam = regparam.select_lambda_dp(prob, target)
    return lam, len(caplog.records)


def test_dp_saturations(caplog):
    """Each saturation logs one warning; an interior root logs none. A
    singular value 1e-11 sigma_max moves the residual between lambda = 0 and
    the grid floor, and a target inside that move returns the floor, unlogged."""
    prob = make_prob([[1.0], [0.7]], 1.0)  # residual(0) = 0.7/norm... nonzero floor
    floor = solve.projected_tikhonov(prob, 0.0)[1]
    assert dp_warnings(caplog, prob, floor / 2.0) == (0.0, 1)
    top = regparam._lambda_grid(prob)[-1]
    assert dp_warnings(caplog, prob, 2.0) == (top, 1)  # above ||beta1 e1||
    lam, warnings = dp_warnings(caplog, prob, 0.5 * (floor + prob.beta1))
    assert 0.0 < lam < top and warnings == 0

    rng = np.random.default_rng(13)
    U, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    prob = make_prob(U @ np.diag([1.0, 1e-11]) @ V.T)
    lam_floor = regparam._lambda_grid(prob)[0]
    r0, r_floor = (np.sqrt(prob.residual_norm2(prob.filters(lam))) for lam in (0.0, lam_floor))
    assert r_floor > r0 * (1.0 + 1e-6)
    assert dp_warnings(caplog, prob, 0.5 * (r0 + r_floor)) == (lam_floor, 0)


def test_dp_root_matches_dense_oracle():
    """Every interior root of a graded M meets its target to 1e-6 relative, at
    the point of a dense grid whose explicitly formed residual is nearest it."""
    dense = np.geomspace(regparam.GRID_FLOOR_RTOL, regparam.GRID_TOP_FACTOR, 20000)
    for seed in range(40):
        rng = np.random.default_rng(seed)
        prob = make_prob(synthetic_oracle_case(seed, "random")[0], 10.0 ** rng.uniform(-1, 1))
        r0 = solve.projected_tikhonov(prob, 0.0)[1]
        target = r0 + rng.uniform(0.05, 0.95) * (prob.beta1 - r0)
        lam = regparam.select_lambda_dp(prob, target)
        assert 0.0 < lam < regparam._lambda_grid(prob)[-1], seed
        assert abs(solve.projected_tikhonov(prob, lam)[1] / target - 1.0) <= 1e-6, seed
        grid = dense * prob.sigma_max
        R = ((prob.filters(grid).gain * prob.bhat) @ prob.Vt) @ prob.M.T
        R[:, 0] -= prob.beta1
        lam_grid = grid[int(np.argmin(np.abs(np.linalg.norm(R, axis=1) - target)))]
        assert abs(np.log10(lam) - np.log10(lam_grid)) <= 2e-3, seed


def test_dp_residual_evaluations_per_iteration(monkeypatch):
    """An interior root takes six closed-form residuals (lambda = 0, the grid
    and four refinement rounds), so a run of mostly interior roots makes at
    most six per iteration."""
    cfg = config.config_from_dict(
        {"mode": "gengk", "geometry": {"n": 16}, "inexactness": {"mode": "none"},
         "reg": {"rule": "dp"}, "max_iter": 20, "seed": 1234}
    )
    evals = []
    residual_norm2 = solve.ProjectedProblem.residual_norm2

    def counted(prob, filt):
        evals.append(1)
        return residual_norm2(prob, filt)

    monkeypatch.setattr(solve.ProjectedProblem, "residual_norm2", counted)
    rec = harness.run_reconstruction(cfg, harness.build_problem(cfg))
    assert rec.iterations == 20
    assert sum(row.lam > 0.0 for row in rec.history) >= 10  # mostly interior roots
    assert len(evals) <= 6 * rec.iterations


@pytest.mark.parametrize(
    "reg",
    [
        {"rule": "none"},
        {"rule": "fixed", "lambda_fixed": 0.3},
        {"rule": "optimal"},
        {"rule": "dp"},
        {"rule": "wgcv", "omega_mode": "adaptive"},
    ],
)
def test_one_projected_solve_per_iteration(monkeypatch, reg):
    """A rule returns lambda; the driver alone makes the iteration's projected solve."""
    cfg = config.config_from_dict(
        {"mode": "igengk", "geometry": {"n": 16}, "reg": reg, "max_iter": 6, "seed": 5}
    )
    calls = []
    projected_tikhonov = solve.projected_tikhonov

    def counted(prob, lam):
        calls.append(lam)
        return projected_tikhonov(prob, lam)

    monkeypatch.setattr(solve, "projected_tikhonov", counted)
    monkeypatch.setattr(regparam, "projected_tikhonov", counted)
    rec = harness.run_reconstruction(cfg, harness.build_problem(cfg))
    assert rec.iterations == 6
    assert len(calls) == rec.iterations
    assert calls == [row.lam for row in rec.history]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_dp_residual_monotone(seed):
    rng = np.random.default_rng(seed)
    prob = make_prob(rng.standard_normal((7, 5)), 1.0)
    lams = np.geomspace(1e-9, 1e3, 30)
    res = [solve.projected_tikhonov(prob, lam)[1] for lam in lams]
    assert np.all(np.diff(res) >= -1e-12)


def test_optimal_analytic_scalar_minimizer():
    prob = scalar_toy()
    V = np.array([[1.0]])
    s_true = np.array([0.5])  # s(lam) = 1/(1+lam^2) -> minimizer at lam = 1
    lam = select_optimal(prob, V, s_true)
    assert lam == pytest.approx(1.0, abs=2e-4)
    # dense grid oracle
    grid = np.geomspace(1e-6, 1e3, 20000)
    f = (1.0 / (1.0 + grid**2) - 0.5) ** 2
    assert abs(lam - grid[np.argmin(f)]) <= 1e-3


def test_optimal_noiseless_prefers_floor():
    rng = np.random.default_rng(1)
    prob = make_prob(rng.standard_normal((6, 5)), 1.0)
    V = rng.standard_normal((9, 5))
    y0, _ = solve.projected_tikhonov(prob, 0.0)
    s_true = solve.recover_solution(V, y0)
    lam = select_optimal(prob, V, s_true)
    y, _ = solve.projected_tikhonov(prob, lam)
    f_sel = np.linalg.norm(solve.recover_solution(V, y) - s_true) ** 2
    f0 = np.linalg.norm(solve.recover_solution(V, y0) - s_true) ** 2
    # f is flat at rounding level for tiny lambda; "floor" means negligible regularization
    assert lam <= 1e-6 * prob.sigma_max
    assert f_sel <= f0 + 1e-10


def test_optimal_floor_resolved_when_truth_in_range():
    """s_true = Z y(0): the error vanishes at lambda -> 0 and must not drown in rounding."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 9))
        prob = make_prob(rng.standard_normal((k + 1, k)), 1.0)
        Z = rng.standard_normal((12, k))
        s_true = solve.recover_solution(Z, solve.projected_tikhonov(prob, 0.0)[0])
        lam = select_optimal(prob, Z, s_true)
        assert lam <= 1e-6 * prob.sigma_max, seed


def test_optimal_beats_every_grid_point():
    rng = np.random.default_rng(2)
    prob = make_prob(rng.standard_normal((8, 6)), 1.0)
    V = rng.standard_normal((12, 6))
    s_true = rng.standard_normal(12)
    lam = select_optimal(prob, V, s_true)

    def f(la):
        yy, _ = solve.projected_tikhonov(prob, la)
        return np.linalg.norm(solve.recover_solution(V, yy) - s_true) ** 2

    fsel = f(lam)
    for la in regparam._lambda_grid(prob):
        assert fsel <= f(la) * (1 + 1e-12)


def oracle_error(s_true, Z, prob):
    """The full oracle error as a function of lambda: ``OracleError.error_terms``
    plus the constant ||s_true||^2 - e_k^T e_k that it leaves out."""
    oracle = regparam.OracleError(s_true, Z)
    d = -s_true
    e = oracle.e[: prob.M.shape[1]]
    const = float(np.dot(d, d)) - float(np.dot(e, e))
    terms = oracle.error_terms(prob)
    return lambda lam: const + terms(lam)[0]


def shifted_truth(n, rng):
    """A truth s - mu: the error of mu + Z y against s is that of Z y against s - mu,
    so this truth, generally outside range(Z), stands for a nonzero prior mean."""
    mu = rng.standard_normal(n)
    return rng.standard_normal(n) - mu


def test_gram_oracle_error_matches_explicit_error():
    rng = np.random.default_rng(20)
    prob = make_prob(rng.standard_normal((9, 8)), 1.6)
    Z = rng.standard_normal((40, 8))
    s_true = shifted_truth(40, rng)
    error = oracle_error(s_true, Z, prob)
    for lam in regparam._lambda_grid(prob):
        y, _ = solve.projected_tikhonov(prob, lam)
        explicit = np.linalg.norm(solve.recover_solution(Z, y) - s_true) ** 2
        assert error(lam) == pytest.approx(explicit, rel=1e-10)


def test_grid_objectives_match_scalar_evaluations():
    rng = np.random.default_rng(21)
    prob = make_prob(rng.standard_normal((8, 7)), 1.2)
    grid = regparam._lambda_grid(prob)
    error = oracle_error(shifted_truth(30, rng), rng.standard_normal((30, 7)), prob)
    np.testing.assert_allclose(error(grid), [error(lam) for lam in grid], rtol=1e-12)
    for omega in (1.0, 0.4):
        wgcv = regparam.wgcv_value(prob, grid, omega)
        scalar = [regparam.wgcv_value(prob, lam, omega) for lam in grid]
        np.testing.assert_allclose(wgcv, scalar, rtol=1e-12)


def test_leading_gram_blocks_select_from_scratch_lambda():
    """Across a real igengk run of 16 iterations.

    Iteration k reads the leading block of the one QR factor R of [Z, d]
    taken from the final Z. Its block R_k and the k entries e_k satisfy
    R_k^T R_k = Z_k^T Z_k and R_k^T e_k = Z_k^T d to rounding, and the lambdas
    selected from them and from the factor of Z_k alone agree, also where the
    error is flat to rounding (far below sigma_min(M)): ties there go to the
    largest lambda within the rounding bound.
    """
    cfg = config.config_from_dict(
        {"mode": "igengk", "geometry": {"n": 16}, "reg": {"rule": "optimal"}, "seed": 3}
    )
    problem = harness.build_problem(cfg)
    args = (problem.A, harness.inexactness_for(cfg), problem.prior, problem.noise)
    iterations = 16
    state = bidiag.igenGK_run(*args, problem.b, iterations)
    assert state.k == iterations
    oracle = regparam.OracleError(problem.s_true, state.Z[:, : state.k])
    d = -problem.s_true

    def error(prob, Z, lam):
        y, _ = solve.projected_tikhonov(prob, lam)
        return np.linalg.norm(solve.recover_solution(Z, y) - problem.s_true)

    for k in range(1, iterations + 1):
        prob = solve.ProjectedProblem(M=state.M[: k + 1, :k], beta1=state.beta1)
        Zk = state.Z[:, :k]
        lam = regparam.select_lambda_optimal(prob, oracle)
        scratch = select_optimal(prob, Zk, problem.s_true)
        Rk, ek = oracle.R[:k, :k], oracle.e[:k]
        G = Zk.T @ Zk
        assert np.linalg.norm(Rk.T @ Rk - G) <= 1e-12 * np.linalg.norm(G)
        assert np.linalg.norm(Rk.T @ ek - Zk.T @ d) <= 1e-12 * np.linalg.norm(Zk.T @ d)
        assert error(prob, Zk, lam) == pytest.approx(error(prob, Zk, scratch), rel=1e-12)
        assert lam == pytest.approx(scratch, rel=1e-8)


def perturbed(A, rng):
    """A with every entry changed by about one unit roundoff, relative."""
    return A * (1.0 + np.finfo(float).eps * rng.standard_normal(A.shape))


def synthetic_oracle_case(seed, truth):
    """M with singular values spread over up to four decades, Z and s_true.

    ``truth`` is "random" (s_true unrelated to Z; the minimum is inside the
    grid or at its top), "near" (s_true close to Z y(0)) or "in-range"
    (Z y(0) plus standard normal noise); the last two often put the minimum
    at lambda -> 0, below a stretch where the error is flat to rounding.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 12))
    U, _ = np.linalg.qr(rng.standard_normal((k + 1, k)))
    V, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 4), k) * 10.0 ** rng.uniform(-3, 3)
    M = U @ np.diag(s) @ V.T
    Z = rng.standard_normal((40, k))
    y0, _ = solve.projected_tikhonov(make_prob(M), 0.0)
    if truth == "random":
        s_true = rng.standard_normal(40) * np.linalg.norm(Z @ y0) / np.sqrt(40)
    elif truth == "near":
        s_true = Z @ (y0 * (1 + 1e-3 * rng.standard_normal(k))) + 1e-2 * rng.standard_normal(40)
    else:
        s_true = Z @ y0 + rng.standard_normal(40)
    return M, Z, s_true


def oracle_error_explicit(M, Z, s_true, lam):
    y, _ = solve.projected_tikhonov(make_prob(M), lam)
    return np.linalg.norm(solve.recover_solution(Z, y) - s_true) ** 2


def test_selected_lambda_survives_rounding_level_perturbations():
    """Z and M changed at rounding level leave lambda unchanged to 1e-8 relative.

    Far below sigma_min(M) the oracle error is flat to rounding, and ties go
    to the largest lambda within the rounding bound. The flat cases, where
    the error is smallest at the grid floor but lambda is far above it, with
    an error larger by a rounding-level amount (many of the "near" and
    "in-range" ones, and the early iterations of a real run), are covered as
    well as minima at the top of the grid and inside it; WGCV and the
    discrepancy principle, at three targets between the residuals at lambda = 0
    and at infinity, are checked on the same matrices.
    """
    cases = [
        synthetic_oracle_case(seed, truth)
        for truth in ("random", "near", "in-range")
        for seed in range(12)
    ]
    flat = 0
    for M, Z, s_true in cases:
        lam = select_optimal(make_prob(M), Z, s_true)
        lam_wgcv = regparam.select_lambda_wgcv(make_prob(M), 1.0)
        prob = make_prob(M)
        r0 = np.sqrt(prob.residual_norm2(prob.filters(0.0)))
        targets = [r0 + f * (prob.beta1 - r0) for f in (0.1, 0.5, 0.9)]
        lams_dp = [regparam.select_lambda_dp(prob, t) for t in targets]
        floor = regparam._lambda_grid(prob)[0]
        errors = [oracle_error_explicit(M, Z, s_true, la) for la in (floor, lam)]
        flat += lam > 1e3 * floor and 0.0 <= errors[1] - errors[0] <= 1e-8 * errors[0]
        rng = np.random.default_rng(M.size)
        for _ in range(2):
            M2, Z2 = perturbed(M, rng), perturbed(Z, rng)
            lam2 = select_optimal(make_prob(M2), Z2, s_true)
            assert lam2 == pytest.approx(lam, rel=1e-8)
            assert regparam.select_lambda_wgcv(make_prob(M2), 1.0) == pytest.approx(lam_wgcv, rel=1e-8)
            for target, lam_dp in zip(targets, lams_dp):
                lam2 = regparam.select_lambda_dp(make_prob(M2), target)
                assert lam2 == pytest.approx(lam_dp, rel=1e-8)
    assert flat >= 6

    cfg = config.config_from_dict(
        {"mode": "igengk", "geometry": {"n": 16}, "reg": {"rule": "optimal"}, "seed": 3}
    )
    problem = harness.build_problem(cfg)
    args = (problem.A, harness.inexactness_for(cfg), problem.prior, problem.noise)
    state = bidiag.igenGK_init(problem.A, problem.prior, problem.noise, problem.b, 12)
    rng = np.random.default_rng(4)
    for _ in range(12):
        bidiag.igenGK_step(state, *args)
        M, Z = state.M, state.Z[:, : state.k]
        lam = select_optimal(make_prob(M), Z, problem.s_true)
        M2, Z2 = perturbed(M, rng), perturbed(Z, rng)
        lam2 = select_optimal(make_prob(M2), Z2, problem.s_true)
        assert lam2 == pytest.approx(lam, rel=1e-8)


def rank_deficient_basis_errors(seed, truth):
    """The oracle error at the selected lambda and the smallest on a 4,000-point grid,
    for ``synthetic_oracle_case(seed, truth)`` with one column of Z duplicated to
    1e-15 relative, which makes Z numerically rank deficient (a diagonal entry of
    its R factor at rounding level)."""
    M, Z, s_true = synthetic_oracle_case(seed, truth)
    rng = np.random.default_rng(seed)
    i, j = rng.choice(Z.shape[1], 2, replace=False)
    Z[:, j] = Z[:, i] * (1.0 + 1e-15 * rng.standard_normal(40))
    prob = make_prob(M)
    lam = select_optimal(prob, Z, s_true)
    grid = np.geomspace(regparam.GRID_FLOOR_RTOL, regparam.GRID_TOP_FACTOR, 4000)
    Y = (prob.filters(grid * prob.sigma_max).gain * prob.bhat) @ prob.Vt
    best = np.min(np.sum((Y @ Z.T - s_true) ** 2, axis=1))
    return oracle_error_explicit(M, Z, s_true, lam), best


def test_optimal_reaches_dense_grid_minimum_with_rank_deficient_basis():
    """With a rank-deficient Z the selected lambda still reaches the smallest
    error on a 4,000-point grid, to the 1e-8 relative within which the error
    counts as flat in test_selected_lambda_survives_rounding_level_perturbations."""
    for seed in range(40):
        error, best = rank_deficient_basis_errors(seed, ("random", "near", "in-range")[seed % 3])
        assert error <= best * (1.0 + 1e-8), seed


# Two minima, and grid-then-refine settles in the wrong one (ROADMAP item 3): the
# rule returns the grid top, 10 sigma_max, while the 4,000-point grid has a lower
# error at 1.24 sigma_max (seed 91, by 6.7e-5 relative) and 0.102 sigma_max (seed
# 120, by 1.04e-3).
WRONG_BASIN = {91, 120}


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(seed, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 3: the oracle rule settles in the wrong basin"))
        if seed in WRONG_BASIN else seed
        for seed in range(200)
    ],
)
def test_optimal_reaches_dense_grid_minimum_on_200_random_truths(seed):
    """The rank-deficient-basis check above, on 200 seeds of the "random" truth."""
    error, best = rank_deficient_basis_errors(seed, "random")
    assert error <= best * (1.0 + 1e-8)


@pytest.mark.parametrize("truth", ["random", "in-range"])
def test_one_selection_makes_at_most_six_evaluations(monkeypatch, truth):
    """The grid, then at most one call per refinement round; a flat grid
    minimum stops at once. An interior dp root also evaluates lambda = 0."""
    M, Z, s_true = synthetic_oracle_case(5, truth)
    calls = []
    original = solve.ProjectedProblem.filters

    def counted(prob, lam):
        calls.append(np.size(lam))
        return original(prob, lam)

    def count(select):
        calls.clear()
        select(make_prob(M))
        return len(calls)

    prob = make_prob(M)
    r0 = np.sqrt(prob.residual_norm2(prob.filters(0.0)))
    monkeypatch.setattr(solve.ProjectedProblem, "filters", counted)
    assert count(lambda p: select_optimal(p, Z, s_true)) <= 6
    assert calls[0] == regparam.GRID_POINTS
    assert count(lambda p: regparam.select_lambda_wgcv(p, 1.0)) <= 6
    assert count(lambda p: regparam.select_lambda_dp(p, 0.5 * (r0 + p.beta1))) == 6
    assert calls[:2] == [1, regparam.GRID_POINTS]


def test_wgcv_omega_one_is_gcv():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 5))
    prob = make_prob(M, 1.3)
    for lam in (1e-3, 0.1, 1.0, 10.0):
        got = regparam.wgcv_value(prob, lam, 1.0)
        ref = gcv_reference(M, 1.3, lam, omega=1.0)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_wgcv_matches_reference_for_omega_below_one():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((7, 5))
    prob = make_prob(M, 0.9)
    for lam in (0.05, 0.5, 5.0):
        got = regparam.wgcv_value(prob, lam, 0.6)
        ref = gcv_reference(M, 0.9, lam, omega=0.6)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_wgcv_large_lambda_limit():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 5))
    beta1 = 2.0
    prob = make_prob(M, beta1)
    limit = beta1**2 / 6**2
    val = regparam.wgcv_value(prob, 1e8 * prob.sigma_max, 1.0)
    assert val == pytest.approx(limit, rel=1e-6)


def test_wgcv_is_inf_where_the_weighted_trace_of_a_square_problem_vanishes():
    """A U-side breakdown leaves M square: at the grid floor every phi rounds
    to 1, so with omega = 1 the trace is exactly 0 and G is +inf, with no
    divide-by-zero warning."""
    prob = make_prob([[2.0]])
    assert regparam.wgcv_value(prob, regparam._lambda_grid(prob)[0], 1.0) == np.inf


def test_wgcv_selected_matches_brute_force():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((10, 9))
    prob = make_prob(M, 1.0)
    lam = regparam.select_lambda_wgcv(prob, 1.0)
    grid = np.geomspace(regparam.GRID_FLOOR_RTOL * prob.sigma_max,
                        regparam.GRID_TOP_FACTOR * prob.sigma_max, 10**4)
    vals = [regparam.wgcv_value(prob, g, 1.0) for g in grid]
    lam_grid = grid[int(np.argmin(vals))]
    cell = grid[1] / grid[0]
    assert lam_grid / cell <= lam <= lam_grid * cell


@pytest.mark.parametrize(
    "point, offset", [(20, 1.0), (20, 1.004), (20, 0.993), (20, 1.3), (0, 1e-3), (-1, 1e3)]
)
def test_refinement_reaches_the_refinement_width(point, offset):
    """A smooth minimum at ``offset`` times a grid point, also one within half
    a step of the first round from it, is found to 1e-5 relative; past
    either end of the grid the end is returned."""
    prob = make_prob([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    grid = regparam._lambda_grid(prob)
    target = grid[point] * offset

    def terms(lams):
        value = 1.0 + np.log(lams / target) ** 2
        return value, value

    lam = regparam._grid_then_refine(prob, terms)
    expected = min(max(target, grid[0]), grid[-1])
    assert abs(lam / expected - 1.0) <= 1e-5


def test_refinement_table_is_four_rounds_each_two_steps_of_the_one_before():
    """Four rounds of REFINE_POINTS points: round 1 spans two steps of
    UNIT_GRID, each later round two steps of the round before, and the last
    step is below 1e-5 relative. The arrays are, byte for byte, those of the
    construction that added rounds while a bracket was wider than 1e-5."""
    rounds = regparam.REFINE_ROUNDS
    assert len(rounds) == 4
    assert all(unit.shape == (regparam.REFINE_POINTS,) and unit[0] == 1.0 for unit in rounds)
    assert rounds[0][-1] == (regparam.UNIT_GRID[1] / regparam.UNIT_GRID[0]) ** 2
    for before, unit in zip(rounds, rounds[1:]):
        assert unit[-1] == before[2]
    assert rounds[-1][1] - 1.0 < 1e-5

    reference = []
    ratio = (regparam.UNIT_GRID[1] / regparam.UNIT_GRID[0]) ** 2
    while 1.0 - 1.0 / ratio > 1e-5:
        reference.append(np.geomspace(1.0, ratio, regparam.REFINE_POINTS))
        ratio = reference[-1][2]
    assert [unit.tobytes() for unit in rounds] == [unit.tobytes() for unit in reference]


def test_suggest_omega_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(10):
        prob = make_prob(rng.standard_normal((8, 6)), 1.0)
        om = regparam.suggest_omega(prob)
        assert 0.0 < om <= 1.0


def test_suggest_omega_falls_back_to_one():
    """omega = 1 where sigma_min(M) = 0, and where beta1 e1 is orthogonal to
    range(M), so that bhat = 0 and the residual does not move with lambda;
    adaptive WGCV then selects as WGCV at omega = 1."""
    singular = make_prob([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    orthogonal = make_prob([[0.0], [1.0]])
    assert singular.s[-1] == 0.0 and not orthogonal.bhat.any()
    assert regparam.suggest_omega(singular) == 1.0
    assert regparam.suggest_omega(orthogonal) == 1.0
    choose = RegConfig(rule="wgcv", omega_mode="adaptive").chooser(np.eye(2, 1), None, np.ones(2))
    assert choose(orthogonal) == regparam.select_lambda_wgcv(orthogonal, 1.0)


def random_projected_problem(rng):
    """M = U diag(s) V^T, (k+1)-by-k, with 0 < sigma_min <= 1, and beta1 in [0.5, 2]."""
    k = int(rng.integers(3, 9))
    U, _ = np.linalg.qr(rng.standard_normal((k + 1, k)))
    V, _ = np.linalg.qr(rng.standard_normal((k, k)))
    smin = rng.uniform(0.05, 1.0)
    s = np.geomspace(smin * rng.uniform(2.0, 1e3), smin, k)
    return (U * s) @ V.T, rng.uniform(0.5, 2.0)


def test_suggest_omega_makes_wgcv_stationary_at_sigma_min():
    """omega solves dG_omega/dlambda = 0 at lambda = sigma_min(M), clamped to 1.

    Where omega lies inside (0, 1), a central difference of G_omega at
    sigma_min vanishes relative to G / lambda. dG/dlambda falls as omega
    grows, so where omega is clamped to 1 the root lies at or above 1 and
    G_1 does not fall at sigma_min. Scaling M and beta1 together by c scales
    lambda, the residual and its derivative but leaves omega as it is; at
    c = 1e-3 that derivative is below 1.
    """
    rng = np.random.default_rng(11)
    clamped = 0
    for _ in range(40):
        M, beta1 = random_projected_problem(rng)
        prob = make_prob(M, beta1)
        omega = regparam.suggest_omega(prob)
        lam = prob.s[-1]
        h = 1e-5 * lam
        up, mid, down = regparam.wgcv_value(prob, np.array([lam + h, lam, lam - h]), omega)
        slope = (up - down) / (2.0 * h) * lam / mid
        if omega < 1.0:
            assert 0.0 < omega and abs(slope) <= 1e-8, (omega, slope)
        else:
            clamped += 1
            assert slope >= -1e-8, slope
        for c in (1e-3, 1e3):
            scaled = regparam.suggest_omega(make_prob(c * M, c * beta1))
            assert scaled == pytest.approx(omega, rel=1e-10, abs=0.0), c
    assert 0 < clamped < 40  # both branches of the law are reached


def test_rules_are_pure():
    rng = np.random.default_rng(8)
    prob = make_prob(rng.standard_normal((7, 6)), 1.1)
    assert regparam.select_lambda_dp(prob, 0.4) == regparam.select_lambda_dp(prob, 0.4)
    assert regparam.select_lambda_wgcv(prob, 1.0) == regparam.select_lambda_wgcv(prob, 1.0)
