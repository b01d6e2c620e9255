from dataclasses import asdict

import numpy as np
import pytest

from igenkrylov import bidiag, linop, prior, tomo
from igenkrylov.errors import BreakdownSignal, DegenerateInputError, NumericalError

from conftest import DenseOperator, DenseSPDCovariance, IdentityOperator, gk_decompose, random_spd


def identity_setting(m, n):
    return prior.identity_prior(n), prior.NoiseModel(sigma=1.0, dimension=m)


def generalized_setting(m, n, seed, cond=8.0):
    rng = np.random.default_rng(seed)
    Q = DenseSPDCovariance(random_spd(n, rng, cond=cond))
    pm = prior.PriorModel(mu=np.zeros(n), Q=Q)
    nm = prior.NoiseModel(sigma=1.0 + rng.random(), dimension=m)
    return pm, nm


def basis_sign_distance(B1, B2):
    """Max column distance after aligning signs."""
    k = min(B1.shape[1], B2.shape[1])
    worst = 0.0
    for j in range(k):
        d = min(
            np.linalg.norm(B1[:, j] - B2[:, j]),
            np.linalg.norm(B1[:, j] + B2[:, j]),
        )
        worst = max(worst, d)
    return worst


def test_init_euclidean_norm():
    m = 6
    b = np.zeros(m)
    b[0], b[1] = 3.0, 4.0
    pm, nm = identity_setting(m, 4)
    A = DenseOperator(np.random.default_rng(0).standard_normal((m, 4)))
    state = bidiag.igenGK_init(A, linop.EXACT, pm, nm, b)
    assert state.beta1 == pytest.approx(5.0, rel=1e-15)
    np.testing.assert_allclose(state.U[:, 0], b / 5.0, rtol=1e-15)


def test_init_weighted_norm():
    m = 6
    b = np.zeros(m)
    b[0], b[1] = 3.0, 4.0
    pm = prior.identity_prior(4)
    nm = prior.NoiseModel(sigma=2.0, dimension=m)
    A = DenseOperator(np.random.default_rng(0).standard_normal((m, 4)))
    state = bidiag.igenGK_init(A, linop.EXACT, pm, nm, b)
    assert state.beta1 == pytest.approx(2.5, rel=1e-15)
    np.testing.assert_allclose(state.U[:, 0], b / 2.5, rtol=1e-15)


def test_init_matches_classic_start():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((9, 7))
    b = rng.standard_normal(9)
    A = DenseOperator(mat)
    pm, nm = identity_setting(9, 7)
    state = bidiag.igenGK_init(A, linop.EXACT, pm, nm, b)
    u1 = b / np.linalg.norm(b)
    v1 = mat.T @ u1
    v1 /= np.linalg.norm(v1)
    assert np.linalg.norm(state.U[:, 0] - u1) <= 1e-14
    assert np.linalg.norm(state.V[:, 0] - v1) <= 1e-14


def test_init_rejects_zero_rhs():
    A = DenseOperator(np.eye(3))
    pm, nm = identity_setting(3, 3)
    with pytest.raises(DegenerateInputError):
        bidiag.igenGK_init(A, linop.EXACT, pm, nm, np.zeros(3))


def test_init_rejects_overflowing_normalization():
    # ||A^T b||^2 overflows to inf, which must not normalize v1 to zero.
    A = DenseOperator(np.full((3, 2), 1e200))
    pm, nm = identity_setting(3, 2)
    with pytest.raises(NumericalError):
        bidiag.igenGK_init(A, linop.EXACT, pm, nm, np.ones(3))


def test_engine_matches_two_term_oracle():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((10, 8))
    b = rng.standard_normal(10)
    A = DenseOperator(mat)
    pm, nm = identity_setting(10, 8)
    state, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, b, 5)
    oracle = gk_decompose(A, b, 5)
    assert np.max(np.abs(state.M - oracle.M[:6, :5])) <= 1e-12
    assert basis_sign_distance(state.U, oracle.U) <= 1e-10
    assert basis_sign_distance(state.V, oracle.V) <= 1e-10


# (rows, columns) of each case: a wide A fills the U side first, a tall one
# the V side, so the recurrence breaks down on that side at step min(m, n).
STEP_CASES = {
    "exact": (12, 9),
    "gaussian-entry": (12, 9),
    "u-breakdown": (3, 5),
    "v-breakdown": (5, 3),
}


@pytest.mark.parametrize("case", list(STEP_CASES))
def test_each_step_is_a_leading_block_of_the_run(case):
    """A step only appends to M and Z: after every step of an init/step loop,
    M and Z equal, bit for bit, the leading blocks of the final state of
    ``igenGK_run``, so a solve can select lambda after the decomposition."""
    m, n = STEP_CASES[case]
    rng = np.random.default_rng(12)
    A = DenseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    pm, nm = generalized_setting(m, n, seed=13)
    inexact = linop.EXACT
    if case == "gaussian-entry":
        inexact = linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=14)
    steps = 6

    state = bidiag.igenGK_init(A, inexact, pm, nm, b)
    copies = []
    for _ in range(steps):
        try:
            bidiag.igenGK_step(state, A, inexact, pm, nm)
        except BreakdownSignal:
            pass
        copies.append((state.M.copy(), state.Z.copy()))
        if state.terminated:
            break

    final, reason = bidiag.igenGK_run(A, inexact, pm, nm, b, steps)
    assert reason == ("breakdown" if case.endswith("breakdown") else "max_iter")
    assert len(copies) == final.k == min(steps, m, n)
    # A U-side breakdown commits M square; otherwise M has a row more.
    assert final.M.shape == (final.k + (case != "u-breakdown"), final.k)
    assert final.Z.shape[1] == (final.k if case.endswith("breakdown") else final.k + 1)
    for k, (M, Z) in enumerate(copies, start=1):
        assert M.shape[1] == k
        np.testing.assert_array_equal(M, final.M[: M.shape[0], :k])
        np.testing.assert_array_equal(Z, final.Z[:, : Z.shape[1]])


def test_inexact_zero_beta_reduces_bitwise():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((12, 9))
    b = rng.standard_normal(12)
    A = DenseOperator(mat)
    pm, nm = generalized_setting(12, 9, seed=4)
    zero_err = linop.InexactnessModel(mode="gaussian-entry", beta=0.0, seed=5)
    s1, _ = bidiag.igenGK_run(A, zero_err, pm, nm, b, 6)
    s2, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, b, 6)
    np.testing.assert_array_equal(s1.U, s2.U)
    np.testing.assert_array_equal(s1.V, s2.V)
    np.testing.assert_array_equal(s1.M, s2.M)


def test_reduction_chain_to_classic_gk():
    # engine with identity prior/noise and no errors == classic reorthogonalized GK
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        mat = rng.standard_normal((20, 15))
        b = rng.standard_normal(20)
        A = DenseOperator(mat)
        pm, nm = identity_setting(20, 15)
        eng, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, b, 8)
        gk = gk_decompose(A, b, 8, reorthogonalize=True)
        assert basis_sign_distance(eng.U, gk.U) <= 1e-10
        assert basis_sign_distance(eng.V, gk.V) <= 1e-10
        assert np.max(np.abs(np.abs(eng.M) - np.abs(gk.M[:9, :8]))) <= 1e-10


def test_gk_identity_operator_breaks_down_immediately():
    A = IdentityOperator(5)
    b = np.zeros(5)
    b[0] = 1.0
    state = gk_decompose(A, b, 4)
    assert state.terminated
    assert state.U.shape == (5, 1)
    assert state.V.shape == (5, 1)
    np.testing.assert_allclose(state.M, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(state.U[:, 0], b)


def test_gk_recurrence_residuals_without_reorthogonalization():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((12, 10))
    b = rng.standard_normal(12)
    A = DenseOperator(mat)
    state = gk_decompose(A, b, 6, reorthogonalize=False)
    k = 6
    AV = mat @ state.V[:, :k]
    lhs = np.linalg.norm(AV - state.U[:, : k + 1] @ state.M[: k + 1, :k])
    assert lhs <= 1e-12 * np.linalg.norm(AV)
    # adjoint relation: A^T U_{k+1} = V_k B_k^T + alpha_{k+1} v_{k+1} e_{k+1}^T
    AtU = mat.T @ state.U[:, : k + 1]
    rhs = state.V[:, :k] @ state.M[: k + 1, :k].T
    rhs[:, k] += state.C[k, k] * state.V[:, k]
    assert np.linalg.norm(AtU - rhs) <= 1e-10 * np.linalg.norm(AtU)


def test_gk_ritz_value_approximates_dominant_singular_value():
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    svals = np.concatenate([[10.0, 1.0], np.geomspace(0.9, 0.01, 18)])
    mat = u[:, :20] @ np.diag(svals) @ v.T
    A = DenseOperator(mat)
    state = gk_decompose(A, rng.standard_normal(30), 10)
    ritz = np.linalg.svd(state.M, compute_uv=False)
    assert abs(ritz[0] - 10.0) <= 0.01 * 10.0
    full = np.linalg.svd(mat, compute_uv=False)
    assert ritz[0] <= full[0] * (1 + 1e-12)  # interlacing from below


def test_weighted_orthogonality_invariants():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((25, 18))
    b = rng.standard_normal(25)
    A = DenseOperator(mat)
    pm, nm = generalized_setting(25, 18, seed=9)
    state, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, b, 10)
    rep = bidiag.relation_diagnostics(state, A, pm, nm)
    assert rep.err_Vorth <= 1e-10
    assert rep.err_Uorth <= 1e-10
    assert rep.err_adjoint <= 1e-10
    assert rep.err_forward <= 1e-10


def test_hessenberg_and_triangular_structure_exact():
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    A = DenseOperator(mat)
    pm, nm = generalized_setting(15, 12, seed=11)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=12)
    state, _ = bidiag.igenGK_run(A, model, pm, nm, b, 7)
    M, C = state.M, state.C
    for j in range(M.shape[0]):
        for i in range(M.shape[1]):
            if j > i + 1:
                assert M[j, i] == 0.0
    for j in range(C.shape[0]):
        for i in range(C.shape[1]):
            if j > i:
                assert C[j, i] == 0.0


def test_exact_modes_numerically_bidiagonal():
    rng = np.random.default_rng(13)
    mat = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    A = DenseOperator(mat)
    pm, nm = generalized_setting(15, 12, seed=14)
    state, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, b, 7)
    scale = np.linalg.norm(state.M)
    for i in range(state.M.shape[1]):
        for j in range(i):
            assert abs(state.M[j, i]) <= 1e-8 * scale


@pytest.mark.parametrize("beta", [0.0, 1e-3])
def test_z_is_q_times_v(beta):
    # gengk (exact products) and igengk (inexact products) keep Z = Q V
    rng = np.random.default_rng(15)
    mat = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    A = DenseOperator(mat)
    pm, nm = generalized_setting(15, 12, seed=16)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=17)
    state, reason = bidiag.igenGK_run(A, model, pm, nm, b, 6)
    assert reason == "max_iter"
    assert state.Z.shape == state.V.shape == (12, 7)
    for j in range(7):
        ref = pm.Q.mat @ state.V[:, j]
        assert np.linalg.norm(state.Z[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_z_is_v_under_identity_prior():
    rng = np.random.default_rng(22)
    A = DenseOperator(rng.standard_normal((15, 12)))
    pm, nm = identity_setting(15, 12)
    state, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, rng.standard_normal(15), 6)
    np.testing.assert_array_equal(state.Z, state.V)


def test_diagnostics_do_not_read_z():
    rng = np.random.default_rng(18)
    mat = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    A = DenseOperator(mat)
    pm, nm = generalized_setting(15, 12, seed=19)
    state, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, b, 6)
    before = asdict(bidiag.relation_diagnostics(state, A, pm, nm))
    state.Z[:] = 0.0
    after = asdict(bidiag.relation_diagnostics(state, A, pm, nm))
    assert after == before


def test_basis_buffers_grow_without_moving_columns():
    rng = np.random.default_rng(20)
    steps = 2 * bidiag.INITIAL_CAPACITY + 3
    mat = rng.standard_normal((3 * steps, 2 * steps))
    b = rng.standard_normal(3 * steps)
    A = DenseOperator(mat)
    pm, nm = generalized_setting(3 * steps, 2 * steps, seed=21)
    state = bidiag.igenGK_init(A, linop.EXACT, pm, nm, b)
    first = None
    for k in range(1, steps + 1):
        bidiag.igenGK_step(state, A, linop.EXACT, pm, nm)
        assert state.k == k
        for basis, n in ((state.U, 3 * steps), (state.V, 2 * steps), (state.Z, 2 * steps)):
            assert basis.shape == (n, k + 1)
        if k + 1 == bidiag.INITIAL_CAPACITY:  # buffers full: the next step grows them
            first = [basis.copy() for basis in (state.U, state.V, state.Z)]
    cols = bidiag.INITIAL_CAPACITY
    for kept, basis in zip(first, (state.U, state.V, state.Z)):
        np.testing.assert_array_equal(basis[:, :cols], kept)


@pytest.fixture(scope="module")
def small_ct_problem():
    n = 32
    geom = tomo.CTGeometry(n=n, angles=tomo.default_angles(count=12, step=15.0))
    A = tomo.RadonOperator(geom)
    s_true = tomo.make_phantom(n)
    d, _ = tomo.synthesize_observation(geom, s_true, 0.04, seed=77)
    kern = prior.MaternKernel(nu=1.5, alpha=100.0)
    Q = prior.CovarianceOperator(prior.Grid((n, n)), kern)
    pm = prior.PriorModel(mu=np.zeros(n * n), Q=Q)
    nm = prior.NoiseModel(sigma=1.0, dimension=geom.nrows)
    return A, pm, nm, d


def test_ct_orthogonality_with_inexact_products(small_ct_problem):
    A, pm, nm, d = small_ct_problem
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-2, seed=77)
    state, _ = bidiag.igenGK_run(A, model, pm, nm, d, 25)
    rep = bidiag.relation_diagnostics(state, A, pm, nm)
    assert rep.err_Vorth <= 1e-12
    assert rep.err_Uorth <= 1e-12


def test_ct_relation_errors_scale_linearly(small_ct_problem):
    A, pm, nm, d = small_ct_problem
    errs = {}
    for beta in (1e-2, 1e-4):
        model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=78)
        state, _ = bidiag.igenGK_run(A, model, pm, nm, d, 20)
        errs[beta] = bidiag.relation_diagnostics(state, A, pm, nm)
    ratio_adj = errs[1e-2].err_adjoint / errs[1e-4].err_adjoint
    ratio_fwd = errs[1e-2].err_forward / errs[1e-4].err_forward
    assert abs(ratio_adj / 100.0 - 1.0) <= 0.10
    assert abs(ratio_fwd / 100.0 - 1.0) <= 0.10
    assert 1e-3 <= errs[1e-2].err_forward <= 1e-1


def test_exact_relations_at_rounding_level(small_ct_problem):
    A, pm, nm, d = small_ct_problem
    state, _ = bidiag.igenGK_run(A, linop.EXACT, pm, nm, d, 15)
    rep = bidiag.relation_diagnostics(state, A, pm, nm)
    assert rep.err_adjoint <= 1e-10
    assert rep.err_forward <= 1e-10


def test_breakdown_leaves_state_solvable():
    # engine on the identity problem: terminal square commit at step 1
    A = IdentityOperator(4)
    b = np.zeros(4)
    b[1] = 2.0
    pm, nm = identity_setting(4, 4)
    state = bidiag.igenGK_init(A, linop.EXACT, pm, nm, b)
    with pytest.raises(BreakdownSignal):
        bidiag.igenGK_step(state, A, linop.EXACT, pm, nm)
    assert state.terminated
    assert state.M.shape == (1, 1)
    assert state.M[0, 0] == pytest.approx(1.0, rel=1e-14)
