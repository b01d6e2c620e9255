import tracemalloc

import numpy as np
import pytest

from igenkrylov import bidiag, linop, prior, tomo
from igenkrylov.errors import InputError, NumericalError

from conftest import DenseOperator, DenseSPDCovariance, IdentityOperator, gk_decompose, random_spd


def identity_setting():
    return prior.IdentityCovariance(), prior.NoiseModel(sigma=1.0)


def generalized_setting(n, seed, cond=8.0):
    rng = np.random.default_rng(seed)
    Q = DenseSPDCovariance(random_spd(n, rng, cond=cond))
    nm = prior.NoiseModel(sigma=1.0 + rng.random())
    return Q, nm


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
    Q, nm = identity_setting()
    A = DenseOperator(np.random.default_rng(0).standard_normal((m, 4)))
    state = bidiag.igenGK_init(A, Q, nm, b, 1)
    assert state.beta1 == pytest.approx(5.0, rel=1e-15)
    np.testing.assert_allclose(state.U[:, 0], b / 5.0, rtol=1e-15)


def test_init_weighted_norm():
    m = 6
    b = np.zeros(m)
    b[0], b[1] = 3.0, 4.0
    Q = prior.IdentityCovariance()
    nm = prior.NoiseModel(sigma=2.0)
    A = DenseOperator(np.random.default_rng(0).standard_normal((m, 4)))
    state = bidiag.igenGK_init(A, Q, nm, b, 1)
    assert state.beta1 == pytest.approx(2.5, rel=1e-15)
    np.testing.assert_allclose(state.U[:, 0], b / 2.5, rtol=1e-15)


def test_init_matches_classic_start():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((9, 7))
    b = rng.standard_normal(9)
    A = DenseOperator(mat)
    Q, nm = identity_setting()
    state = bidiag.igenGK_init(A, Q, nm, b, 1)
    assert state.V.shape == (7, 0)
    bidiag.igenGK_step(state, A, linop.EXACT, Q, nm)
    u1 = b / np.linalg.norm(b)
    v1 = mat.T @ u1
    v1 /= np.linalg.norm(v1)
    assert np.linalg.norm(state.U[:, 0] - u1) <= 1e-14
    assert np.linalg.norm(state.V[:, 0] - v1) <= 1e-14


def test_init_rejects_zero_rhs():
    A = DenseOperator(np.eye(3))
    Q, nm = identity_setting()
    with pytest.raises(InputError, match="right-hand side is zero"):
        bidiag.igenGK_init(A, Q, nm, np.zeros(3), 1)


def test_degenerate_first_step_does_not_terminate_the_state():
    """A^T b = 0 at i = 1 is an input error, not a breakdown: ``terminated`` stays unset."""
    A = DenseOperator(np.diag([1.0, 0.0]))
    Q, nm = identity_setting()
    state = bidiag.igenGK_init(A, Q, nm, np.array([0.0, 1.0]), 3)
    with pytest.raises(InputError, match="adjoint of right-hand side is degenerate"):
        bidiag.igenGK_step(state, A, linop.EXACT, Q, nm)
    assert not state.terminated and state.k == 0


def test_init_rejects_overflowing_normalization():
    # ||A^T b||^2 overflows to inf, which must not normalize v1 to zero.
    A = DenseOperator(np.full((3, 2), 1e200))
    Q, nm = identity_setting()
    with pytest.raises(NumericalError):
        bidiag.igenGK_run(A, linop.EXACT, Q, nm, np.ones(3), 1)


def test_indefinite_covariance_is_a_numerical_error():
    # v^T Q v < 0: the V side reports it, not a degenerate right-hand side.
    rng = np.random.default_rng(3)
    A = DenseOperator(rng.standard_normal((6, 4)))
    Q = DenseSPDCovariance(-np.eye(4))
    nm = prior.NoiseModel(sigma=1.0)
    with pytest.raises(NumericalError, match="quadratic form .* negative beyond tolerance"):
        bidiag.igenGK_run(A, linop.EXACT, Q, nm, rng.standard_normal(6), 3)


def test_engine_matches_two_term_oracle():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((10, 8))
    b = rng.standard_normal(10)
    A = DenseOperator(mat)
    Q, nm = identity_setting()
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 5)
    oracle = gk_decompose(A, b, 5)
    assert np.max(np.abs(state.M - oracle.M[:6, :5])) <= 1e-12
    assert basis_sign_distance(state.U, oracle.U) <= 1e-10
    assert basis_sign_distance(state.V, oracle.V) <= 1e-10


# (rows, columns, steps, whether it breaks down) of each case: a wide A fills
# the U side first, a tall one the V side, so the recurrence breaks down on
# that side after min(m, n) columns. A U-side breakdown comes in the step that
# builds column min(m, n), a V-side one in the step after it, so a tall A run
# for exactly min(m, n) steps does not break down.
STEP_CASES = {
    "exact": (12, 9, 6, False),
    "gaussian-entry": (12, 9, 6, False),
    "u-breakdown": (3, 5, 6, True),
    "v-breakdown": (5, 3, 6, True),
    "v-limit": (5, 3, 3, False),
}


def _step_case(case):
    """The operator, right-hand side, prior and noise of a ``STEP_CASES`` case."""
    m, n, _, _ = STEP_CASES[case]
    rng = np.random.default_rng(12)
    A = DenseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    return (A, b, *generalized_setting(n, seed=13))


@pytest.mark.parametrize("case", list(STEP_CASES))
def test_each_step_is_a_leading_block_of_the_run(case):
    """A step only appends to M and Z: after every step of an init/step loop,
    M and Z equal, bit for bit, the leading blocks of the final state of
    ``igenGK_run``, so a solve can select lambda after the decomposition."""
    m, n, steps, breaks_down = STEP_CASES[case]
    A, b, Q, nm = _step_case(case)
    inexact = linop.EXACT
    if case == "gaussian-entry":
        inexact = linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=14)

    state = bidiag.igenGK_init(A, Q, nm, b, steps)
    copies = []
    for _ in range(steps):
        bidiag.igenGK_step(state, A, inexact, Q, nm)
        copies.append((state.M.copy(), state.Z.copy()))
        if state.terminated:
            break

    final = bidiag.igenGK_run(A, inexact, Q, nm, b, steps)
    assert final.terminated == state.terminated == breaks_down
    assert final.k == min(steps, m, n)
    # The step that finds the vanishing v adds nothing, but the loop records it.
    assert len(copies) == final.k + (case == "v-breakdown")
    # A U-side breakdown commits M square; otherwise M has a row more.
    assert final.M.shape == (final.k + (case != "u-breakdown"), final.k)
    assert final.Z.shape[1] == final.k
    for step, (M, Z) in enumerate(copies, start=1):
        k = min(step, final.k)
        assert M.shape[1] == Z.shape[1] == k
        np.testing.assert_array_equal(M, final.M[: M.shape[0], :k])
        np.testing.assert_array_equal(Z, final.Z[:, :k])
    if case == "v-limit":
        # One step more asks for the vanishing v and changes nothing else.
        longer = bidiag.igenGK_run(A, inexact, Q, nm, b, steps + 1)
        assert longer.terminated
        np.testing.assert_array_equal(longer.M, final.M)
        np.testing.assert_array_equal(longer.Z, final.Z)


@pytest.mark.parametrize("case", ["u-breakdown", "v-breakdown"])
def test_stepping_a_terminated_state_changes_nothing(case, monkeypatch):
    """A breakdown is the state's terminal flag: a further step returns the
    state as it was, with no product made and not a byte of it changed."""
    A, b, Q, nm = _step_case(case)
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, STEP_CASES[case][2])
    assert state.terminated
    before = [a.tobytes() for a in (state.U, state.V, state.Z, state.M, state.C)]
    k = state.k

    def no_product(*args):
        raise AssertionError("a product was made")

    monkeypatch.setattr(linop, "perturbed_apply_adjoint", no_product)
    monkeypatch.setattr(linop, "perturbed_apply", no_product)
    assert bidiag.igenGK_step(state, A, linop.EXACT, Q, nm) is state
    assert state.k == k and state.terminated
    assert [a.tobytes() for a in (state.U, state.V, state.Z, state.M, state.C)] == before


@pytest.mark.parametrize("case", list(STEP_CASES))
def test_run_makes_one_step_call_more_only_for_a_v_side_breakdown(case, monkeypatch):
    """``igenGK_run`` steps until k reaches ``steps`` or the state terminates:
    k calls, and k + 1 when the last call finds a vanishing v."""
    A, b, Q, nm = _step_case(case)
    _, _, steps, breaks_down = STEP_CASES[case]
    calls = []
    step = bidiag.igenGK_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(bidiag, "igenGK_step", counted)
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, steps)
    assert state.terminated == breaks_down
    assert len(calls) == state.k + (case == "v-breakdown")


PRODUCT_STEPS = 4
PRODUCT_MODELS = {
    "exact": linop.EXACT,
    "gaussian-entry": linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=23),
    "angle-perturbation": linop.InexactnessModel(
        mode="angle-perturbation", schedule=(1e-1, 1e-3, PRODUCT_STEPS), seed=23
    ),
}


@pytest.mark.parametrize("mode", list(PRODUCT_MODELS))
def test_k_steps_make_k_products_of_each_kind(mode, monkeypatch):
    """Iteration k makes the adjoint product of iteration k, then the forward
    product of iteration k; a K-step run makes nothing past iteration K and
    applies Q once per step."""
    geom = tomo.CTGeometry(n=16, angles=tomo.default_angles(count=8, step=22.0))
    A = tomo.RadonOperator(geom)
    b = A.apply(tomo.make_phantom(16))
    Q, nm = generalized_setting(geom.ncols, seed=24)
    products, covariance = [], []

    def recording(direction, product):
        def wrapper(op, model, k, x):
            products.append((direction, k))
            return product(op, model, k, x)

        return wrapper

    def recording_q(x, apply=Q.apply):
        covariance.append(len(products))
        return apply(x)

    monkeypatch.setattr(linop, "perturbed_apply", recording("fwd", linop.perturbed_apply))
    monkeypatch.setattr(
        linop, "perturbed_apply_adjoint", recording("adj", linop.perturbed_apply_adjoint)
    )
    monkeypatch.setattr(Q, "apply", recording_q)
    state = bidiag.igenGK_run(A, PRODUCT_MODELS[mode], Q, nm, b, PRODUCT_STEPS)
    assert not state.terminated and state.k == PRODUCT_STEPS
    assert products == [
        (direction, k) for k in range(1, PRODUCT_STEPS + 1) for direction in ("adj", "fwd")
    ]
    # Q is applied to each new v, between its adjoint and the forward product.
    assert covariance == [2 * k + 1 for k in range(PRODUCT_STEPS)]


def test_inexact_zero_beta_reduces_bitwise():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((12, 9))
    b = rng.standard_normal(12)
    A = DenseOperator(mat)
    Q, nm = generalized_setting(9, seed=4)
    zero_err = linop.InexactnessModel(mode="gaussian-entry", beta=0.0, seed=5)
    s1 = bidiag.igenGK_run(A, zero_err, Q, nm, b, 6)
    s2 = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 6)
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
        Q, nm = identity_setting()
        eng = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 8)
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
    Q, nm = generalized_setting(18, seed=9)
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 10)
    rep = bidiag.relation_diagnostics(state, A, Q, nm)
    assert rep.err_Vorth <= 1e-10
    assert rep.err_Uorth <= 1e-10
    assert rep.err_adjoint <= 1e-10
    assert rep.err_forward <= 1e-10


def test_hessenberg_and_triangular_structure_exact():
    rng = np.random.default_rng(10)
    mat = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    A = DenseOperator(mat)
    Q, nm = generalized_setting(12, seed=11)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=12)
    state = bidiag.igenGK_run(A, model, Q, nm, b, 7)
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
    Q, nm = generalized_setting(12, seed=14)
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 7)
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
    Q, nm = generalized_setting(12, seed=16)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=17)
    state = bidiag.igenGK_run(A, model, Q, nm, b, 6)
    assert not state.terminated
    assert state.Z.shape == state.V.shape == (12, 6)
    for j in range(6):
        ref = Q.mat @ state.V[:, j]
        assert np.linalg.norm(state.Z[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)


def test_z_is_v_under_identity_prior():
    rng = np.random.default_rng(22)
    A = DenseOperator(rng.standard_normal((15, 12)))
    Q, nm = identity_setting()
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, rng.standard_normal(15), 6)
    np.testing.assert_array_equal(state.Z, state.V)


def test_diagnostics_do_not_read_z():
    rng = np.random.default_rng(18)
    mat = rng.standard_normal((15, 12))
    b = rng.standard_normal(15)
    A = DenseOperator(mat)
    Q, nm = generalized_setting(12, seed=19)
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 6)
    before = bidiag.relation_diagnostics(state, A, Q, nm)._asdict()
    state.Z[:] = 0.0
    after = bidiag.relation_diagnostics(state, A, Q, nm)._asdict()
    assert after == before


def test_state_is_allocated_once_at_its_run_length():
    """Views taken after step j stay equal to the final leading blocks: every
    array is one buffer whose columns never move. A step past the capacity
    of a run shorter than min(m, n) finds a v that does not vanish and
    raises NumericalError."""
    rng = np.random.default_rng(20)
    m, n, steps = 30, 20, 12
    A = DenseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    Q, nm = generalized_setting(n, seed=21)
    state = bidiag.igenGK_init(A, Q, nm, b, steps)
    assert state.capacity == steps
    assert state._Z is not state._V
    taken = []
    for k in range(1, steps + 1):
        bidiag.igenGK_step(state, A, linop.EXACT, Q, nm)
        assert state.k == k
        assert state.U.shape == (m, k + 1)
        assert state.V.shape == state.Z.shape == (n, k)
        assert state.M.shape == (k + 1, k)
        assert state.C.shape == (k, k)
        views = (state.U, state.V, state.Z, state.M, state.C)
        taken.append([(view, view.copy()) for view in views])
    final = (state.U, state.V, state.Z, state.M, state.C)
    for views in taken:
        for (view, kept), whole in zip(views, final):
            assert np.shares_memory(view, whole)
            np.testing.assert_array_equal(view, kept)
            np.testing.assert_array_equal(whole[: kept.shape[0], : kept.shape[1]], kept)
    with pytest.raises(NumericalError, match="orthogonality lost"):
        with bidiag.overflow_checked():
            bidiag.igenGK_step(state, A, linop.EXACT, Q, nm)
    assert state.k == steps


def test_state_capacity_is_bounded_by_the_operator():
    """A run far longer than min(m, n) allocates min(m, n) columns, not ``steps``."""
    rng = np.random.default_rng(22)
    A = DenseOperator(rng.standard_normal((7, 5)))
    Q, nm = identity_setting()
    state = bidiag.igenGK_init(A, Q, nm, rng.standard_normal(7), 2**31 - 1)
    assert state.capacity == 5
    assert state._Z is state._V


class ClaimsIdentity:
    """Q = 2 I behind a claim to be the identity."""

    is_identity = True

    def apply(self, x):
        return 2.0 * np.asarray(x, dtype=float)


def test_z_aliases_v_only_for_the_identity_covariance_type():
    """Z shares V's buffer only when Q is an ``IdentityCovariance``: a Q that
    only claims to be the identity gets its own Z, and Z = Q V."""
    rng = np.random.default_rng(25)
    m, n = 12, 8
    A = DenseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    nm = prior.NoiseModel(sigma=1.0)
    Q = ClaimsIdentity()
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 5)
    assert state.k == 5
    assert state._Z is not state._V
    QV = 2.0 * state.V
    assert np.linalg.norm(state.Z - QV) <= 1e-12 * np.linalg.norm(QV)


def test_run_allocates_its_bases_once():
    """The traced peak of a generalized run stays within the bytes of U, V, Z,
    M and C at their final size plus a few vectors: no growth copies, no
    spare capacity."""
    rng = np.random.default_rng(23)
    m, n, steps = 600, 400, 20
    A = DenseOperator(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    Q, nm = generalized_setting(n, seed=24)
    tracemalloc.start()
    try:
        state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not state.terminated and state.k == steps
    bases = 8 * (m * (steps + 1) + 2 * n * steps + (steps + 1) * steps + steps * steps)
    assert peak <= bases + 8 * 8 * (m + n)


@pytest.fixture(scope="module")
def small_ct_problem():
    n = 32
    geom = tomo.CTGeometry(n=n, angles=tomo.default_angles(count=12, step=15.0))
    A = tomo.RadonOperator(geom)
    s_true = tomo.make_phantom(n)
    d, _ = tomo.synthesize_observation(A, s_true, 0.04, seed=77)
    kern = prior.MaternKernel(nu=1.5, alpha=100.0)
    Q = prior.CovarianceOperator((n, n), kern)
    nm = prior.NoiseModel(sigma=1.0)
    return A, Q, nm, d


def test_ct_orthogonality_with_inexact_products(small_ct_problem):
    A, Q, nm, d = small_ct_problem
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-2, seed=77)
    state = bidiag.igenGK_run(A, model, Q, nm, d, 25)
    rep = bidiag.relation_diagnostics(state, A, Q, nm)
    assert rep.err_Vorth <= 1e-12
    assert rep.err_Uorth <= 1e-12


def test_ct_relation_errors_scale_linearly(small_ct_problem):
    A, Q, nm, d = small_ct_problem
    errs = {}
    for beta in (1e-2, 1e-4):
        model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=78)
        state = bidiag.igenGK_run(A, model, Q, nm, d, 20)
        errs[beta] = bidiag.relation_diagnostics(state, A, Q, nm)
    ratio_adj = errs[1e-2].err_adjoint / errs[1e-4].err_adjoint
    ratio_fwd = errs[1e-2].err_forward / errs[1e-4].err_forward
    assert abs(ratio_adj / 100.0 - 1.0) <= 0.10
    assert abs(ratio_fwd / 100.0 - 1.0) <= 0.10
    assert 1e-3 <= errs[1e-2].err_forward <= 1e-1


def test_exact_relations_at_rounding_level(small_ct_problem):
    A, Q, nm, d = small_ct_problem
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, d, 15)
    rep = bidiag.relation_diagnostics(state, A, Q, nm)
    assert rep.err_adjoint <= 1e-10
    assert rep.err_forward <= 1e-10


@pytest.mark.parametrize("matern", [False, True], ids=["identity", "matern"])
def test_breakdown_does_not_depend_on_the_scale_of_b(matern):
    """Each normalization is compared with the norm of its own column, so a
    scaled b stops at the same k with the same M."""
    n = 16
    geom = tomo.CTGeometry(n=n, angles=tomo.default_angles(count=8, step=22.0))
    A = tomo.RadonOperator(geom)
    b, _ = tomo.synthesize_observation(A, tomo.make_phantom(n), 0.04, seed=77)
    Q = prior.IdentityCovariance()
    if matern:
        Q = prior.CovarianceOperator((n, n), prior.MaternKernel(nu=1.5, alpha=100.0))
    nm = prior.NoiseModel(sigma=1.0)
    ref = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, 300)
    assert ref.terminated and ref.k < 300
    for scale in (1e-20, 1e13, 1e16):
        state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, scale * b, 300)
        assert (state.k, state.terminated) == (ref.k, ref.terminated), scale
        np.testing.assert_allclose(state.M, ref.M, rtol=0, atol=1e-11 * np.abs(ref.M).max())


def test_breakdown_leaves_state_solvable():
    # engine on the identity problem: terminal square commit at step 1
    A = IdentityOperator(4)
    b = np.zeros(4)
    b[1] = 2.0
    Q, nm = identity_setting()
    state = bidiag.igenGK_init(A, Q, nm, b, 4)
    assert bidiag.igenGK_step(state, A, linop.EXACT, Q, nm) is state
    assert state.terminated
    assert state.M.shape == (1, 1)
    assert state.M[0, 0] == pytest.approx(1.0, rel=1e-14)
    # The relations hold over the one column of the square terminal state.
    assert max(bidiag.relation_diagnostics(state, A, Q, nm)) <= 1e-12


def test_relations_check_every_column_after_a_u_side_breakdown():
    """An exact multi-step run that ends in a U-side breakdown is checked over
    all k columns: k products of each kind, every residual at rounding level."""
    A, b, Q, nm = _step_case("u-breakdown")
    state = bidiag.igenGK_run(A, linop.EXACT, Q, nm, b, STEP_CASES["u-breakdown"][2])
    assert state.terminated and state.k > 1 and state.M.shape == (state.k, state.k)
    products = []
    apply, apply_adjoint = A.apply, A.apply_adjoint
    A.apply = lambda x: products.append("forward") or apply(x)
    A.apply_adjoint = lambda x: products.append("adjoint") or apply_adjoint(x)
    rep = bidiag.relation_diagnostics(state, A, Q, nm)
    assert sorted(products) == ["adjoint"] * state.k + ["forward"] * state.k
    assert max(rep) <= 1e-10
