import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from igenkrylov import linop
from igenkrylov.rng import DIR_ADJOINT, DIR_FORWARD, TAG_MATVEC_ERROR, substream
from igenkrylov.errors import InputError

from conftest import ComposedOperator, DenseOperator, IdentityOperator, dot_test, naive_matvec


def test_identity_apply():
    op = IdentityOperator(3)
    np.testing.assert_array_equal(op.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_dense_apply_2x2():
    op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [3.0, 7.0])


def test_identity_adjoint():
    op = IdentityOperator(2)
    np.testing.assert_array_equal(op.apply_adjoint(np.array([4.0, 5.0])), [4.0, 5.0])


def test_dense_adjoint_first_row():
    op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(op.apply_adjoint(np.array([1.0, 0.0])), [1.0, 2.0])


def test_adjoint_pairing_vs_naive_oracle():
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((7, 5))
    op = DenseOperator(mat)
    u = rng.standard_normal(7)
    v = rng.standard_normal(5)
    lhs = float(np.dot(u, naive_matvec(mat, v)))
    rhs = float(np.dot(naive_matvec(mat.T, u), v))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    assert abs(float(np.dot(u, op.apply(v))) - lhs) <= 1e-12 * abs(lhs)
    assert abs(float(np.dot(op.apply_adjoint(u), v)) - rhs) <= 1e-12 * abs(lhs)


def test_composed_operator():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((4, 5))
    op = ComposedOperator(DenseOperator(a), DenseOperator(b))
    x = rng.standard_normal(5)
    np.testing.assert_allclose(op.apply(x), a @ b @ x, rtol=1e-12)
    assert dot_test(op, rng) <= 1e-10
    with pytest.raises(InputError, match="composition dimension mismatch"):
        ComposedOperator(DenseOperator(b), DenseOperator(a @ b))


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=-10, max_value=10),
    b=st.floats(min_value=-10, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_linearity_of_exact_apply(a, b, seed):
    rng = np.random.default_rng(seed)
    op = DenseOperator(rng.standard_normal((6, 4)))
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    lhs = op.apply(a * x + b * y)
    rhs = a * op.apply(x) + b * op.apply(y)
    scale = max(np.linalg.norm(lhs), 1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_perturbed_beta_zero_is_exact():
    rng = np.random.default_rng(5)
    op = DenseOperator(rng.standard_normal((8, 6)))
    x = rng.standard_normal(6)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=0.0, seed=1)
    np.testing.assert_array_equal(linop.perturbed_apply(op, model, 1, x), op.apply(x))
    model_none = linop.InexactnessModel(mode="none")
    y = rng.standard_normal(8)
    np.testing.assert_array_equal(
        linop.perturbed_apply_adjoint(op, model_none, 3, y), op.apply_adjoint(y)
    )


def test_perturbed_determinism_bitwise():
    rng = np.random.default_rng(6)
    op = DenseOperator(rng.standard_normal((30, 20)))
    x = rng.standard_normal(20)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=99)
    first = linop.perturbed_apply(op, model, 4, x)
    second = linop.perturbed_apply(op, model, 4, x)
    np.testing.assert_array_equal(first, second)
    # a different iteration index draws a different error
    other = linop.perturbed_apply(op, model, 5, x)
    assert np.any(other != first)


def test_perturbation_norm_monte_carlo():
    # ||(A_hat - A) x||_2 concentrates around beta * sqrt(m) for a unit vector x
    rng = np.random.default_rng(7)
    n = 100
    op = DenseOperator(rng.standard_normal((n, n)))
    beta = 1e-2
    x = np.zeros(n)
    x[3] = 1.0
    exact = op.apply(x)
    inside = 0
    lo, hi = 0.5 * beta * np.sqrt(n), 1.5 * beta * np.sqrt(n)
    for seed in range(1000):
        model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=seed)
        pert = linop.perturbed_apply(op, model, 1, x) - exact
        if lo <= np.linalg.norm(pert) <= hi:
            inside += 1
    assert inside >= 990


# Significance level of the law tests below. Their seeds are fixed, so each
# test is deterministic; the level sets how large a departure from the law
# they would catch.
LAW_TEST_LEVEL = 1e-3


def _standardized_errors(direction, seeds, k=3, beta=1e-2):
    """(perturbed - exact) / (beta ||v||) for one fixed vector v, one row per seed."""
    rng = np.random.default_rng(12)
    op = DenseOperator(rng.standard_normal((40, 30)))
    if direction == "forward":
        v = rng.standard_normal(op.ncols)
        exact, perturbed = op.apply(v), linop.perturbed_apply
    else:
        v = rng.standard_normal(op.nrows)
        exact, perturbed = op.apply_adjoint(v), linop.perturbed_apply_adjoint
    rows = []
    for seed in seeds:
        model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=seed)
        rows.append((perturbed(op, model, k, v) - exact) / (beta * np.linalg.norm(v)))
    return np.array(rows)


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
def test_perturbation_law_is_standard_normal(direction):
    # For a fresh E with N(0, beta^2) entries, E v ~ beta ||v|| N(0, I): the
    # pooled standardized entries are N(0, 1) and each product's squared norm
    # is chi-square with (output length) degrees of freedom.
    z = _standardized_errors(direction, range(400))
    assert z.shape == (400, 40 if direction == "forward" else 30)
    assert stats.kstest(z.ravel(), "norm").pvalue >= LAW_TEST_LEVEL
    sq = np.sum(z * z, axis=1)
    assert stats.kstest(sq, "chi2", args=(z.shape[1],)).pvalue >= LAW_TEST_LEVEL


def test_forward_and_adjoint_streams_independent():
    # Same (seed, k), both directions: the draws are uncorrelated. Under
    # independence the sample correlation of N pairs is about N(0, 1/N), so
    # 4/sqrt(N) is far outside its spread.
    fwd = _standardized_errors("forward", range(200))[:, :30]
    adj = _standardized_errors("adjoint", range(200))
    corr = np.corrcoef(fwd.ravel(), adj.ravel())[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(fwd.size)


def test_products_draw_one_vector_from_named_substream():
    # Each product draws exactly one standard-normal vector of its output
    # length from the (seed, k, direction) substream, scaled by beta ||v||.
    rng = np.random.default_rng(9)
    op = DenseOperator(rng.standard_normal((40, 30)))
    x = rng.standard_normal(30)
    y = rng.standard_normal(40)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=33)
    pert = linop.perturbed_apply(op, model, 6, x) - op.apply(x)
    g = substream(33, TAG_MATVEC_ERROR, 6, DIR_FORWARD).standard_normal(40)
    np.testing.assert_allclose(pert, 1e-3 * np.linalg.norm(x) * g, rtol=0, atol=1e-12)
    pert = linop.perturbed_apply_adjoint(op, model, 6, y) - op.apply_adjoint(y)
    h = substream(33, TAG_MATVEC_ERROR, 6, DIR_ADJOINT).standard_normal(30)
    np.testing.assert_allclose(pert, 1e-3 * np.linalg.norm(y) * h, rtol=0, atol=1e-12)


def test_error_scaling_exactly_linear_in_beta():
    rng = np.random.default_rng(8)
    op = DenseOperator(rng.standard_normal((50, 40)))
    x = rng.standard_normal(40)
    exact = op.apply(x)
    norms = {}
    for beta in (1e-2, 1e-4):
        model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=21)
        norms[beta] = np.linalg.norm(linop.perturbed_apply(op, model, 2, x) - exact)
    ratio = norms[1e-2] / norms[1e-4]
    assert abs(ratio / 100.0 - 1.0) <= 1e-10
    # and well within the 10% band required of full runs
    assert abs(norms[1e-4] - 1e-2 * norms[1e-2]) <= 0.1 * norms[1e-4]


def test_model_validation():
    model = linop.InexactnessModel(mode="angle-perturbation", schedule=(0.1, 0.2, 5))
    for k in (0, 6):
        with pytest.raises(InputError, match="is outside the 5-step schedule"):
            model.magnitude(k)
