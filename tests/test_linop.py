import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igenkrylov import linop
from igenkrylov.errors import (
    CapacityError,
    DimensionError,
    InvalidInputError,
    InvalidParameterError,
    UnsupportedError,
)

from conftest import dot_test, naive_matvec


def test_identity_apply():
    op = linop.IdentityOperator(3)
    np.testing.assert_array_equal(op.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_dense_apply_2x2():
    op = linop.DenseOperator([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [3.0, 7.0])


def test_identity_adjoint():
    op = linop.IdentityOperator(2)
    np.testing.assert_array_equal(op.apply_adjoint(np.array([4.0, 5.0])), [4.0, 5.0])


def test_dense_adjoint_first_row():
    op = linop.DenseOperator([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(op.apply_adjoint(np.array([1.0, 0.0])), [1.0, 2.0])


def test_adjoint_pairing_vs_naive_oracle():
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((7, 5))
    op = linop.DenseOperator(mat)
    u = rng.standard_normal(7)
    v = rng.standard_normal(5)
    lhs = float(np.dot(u, naive_matvec(mat, v)))
    rhs = float(np.dot(naive_matvec(mat.T, u), v))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    assert abs(float(np.dot(u, op.apply(v))) - lhs) <= 1e-12 * abs(lhs)
    assert abs(float(np.dot(op.apply_adjoint(u), v)) - rhs) <= 1e-12 * abs(lhs)


def test_dimension_and_finiteness_errors():
    op = linop.DenseOperator(np.eye(3))
    with pytest.raises(DimensionError):
        op.apply(np.ones(4))
    with pytest.raises(DimensionError):
        op.apply_adjoint(np.ones(2))
    with pytest.raises(InvalidInputError):
        op.apply(np.array([1.0, np.nan, 0.0]))


def test_composed_operator():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((4, 5))
    op = linop.ComposedOperator(linop.DenseOperator(a), linop.DenseOperator(b))
    x = rng.standard_normal(5)
    np.testing.assert_allclose(op.apply(x), a @ b @ x, rtol=1e-12)
    assert dot_test(op, rng) <= 1e-10
    with pytest.raises(DimensionError):
        linop.ComposedOperator(linop.DenseOperator(b), linop.DenseOperator(a @ b))


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=-10, max_value=10),
    b=st.floats(min_value=-10, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_linearity_of_exact_apply(a, b, seed):
    rng = np.random.default_rng(seed)
    op = linop.DenseOperator(rng.standard_normal((6, 4)))
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    lhs = op.apply(a * x + b * y)
    rhs = a * op.apply(x) + b * op.apply(y)
    scale = max(np.linalg.norm(lhs), 1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_perturbed_beta_zero_is_exact():
    rng = np.random.default_rng(5)
    op = linop.DenseOperator(rng.standard_normal((8, 6)))
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
    op = linop.DenseOperator(rng.standard_normal((30, 20)))
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
    op = linop.DenseOperator(rng.standard_normal((n, n)))
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
        if seed < 5:
            E = linop.materialize_error(model, n, n, 1, "forward")
            assert np.linalg.norm(E @ x - pert) <= 1e-10
    assert inside >= 990


def test_forward_and_adjoint_streams_independent():
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1.0, seed=11)
    E = linop.materialize_error(model, 100, 100, 3, "forward").ravel()
    F = linop.materialize_error(model, 100, 100, 3, "adjoint").ravel()
    corr = np.corrcoef(E, F)[0, 1]
    assert abs(corr) < 0.05


def test_error_scaling_exactly_linear_in_beta():
    rng = np.random.default_rng(8)
    op = linop.DenseOperator(rng.standard_normal((50, 40)))
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


def test_adjoint_stream_matches_materialized():
    rng = np.random.default_rng(9)
    op = linop.DenseOperator(rng.standard_normal((40, 30)))
    y = rng.standard_normal(40)
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-3, seed=33)
    pert = linop.perturbed_apply_adjoint(op, model, 6, y) - op.apply_adjoint(y)
    F = linop.materialize_error(model, 40, 30, 6, "adjoint")
    np.testing.assert_allclose(pert, F.T @ y, atol=1e-12)


def test_materialize_capacity_guard():
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1.0, seed=0)
    with pytest.raises(CapacityError):
        linop.materialize_error(model, 2000, 2000, 1, "forward")


def test_model_validation():
    with pytest.raises(InvalidParameterError):
        linop.InexactnessModel(mode="bogus")
    with pytest.raises(InvalidParameterError):
        linop.InexactnessModel(mode="gaussian-entry", beta=-1.0)
    with pytest.raises(InvalidParameterError):
        linop.InexactnessModel(mode="angle-perturbation")


def test_structural_perturbation_unsupported_on_dense():
    op = linop.DenseOperator(np.eye(4))
    model = linop.InexactnessModel(mode="angle-perturbation", schedule=(0.1,), seed=0)
    with pytest.raises(UnsupportedError):
        linop.perturbed_apply(op, model, 1, np.ones(4))
