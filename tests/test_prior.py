import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.special import gamma as gamma_fn
from scipy.special import kv

from igenkrylov import prior
from igenkrylov.errors import DimensionError, InvalidParameterError, NumericalError

from conftest import CapacityError, build_dense_cov, padded_covariance_apply, random_spd


def kv_formula(nu, alpha, r):
    """Matern value straight from the Bessel definition (independent path)."""
    t = math.sqrt(2 * nu) * alpha * r
    if t == 0:
        return 1.0
    return (2 ** (1 - nu) / gamma_fn(nu)) * t**nu * kv(nu, t)


@pytest.mark.parametrize("nu,alpha", [(0.5, 1.0), (1.5, 2.0), (2.5, 0.5), (1.1, 3.0)])
def test_kernel_value_at_zero(nu, alpha):
    k = prior.MaternKernel(nu=nu, alpha=alpha)
    assert float(k(0.0)) == 1.0


def test_half_smoothness_is_exponential():
    k = prior.MaternKernel(nu=0.5, alpha=2.0)
    for r in (0.1, 1.0, 3.0):
        assert abs(float(k(r)) - math.exp(-2.0 * r)) <= 1e-12


def test_three_halves_closed_form_vs_bessel():
    k = prior.MaternKernel(nu=1.5, alpha=1.0)
    r = 0.5
    expected = (1 + math.sqrt(3) * r) * math.exp(-math.sqrt(3) * r)
    assert abs(float(k(r)) - expected) <= 1e-12
    assert abs(float(k(r)) - kv_formula(1.5, 1.0, r)) <= 1e-12


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5, 0.8, 3.7])
def test_kernel_monotone_nonincreasing(nu):
    k = prior.MaternKernel(nu=nu, alpha=2.0)
    r = np.linspace(0.0, 3.0 / 2.0, 100)
    vals = k(r)
    assert np.all(np.diff(vals) <= 1e-15)


@settings(max_examples=20, deadline=None)
@given(
    nu=st.floats(min_value=0.3, max_value=4.0),
    alpha=st.floats(min_value=0.1, max_value=50.0),
)
def test_kernel_monotone_property(nu, alpha):
    k = prior.MaternKernel(nu=nu, alpha=alpha)
    r = np.linspace(0.0, 3.0 / alpha, 100)
    vals = k(r)
    assert np.all(np.diff(vals) <= 1e-12)


def test_kernel_parameter_validation():
    with pytest.raises(InvalidParameterError):
        prior.MaternKernel(nu=-1.0, alpha=1.0)
    with pytest.raises(InvalidParameterError):
        prior.MaternKernel(nu=1.0, alpha=0.0)


def test_dense_cov_single_point():
    Q = build_dense_cov(prior.Grid((1, 1)), prior.MaternKernel(nu=1.5, alpha=1.0))
    np.testing.assert_array_equal(Q, [[1.0]])


def test_dense_cov_two_points():
    k = prior.MaternKernel(nu=1.5, alpha=3.0)
    Q = build_dense_cov(prior.Grid((2, 1)), k)
    r = 0.5  # cell centers (0.25, 0.5) and (0.75, 0.5)
    assert Q[0, 1] == Q[1, 0]
    assert abs(Q[0, 1] - float(k(r))) <= 1e-15
    np.testing.assert_array_equal(np.diag(Q), [1.0, 1.0])


def test_dense_cov_positive_semidefinite():
    k = prior.MaternKernel(nu=1.5, alpha=100.0)  # ell = 0.01
    Q = build_dense_cov(prior.Grid((8, 8)), k)
    eig = np.linalg.eigvalsh(Q)
    assert eig.min() >= -1e-10


def test_dense_limit_guard():
    with pytest.raises(CapacityError):
        build_dense_cov(prior.Grid((80, 80)), prior.MaternKernel(nu=1.5, alpha=1.0))


def test_fft_matches_dense_column():
    k = prior.MaternKernel(nu=1.5, alpha=5.0)
    g = prior.Grid((4, 4))
    Qd = build_dense_cov(g, k)
    e1 = np.zeros(16)
    e1[0] = 1.0
    np.testing.assert_allclose(prior.CovarianceOperator(g, k).apply(e1), Qd[:, 0], atol=1e-12)


def test_fft_matches_dense_random():
    k = prior.MaternKernel(nu=1.5, alpha=10.0)
    g = prior.Grid((16, 16))
    Qd = build_dense_cov(g, k)
    x = np.random.default_rng(0).standard_normal(256)
    ref = Qd @ x
    got = prior.CovarianceOperator(g, k).apply(x)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_fft_short_correlation_limit_is_identity():
    k = prior.MaternKernel(nu=1.5, alpha=1e6)
    g = prior.Grid((8, 8))
    x = np.random.default_rng(1).standard_normal(64)
    assert np.linalg.norm(prior.CovarianceOperator(g, k).apply(x) - x) <= 1e-6 * np.linalg.norm(x)


def test_fft_backend_symmetric_and_psd():
    k = prior.MaternKernel(nu=1.5, alpha=20.0)
    op = prior.CovarianceOperator(prior.Grid((12, 12)), k)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(144)
        y = rng.standard_normal(144)
        sym = abs(np.dot(x, op.apply(y)) - np.dot(op.apply(x), y))
        assert sym <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
        assert np.dot(x, op.apply(x)) >= -1e-10 * np.dot(x, x)


def test_fft_backend_1d():
    k = prior.MaternKernel(nu=0.5, alpha=4.0)
    g = prior.Grid((25, 1))  # one column: the 1-d case as a 2-d grid
    Qd = build_dense_cov(g, k)
    x = np.random.default_rng(3).standard_normal(25)
    np.testing.assert_allclose(prior.CovarianceOperator(g, k).apply(x), Qd @ x, rtol=1e-12, atol=1e-13)


def test_fast_len_matches_scipy():
    for target in range(1, 3000):
        assert prior._fast_len(target) == next_fast_len(target, real=True)


@pytest.mark.parametrize("shape", [(64, 4), (7, 12)])  # (64, 4): a long thin strip
def test_fft_padded_embedding_matches_dense(shape):
    # 2 n - 1 is no fast FFT length on any axis, so the circulant is padded
    assert all(next_fast_len(2 * n - 1, real=True) > 2 * n - 1 for n in shape)
    k = prior.MaternKernel(nu=1.5, alpha=2.0)  # long correlation: every offset counts
    g = prior.Grid(shape)
    Qd = build_dense_cov(g, k)
    x = np.random.default_rng(4).standard_normal(g.npoints)
    ref = Qd @ x
    got = prior.CovarianceOperator(g, k).apply(x)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(64, 64), (128, 128), (16, 16), (17, 23), (40, 1), (1, 33)])
def test_pruned_fft_bitwise_matches_padded_transforms(shape):
    k = prior.MaternKernel(nu=1.5, alpha=10.0)
    op = prior.CovarianceOperator(prior.Grid(shape), k)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(op.n)
        assert op.apply(x).tobytes() == padded_covariance_apply(op, x).tobytes()


def test_covariance_dimension_check():
    op = prior.CovarianceOperator(prior.Grid((4, 4)), prior.MaternKernel(nu=1.5, alpha=1.0))
    with pytest.raises(DimensionError):
        op.apply(np.ones(7))


def test_noise_model_basic():
    nm = prior.NoiseModel(sigma=1.0, dimension=2)
    np.testing.assert_array_equal(nm.apply_rinv(np.array([2.0, 3.0])), [2.0, 3.0])
    nm2 = prior.NoiseModel(sigma=2.0, dimension=2)
    np.testing.assert_allclose(nm2.apply_rinv(np.array([4.0, 8.0])), [1.0, 2.0])
    x = np.random.default_rng(4).standard_normal(2)
    assert abs(np.dot(x, nm2.apply_rinv(x)) - np.dot(x, x) / 4.0) <= 1e-14
    with pytest.raises(InvalidParameterError):
        prior.NoiseModel(sigma=0.0, dimension=2)


def test_weighted_norm_identity_and_noise():
    x = np.array([3.0, 4.0])
    assert prior.weighted_norm(x, lambda v: v) == pytest.approx(5.0, rel=1e-14)
    nm = prior.NoiseModel(sigma=2.0, dimension=2)
    assert prior.weighted_norm(x, nm.apply_rinv) == pytest.approx(2.5, rel=1e-14)
    assert prior.weighted_norm(np.zeros(2), lambda v: v) == 0.0


def test_weighted_norm_dense_oracle():
    rng = np.random.default_rng(5)
    W = random_spd(5, rng)
    x = rng.standard_normal(5)
    expected = math.sqrt(float(x @ W @ x))
    assert prior.weighted_norm(x, lambda v: W @ v) == pytest.approx(expected, rel=1e-12)


def test_weighted_norm_rejects_indefinite():
    W = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError):
        prior.weighted_norm(np.array([0.0, 1.0]), lambda v: W @ v)


def test_prior_model_validation():
    Q = prior.IdentityCovariance(3)
    with pytest.raises(DimensionError):
        prior.PriorModel(mu=np.zeros(4), Q=Q)
    pm = prior.identity_prior(3)
    assert pm.Q.is_identity and pm.n == 3
