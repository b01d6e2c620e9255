import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from igenkrylov import linop, solve, tomo
from igenkrylov.bidiag import BREAKDOWN_RTOL
from igenkrylov.errors import IgenKrylovError, InputError

DENSE_LIMIT = 4096


class CapacityError(IgenKrylovError):
    """Requested dense computation exceeds the configured size limit."""


def grid_points(grid_shape):
    """Cell centers of a (rows, columns) grid on the unit square, shape (n, 2).

    In the vectorization order of ``prior.CovarianceOperator``: column-major.
    """
    n1, n2 = grid_shape
    rows = (np.arange(n1) + 0.5) / n1
    cols = (np.arange(n2) + 0.5) / n2
    cc, rr = np.meshgrid(cols, rows)  # rr varies fastest down columns
    return np.column_stack([rr.ravel(order="F"), cc.ravel(order="F")])


def build_dense_cov(grid_shape, kernel, dense_limit=DENSE_LIMIT):
    """Dense covariance matrix Q_ij = kernel(|x_i - x_j|) on a (rows, columns) grid.

    The reference for the FFT backend of ``prior.CovarianceOperator``.
    """
    n = grid_shape[0] * grid_shape[1]
    if n > dense_limit:
        raise CapacityError(f"{n} grid points exceed dense limit {dense_limit}")
    pts = grid_points(grid_shape)
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    return kernel(r)


def padded_covariance_apply(cov, x):
    """Q x from ``rfftn``/``irfftn`` on the whole zero-padded grid.

    The product ``prior.CovarianceOperator.apply`` once made, kept as the
    bitwise reference for its pruned transforms; ``cov.grid_shape`` gives the
    data block of the padded grid.
    """
    shape = cov.grid_shape
    inner = tuple(slice(0, n) for n in shape)
    xpad = np.zeros(cov._fft_shape)
    xpad[inner] = x.reshape(shape, order="F")
    axes = tuple(range(len(shape)))
    out = np.fft.irfftn(np.fft.rfftn(xpad) * cov._symbol, s=cov._fft_shape, axes=axes)
    return out[inner].ravel(order="F")


def reference_phantom(n):
    """The head phantom with every ellipse evaluated on every pixel.

    What ``tomo.make_phantom`` once computed, kept as its bitwise reference.
    """
    coords = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    x = coords[:, None]
    y = coords[None, :]
    img = np.zeros((n, n))
    for value, a, b, x0, y0, ang in tomo._ELLIPSES:
        phi = math.radians(ang)
        c, s = math.cos(phi), math.sin(phi)
        xr = (x - x0) * c + (y - y0) * s
        yr = -(x - x0) * s + (y - y0) * c
        img += np.where((xr / a) ** 2 + (yr / b) ** 2 <= 1.0, value, 0.0)
    return np.clip(img, 0.0, 1.0).reshape(-1)


def reference_embedding_symbol(grid_shape, kernel, fft_shape):
    """FFT of the circulant embedding with the kernel evaluated on the whole padded grid.

    What ``prior._embedding_symbol`` once computed, kept as its bitwise
    reference: offsets with |d| >= n are zeroed after the kernel is evaluated.
    """
    dist, keep = [], []
    for n, m in zip(grid_shape, fft_shape):
        j = np.arange(m)
        d = np.abs(np.where(j < n, j, j - m))
        dist.append(d * (1.0 / n))
        keep.append(d < n)
    r = np.hypot(dist[0][:, None], dist[1][None, :])
    inside = keep[0][:, None] & keep[1][None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.rfftn(np.where(inside, kernel(r), 0.0))


def config_to_json(cfg, path=None):
    """An ExperimentConfig as the JSON text ``config_from_json`` reads back."""
    text = json.dumps(asdict(cfg), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return text


class DenseOperator(linop.LinearOperator):
    """Operator backed by an explicit dense matrix."""

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise InputError("dense operator needs a 2-d array")
        super().__init__(mat.shape[0], mat.shape[1])
        self.mat = mat

    def _apply(self, x):
        return self.mat @ x

    def _apply_adjoint(self, y):
        return self.mat.T @ y


class IdentityOperator(linop.LinearOperator):
    def __init__(self, n):
        super().__init__(n, n)

    def _apply(self, x):
        return x.copy()

    def _apply_adjoint(self, y):
        return y.copy()


def grid_to_image(arr):
    """(row=iy, col=ix) array back to the column-major vector; inverse of tomo.image_to_grid."""
    return np.asarray(arr).T.reshape(-1)


def read_pgm(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise InputError("not a binary PGM file")
        dims = fh.readline().split()
        width, height = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        raw = fh.read(width * height * 2)
    arr = np.frombuffer(raw, dtype=">u2").reshape((height, width)).astype(float) / maxval
    return grid_to_image(arr), width


_REF_PARALLEL_EPS = 1e-12
_REF_MIN_SEGMENT = 1e-12


def _reference_angle_triplets(n, theta_deg, offsets):
    """(ray, pixel, length) triplets of one angle: every grid crossing of every ray.

    The original assembly, kept as the bitwise oracle for tomo.system_matrix:
    each ray clips and sorts its crossings with all 2n+2 grid lines.
    """
    t = math.radians(theta_deg)
    dx, dy = -math.sin(t), math.cos(t)
    ex, ey = math.cos(t), math.sin(t)
    h = n / 2.0
    px = offsets * ex
    py = offsets * ey
    nray = offsets.size

    t_lo = np.full(nray, -np.inf)
    t_hi = np.full(nray, np.inf)
    miss = np.zeros(nray, dtype=bool)
    for d, p in ((dx, px), (dy, py)):
        if abs(d) > _REF_PARALLEL_EPS:
            t1 = (-h - p) / d
            t2 = (h - p) / d
            t_lo = np.maximum(t_lo, np.minimum(t1, t2))
            t_hi = np.minimum(t_hi, np.maximum(t1, t2))
        else:
            miss |= (p < -h) | (p > h)
    miss |= t_lo >= t_hi
    t_lo = np.where(miss, 0.0, t_lo)
    t_hi = np.where(miss, 0.0, t_hi)

    edges = np.arange(n + 1) - h
    params = [t_lo[:, None], t_hi[:, None]]
    if abs(dx) > _REF_PARALLEL_EPS:
        params.append((edges[None, :] - px[:, None]) / dx)
    if abs(dy) > _REF_PARALLEL_EPS:
        params.append((edges[None, :] - py[:, None]) / dy)
    allt = np.concatenate(params, axis=1)
    allt = np.clip(allt, t_lo[:, None], t_hi[:, None])
    allt.sort(axis=1)

    seg = np.diff(allt, axis=1)
    mid = (allt[:, :-1] + allt[:, 1:]) / 2.0
    ix = np.floor(px[:, None] + mid * dx + h).astype(np.int64)
    iy = np.floor(py[:, None] + mid * dy + h).astype(np.int64)
    valid = (seg > _REF_MIN_SEGMENT) & (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)

    ray_idx = np.broadcast_to(np.arange(nray)[:, None], seg.shape)[valid]
    pix_idx = (iy + n * ix)[valid]
    return ray_idx, pix_idx, seg[valid]


def reference_system_matrix(geom):
    """The Radon matrix assembled from COO triplets, as tomo.system_matrix once did."""
    offsets = geom.offsets()
    rows, cols, vals = [], [], []
    for a, theta in enumerate(geom.angles):
        r, c, v = _reference_angle_triplets(geom.n, theta, offsets)
        rows.append(r + a * geom.nrays)
        cols.append(c)
        vals.append(v)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.nrows, geom.ncols),
    )
    return mat.tocsr()


class DenseSPDCovariance:
    """Arbitrary dense SPD weight exposed through the covariance interface."""

    def __init__(self, mat):
        self.mat = np.asarray(mat, dtype=float)

    def apply(self, x):
        return self.mat @ x


class ComposedOperator(linop.LinearOperator):
    """Composition outer @ inner, applied matrix-free."""

    def __init__(self, outer, inner):
        if outer.ncols != inner.nrows:
            raise InputError("composition dimension mismatch")
        super().__init__(outer.nrows, inner.ncols)
        self.outer = outer
        self.inner = inner

    def _apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def _apply_adjoint(self, y):
        return self.inner.apply_adjoint(self.outer.apply_adjoint(y))


def gk_decompose(A, b, steps, reorthogonalize=True):
    """Classic two-term Golub-Kahan recurrence, independent of the engine.

    beta_{k+1} u_{k+1} = A v_k - alpha_k u_k and
    alpha_{k+1} v_{k+1} = A^T u_{k+1} - beta_{k+1} v_k, with optional full
    reorthogonalization. Returns U, V, the bidiagonal matrix M, its
    adjoint-side transpose C, beta1 and whether the recurrence terminated.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.nrows,):
        raise InputError("right-hand side length does not match operator rows")
    beta1 = float(np.linalg.norm(b))
    if beta1 == 0.0:
        raise InputError("right-hand side is zero")
    tol = BREAKDOWN_RTOL * beta1

    us = [b / beta1]
    alphas = []
    betas = []
    w = A.apply_adjoint(us[0])
    alpha = float(np.linalg.norm(w))
    if alpha <= tol:
        raise InputError("adjoint of right-hand side is degenerate")
    vs = [w / alpha]
    alphas.append(alpha)

    terminated = False
    for i in range(steps):
        w = A.apply(vs[i]) - alphas[i] * us[i]
        if reorthogonalize:
            U = np.column_stack(us)
            for _ in range(2):
                w = w - U @ (U.T @ w)
        beta = float(np.linalg.norm(w))
        if beta <= tol:
            terminated = True
            break
        us.append(w / beta)
        betas.append(beta)

        w = A.apply_adjoint(us[i + 1]) - beta * vs[i]
        if reorthogonalize:
            V = np.column_stack(vs)
            for _ in range(2):
                w = w - V @ (V.T @ w)
        alpha = float(np.linalg.norm(w))
        if alpha <= tol:
            terminated = True
            break
        vs.append(w / alpha)
        alphas.append(alpha)

    nu, nv = len(us), len(vs)
    M = np.zeros((nu, nv))
    C = np.zeros((nv, nv))
    for j in range(nv):
        M[j, j] = alphas[j]
        C[j, j] = alphas[j]
        if j + 1 < nu:
            M[j + 1, j] = betas[j] if j < len(betas) else 0.0
        if j + 1 < nv:
            C[j, j + 1] = betas[j]
    return SimpleNamespace(
        U=np.column_stack(us),
        V=np.column_stack(vs),
        M=M,
        C=C,
        beta1=beta1,
        terminated=terminated,
    )


def solve_one(A, inexact, Q, noise, b, max_iter, rule, s_true, noise_norm=None):
    """The record of a ``solve.run_iterative_solve`` under the one ``rule``.

    A rule other than dp does not read the noise norm, so its tests pass none.
    """
    records = solve.run_iterative_solve(
        A, inexact, Q, noise, b, max_iter, {"run": rule}, noise_norm, s_true
    )
    return records["run"]


def random_spd(n, rng, cond=10.0):
    """Well-conditioned random SPD matrix with eigenvalues in [1/cond, 1]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.geomspace(1.0 / cond, 1.0, n)
    return Q @ np.diag(eig) @ Q.T


def naive_matvec(mat, x):
    """Triple-loop matrix-vector product, independent of numpy's dot."""
    m, n = mat.shape
    out = [0.0] * m
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += mat[i][j] * x[j]
        out[i] = acc
    return np.array(out)


def dot_test(op, rng, scale=None):
    """|<u, Av> - <A^T u, v>| relative to the product magnitudes."""
    u = rng.standard_normal(op.nrows)
    v = rng.standard_normal(op.ncols)
    av = op.apply(v)
    atu = op.apply_adjoint(u)
    lhs = float(np.dot(u, av))
    rhs = float(np.dot(atu, v))
    denom = max(np.linalg.norm(av) * np.linalg.norm(u), np.linalg.norm(atu) * np.linalg.norm(v))
    return abs(lhs - rhs) / denom if denom > 0 else abs(lhs - rhs)


def dense_generalized_tikhonov(Amat, Qmat, sigma, b, lam):
    """Direct solution of min ||A Q x - b||_{R^{-1}}^2 + lam^2 ||x||_Q^2, R = sigma^2 I.

    Whitening oracle: substitute z = Q^{1/2} x, solve standard Tikhonov by SVD,
    and return s = Q^{1/2} z (no inverse of Q needed).
    """
    w, P = np.linalg.eigh(Qmat)
    Qh = P @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ P.T
    B = (Amat @ Qh) / sigma
    c = b / sigma
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    bt = U.T @ c
    if lam == 0.0:
        filt = np.where(s > 1e-12 * s[0], 1.0 / np.where(s > 1e-12 * s[0], s, 1.0), 0.0)
    else:
        filt = s / (s * s + lam * lam)
    z = Vt.T @ (filt * bt)
    return Qh @ z


@pytest.fixture(scope="session")
def small_ct():
    """16x16 CT problem with 8 angles, used across operator tests."""
    geom = tomo.CTGeometry(n=16, angles=tomo.default_angles(count=8, step=22.0))
    return geom, tomo.RadonOperator(geom)
