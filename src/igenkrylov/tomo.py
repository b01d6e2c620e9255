"""Parallel-beam X-ray CT forward model, phantom, and angle-jitter operators.

The image is an n-by-n grid of unit pixels centered at the origin and
vectorized column-major. Each sinogram entry is the exact line integral of
the piecewise-constant image along one ray, computed by pixel-boundary
traversal (intersection lengths times pixel values). The weights are
assembled once per geometry into a sparse matrix, so the adjoint is the
exact transpose and forward/adjoint products are deterministic.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, DimensionError, InvalidParameterError
from .linop import LinearOperator
from .rng import TAG_ANGLE_JITTER, TAG_OBSERVATION_NOISE, substream

_PARALLEL_EPS = 1e-12
_MIN_SEGMENT = 1e-12


def default_nrays(n):
    """Rays per angle covering the image diagonal at unit detector spacing."""
    return int(round(math.sqrt(2.0) * n))


@dataclass(frozen=True)
class CTGeometry:
    """Parallel-beam geometry: n-by-n image, projection angles in degrees."""

    n: int
    angles: tuple
    nrays: int = None

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError("image side must be at least 2")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if len(self.angles) == 0:
            raise InvalidParameterError("need at least one projection angle")
        nrays = default_nrays(self.n) if self.nrays is None else int(self.nrays)
        if nrays < 1:
            raise InvalidParameterError("need at least one ray per angle")
        object.__setattr__(self, "nrays", nrays)

    @property
    def nrows(self):
        return len(self.angles) * self.nrays

    @property
    def ncols(self):
        return self.n * self.n

    def offsets(self):
        return np.arange(self.nrays) - (self.nrays - 1) / 2.0

    def with_angles(self, angles):
        return CTGeometry(n=self.n, angles=tuple(angles), nrays=self.nrays)


def default_angles(start=1.0, step=5.0, count=36):
    """Default projection angles 1, 6, 11, ..., 176 degrees."""
    return tuple(start + step * i for i in range(count))


def _angle_triplets(n, theta_deg, offsets):
    """(ray, pixel, length) triplets for all rays of one projection angle.

    Rays travel along (-sin t, cos t) with perpendicular offsets along
    (cos t, sin t). Crossing parameters with all pixel-grid lines are merged
    and sorted per ray; segment midpoints identify the traversed pixel and
    segment lengths are the weights. Vector index is iy + n*ix (column-major
    image with x as the column coordinate).
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
        if abs(d) > _PARALLEL_EPS:
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
    if abs(dx) > _PARALLEL_EPS:
        params.append((edges[None, :] - px[:, None]) / dx)
    if abs(dy) > _PARALLEL_EPS:
        params.append((edges[None, :] - py[:, None]) / dy)
    allt = np.concatenate(params, axis=1)
    allt = np.clip(allt, t_lo[:, None], t_hi[:, None])
    allt.sort(axis=1)

    seg = np.diff(allt, axis=1)
    mid = (allt[:, :-1] + allt[:, 1:]) / 2.0
    ix = np.floor(px[:, None] + mid * dx + h).astype(np.int64)
    iy = np.floor(py[:, None] + mid * dy + h).astype(np.int64)
    valid = (seg > _MIN_SEGMENT) & (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)

    ray_idx = np.broadcast_to(np.arange(nray)[:, None], seg.shape)[valid]
    pix_idx = (iy + n * ix)[valid]
    return ray_idx, pix_idx, seg[valid]


@functools.lru_cache(maxsize=8)
def system_matrix(geom):
    """Sparse ray-weight matrix for the geometry (rows: angle-major rays)."""
    offsets = geom.offsets()
    rows, cols, vals = [], [], []
    for a, theta in enumerate(geom.angles):
        r, c, v = _angle_triplets(geom.n, theta, offsets)
        rows.append(r + a * geom.nrays)
        cols.append(c)
        vals.append(v)
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.nrows, geom.ncols),
    )
    return mat.tocsr()


class RadonOperator(LinearOperator):
    """Matrix-free view of the CT forward model with exact transpose adjoint."""

    kind = "radon"

    def __init__(self, geom):
        super().__init__(geom.nrows, geom.ncols)
        self.geom = geom
        self._mat = system_matrix(geom)

    def _apply(self, x):
        return self._mat @ x

    def _apply_adjoint(self, y):
        # A CSC view of the CSR matrix: no copy, and the same sums in the same
        # order as a stored CSR transpose.
        return self._mat.T @ y

    def perturbed_variant(self, model, k):
        """Radon operator rebuilt with iteration-k jittered projection angles."""
        alphas = model.schedule
        alpha_k = alphas[min(k, len(alphas)) - 1]
        return _jittered_operator(self.geom, float(alpha_k), int(model.seed), int(k))


@functools.lru_cache(maxsize=8)
def _jittered_operator(geom, alpha_k, seed, k):
    if alpha_k == 0.0:
        return RadonOperator(geom)
    g = substream(seed, TAG_ANGLE_JITTER, k).standard_normal(len(geom.angles))
    jittered = tuple(theta + alpha_k * gi for theta, gi in zip(geom.angles, g))
    return RadonOperator(geom.with_angles(jittered))


# Shepp-Logan-style ellipses: (value, semi-axis a, semi-axis b, x0, y0, angle deg)
_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def make_phantom(n):
    """Deterministic head phantom, values clipped to [0, 1], column-major vector."""
    if n < 16:
        raise InvalidParameterError("phantom needs n >= 16")
    coords = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    x = coords[:, None]  # x varies along image columns
    y = coords[None, :]
    img = np.zeros((n, n))
    for value, a, b, x0, y0, ang in _ELLIPSES:
        phi = math.radians(ang)
        c, s = math.cos(phi), math.sin(phi)
        xr = (x - x0) * c + (y - y0) * s
        yr = -(x - x0) * s + (y - y0) * c
        img += np.where((xr / a) ** 2 + (yr / b) ** 2 <= 1.0, value, 0.0)
    img = np.clip(img, 0.0, 1.0)
    # img[ix, iy]: flatten x-major to match vector index iy + n*ix
    return img.reshape(-1)


def image_to_grid(vec, n):
    """Column-major image vector to a (row=iy, col=ix) array for display/IO."""
    if vec.size != n * n:
        raise DimensionError("vector length does not match n*n")
    return vec.reshape((n, n)).T


def grid_to_image(arr):
    """(row=iy, col=ix) array back to the column-major vector."""
    return np.asarray(arr).T.reshape(-1)


def synthesize_observation(geom, s_true, noise_level, seed):
    """Noisy sinogram with the noise norm scaled exactly to the target level."""
    if noise_level < 0:
        raise InvalidParameterError("noise level must be nonnegative")
    d_true = system_matrix(geom) @ LinearOperator._check_vector(s_true, geom.ncols)
    if noise_level == 0:
        return d_true, 0.0
    d_norm = float(np.linalg.norm(d_true))
    if d_norm == 0.0:
        raise DegenerateInputError("cannot add relative noise to a zero sinogram")
    g = substream(seed, TAG_OBSERVATION_NOISE).standard_normal(d_true.size)
    eps = g * (noise_level * d_norm / float(np.linalg.norm(g)))
    noise_norm = noise_level * d_norm
    return d_true + eps, noise_norm


# ---------------------------------------------------------------------------
# Images are stored as 16-bit binary PGM, row-major as (row=iy, col=ix); the
# package's vectors are the column-major flattening of the transpose (see
# image_to_grid).


def write_pgm(path, vec, n):
    arr = np.clip(image_to_grid(np.asarray(vec, dtype=float), n), 0.0, 1.0)
    data = np.round(arr * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n65535\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise DimensionError("not a binary PGM file")
        dims = fh.readline().split()
        width, height = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        raw = fh.read(width * height * 2)
    arr = np.frombuffer(raw, dtype=">u2").reshape((height, width)).astype(float) / maxval
    return grid_to_image(arr), width

