"""Parallel-beam X-ray CT forward model, phantom, and angle-jitter operators.

The image is an n-by-n grid of unit pixels centered at the origin and
vectorized column-major. Each sinogram entry is the exact line integral of
the piecewise-constant image along one ray: intersection lengths times pixel
values. The lengths come from a restricted Siddon/Jacobs traversal, which
cuts each ray's chord only at the grid lines in a window around it
(R. L. Siddon, Med. Phys. 12(2), 1985; F. Jacobs et al., J. Comput. Inf.
Technol. 6(1), 1998). They go straight into a CSR matrix, once per geometry,
bit for bit the matrix a traversal of every grid line gives. The adjoint is
the exact transpose, and forward/adjoint products are deterministic.
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


def _edge_window(n, h, d, p, t_lo, t_hi):
    """Each ray's crossing parameters with the grid lines of one axis that can cut its chord.

    Along a ray the axis coordinate runs from a = t_lo d + p + h to
    b = t_hi d + p + h, so every grid line i strictly inside the chord lies in
    [floor(min(a, b)), ceil(max(a, b))], clipped to [0, n]. Every ray takes as
    many consecutive lines as the widest such range holds, from its own first
    index and in order of increasing t. A line past a ray's own range or past
    the grid crosses at or outside the chord's ends, so the caller's clip to
    [t_lo, t_hi] turns it into a zero-length segment. Line i's parameter is
    ((i - h) - p) / d, the arithmetic of the full-grid traversal, so each
    crossing inside the chord is bitwise the one that traversal gives.
    """
    a = t_lo * d + p + h
    b = t_hi * d + p + h
    first = np.maximum(np.floor(np.minimum(a, b)), 0.0)
    last = np.minimum(np.ceil(np.maximum(a, b)), n)
    step = np.arange(int((last - first).max()) + 1, dtype=float)
    if d > 0:
        crossings = (first - h)[:, None] + step
    else:
        crossings = (last - h)[:, None] - step
    crossings -= p[:, None]
    crossings /= d
    return crossings


def _angle_triplets(n, theta_deg, offsets):
    """Per-ray entry counts, then pixel indices and lengths, for one projection angle.

    Rays travel along (-sin t, cos t) with perpendicular offsets along
    (cos t, sin t). Each ray's chord [t_lo, t_hi] through the image is cut at
    its crossings with the pixel-grid lines that can lie inside it, a
    restricted Siddon/Jacobs traversal (see ``_edge_window``). Segment
    midpoints identify the traversed pixel and segment lengths are the
    weights; out-of-window crossings clip to zero-length segments, which the
    length test drops together with any midpoint off the grid. Entries come
    ray-major in increasing t. Vector index is iy + n*ix (column-major image
    with x as the column coordinate).
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

    params = [t_lo[:, None]]
    for d, p in ((dx, px), (dy, py)):
        if abs(d) > _PARALLEL_EPS:
            params.append(_edge_window(n, h, d, p, t_lo, t_hi))
    params.append(t_hi[:, None])
    allt = np.concatenate(params, axis=1)
    np.maximum(allt, t_lo[:, None], out=allt)
    np.minimum(allt, t_hi[:, None], out=allt)
    allt.sort(axis=1)

    seg = allt[:, 1:] - allt[:, :-1]
    mid = allt[:, :-1] + allt[:, 1:]
    mid /= 2.0
    # In place, but in the order of floor(p + mid * d + h): the pixel of
    # every segment must stay bitwise that of the full-grid traversal.
    ix = mid * dx
    ix += px[:, None]
    ix += h
    np.floor(ix, out=ix)
    iy = mid
    iy *= dy
    iy += py[:, None]
    iy += h
    np.floor(iy, out=iy)
    valid = seg > _MIN_SEGMENT
    valid &= ix >= 0
    valid &= ix < n
    valid &= iy >= 0
    valid &= iy < n
    pix = ix
    pix *= n
    pix += iy
    return valid.sum(axis=1), pix[valid], seg[valid]


# Two entries: the geometries of the two jittered operators a solve keeps
# (see _jittered_operator); an operator holds its own matrix beyond that.
@functools.lru_cache(maxsize=2)
def system_matrix(geom):
    """Sparse ray-weight matrix for the geometry (rows: angle-major rays).

    The CSR arrays are filled straight from the per-angle entries, with no
    COO stage. ``sum_duplicates`` then sorts each row's columns and adds the
    rare repeated pixel (a ray grazing a grid line can split one pixel's
    chord in two), exactly as the COO to CSR conversion does.
    """
    offsets = geom.offsets()
    counts, cols, vals = [], [], []
    for theta in geom.angles:
        c, j, v = _angle_triplets(geom.n, theta, offsets)
        counts.append(c)
        cols.append(j)
        vals.append(v)
    indptr = np.zeros(geom.nrows + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    index_dtype = np.int32 if geom.ncols <= np.iinfo(np.int32).max else np.int64
    mat = sp.csr_matrix(
        (np.concatenate(vals), np.concatenate(cols).astype(index_dtype), indptr),
        shape=(geom.nrows, geom.ncols),
    )
    mat.sum_duplicates()
    return mat


class RadonOperator(LinearOperator):
    """The CT forward model as its CSR system matrix; the adjoint is the exact transpose."""

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


# Iteration k's operator serves the forward product of step k and the adjoint
# product of step k - 1, so a solve needs at most two alive at once.
@functools.lru_cache(maxsize=2)
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
