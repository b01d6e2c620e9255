"""Parallel-beam X-ray CT forward model, phantom, and angle-jitter operators.

The image is an n-by-n grid of unit pixels centered at the origin and
vectorized column-major. Each sinogram entry is the exact line integral of
the piecewise-constant image along one ray: intersection lengths times pixel
values. The lengths come from a restricted Siddon/Jacobs traversal, which
cuts each ray's chord only at the grid lines in a window around it
(R. L. Siddon, Med. Phys. 12(2), 1985; F. Jacobs et al., J. Comput. Inf.
Technol. 6(1), 1998). They go straight into CSR arrays, once per geometry:
the same matrix a traversal of every grid line gives, stored in traversal
order, each row's entries in order along the ray. SciPy's compiled kernels
apply it and its exact transpose, deterministically.
"""

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import FLOAT_MAX, InputError
from .linop import LinearOperator
from .rng import TAG_ANGLE_JITTER, TAG_OBSERVATION_NOISE, substream

_PARALLEL_EPS = 1e-12
_MIN_SEGMENT = 1e-12

# SciPy's compiled sparse kernels, loaded without running scipy/sparse/__init__.py:
# importing scipy.sparse adds about 20 MB to the resident size of a process.
_sparsetools = sys.modules.get("scipy.sparse._sparsetools")
if _sparsetools is None:
    _root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    _finder = FileFinder(os.path.join(_root, "sparse"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    _spec = _finder.find_spec("scipy.sparse._sparsetools")
    _sparsetools = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_sparsetools)


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
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        # Jitter can carry a finite configured angle past the float range.
        if not all(abs(a) <= FLOAT_MAX for a in self.angles):
            raise InputError("projection angles must be finite")
        nrays = default_nrays(self.n) if self.nrays is None else int(self.nrays)
        object.__setattr__(self, "nrays", nrays)

    @property
    def nrows(self):
        return len(self.angles) * self.nrays

    @property
    def ncols(self):
        return self.n * self.n

    def offsets(self):
        return np.arange(self.nrays) - (self.nrays - 1) / 2.0


def default_angles(start=1.0, step=5.0, count=36):
    """Default projection angles 1, 6, 11, ..., 176 degrees."""
    return tuple(start + step * i for i in range(count))


def _clip_chords(h, d, p):
    """Every ray's chord [t_lo, t_hi] through the image, and whether the ray hits it.

    ``d`` holds the two direction components of each angle, shape (2, A, 1),
    and ``p`` the two offset components of each ray, shape (2, A, R); the
    image is the square [-h, h]^2. An axis a ray runs parallel to
    (|d| <= _PARALLEL_EPS) does not bound its chord, and the ray misses if its
    coordinate on that axis is off the grid. A ray whose chord is empty
    misses too. Every entry takes the arithmetic of a one-ray clip.
    """
    parallel = np.abs(d) <= _PARALLEL_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-h - p) / d
        t2 = (h - p) / d
    t_lo = np.where(parallel, -np.inf, np.minimum(t1, t2)).max(axis=0)
    t_hi = np.where(parallel, np.inf, np.maximum(t1, t2)).min(axis=0)
    off_grid = parallel & ((p < -h) | (p > h))
    hit = ~(off_grid[0] | off_grid[1])
    hit &= t_lo < t_hi
    return t_lo, t_hi, hit


def _edge_windows(n, h, d, p, t_lo, t_hi):
    """Each ray's window of grid lines on both axes: start coordinate and width, (2, A, R).

    Along a ray the axis coordinate runs from a = t_lo d + p + h to
    b = t_hi d + p + h, so every grid line i strictly inside the chord lies in
    [floor(min(a, b)), ceil(max(a, b))], clipped to [0, n]. The window starts
    at the end the ray enters from (its coordinate minus h is returned), so
    that stepping through it meets the lines in order of increasing t. Line
    i's crossing parameter is ((i - h) - p) / d, the arithmetic of the
    full-grid traversal, so each crossing inside the chord is bitwise the one
    that traversal gives. A line past a ray's own range or past the grid
    crosses at or outside the chord's ends, and the clip to [t_lo, t_hi]
    turns it into a zero-length segment.
    """
    a = t_lo * d + p + h
    b = t_hi * d + p + h
    first = np.maximum(np.floor(np.minimum(a, b)), 0.0)
    last = np.minimum(np.ceil(np.maximum(a, b)), n)
    start = np.where(d > 0, first, last)
    start -= h
    return start, last - first


def _traverse(n, h, d, p, starts, widths, t_lo, t_hi):
    """Per-ray entry counts, then pixel indices and lengths, for the hit rays of one angle.

    ``d`` is the angle's direction (dx, dy), ``p`` the rays' offset points
    (2, R), ``starts`` their window starts (2, R) and ``widths`` the widest
    window on each axis. Each ray's chord is cut at its window's crossings,
    a restricted Siddon/Jacobs traversal. Segment midpoints identify the
    traversed pixel and segment lengths are the weights; out-of-window
    crossings clip to zero-length segments, which the length test drops
    together with any midpoint off the grid. Entries come ray-major in
    increasing t. Vector index is iy + n*ix (column-major image with x as the
    column coordinate).
    """
    lo = t_lo[:, None]
    hi = t_hi[:, None]
    params = [lo]
    for axis in (0, 1):
        if abs(d[axis]) > _PARALLEL_EPS:
            step = np.arange(widths[axis] + 1.0)
            if d[axis] < 0:
                step = -step
            crossings = starts[axis][:, None] + step
            crossings -= p[axis][:, None]
            crossings /= d[axis]
            params.append(crossings)
    params.append(hi)
    allt = np.concatenate(params, axis=1)
    np.maximum(allt, lo, out=allt)
    np.minimum(allt, hi, out=allt)
    allt.sort(axis=1)

    seg = allt[:, 1:] - allt[:, :-1]
    mid = allt[:, :-1] + allt[:, 1:]
    mid /= 2.0
    # In place, but in the order of floor(p + mid * d + h): the pixel of
    # every segment must stay bitwise that of the full-grid traversal.
    ix = mid * d[0]
    ix += p[0][:, None]
    ix += h
    np.floor(ix, out=ix)
    iy = mid
    iy *= d[1]
    iy += p[1][:, None]
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


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A sparse matrix as its CSR arrays; ``indices`` and ``indptr`` share one dtype."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple
    nnz: int


@functools.lru_cache(maxsize=1)
def system_matrix(geom):
    """Sparse ray-weight matrix for the geometry (rows: angle-major rays).

    Rays travel along (-sin t, cos t) with perpendicular offsets along
    (cos t, sin t). The chords and crossing windows of all rays are computed
    at once on (angles x rays) arrays; the traversal then runs angle by
    angle over the rays that hit the image and fills the CSR arrays.

    It is the same matrix the full-grid traversal gives, stored in traversal
    order: each row keeps its entries in order of increasing t, with
    unsorted columns, which no product needs. A ray grazing a grid line can
    split one pixel's chord in two and keeps both entries. Its canonical
    form (columns sorted, repeated entries summed) is bit for bit the matrix
    of the COO assembly.
    """
    n, h = geom.n, geom.n / 2.0
    radians = [math.radians(theta) for theta in geom.angles]
    # math's sin and cos, not numpy's vectorized ones, which may round
    # differently in the last bit.
    d = np.array([[-math.sin(t) for t in radians], [math.cos(t) for t in radians]])
    e = np.array([[math.cos(t) for t in radians], [math.sin(t) for t in radians]])
    p = e[:, :, None] * geom.offsets()
    t_lo, t_hi, hit = _clip_chords(h, d[:, :, None], p)
    starts, widths = _edge_windows(n, h, d[:, :, None], p, t_lo, t_hi)
    widths = np.where(hit, widths, 0.0).max(axis=2)
    bounds = np.zeros(len(radians) + 1, dtype=np.int64)
    np.cumsum(hit.sum(axis=1), out=bounds[1:])
    p, starts = p[:, hit], starts[:, hit]
    t_lo, t_hi = t_lo[hit], t_hi[hit]

    index_dtype = np.int32 if max(geom.nrows, geom.ncols) <= np.iinfo(np.int32).max else np.int64
    counts, cols, vals = [], [], []
    for a in range(len(radians)):
        rays = slice(bounds[a], bounds[a + 1])
        c, j, v = _traverse(
            n, h, d[:, a], p[:, rays], starts[:, rays], widths[:, a], t_lo[rays], t_hi[rays]
        )
        counts.append(c)
        cols.append(j.astype(index_dtype))
        vals.append(v)
    row_counts = np.zeros(geom.nrows, dtype=np.int64)
    row_counts[hit.ravel()] = np.concatenate(counts)
    indptr = np.zeros(geom.nrows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    index_dtype = np.int64 if indptr[-1] > np.iinfo(np.int32).max else index_dtype
    # The indices are cast angle by angle, so no float copy of them is ever
    # whole, and the per-angle values are freed before the indices are joined.
    data = np.concatenate(vals)
    del vals
    indices = np.concatenate(cols, dtype=index_dtype)
    return CSRMatrix(data, indices, indptr.astype(index_dtype), (geom.nrows, geom.ncols), len(data))


class RadonOperator(LinearOperator):
    """The CT forward model as its CSR system matrix; the adjoint reads it as the CSC transpose."""

    def __init__(self, geom):
        super().__init__(geom.nrows, geom.ncols)
        self.geom = geom
        self._mat = system_matrix(geom)

    # The compiled kernels read as many entries as the matrix has columns or
    # rows, whatever the vector's length, so these checks guard the memory.
    def _apply(self, x):
        if x.shape != (self.ncols,):
            raise InputError(f"expected vector of length {self.ncols}, got shape {x.shape}")
        m, out = self._mat, np.zeros(self.nrows)
        _sparsetools.csr_matvec(self.nrows, self.ncols, m.indptr, m.indices, m.data, x, out)
        return out

    def _apply_adjoint(self, y):
        if y.shape != (self.nrows,):
            raise InputError(f"expected vector of length {self.nrows}, got shape {y.shape}")
        m, out = self._mat, np.zeros(self.ncols)
        _sparsetools.csc_matvec(self.ncols, self.nrows, m.indptr, m.indices, m.data, y, out)
        return out

    def perturbed_variant(self, model, k):
        """Radon operator rebuilt with the angles jittered by ``model.magnitude(k)``."""
        return _jittered_operator(self.geom, model.magnitude(k), int(model.seed), int(k))


# One entry here and in system_matrix: both products of iteration k come from one step.
@functools.lru_cache(maxsize=1)
def _jittered_operator(geom, alpha_k, seed, k):
    g = substream(seed, TAG_ANGLE_JITTER, k).standard_normal(len(geom.angles))
    jittered = tuple(theta + alpha_k * gi for theta, gi in zip(geom.angles, g))
    return RadonOperator(replace(geom, angles=jittered))


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
    return vec.reshape((n, n)).T


def synthesize_observation(A, s_true, noise_level, seed):
    """Noisy sinogram A s_true + eps and its noise norm ||eps|| = noise_level ||A s_true||."""
    d_true = A.apply(s_true)
    if noise_level == 0:
        return d_true, 0.0
    d_norm = float(np.linalg.norm(d_true))
    if d_norm == 0.0:
        raise InputError("cannot add relative noise to a zero sinogram")
    g = substream(seed, TAG_OBSERVATION_NOISE).standard_normal(d_true.size)
    eps = g * (noise_level * d_norm / float(np.linalg.norm(g)))
    return d_true + eps, noise_level * d_norm
