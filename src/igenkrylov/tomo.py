"""Parallel-beam X-ray CT forward model, phantom, and angle-jitter operators.

The image is an n-by-n grid of unit pixels centered at the origin and
vectorized column-major. Each sinogram entry is the exact line integral of
the piecewise-constant image along one ray: intersection lengths times pixel
values. The lengths come from a restricted Siddon/Jacobs traversal, which
cuts each ray's chord only at the grid lines in a window around it
(R. L. Siddon, Med. Phys. 12(2), 1985; F. Jacobs et al., J. Comput. Inf.
Technol. 6(1), 1998). They go straight into CSR arrays in traversal order,
each row's entries in order along the ray, the matrix a full-grid traversal
gives; SciPy's compiled kernels apply it and its transpose deterministically.
A large matrix is built on two threads, into the same bytes as on one.
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
# The mean slot bound per angle from which a build runs on two CPUs, if it may.
_SPLIT_MIN_SLOTS = 10_000
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

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
    lo, hi = t_lo[:, None], t_hi[:, None]
    params = [lo]
    for axis in (0, 1):
        if abs(d[axis]) > _PARALLEL_EPS:
            step = np.arange(widths[axis] + 1.0) * math.copysign(1.0, d[axis])
            params.append((starts[axis][:, None] + step - p[axis][:, None]) / d[axis])
    params.append(hi)
    allt = np.concatenate(params, axis=1)
    del params
    np.maximum(allt, lo, out=allt)
    np.minimum(allt, hi, out=allt)
    allt.sort(axis=1)

    # Lengths and midpoints on the flat array, so that no operand is strided;
    # the last column pairs a ray's end with the next ray's start and is masked.
    flat = allt.reshape(-1)
    seg, mid = np.empty_like(allt), np.empty_like(allt)
    seg.reshape(-1)[-1:] = mid.reshape(-1)[-1:] = 0.0
    np.subtract(flat[1:], flat[:-1], out=seg.reshape(-1)[:-1])
    np.add(flat[:-1], flat[1:], out=mid.reshape(-1)[:-1])
    del allt, flat
    # In place, in the order of floor(p + (mid / 2) d + h) with d halved, which is
    # exact: the pixel of every segment must stay bitwise that of the full-grid traversal.
    ix = mid * (d[0] / 2.0)
    ix += p[0][:, None]
    ix += h
    np.floor(ix, out=ix)
    iy = mid
    iy *= d[1] / 2.0
    iy += p[1][:, None]
    iy += h
    np.floor(iy, out=iy)
    valid = seg > _MIN_SEGMENT
    valid[:, -1] = False
    valid &= (ix >= 0) & (ix < n)
    valid &= (iy >= 0) & (iy < n)
    ix *= n
    ix += iy
    del iy, mid
    return valid.sum(axis=1), ix[valid], seg[valid]


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A sparse matrix as its CSR arrays; ``indices`` and ``indptr`` share one dtype."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple
    nnz: int


# Holds no matrix (maxsize 0) but counts each build as a miss; the benchmark
# reads that count and calls cache_clear. Library code must not clear it.
@functools.lru_cache(maxsize=0)
def system_matrix(geom):
    """Sparse ray-weight matrix for the geometry (rows: angle-major rays).

    Rays travel along (-sin t, cos t) with perpendicular offsets along
    (cos t, sin t). The chords and crossing windows of all rays are computed
    at once on (angles x rays) arrays; the traversal then runs angle by
    angle over the hit rays and writes their entries into one values and one
    indices buffer, allocated once and bounded by the window widths: a hit
    ray keeps at most its chord ends and its window's crossings, w_x + w_y +
    3 segments, its slot bound. The matrix holds views of the filled parts.
    If the mean slot bound per angle is at least _SPLIT_MIN_SLOTS and the
    process may run on two CPUs, a worker thread takes the angles past the
    midpoint of the cumulative bound, writing from that point on, and one
    forward copy in place closes the gap. Each angle makes the same
    traversal, and its entries end where one thread writes them.

    It is the same matrix the full-grid traversal gives, stored in traversal
    order: each row's entries in order of increasing t, columns unsorted,
    which no product needs. A ray grazing a grid line can split one pixel's
    chord in two and keeps both entries. The canonical form (columns sorted,
    repeated entries summed) is bit for bit the COO assembly's matrix.
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
    widths = np.where(hit, widths, 0.0)
    slots = np.cumsum([0, *(widths.sum(axis=(0, 2)) + 3 * hit.sum(axis=1))], dtype=np.int64)
    cap = int(slots[-1])
    widths = widths.max(axis=2)
    bounds = np.cumsum([0, *hit.sum(axis=1)])
    p, starts, t_lo, t_hi = p[:, hit], starts[:, hit], t_lo[hit], t_hi[hit]

    index_dtype = np.int32 if max(geom.nrows, geom.ncols, cap) < 2**31 else np.int64
    data, indices = np.empty(cap), np.empty(cap, dtype=index_dtype)
    counts = np.empty(bounds[-1], dtype=np.int64)

    def fill(angles, nnz):
        for a in angles:
            rays = slice(bounds[a], bounds[a + 1])
            counts[rays], j, v = _traverse(
                n, h, d[:, a], p[:, rays], starts[:, rays], widths[:, a], t_lo[rays], t_hi[rays]
            )
            data[nnz : nnz + v.size] = v
            indices[nnz : nnz + v.size] = j
            nnz += v.size
            del j, v
        return nnz

    if cap < _SPLIT_MIN_SLOTS * len(radians) or _CPUS < 2:
        nnz = fill(range(len(radians)), 0)
    else:
        # Imported here, its only use, so that a process that never splits a build does not load it.
        from concurrent.futures import ThreadPoolExecutor

        k = int(np.searchsorted(slots, cap / 2))
        start = int(slots[k])
        with ThreadPoolExecutor(1) as pool:
            second = pool.submit(fill, range(k, len(radians)), start)
            nnz = fill(range(k), 0)
            end = second.result()
        data[nnz : nnz + end - start] = data[start:end]
        indices[nnz : nnz + end - start] = indices[start:end]
        nnz += end - start
    indptr = np.zeros(geom.nrows + 1, dtype=index_dtype)
    indptr[1:][hit.ravel()] = counts
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(data[:nnz], indices[:nnz], indptr, (geom.nrows, geom.ncols), nnz)


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


# Both products of iteration k share one entry, emptied before the next build.
@functools.lru_cache(maxsize=1)
def _jittered_operator(geom, alpha_k, seed, k):
    _jittered_operator.cache_clear()
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
    img = np.zeros((n, n))
    for value, a, b, x0, y0, ang in _ELLIPSES:
        phi = math.radians(ang)
        c, s = math.cos(phi), math.sin(phi)
        # Past its bounding box widened by a pixel, an ellipse adds exactly 0.0.
        wx, wy = math.hypot(a * c, b * s) + 2.0 / n, math.hypot(a * s, b * c) + 2.0 / n
        ix = slice(*np.searchsorted(coords, (x0 - wx, x0 + wx)))
        iy = slice(*np.searchsorted(coords, (y0 - wy, y0 + wy)))
        x, y = coords[ix, None] - x0, coords[None, iy] - y0  # x varies along image columns
        xr = x * c + y * s
        yr = -x * s + y * c
        img[ix, iy] += np.where((xr / a) ** 2 + (yr / b) ** 2 <= 1.0, value, 0.0)
    # img[ix, iy]: flatten x-major to match vector index iy + n*ix
    return np.clip(img, 0.0, 1.0).reshape(-1)


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
