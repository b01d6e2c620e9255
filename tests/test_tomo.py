import gc
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from igenkrylov import harness, linop, prior, regparam, tomo
from igenkrylov.config import ExperimentConfig, InexactConfig
from igenkrylov.errors import ConfigError, InputError

from conftest import dot_test, grid_to_image, read_pgm, reference_system_matrix, solve_one


def sampled_line_integral(vec, n, theta_deg, offset, nsamples=200001):
    """Brute-force line integral by fine sampling along the ray (independent oracle)."""
    t = math.radians(theta_deg)
    dx, dy = -math.sin(t), math.cos(t)
    ex, ey = math.cos(t), math.sin(t)
    h = n / 2.0
    half_len = n * math.sqrt(2.0)
    s = np.linspace(-half_len, half_len, nsamples)
    px = offset * ex + s * dx
    py = offset * ey + s * dy
    ix = np.floor(px + h).astype(int)
    iy = np.floor(py + h).astype(int)
    inside = (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
    vals = np.zeros_like(s)
    vals[inside] = vec[iy[inside] + n * ix[inside]]
    return float(np.trapezoid(vals, s))


def test_geometry_dimension_invariants():
    g128 = tomo.CTGeometry(n=128, angles=tomo.default_angles())
    assert (g128.nrows, g128.ncols, g128.nrays) == (6516, 16384, 181)
    g64 = tomo.CTGeometry(n=64, angles=tomo.default_angles())
    assert (g64.nrows, g64.ncols, g64.nrays) == (3276, 4096, 91)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="projection angles must be finite"):
            tomo.CTGeometry(n=64, angles=(1.0, bad))


def test_zero_image_zero_sinogram():
    geom = tomo.CTGeometry(n=16, angles=(10.0, 77.0))
    np.testing.assert_array_equal(tomo.RadonOperator(geom).apply(np.zeros(256)), 0.0)


def test_axis_aligned_central_ray_sum():
    n = 8
    geom = tomo.CTGeometry(n=n, angles=(0.0,))
    sino = tomo.RadonOperator(geom).apply(np.ones(n * n))
    central = (geom.nrays - 1) // 2
    assert sino[central] == pytest.approx(n, rel=1e-12)


def test_axis_symmetry_zero_vs_ninety_degrees():
    n = 8
    rng = np.random.default_rng(0)
    img = rng.random((n, n))
    sym = img + img.T  # symmetric under (ix, iy) swap
    vec = sym.reshape(-1)  # index iy + n*ix
    s0 = tomo.RadonOperator(tomo.CTGeometry(n=n, angles=(0.0,))).apply(vec)
    s90 = tomo.RadonOperator(tomo.CTGeometry(n=n, angles=(90.0,))).apply(vec)
    np.testing.assert_allclose(s0, s90, atol=1e-12)


def test_forward_matches_sampled_integral_oracle():
    n = 16
    geom = tomo.CTGeometry(n=n, angles=(33.0,))
    vec = tomo.make_phantom(n)
    sino = tomo.RadonOperator(geom).apply(vec)
    offsets = geom.offsets()
    for ray in (5, 11, 17):
        ref = sampled_line_integral(vec, n, 33.0, offsets[ray])
        assert sino[ray] == pytest.approx(ref, abs=5e-3)


def force_split(monkeypatch, on):
    """Build every matrix on two threads (``on``), or every one on one."""
    monkeypatch.setattr(tomo, "_CPUS", 2 if on else 1)
    if on:
        monkeypatch.setattr(tomo, "_SPLIT_MIN_SLOTS", 0)


def oracle_angle_sets():
    """Angle sets the windowed assembly must reproduce bit for bit."""
    rng = np.random.default_rng(11)
    default = np.array(tomo.default_angles())
    return {
        "default": tuple(default),
        "jittered": tuple(default + 0.1 * rng.standard_normal(default.size)),
        "axis-parallel": (0.0, 90.0, 180.0, 270.0, -90.0, 45.0, 135.0),
        "uniform": tuple(rng.uniform(-360.0, 360.0, 50)),
        # Rays grazing a grid line split one pixel's chord in two: the matrix
        # keeps both entries, and its canonical form sums them as the COO
        # conversion does.
        "grazing": (90.0000000001, 1e-9, math.degrees(2e-12), -44.9999999999),
        # With n=6 and 48 rays, the 60-degree ray at offset 1.5 enters at a
        # grid corner: its chord starts at y-coordinate exactly 3, yet its
        # crossing with that grid line rounds one ulp inside the chord, so
        # the window must start at floor(a) itself.
        "corner": (60.0, 30.0, 120.0),
    }


# Entries the grazing set keeps beyond the canonical matrix's, per (n, nrays);
# no other set repeats a pixel within a row.
GRAZING_DUPLICATES = {(16, None): 21, (64, None): 93, (128, None): 189,
                      (16, 7): 9, (64, 7): 9, (128, 7): 9}


@pytest.mark.parametrize(
    "n, nrays", [(n, nrays) for n in (16, 17, 64, 128) for nrays in (None, 7)] + [(6, 48)]
)
def test_system_matrix_bitwise_matches_coo_assembly(n, nrays, monkeypatch):
    """The same matrix as the COO assembly's, stored in traversal order.

    Its canonical form (a SciPy copy of its arrays after ``sum_duplicates``)
    is bit for bit the reference. Where no row repeats a pixel, every pixel
    of an adjoint product gathers one term per row in row order, so the
    adjoint is bitwise the reference's; forward products sum each row in
    traversal order and agree to rounding. Both products are bitwise SciPy's
    ``A @ x`` and ``A.T @ y`` on the same arrays, strided inputs included.
    Products leave the matrix's arrays untouched, and a second build gives
    the same bytes. All of this holds for one-thread and two-thread builds.
    """
    rng = np.random.default_rng(n)
    for split, (name, angles) in itertools.product((False, True), oracle_angle_sets().items()):
        force_split(monkeypatch, split)
        geom = tomo.CTGeometry(n=n, angles=angles, nrays=nrays)
        ref = reference_system_matrix(geom)
        op = tomo.RadonOperator(geom)
        mat = op._mat
        again = tomo.system_matrix(geom)
        for arr in ("indptr", "indices", "data"):
            assert getattr(again, arr).tobytes() == getattr(mat, arr).tobytes(), (name, split, arr)
        assert mat.indptr.dtype == mat.indices.dtype, (name, split)
        assert isinstance(mat.nnz, int) and mat.nnz == mat.data.size, (name, split)
        csr = sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)
        assert csr.format == "csr" and csr.shape == ref.shape, (name, split)
        canonical = csr.copy()
        canonical.sum_duplicates()
        for arr in ("indptr", "indices"):
            got, want = getattr(canonical, arr), getattr(ref, arr)
            assert got.dtype == want.dtype == getattr(mat, arr).dtype, (name, split, arr)
            np.testing.assert_array_equal(got, want, err_msg=f"{name} {split} {arr}")
        assert canonical.data.tobytes() == ref.data.tobytes(), (name, split)
        duplicates = GRAZING_DUPLICATES.get((n, nrays), 0) if name == "grazing" else 0
        assert mat.nnz - ref.nnz == duplicates, (name, split)

        stored = [arr.copy() for arr in (mat.indptr, mat.indices, mat.data)]
        x = rng.standard_normal(geom.ncols)
        y = rng.standard_normal(geom.nrows)
        fwd, fwd_ref = op.apply(x), ref @ x
        assert np.max(np.abs(fwd - fwd_ref)) <= 1e-14 * np.max(np.abs(fwd_ref)), (name, split)
        adj, adj_ref = op.apply_adjoint(y), ref.T @ y
        if duplicates == 0:
            assert adj.tobytes() == adj_ref.tobytes(), (name, split)
        else:
            assert np.max(np.abs(adj - adj_ref)) <= 1e-14 * np.max(np.abs(adj_ref)), (name, split)
        assert fwd.tobytes() == (csr @ x).tobytes(), (name, split)
        assert adj.tobytes() == (csr.T @ y).tobytes(), (name, split)
        xs = rng.standard_normal((geom.ncols, 3))[:, 1]
        ys = rng.standard_normal((geom.nrows, 3))[:, 1]
        assert not xs.flags.contiguous and not ys.flags.contiguous
        assert op.apply(xs).tobytes() == (csr @ xs).tobytes(), (name, split)
        assert op.apply_adjoint(ys).tobytes() == (csr.T @ ys).tobytes(), (name, split)
        for before, after in zip(stored, (mat.indptr, mat.indices, mat.data)):
            assert before.tobytes() == after.tobytes(), (name, split)


def test_assembly_peak_stays_below_one_and_a_half_times_the_matrix(monkeypatch):
    """Each angle's entries are written straight into two buffers bounded by
    the window widths, and the matrix holds views of their filled parts, so
    a build never holds its entries twice: its traced peak stays below 1.5
    times the bytes of the CSR arrays it returns. On one thread that is about
    1.29 at n=64 and 1.21 at n=128; two threads each hold one angle's arrays,
    1.39-1.45 and 1.31-1.36. Per-angle arrays joined at the end reached 1.78
    and 1.73."""
    for split, n in itertools.product((False, True), (64, 128)):
        force_split(monkeypatch, split)
        geom = tomo.CTGeometry(n=n, angles=tomo.default_angles())
        tracemalloc.start()
        try:
            mat = tomo.system_matrix.__wrapped__(geom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes), (n, split)


def test_traversal_makes_no_segment_from_one_ray_to_the_next():
    """Segment lengths and midpoints come from the flattened crossings, where
    one ray's chord end meets the next ray's start. That pair is no entry,
    even where the stretch between them runs inside the grid on the first
    ray: here ray 0 ends at y = 0 and ray 1 starts at y = 1."""
    n, h, d = 4, 2.0, np.array([0.0, 1.0])
    p = np.array([[0.5, 1.5], [0.0, 0.0]])
    t_lo, t_hi = np.array([-1.0, 1.0]), np.array([0.0, 2.0])
    starts, widths = tomo._edge_windows(n, h, d[:, None], p, t_lo, t_hi)
    counts, pix, lengths = tomo._traverse(n, h, d, p, starts, widths.max(axis=1), t_lo, t_hi)
    assert counts.tolist() == [1, 1]
    assert pix.tolist() == [1 + n * 2, 3 + n * 3] and lengths.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("n", [96, 128])
def test_two_thread_build_is_bitwise_the_one_thread_build(n, monkeypatch):
    default = np.array(tomo.default_angles())
    jitter = np.random.default_rng(n).standard_normal((2, default.size))
    angle_sets = (
        tuple(default),
        tuple(default + 0.1 * jitter[0]),
        tuple(default + jitter[1]),
        (0.0, 90.0, 180.0, 270.0, -30.0, 400.0),
        (33.0,),
    )
    # On an empty grid every ray misses.
    geoms = [tomo.CTGeometry(n=n, angles=a) for a in angle_sets]
    geoms.append(tomo.CTGeometry(n=0, angles=(1.0, 45.0, 90.0), nrays=7))
    # The threads switch as often as the interpreter allows.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for geom in geoms:
            force_split(monkeypatch, False)
            one = tomo.system_matrix(geom)
            force_split(monkeypatch, True)
            two = tomo.system_matrix(geom)
            for arr in ("data", "indices", "indptr"):
                same = getattr(two, arr).tobytes() == getattr(one, arr).tobytes()
                assert same, (geom.angles, arr)
            assert (two.nnz, two.shape) == (one.nnz, one.shape) and isinstance(two.nnz, int)
    finally:
        sys.setswitchinterval(interval)
    assert geoms[-1].nrows == 21 and one.nnz == 0


def test_only_builds_from_n96_run_on_two_threads(monkeypatch):
    """At the default angles the mean slot bound per angle is 5,544 at n=64,
    8,553 at n=80 and 12,221 at n=96, against a threshold of 10,000."""
    monkeypatch.setattr(tomo, "_CPUS", 2)
    threads, traverse = set(), tomo._traverse

    def recording(*args):
        threads.add(threading.get_ident())
        return traverse(*args)

    monkeypatch.setattr(tomo, "_traverse", recording)
    for n in (64, 80, 96, 128):
        threads.clear()
        tomo.system_matrix(tomo.CTGeometry(n=n, angles=tomo.default_angles()))
        assert len(threads) == (2 if n >= 96 else 1), n
    monkeypatch.setattr(tomo, "_CPUS", 1)
    threads.clear()
    tomo.system_matrix(tomo.CTGeometry(n=128, angles=tomo.default_angles()))
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("failing_half", ["first", "second"])
def test_a_failed_traversal_reaches_the_caller_and_leaves_no_thread(failing_half, monkeypatch):
    """The first half runs on the calling thread, the second on the worker."""
    force_split(monkeypatch, True)
    caller, traverse = threading.get_ident(), tomo._traverse
    error = RuntimeError(f"traversal failed in the {failing_half} half")

    def failing(*args):
        if (threading.get_ident() == caller) == (failing_half == "first"):
            raise error
        return traverse(*args)

    monkeypatch.setattr(tomo, "_traverse", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        tomo.system_matrix(tomo.CTGeometry(n=96, angles=tomo.default_angles()))
    assert info.value is error
    assert threading.active_count() == before


def test_adjoint_dot_test(small_ct):
    geom, op = small_ct
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert dot_test(op, rng) <= 1e-10


def test_single_ray_backprojection_weights():
    n = 8
    geom = tomo.CTGeometry(n=n, angles=(0.0,), nrays=8)  # even count: rays at centers
    offsets = geom.offsets()
    ray = 2
    e = np.zeros(geom.nrows)
    e[ray] = 1.0
    img = tomo.RadonOperator(geom).apply_adjoint(e)
    ix = int(math.floor(offsets[ray] + n / 2.0))
    expected = np.zeros(n * n)
    expected[np.arange(n) + n * ix] = 1.0  # vertical ray: unit length in each cell
    np.testing.assert_allclose(img, expected, atol=1e-12)


def test_adjoint_of_zero():
    geom = tomo.CTGeometry(n=16, angles=(5.0, 50.0))
    np.testing.assert_array_equal(tomo.RadonOperator(geom).apply_adjoint(np.zeros(geom.nrows)), 0.0)


def test_products_reject_a_vector_of_the_wrong_length():
    """The compiled products would read past the end of a short vector."""
    geom = tomo.CTGeometry(n=16, angles=(10.0, 77.0))
    A = tomo.RadonOperator(geom)
    assert (A.nrows, A.ncols) == (46, 256)
    with pytest.raises(InputError, match=r"expected vector of length 256, got shape \(255,\)"):
        A.apply(np.ones(255))
    with pytest.raises(InputError, match=r"expected vector of length 46, got shape \(3,\)"):
        A.apply_adjoint(np.ones(3))
    with pytest.raises(InputError, match=r"got shape \(256, 1\)"):
        A.apply(np.ones((256, 1)))
    model = linop.InexactnessModel(mode="gaussian-entry", beta=1e-2, seed=0)
    with pytest.raises(InputError, match=r"expected vector of length 46, got shape \(47,\)"):
        linop.perturbed_apply_adjoint(A, model, 1, np.ones(47))


def test_mass_conservation_axis_aligned():
    n = 16
    vec = tomo.make_phantom(n)  # supported strictly inside the grid
    total = vec.sum()
    for theta in (0.0, 90.0):
        sino = tomo.RadonOperator(tomo.CTGeometry(n=n, angles=(theta,))).apply(vec)
        assert sino.sum() == pytest.approx(total, rel=1e-8)


def test_phantom_range_and_determinism():
    p1 = tomo.make_phantom(64)
    p2 = tomo.make_phantom(64)
    np.testing.assert_array_equal(p1, p2)
    assert p1.min() >= 0.0 and p1.max() <= 1.0
    assert p1.size == 64 * 64
    support = np.count_nonzero(p1 > 0) / p1.size
    assert 0.3 <= support <= 0.9


def test_phantom_paper_scale_length():
    assert tomo.make_phantom(128).size == 16384


def test_synthesize_observation_exact_level():
    geom = tomo.CTGeometry(n=16, angles=tomo.default_angles(count=6, step=30.0))
    A = tomo.RadonOperator(geom)
    s = tomo.make_phantom(16)
    d0, nn0 = tomo.synthesize_observation(A, s, 0.0, seed=5)
    np.testing.assert_array_equal(d0, A.apply(s))
    assert nn0 == 0.0
    d, nn = tomo.synthesize_observation(A, s, 0.04, seed=5)
    d_true = A.apply(s)
    ratio = np.linalg.norm(d - d_true) / np.linalg.norm(d_true)
    assert ratio == pytest.approx(0.04, rel=1e-12)
    assert nn == pytest.approx(np.linalg.norm(d - d_true), rel=1e-12)
    d2, _ = tomo.synthesize_observation(A, s, 0.04, seed=5)
    np.testing.assert_array_equal(d, d2)
    with pytest.raises(InputError, match="cannot add relative noise to a zero sinogram"):
        tomo.synthesize_observation(A, np.zeros(256), 0.04, seed=5)


def angle_model(start, end, max_iter, seed):
    """The angle-perturbation model a run with these settings uses."""
    cfg = ExperimentConfig(
        mode="igk",
        inexactness=InexactConfig(mode="angle-perturbation"),
        angle_schedules=((start, end),),
        max_iter=max_iter,
        seed=seed,
    )
    return harness.inexactness_for(cfg)


def test_angle_schedule_endpoints_and_ratio():
    model = angle_model(1e-1, 1e-6, max_iter=100, seed=0)
    assert model.schedule == (1e-1, 1e-6, 100)
    a = np.array([model.magnitude(k) for k in range(1, 101)])
    assert a[0] == 1e-1
    assert a[-1] == 1e-6
    assert np.all(np.diff(a) < 0)
    ratios = a[1:] / a[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(ConfigError):
        angle_model(0.0, 1e-6, max_iter=10, seed=0)


def test_zero_jitter_is_bitwise_exact(small_ct):
    geom, op = small_ct
    x = np.random.default_rng(2).standard_normal(geom.ncols)
    np.testing.assert_array_equal(tomo._jittered_operator(geom, 0.0, 9, 2).apply(x), op.apply(x))
    y = np.random.default_rng(3).standard_normal(geom.nrows)
    np.testing.assert_array_equal(
        tomo._jittered_operator(geom, 0.0, 9, 1).apply_adjoint(y), op.apply_adjoint(y)
    )


def test_jittered_operator_deterministic(small_ct):
    geom, op = small_ct
    model = angle_model(1e-1, 1e-3, max_iter=5, seed=4)
    op1 = op.perturbed_variant(model, 3)
    op2 = op.perturbed_variant(model, 3)
    x = np.random.default_rng(4).standard_normal(geom.ncols)
    np.testing.assert_array_equal(op1.apply(x), op2.apply(x))
    op_other = op.perturbed_variant(model, 4)
    assert np.any(op_other.apply(x) != op1.apply(x))


def test_caches_keep_one_jittered_matrix(small_ct, monkeypatch):
    """One jittered matrix per iteration, and as each one's build begins no
    earlier one is alive: the operator and matrix of iteration k - 1 are
    freed before iteration k's matrix is built, so a solve never holds two."""
    _, op = small_ct
    matrices, alive_at_build = [], []
    init = tomo.RadonOperator.__init__

    def recording_init(self, g):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in matrices))
        init(self, g)
        matrices.append(weakref.ref(self._mat))

    monkeypatch.setattr(tomo.RadonOperator, "__init__", recording_init)
    tomo._jittered_operator.cache_clear()
    model = angle_model(1e-1, 1e-3, max_iter=20, seed=5)
    s_true = tomo.make_phantom(16)
    rec = solve_one(
        op, model, prior.IdentityCovariance(),
        prior.NoiseModel(sigma=1.0), op.apply(s_true),
        20, regparam.RegConfig(rule="none"), s_true,
    )
    assert rec.iterations == 20
    # One build per iteration, both its products share it, and none overlap.
    assert alive_at_build == [0] * 20
    del rec
    gc.collect()
    assert sum(ref() is not None for ref in matrices) <= 1


# Runs in a fresh interpreter: an n=16 gengk reconstruction, then an n=16
# angle-inexactness study in igk mode. Prints each command's exit code and
# the scipy packages loaded by then.
IMPORT_PROBE = """
import json, sys
import igenkrylov.cli
rcs = [igenkrylov.cli.main(["reconstruct", "--config", sys.argv[1]]),
       igenkrylov.cli.main(["inexact-angles", "--config", sys.argv[2],
                            "--mode", "igk", "--max-iter", "2"])]
print(json.dumps({"rcs": rcs, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_cli_runs_load_the_kernels_without_scipy_sparse(tmp_path):
    paths = []
    for name, mode in (("reconstruct", "gengk"), ("angles", "igk")):
        cfg = {"schema_version": 1, "geometry": {"n": 16}, "mode": mode, "max_iter": 2,
               "output_dir": str(tmp_path / name)}
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *map(str, paths)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["rcs"] == [0, 0]
    assert (tmp_path / "reconstruct" / "history.csv").exists()
    assert "scipy.sparse" not in probe["scipy"] and "scipy.special" not in probe["scipy"]


def power_iteration_norm(apply_fn, apply_t_fn, n, iters=10, seed=0):
    x = np.random.default_rng(seed).standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(iters):
        y = apply_t_fn(apply_fn(x))
        ny = np.linalg.norm(y)
        if ny == 0:
            return 0.0
        x = y / ny
    return math.sqrt(ny)


def test_operator_difference_shrinks_with_alpha():
    n = 32
    geom = tomo.CTGeometry(n=n, angles=tomo.default_angles(count=12, step=15.0))
    base = tomo.RadonOperator(geom)
    g = np.random.default_rng(5).standard_normal(len(geom.angles))
    norms = []
    for alpha in (1.0, 0.3, 0.1, 0.03, 0.01):
        angs = tuple(t + alpha * gi for t, gi in zip(geom.angles, g))
        pert = tomo.RadonOperator(replace(geom, angles=angs))

        def fwd(x):
            return pert.apply(x) - base.apply(x)

        def adj(y):
            return pert.apply_adjoint(y) - base.apply_adjoint(y)

        norms.append(power_iteration_norm(fwd, adj, geom.ncols))
    assert np.all(np.diff(norms) < 0)


def test_pgm_roundtrip(tmp_path):
    vec = tomo.make_phantom(16)
    path = tmp_path / "img.pgm"
    path.write_bytes(harness.pgm_bytes(vec, 16))
    back, n = read_pgm(path)
    assert n == 16
    assert np.max(np.abs(back - vec)) <= 1.0 / 65535.0


def test_image_vectorization_roundtrip():
    n = 16
    vec = tomo.make_phantom(n)
    np.testing.assert_array_equal(grid_to_image(tomo.image_to_grid(vec, n)), vec)
