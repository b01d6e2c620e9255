"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale CT problem
(n=64, 36 angles, 91 rays) keeps the whole suite at about fifteen seconds on
two cores. Each inexact product draws a single error vector and each
iteration makes one covariance product, so the angle-jitter rebuilds of
criterion 07 dominate the runtime.
"""

import math
import time

import numpy as np
import pytest

from igenkrylov import bidiag, harness, linop, prior, regparam, solve, tomo
from igenkrylov.config import ExperimentConfig
from igenkrylov.regparam import RegConfig

from conftest import (
    ComposedOperator,
    DenseOperator,
    DenseSPDCovariance,
    build_dense_cov,
    dense_generalized_tikhonov,
    dot_test,
    gk_decompose,
    random_spd,
    solve_one,
)

DESK_N = 64
DESK_ITERS = 50
DESK_SEED = 1234
DESK_BETA = 1e-2


def report(num, ok, detail, elapsed=None):
    status = "PASS" if ok else "FAIL"
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {num:02d} {status}{stamp}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def build_desk_problem(seed=DESK_SEED):
    geom = tomo.CTGeometry(n=DESK_N, angles=tomo.default_angles())
    A = tomo.RadonOperator(geom)
    s_true = tomo.make_phantom(DESK_N)
    d, noise_norm = tomo.synthesize_observation(A, s_true, 0.04, seed=seed)
    kernel = prior.MaternKernel(nu=1.5, alpha=1.0 / 0.01)
    Q = prior.CovarianceOperator((DESK_N, DESK_N), kernel)
    nm = prior.NoiseModel(sigma=1.0)
    return geom, A, Q, nm, s_true, d, noise_norm


@pytest.fixture(scope="module")
def desk():
    return build_desk_problem()


@pytest.fixture(scope="module")
def desk_unregularized(desk):
    geom, A, Q, nm, s_true, d, _ = desk
    model = linop.InexactnessModel(mode="gaussian-entry", beta=DESK_BETA, seed=DESK_SEED)
    t0 = time.perf_counter()
    record = solve_one(A, model, Q, nm, d, DESK_ITERS, RegConfig(rule="none"), s_true=s_true)
    return record, time.perf_counter() - t0


def test_criterion_01_relation_table(desk):
    geom, A, Q, nm, s_true, d, _ = desk
    t0 = time.perf_counter()
    reports = {}
    for beta in (1e-2, 1e-4, 1e-6):
        model = linop.InexactnessModel(mode="gaussian-entry", beta=beta, seed=DESK_SEED)
        state = bidiag.igenGK_run(A, model, Q, nm, d, DESK_ITERS)
        reports[beta] = bidiag.relation_diagnostics(state, A, Q, nm)
    elapsed = time.perf_counter() - t0

    orth_ok = all(r.err_Vorth <= 1e-10 and r.err_Uorth <= 1e-10 for r in reports.values())
    pairs = [(1e-2, 1e-4), (1e-4, 1e-6)]
    ratio_ok = True
    for b1, b2 in pairs:
        for attr in ("err_adjoint", "err_forward"):
            ratio = getattr(reports[b1], attr) / getattr(reports[b2], attr)
            ratio_ok &= abs(ratio / (b1 / b2) - 1.0) <= 0.10
    detail = (
        f"worst orth={max(max(r.err_Vorth, r.err_Uorth) for r in reports.values()):.2e}, "
        f"adjoint errs={[f'{reports[b].err_adjoint:.2e}' for b in (1e-2, 1e-4, 1e-6)]}"
    )
    report(1, orth_ok and ratio_ok and elapsed <= 120.0, detail, elapsed)


def test_criterion_02_reduction_chain():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(9000 + seed)
        mat = rng.standard_normal((20, 15))
        b = rng.standard_normal(20)
        A = DenseOperator(mat)

        Qm = random_spd(15, rng, cond=6.0)
        Q_gen = DenseSPDCovariance(Qm)
        nm_gen = prior.NoiseModel(sigma=1.5)
        zero = linop.InexactnessModel(mode="gaussian-entry", beta=0.0, seed=seed)
        s_inexact = bidiag.igenGK_run(A, zero, Q_gen, nm_gen, b, 8)
        s_exact = bidiag.igenGK_run(A, linop.EXACT, Q_gen, nm_gen, b, 8)
        worst = max(worst, float(np.max(np.abs(s_inexact.M - s_exact.M))))
        worst = max(worst, float(np.max(np.abs(s_inexact.V - s_exact.V))))

        Q_id = prior.IdentityCovariance()
        nm_id = prior.NoiseModel(sigma=1.0)
        eng = bidiag.igenGK_run(A, zero, Q_id, nm_id, b, 8)
        gk = gk_decompose(A, b, 8, reorthogonalize=True)
        for k in range(1, 9):
            y_eng = solve.projected_tikhonov(
                solve.ProjectedProblem(M=eng.M[: k + 1, :k], beta1=eng.beta1), 0.0
            )[0]
            y_gk = solve.projected_tikhonov(
                solve.ProjectedProblem(M=gk.M[: k + 1, :k], beta1=gk.beta1), 0.0
            )[0]
            x_eng = eng.V[:, :k] @ y_eng
            x_gk = gk.V[:, :k] @ y_gk
            worst = max(worst, float(np.linalg.norm(x_eng - x_gk)))
        for j in range(8):
            d = min(
                np.linalg.norm(eng.V[:, j] - gk.V[:, j]),
                np.linalg.norm(eng.V[:, j] + gk.V[:, j]),
            )
            worst = max(worst, float(d))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-10 and elapsed <= 5.0, f"worst deviation {worst:.2e}", elapsed)


def test_criterion_03_dense_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    Amat = rng.standard_normal((20, 15))
    Qm = random_spd(15, rng, cond=5.0)
    sigma = 1.2
    b = rng.standard_normal(20)
    A = DenseOperator(Amat)
    Q = DenseSPDCovariance(Qm)
    nm = prior.NoiseModel(sigma=sigma)
    worst = 0.0
    for lam in (0.0, 0.1, 1.0):
        rule = RegConfig(rule="none") if lam == 0.0 else RegConfig(rule="fixed", lambda_fixed=lam)
        s_ref = dense_generalized_tikhonov(Amat, Qm, sigma, b, lam)
        rec = solve_one(A, linop.EXACT, Q, nm, b, 15, rule, s_ref)
        worst = max(worst, np.linalg.norm(rec.solution - s_ref) / np.linalg.norm(s_ref))
    elapsed = time.perf_counter() - t0
    report(3, worst <= 1e-8 and elapsed <= 5.0, f"worst recovered-s error {worst:.2e}", elapsed)


def test_criterion_04_semiconvergence(desk_unregularized):
    record, elapsed = desk_unregularized
    e = np.array(record.relerr)
    kstar = int(np.argmin(e)) + 1
    interior = 1 < kstar < DESK_ITERS
    rise = e[-1] - e.min()
    ok = interior and rise >= 0.05 and elapsed <= 120.0
    report(4, ok, f"argmin at k={kstar}, min={e.min():.4f}, final={e[-1]:.4f}, rise={rise:.4f}", elapsed)


def test_criterion_05_hybrid_stabilization(desk, desk_unregularized):
    geom, A, Q, nm, s_true, d, _ = desk
    unreg, _ = desk_unregularized
    model = linop.InexactnessModel(mode="gaussian-entry", beta=DESK_BETA, seed=DESK_SEED)
    t0 = time.perf_counter()
    rec = solve_one(A, model, Q, nm, d, DESK_ITERS, RegConfig(rule="optimal"), s_true=s_true)
    elapsed = time.perf_counter() - t0
    e = np.array(rec.relerr)
    kstar = int(np.argmin(e))
    no_blowup = float(np.max(e[kstar:]) - e[kstar]) <= 0.02
    final_ok = e[-1] <= min(unreg.relerr) + 0.02
    ok = no_blowup and final_ok and elapsed <= 300.0
    report(
        5,
        ok,
        f"post-min rise {np.max(e[kstar:]) - e[kstar]:.4f}, final {e[-1]:.4f} "
        f"vs unregularized min {min(unreg.relerr):.4f}",
        elapsed,
    )


def test_criterion_06_dp_near_optimal():
    t0 = time.perf_counter()
    gaps = []
    for seed in (101, 202, 303):
        geom, A, Q, nm, s_true, d, noise_norm = build_desk_problem(seed=seed)
        model = linop.InexactnessModel(mode="gaussian-entry", beta=DESK_BETA, seed=seed)
        args = (A, model, Q, nm, d, DESK_ITERS)
        rec_opt = solve_one(*args, RegConfig(rule="optimal"), s_true=s_true)
        rec_dp = solve_one(
            *args, RegConfig(rule="dp", nu_dp=1.0), noise_norm=noise_norm, s_true=s_true
        )
        gaps.append(abs(rec_dp.final_relerr - rec_opt.final_relerr))
    elapsed = time.perf_counter() - t0
    report(6, max(gaps) <= 0.05, f"per-seed |final_dp - final_opt| = {[f'{g:.4f}' for g in gaps]}", elapsed)


def test_criterion_07_angle_inexactness_ordering(desk):
    geom, A, Q, nm, s_true, d, _ = desk
    t0 = time.perf_counter()
    rule = RegConfig(rule="optimal")

    def final(model):
        return solve_one(A, model, Q, nm, d, DESK_ITERS, rule, s_true=s_true).final_relerr

    finals = {}
    finals["exact"] = final(linop.EXACT)
    run_cfg = ExperimentConfig(max_iter=DESK_ITERS, seed=DESK_SEED)
    for label, start in (("small", 1e-1), ("large", 1e0)):
        model = harness.inexactness_for(run_cfg, angles=(start, 1e-6))
        finals[label] = final(model)
    elapsed = time.perf_counter() - t0
    ok = (
        finals["small"] <= finals["exact"] + 0.02
        and finals["small"] <= finals["large"]
    )
    report(
        7,
        ok,
        f"final errors: exact={finals['exact']:.4f}, small={finals['small']:.4f}, "
        f"large={finals['large']:.4f}",
        elapsed,
    )


def test_criterion_08_covariance_backends():
    t0 = time.perf_counter()
    kernel = prior.MaternKernel(nu=1.5, alpha=1.0 / 0.01)
    worst = 0.0
    rng = np.random.default_rng(11)
    for shape in ((8, 8), (16, 16), (32, 32)):
        dense = build_dense_cov(shape, kernel)
        fft_op = prior.CovarianceOperator(shape, kernel)
        for _ in range(50):
            x = rng.standard_normal(math.prod(fft_op.grid_shape))
            ref = dense @ x
            worst = max(worst, np.linalg.norm(fft_op.apply(x) - ref) / np.linalg.norm(ref))
    big = prior.CovarianceOperator((128, 128), kernel)
    xb = rng.standard_normal(128 * 128)
    big.apply(xb)  # warm
    times = []
    for _ in range(10):
        t1 = time.perf_counter()
        big.apply(xb)
        times.append(time.perf_counter() - t1)
    per_apply = float(np.median(times))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and per_apply <= 0.050  # 50 ms soft budget
    report(8, ok, f"worst backend mismatch {worst:.2e}, 128x128 apply {per_apply * 1e3:.2f}ms", elapsed)


def test_criterion_09_adjoint_dot_tests(desk):
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    geoms = [
        tomo.CTGeometry(n=16, angles=tomo.default_angles(count=8, step=22.0)),
        tomo.CTGeometry(n=32, angles=tomo.default_angles(count=12, step=15.0)),
        desk[0],
    ]
    worst = 0.0
    for geom in geoms:
        op = tomo.RadonOperator(geom)
        for _ in range(3):
            worst = max(worst, dot_test(op, rng))
    for shape in ((7, 5), (20, 15)):
        op = DenseOperator(rng.standard_normal(shape))
        worst = max(worst, dot_test(op, rng))
    comp = ComposedOperator(
        DenseOperator(rng.standard_normal((9, 6))),
        DenseOperator(rng.standard_normal((6, 4))),
    )
    worst = max(worst, dot_test(comp, rng))
    elapsed = time.perf_counter() - t0
    report(9, worst <= 1e-10, f"worst relative dot-test defect {worst:.2e}", elapsed)


def test_criterion_10_regparam_unit_oracles():
    t0 = time.perf_counter()
    prob = solve.ProjectedProblem(M=np.array([[1.0], [0.0]]), beta1=1.0)
    lam_dp = regparam.select_lambda_dp(prob, 0.5)
    dp_ok = abs(lam_dp - 1.0) <= 1e-4

    rng = np.random.default_rng(13)
    M = rng.standard_normal((6, 5))
    p2 = solve.ProjectedProblem(M=M, beta1=1.0)
    gcv_ok = True
    for lam in (1e-2, 0.5, 3.0):
        inner = np.linalg.inv(M.T @ M + lam * lam * np.eye(5))
        e1 = np.zeros(6)
        e1[0] = 1.0
        y = inner @ (M.T @ e1)
        ref = np.linalg.norm(M @ y - e1) ** 2 / np.trace(np.eye(6) - M @ inner @ M.T) ** 2
        gcv_ok &= abs(regparam.wgcv_value(p2, lam, 1.0) - ref) <= 1e-12 * abs(ref)

    V = rng.standard_normal((9, 5))
    s_true = rng.standard_normal(9)
    lam_opt = regparam.select_lambda_optimal(p2, regparam.OracleError(s_true, V))

    def f(la):
        yy, _ = solve.projected_tikhonov(p2, la)
        return float(np.linalg.norm(solve.recover_solution(V, yy) - s_true) ** 2)

    opt_ok = all(f(lam_opt) <= f(la) * (1 + 1e-12) for la in regparam._lambda_grid(p2))
    elapsed = time.perf_counter() - t0
    report(
        10,
        dp_ok and gcv_ok and opt_ok,
        f"dp lambda={lam_dp:.6f}, wgcv(omega=1)==gcv: {gcv_ok}, optimal grid-optimality: {opt_ok}",
        elapsed,
    )
