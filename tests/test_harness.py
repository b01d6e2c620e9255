import json
import time
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from igenkrylov import bidiag, cli, harness, linop, solve
from igenkrylov.config import (
    ExperimentConfig,
    GeometryConfig,
    InexactConfig,
    INDEX_MAX,
    PriorConfig,
    RegConfig,
    config_from_dict,
    config_from_json,
    preset,
)
from igenkrylov.errors import ConfigError
from igenkrylov.prior import CovarianceOperator, IdentityCovariance, MaternKernel

from conftest import config_to_json


def tiny_config(tmp_path, **overrides):
    cfg = ExperimentConfig(
        geometry=GeometryConfig(n=16, angle_count=10, angle_step=18.0),
        max_iter=4,
        seed=42,
        output_dir=str(tmp_path / "out"),
    )
    return replace(cfg, **overrides)


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path)
    path = tmp_path / "cfg.json"
    config_to_json(cfg, path)
    back = config_from_json(path)
    assert back == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1, "nonsense": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1, "geometry": {"sides": 3}})


def test_config_rejects_bad_schema_version():
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 99})


def test_config_sections_are_frozen_and_checked_on_construction():
    for build in (
        lambda: ExperimentConfig(max_iter=0),
        lambda: GeometryConfig(n=8),
        lambda: PriorConfig(nu=0),
        lambda: InexactConfig(beta=-1),
        lambda: replace(preset("desk"), seed=-1),
    ):
        with pytest.raises(ConfigError):
            build()
    cfg = preset("desk")
    for section, name in ((cfg, "seed"), (cfg.geometry, "n"), (cfg.prior, "nu"),
                          (cfg.inexactness, "beta"), (cfg.reg, "rule")):
        with pytest.raises(FrozenInstanceError):
            setattr(section, name, getattr(section, name))


# Each row is a configuration fragment and the message of the check that rejects it.

# JSON values of the wrong type: each must be a ConfigError, not a TypeError
# from validation or a silently accepted value.
TYPE_MISMATCHES = (
    ({"reg": {"nu_dp": "x"}}, "reg.nu_dp must be a number, got 'x'"),
    ({"geometry": {"n": "64"}}, "geometry.n must be an integer, got '64'"),
    ({"betas": 5}, "betas must be a list of numbers, got 5"),
    ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"angle_schedules": [[1, "a"]]}, "angle_schedules must be a list of lists of numbers"),
)

NAN, INF = float("nan"), float("inf")
BETA = "inexactness.beta must be finite and nonnegative"
NU_DP = "nu_dp must be finite and positive"
LAMBDA_FIXED = "lambda_fixed must be finite and nonnegative"
NOISE_LEVEL = "noise_level must be finite and nonnegative"
NOISE_SIGMA = "noise_sigma must be finite and positive"
NOISE_VARIANCE = "noise_sigma squared and its reciprocal must be finite and nonzero"
PRIOR = "prior.nu and prior.ell must be finite and positive"
ELL_RECIPROCAL = "prior.ell must have a finite reciprocal"
ANGLES = "geometry.angle_start and geometry.angle_step must be finite"
BETAS = "betas must be finite and nonnegative"
SCHEDULES = "angle_schedules entries must be finite positive"
OMEGA = r"omega must lie in \(0, 1\]"

# Numbers of the right type that no check may let through: JSON's NaN and
# Infinity, integers no float can hold, and a negative fixed lambda.
NONFINITE_OR_OUT_OF_RANGE = (
    ({"inexactness": {"beta": NAN}}, BETA),
    ({"inexactness": {"beta": INF}}, BETA),
    ({"reg": {"rule": "dp", "nu_dp": NAN}}, NU_DP),
    ({"reg": {"rule": "dp", "nu_dp": INF}}, NU_DP),
    ({"reg": {"rule": "wgcv", "omega": NAN}}, OMEGA),
    ({"reg": {"rule": "fixed", "lambda_fixed": -1}}, LAMBDA_FIXED),
    ({"reg": {"rule": "fixed", "lambda_fixed": NAN}}, LAMBDA_FIXED),
    ({"reg": {"rule": "fixed", "lambda_fixed": INF}}, LAMBDA_FIXED),
    ({"noise_level": NAN}, NOISE_LEVEL),
    ({"noise_level": INF}, NOISE_LEVEL),
    ({"noise_sigma": NAN}, NOISE_SIGMA),
    ({"noise_sigma": INF}, NOISE_SIGMA),
    ({"prior": {"ell": NAN}}, PRIOR),
    ({"prior": {"nu": INF}}, PRIOR),
    ({"prior": {"ell": 1e-310}}, ELL_RECIPROCAL),  # alpha = 1/ell overflows
    ({"prior": {"ell": 5e-324}}, ELL_RECIPROCAL),
    ({"geometry": {"angle_step": NAN}}, ANGLES),
    ({"geometry": {"angle_start": -INF}}, ANGLES),
    # the last angle overflows
    ({"geometry": {"angle_start": 1e308, "angle_step": 1e308}}, "geometry's last angle"),
    ({"betas": [1e-2, NAN]}, BETAS),
    ({"betas": [INF]}, BETAS),
    ({"angle_schedules": [[1e-1, NAN]]}, SCHEDULES),
    ({"angle_schedules": [[INF, 1e-6]]}, SCHEDULES),
    ({"noise_level": 10**400}, NOISE_LEVEL),  # a JSON integer beyond the float range
    ({"inexactness": {"beta": 10**400}}, BETA),
    ({"reg": {"rule": "fixed", "lambda_fixed": 10**400}}, LAMBDA_FIXED),
)

# Finite values out of their field's range. The library classes that take
# these values do not check them again, so these checks are their only guard.
OUT_OF_RANGE = (
    ({"mode": "quantum"}, "unknown solver mode 'quantum'"),
    ({"noise_level": -0.1}, NOISE_LEVEL),
    ({"reg": {"rule": "fixed"}}, "rule 'fixed' requires lambda_fixed"),
    ({"inexactness": {"mode": "bogus"}}, "unknown inexactness mode 'bogus'"),
    ({"geometry": {"angle_count": 0}}, "geometry.angle_count must be positive"),
    ({"geometry": {"nrays": 0}}, "geometry.nrays must be positive"),
    ({"geometry": {"n": 15}}, "geometry.n must be at least 16"),
    ({"inexactness": {"seed": -1}}, "inexactness.seed must be nonnegative"),
    ({"noise_sigma": 0}, NOISE_SIGMA),
    ({"noise_sigma": 1e-200}, NOISE_VARIANCE),  # R^{-1} would overflow
    ({"prior": {"nu": -1}}, PRIOR),
    ({"angle_schedules": [[0.1, 0.0]]}, SCHEDULES),
    ({"betas": [-1e-2]}, BETAS),
    ({"reg": {"omega": 1.5}}, OMEGA),
)


def test_config_rejects_bad_values():
    for bad, message in TYPE_MISMATCHES + NONFINITE_OR_OUT_OF_RANGE + OUT_OF_RANGE:
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"schema_version": 1, **bad})


def test_config_accepts_ints_for_floats_and_null_for_none_defaults():
    cfg = config_from_dict(
        {"schema_version": 1, "noise_level": 0, "geometry": {"nrays": None}, "betas": [1, 0.5]}
    )
    assert cfg.noise_level == 0 and cfg.geometry.nrays is None and cfg.betas == (1, 0.5)


def test_presets():
    assert preset("desk").geometry.n == 64
    assert preset("paper").geometry.n == 128
    with pytest.raises(ConfigError):
        preset("napkin")


@pytest.mark.parametrize("mode", ["gk", "igk", "gengk", "igengk"])
def test_build_problem_gives_the_covariance_of_the_mode(mode):
    """gk/igk get Q = I; gengk/igengk get the Matern covariance of ``prior`` on the n x n grid."""
    n = 16
    cfg = ExperimentConfig(
        mode=mode, geometry=GeometryConfig(n=n), prior=PriorConfig(nu=2.5, ell=0.2)
    )
    Q = harness.build_problem(cfg).prior
    if mode in ("gk", "igk"):
        assert isinstance(Q, IdentityCovariance)
        return
    assert isinstance(Q, CovarianceOperator) and Q.grid_shape == (n, n)
    x = np.random.default_rng(33).standard_normal(n * n)
    ref = CovarianceOperator((n, n), MaternKernel(nu=2.5, alpha=1.0 / 0.2))
    assert Q.apply(x).tobytes() == ref.apply(x).tobytes()


def test_reconstruct_outputs_and_reproducibility(tmp_path):
    cfg = tiny_config(tmp_path)
    assert harness.cmd_reconstruct(cfg) == 0
    out = tmp_path / "out"
    history = (out / "history.csv").read_bytes()
    assert history.splitlines()[0] == b"iter,relerr,lambda,proj_residual"
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "schema_version",
        "config",
        "final_relerr",
        "min_relerr",
        "argmin_iter",
        "stop_reason",
        "lambda_final",
    }
    assert (out / "final.pgm").exists()
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"decomposition_s", "param_selection_s", "projected_solve_s"}

    cfg2 = tiny_config(tmp_path, output_dir=str(tmp_path / "out2"))
    harness.cmd_reconstruct(cfg2)
    assert (tmp_path / "out2" / "history.csv").read_bytes() == history
    s2 = json.loads((tmp_path / "out2" / "summary.json").read_text())
    summary["config"]["output_dir"] = s2["config"]["output_dir"]
    assert s2 == summary


def test_exact_reduction_identical_histories(tmp_path):
    cfg_gen = tiny_config(tmp_path, mode="gengk", output_dir=str(tmp_path / "gen"))
    cfg_izero = tiny_config(
        tmp_path,
        mode="igengk",
        inexactness=InexactConfig(mode="gaussian-entry", beta=0.0),
        output_dir=str(tmp_path / "izero"),
    )
    harness.cmd_reconstruct(cfg_gen)
    harness.cmd_reconstruct(cfg_izero)
    assert (tmp_path / "gen" / "history.csv").read_bytes() == (
        tmp_path / "izero" / "history.csv"
    ).read_bytes()


def test_verify_relations_csv_and_gates(tmp_path):
    cfg = tiny_config(
        tmp_path, experiment="verify-relations", max_iter=8, betas=(1e-2, 1e-4)
    )
    rc = harness.cmd_verify_relations(cfg)
    out = tmp_path / "out"
    lines = (out / "relations.csv").read_text().splitlines()
    assert lines[0] == "beta,err_adjoint,err_forward,err_Vorth,err_Uorth"
    assert len(lines) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["orthogonality_ok"] and summary["scaling_ok"]
    assert rc == 0


def test_verify_relations_zero_beta_row(tmp_path):
    cfg = tiny_config(tmp_path, experiment="verify-relations", max_iter=6, betas=(0.0,))
    assert harness.cmd_verify_relations(cfg) == 0
    rows = (tmp_path / "out" / "relations.csv").read_text().splitlines()[1]
    beta, adj, fwd, vorth, uorth = (float(v) for v in rows.split(","))
    assert beta == 0.0
    assert adj <= 1e-10 and fwd <= 1e-10 and vorth <= 1e-10 and uorth <= 1e-10


def test_compare_reg_shares_observation(tmp_path):
    cfg = tiny_config(
        tmp_path,
        experiment="compare-reg",
        mode="gengk",
        max_iter=4,
        reg=RegConfig(rule="optimal"),
    )
    assert harness.cmd_compare_reg(cfg) == 0
    out = tmp_path / "out"
    merged = (out / "compare.csv").read_text().splitlines()
    assert merged[0] == "iter,relerr_optimal,lambda_optimal,relerr_dp,lambda_dp,relerr_wgcv,lambda_wgcv"
    assert len(merged) == 5
    for rule in ("optimal", "dp", "wgcv"):
        assert (out / f"history_{rule}.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["final_relerr"]) == {"optimal", "dp", "wgcv"}
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"optimal_s", "dp_s", "wgcv_s"}


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [[float(v) for v in row.split(",")] for row in rows]


@pytest.mark.parametrize(
    "experiment, merged, columns, keys",
    [
        ("compare-reg", "compare.csv", ("relerr", "lambda"),
         ("final_relerr", "min_relerr", "argmin_iter", "lambda_final")),
        ("inexact-angles", "comparison.csv", ("relerr",), ("final_relerr", "min_relerr")),
    ],
)
def test_merged_csv_and_summary_read_the_histories(tmp_path, experiment, merged, columns, keys):
    cfg = tiny_config(
        tmp_path, experiment=experiment, mode="igengk", reg=RegConfig(rule="optimal"),
        angle_schedules=((1e-1, 1e-3),),
    )
    assert harness.COMMANDS[experiment](cfg) == 0
    out = tmp_path / "out"
    header, rows = read_csv(out / merged)
    histories = {
        path.stem.removeprefix("history_"): read_csv(path)
        for path in sorted(out.glob("history_*.csv"))
    }
    assert len(rows) == min(len(hist) for _, hist in histories.values()) == cfg.max_iter
    for name, (hist_header, hist) in histories.items():
        for col in columns:
            j, h = header.index(f"{col}_{name}"), hist_header.index(col)
            assert [row[j] for row in rows] == [row[h] for row in hist[: len(rows)]]
        assert [row[0] for row in rows] == [row[0] for row in hist[: len(rows)]]

    summary = json.loads((out / "summary.json").read_text())
    for name, (hist_header, hist) in histories.items():
        relerr = [row[hist_header.index("relerr")] for row in hist]
        expected = {
            "final_relerr": relerr[-1],
            "min_relerr": min(relerr),
            "argmin_iter": relerr.index(min(relerr)) + 1,
            "lambda_final": hist[-1][hist_header.index("lambda")],
        }
        assert {key: summary[key][name] for key in keys} == {key: expected[key] for key in keys}


@pytest.mark.parametrize(
    "experiment, own",
    [
        ("reconstruct", {"history.csv", "final.pgm"}),
        ("compare-reg",
         {"history_optimal.csv", "history_dp.csv", "history_wgcv.csv", "compare.csv"}),
        ("inexact-angles",
         {"history_exact.csv", "history_sched0.csv", "history_sched1.csv", "comparison.csv"}),
        ("verify-relations", {"relations.csv"}),
    ],
)
def test_each_command_writes_exactly_its_documented_files(tmp_path, experiment, own):
    """Every command's own files, then summary.json and timings.json, and no
    other file; inexact-angles runs the two default schedules after its exact
    baseline."""
    cfg = tiny_config(tmp_path, experiment=experiment, mode="igengk", reg=RegConfig(rule="optimal"))
    assert len(cfg.angle_schedules) == 2
    assert harness.COMMANDS[experiment](cfg) == 0
    written = {path.name for path in (tmp_path / "out").iterdir()}
    assert written == own | {"summary.json", "timings.json"}


@pytest.mark.parametrize("experiment", ["compare-reg", "inexact-angles", "reconstruct"])
def test_each_inexactness_model_is_decomposed_once(tmp_path, monkeypatch, experiment):
    """Every decomposition is made inside solve.run_iterative_solve: reconstruct
    calls it once, compare-reg once for its three rules, inexact-angles once for
    its exact baseline and once for each schedule."""
    events = []
    run, run_solve = bidiag.igenGK_run, solve.run_iterative_solve

    def counting(*args):
        events.append("decompose")
        return run(*args)

    def counting_solve(*args, **kwargs):
        events.append("solve")
        records = run_solve(*args, **kwargs)
        events.append("return")
        return records

    monkeypatch.setattr(bidiag, "igenGK_run", counting)
    monkeypatch.setattr(solve, "run_iterative_solve", counting_solve)
    cfg = tiny_config(
        tmp_path, experiment=experiment, mode="igengk", reg=RegConfig(rule="optimal"),
        angle_schedules=((1e-1, 1e-3), (1e-2, 1e-4)),
    )
    assert harness.COMMANDS[experiment](cfg) == 0
    expected = 1 + len(cfg.angle_schedules) if experiment == "inexact-angles" else 1
    assert events == ["solve", "decompose", "return"] * expected


@pytest.mark.parametrize("mode", ["igk", "igengk"])
def test_sweep_histories_are_reconstruct_histories(tmp_path, mode):
    """Each history_<name>.csv of a sweep is byte for byte the history.csv of a
    reconstruct with that run's rule and inexactness: compare-reg's under each
    rule, inexact-angles' exact baseline under the exact mode (gk or gengk), and
    its sched0 under angle-perturbation with that one schedule."""
    cfg = tiny_config(tmp_path, mode=mode, reg=RegConfig(rule="dp"),
                      angle_schedules=((1e-1, 1e-3), (1e-2, 1e-4)))

    def run(command, name, **overrides):
        out = tmp_path / name
        assert harness.COMMANDS[command](replace(cfg, output_dir=str(out), **overrides)) == 0
        return out

    compared, angles = run("compare-reg", "compare"), run("inexact-angles", "angles")
    pairs = {
        compared / f"history_{rule}.csv": run("reconstruct", rule, reg=RegConfig(rule=rule))
        for rule in ("optimal", "dp", "wgcv")
    }
    pairs[angles / "history_exact.csv"] = run("reconstruct", "exact", mode=mode[1:])
    pairs[angles / "history_sched0.csv"] = run(
        "reconstruct", "sched0", inexactness=InexactConfig(mode="angle-perturbation"),
        angle_schedules=cfg.angle_schedules[:1],
    )
    for path, out in pairs.items():
        assert path.read_bytes() == (out / "history.csv").read_bytes(), path.name


def test_merged_csv_stops_at_the_shortest_run(tmp_path):
    def record(rows):
        return solve.ReconRecord(
            [solve.Iterate(k, 1.0 / k, 2.0 * k, 3.0 * k) for k in range(1, rows + 1)],
            None, "max_iter", {},
        )

    records = {"long": record(3), "short": record(2)}
    assert harness._merged_csv(records, ("lambda", "proj_residual")).splitlines() == [
        "iter,lambda_long,proj_residual_long,lambda_short,proj_residual_short",
        "1,2,3,2,3",
        "2,4,6,4,6",
    ]


def test_inexact_angles_zero_jitter_bitwise(tmp_path):
    cfg = tiny_config(
        tmp_path,
        experiment="inexact-angles",
        mode="igengk",
        reg=RegConfig(rule="optimal"),
        angle_schedules=((1e-30, 1e-30),),
        max_iter=3,
    )
    assert harness.cmd_inexact_angles(cfg) == 0
    out = tmp_path / "out"
    exact = (out / "history_exact.csv").read_bytes()
    sched = (out / "history_sched0.csv").read_bytes()
    assert exact == sched
    comparison = (out / "comparison.csv").read_text().splitlines()
    assert comparison[0] == "iter,relerr_exact,relerr_sched0"
    timings = json.loads((out / "timings.json").read_text())
    assert set(timings) == {"exact_s", "sched0_s"}


def test_verify_relations_gate_failure_exit_code(tmp_path):
    # at beta = 1 the relation errors saturate, so the linear-scaling gate trips
    cfg = tiny_config(
        tmp_path, experiment="verify-relations", max_iter=6, betas=(1.0, 1e-6)
    )
    assert harness.cmd_verify_relations(cfg) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert not summary["scaling_ok"]


def test_wgcv_history_differs_from_optimal(tmp_path):
    cfg = tiny_config(
        tmp_path,
        experiment="compare-reg",
        mode="gengk",
        max_iter=5,
        reg=RegConfig(rule="optimal"),
    )
    harness.cmd_compare_reg(cfg)
    out = tmp_path / "out"
    rows = (out / "compare.csv").read_text().splitlines()[1:]
    lam_opt = [r.split(",")[2] for r in rows]
    lam_wgcv = [r.split(",")[6] for r in rows]
    assert lam_opt != lam_wgcv


def test_reconstruct_with_angle_mode_uses_first_schedule(tmp_path):
    cfg = tiny_config(
        tmp_path,
        mode="igengk",
        inexactness=InexactConfig(mode="angle-perturbation"),
        angle_schedules=((1e-1, 1e-3),),
        max_iter=3,
    )
    assert harness.cmd_reconstruct(cfg) == 0
    assert (tmp_path / "out" / "history.csv").exists()


def test_inexact_angles_jitters_under_exact_mode(tmp_path):
    # The sweep brings its own inexactness: gengk only picks the prior.
    cfg = tiny_config(
        tmp_path, experiment="inexact-angles", mode="gengk", angle_schedules=((1e0, 1e-1),)
    )
    assert harness.cmd_inexact_angles(cfg) == 0
    rows = (tmp_path / "out" / "comparison.csv").read_text().splitlines()[1:]
    exact = [r.split(",")[1] for r in rows]
    sched0 = [r.split(",")[2] for r in rows]
    assert all(e != s for e, s in zip(exact, sched0))


def test_angle_perturbation_runs_with_one_iteration(tmp_path):
    cfg = tiny_config(
        tmp_path,
        mode="igk",
        inexactness=InexactConfig(mode="angle-perturbation"),
        max_iter=1,
    )
    assert harness.cmd_reconstruct(cfg) == 0
    assert harness.cmd_inexact_angles(cfg) == 0
    assert len((tmp_path / "out" / "history_sched1.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "start,end", [(1e-1, 1e-6), (1e0, 1e-6), (2e-3, 2e-3), (0.5, 7.0), (1e-300, 1e300)]
)
def test_angle_schedule_head_equals_the_full_geomspace(start, end):
    for num in (1, 2, 3, 7, 20, 257, 1000, 12345):
        full = np.geomspace(start, end, num)
        model = linop.InexactnessModel(mode="angle-perturbation", schedule=(start, end, num))
        magnitudes = [model.magnitude(k) for k in range(1, num + 1)]
        assert np.array_equal(magnitudes, full), num


def pixel_bound_angle_config(max_iter):
    # 256 pixels and 18 x 23 rays: a run makes at most 256 steps, then the
    # adjoint product of step 257, which finds no new v.
    return ExperimentConfig(
        geometry=GeometryConfig(n=16, angle_count=18, angle_step=10.0),
        mode="igk",
        max_iter=max_iter,
        inexactness=InexactConfig(mode="angle-perturbation"),
    )


def test_long_angle_run_builds_only_the_reachable_schedule():
    cfg = pixel_bound_angle_config(10**6)
    tracemalloc.start()
    t0 = time.perf_counter()
    model = harness.inexactness_for(cfg)
    magnitudes = [model.magnitude(k) for k in range(1, 258)]
    seconds = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert seconds < 0.1 and peak < 100_000, (seconds, peak)
    full = np.geomspace(*cfg.angle_schedules[0], cfg.max_iter)
    assert magnitudes == list(full[:257])


def test_angle_schedule_covers_the_step_past_capacity():
    # The run fills all 256 columns and breaks down in step 257, whose
    # adjoint product needs that step's magnitude.
    cfg = pixel_bound_angle_config(300)
    problem = harness.build_problem(cfg)
    model = harness.inexactness_for(cfg)
    assert model.schedule == (*cfg.angle_schedules[0], 300)
    state = bidiag.igenGK_run(
        problem.A, model, problem.prior, problem.noise, problem.b, cfg.max_iter
    )
    assert state.k == 256 and state.terminated


def test_inexact_angles_and_reconstruct_share_the_seed_rule(tmp_path):
    common = dict(
        mode="igengk",
        reg=RegConfig(rule="optimal"),
        inexactness=InexactConfig(mode="angle-perturbation", seed=99),
        angle_schedules=((1e0, 1e-3),),
    )
    recon = tiny_config(tmp_path, output_dir=str(tmp_path / "recon"), **common)
    angles = tiny_config(tmp_path, output_dir=str(tmp_path / "angles"), **common)
    assert harness.cmd_reconstruct(recon) == 0
    assert harness.cmd_inexact_angles(angles) == 0
    assert (tmp_path / "angles" / "history_sched0.csv").read_bytes() == (
        tmp_path / "recon" / "history.csv"
    ).read_bytes()


@pytest.mark.parametrize("mode", ["gk", "igengk"])
def test_noise_sigma_only_rescales_lambda(mode):
    """R = sigma^2 I divides beta1, M and the weighted noise norm by sigma, so
    lambda scales by 1/sigma and the reconstruction does not change. A
    power-of-two sigma makes every scaling exact: the relerr history and
    lambda * sigma match sigma = 1 bit for bit under every rule."""
    histories = {}
    for sigma in (1.0, 2.0, 0.25):
        cfg = ExperimentConfig(geometry=GeometryConfig(n=32), mode=mode, max_iter=12,
                               noise_sigma=sigma)
        problem = harness.build_problem(cfg)
        for rule in ("none", "optimal", "dp", "wgcv"):
            rec = harness.run_reconstruction(replace(cfg, reg=RegConfig(rule=rule)), problem)
            histories[sigma, rule] = [(row.relerr, row.lam * sigma) for row in rec.history]
    for (sigma, rule), history in histories.items():
        assert history == histories[1.0, rule], (sigma, rule)


def test_verify_relations_times_each_beta(tmp_path):
    """timings.json has one key per beta, also for betas that print alike under %g."""
    cfg = tiny_config(tmp_path, experiment="verify-relations", max_iter=3)
    harness.cmd_verify_relations(cfg)
    timings = json.loads((tmp_path / "out" / "timings.json").read_text())
    assert set(timings) == {"beta_0.01_s", "beta_0.0001_s", "beta_1e-06_s"}
    close = replace(cfg, betas=(0.01000001, 0.01000002), output_dir=str(tmp_path / "close"))
    harness.cmd_verify_relations(close)
    rows = (tmp_path / "close" / "relations.csv").read_text().splitlines()
    timings = json.loads((tmp_path / "close" / "timings.json").read_text())
    assert len(rows) == 3
    assert set(timings) == {"beta_0.01000001_s", "beta_0.01000002_s"}


def test_verify_relations_failure_in_a_later_beta(tmp_path, capsys, monkeypatch):
    """A beta that overflows after another has finished exits 3 with one
    numerical-failure line, and creates no output directory."""
    started = []
    run = bidiag.igenGK_run

    def recording_run(A, inexact, *args):
        started.append(inexact.beta)
        return run(A, inexact, *args)

    monkeypatch.setattr(bidiag, "igenGK_run", recording_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"n": 16}, "mode": "igengk", "max_iter": 5}))
    out = tmp_path / "out"
    argv = ["verify-relations", "--config", str(path), "--out", str(out)]
    assert cli.main([*argv, "--beta", "1e-2", "--beta", "1e200"]) == 3
    assert started == [1e-2, 1e200]
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert err.endswith("\n") and err.count("\n") == 1
    assert not out.exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["reconstruct", "--config", str(bad)]) == 2
    good_but_wrong = tmp_path / "wrong.json"
    good_but_wrong.write_text(json.dumps({"schema_version": 1, "mode": "martian"}))
    assert cli.main(["reconstruct", "--config", str(good_but_wrong)]) == 2
    for mismatch, _ in TYPE_MISMATCHES:
        good_but_wrong.write_text(json.dumps(mismatch))
        capsys.readouterr()
        assert cli.main(["reconstruct", "--config", str(good_but_wrong)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")


def test_cli_nonfinite_numbers_exit_code(tmp_path, capsys):
    """NaN, Infinity and a negative fixed lambda exit 2 before any output, from JSON or flags."""
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    base = {"geometry": {"n": 16}, "max_iter": 3}
    for bad, _ in NONFINITE_OR_OUT_OF_RANGE:
        path.write_text(json.dumps({**base, **bad}))  # json writes NaN and Infinity tokens
        capsys.readouterr()
        assert cli.main(["reconstruct", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
    path.write_text(json.dumps(base))
    for flag in (["--beta", "nan"], ["--beta", "inf"], ["--beta", "1e-2", "--beta", "nan"],
                 ["--noise-level", "nan"], ["--noise-level=-inf"]):
        for command in ("reconstruct", "verify-relations"):
            capsys.readouterr()
            assert cli.main([command, "--config", str(path), "--out", str(out), *flag]) == 2
            assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


# Sizes past the int32 index range of the system matrix, as JSON integers.
# The CLI runs get only the sizes a run without the check survives for
# seconds: an allocation of 10**30 elements fails at once, and an n=16 solve
# stops at its breakdown whatever its max_iter. The others, let through,
# would fill the memory.
OVERSIZE = (
    {"geometry": {"n": 10**30}},
    {"geometry": {"n": 16, "nrays": 10**30}},
    {"max_iter": 10**30},
)
PAST_THE_INDEX_RANGE = OVERSIZE + (
    {"geometry": {"n": 16, "angle_count": 10**30}},
    {"geometry": {"n": 46341}},  # n^2 = 2147488281
    {"geometry": {"n": 16, "angle_count": 2**16, "nrays": 2**15}},
    {"max_iter": INDEX_MAX + 1},
)


def test_config_rejects_sizes_past_the_index_range():
    for bad in PAST_THE_INDEX_RANGE:
        with pytest.raises(ConfigError):
            config_from_dict(bad)
    config_from_dict({"geometry": {"n": 46340}, "max_iter": INDEX_MAX})
    config_from_dict({"geometry": {"n": 16, "angle_count": 2**16, "nrays": 2**15 - 1}})


def test_cli_oversize_sizes_exit_code(tmp_path, capsys):
    """Oversize geometry and max_iter exit 2 before any output, from JSON or flags."""
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    base = {"geometry": {"n": 16}, "max_iter": 3}
    for bad in OVERSIZE:
        path.write_text(json.dumps({**base, **bad}))
        for command in harness.COMMANDS:
            capsys.readouterr()
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("configuration error:")
    path.write_text(json.dumps(base))
    for command in harness.COMMANDS:
        capsys.readouterr()
        argv = [command, "--config", str(path), "--out", str(out), "--max-iter", str(10**30)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_cli_config_and_preset_exclude_each_other(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"n": 16}, "max_iter": 7}))
    out = tmp_path / "out"
    for command in ("inexact-angles", "reconstruct"):
        for name in ("paper", "desk"):
            argv = [command, "--config", str(path), "--preset", name, "--out", str(out)]
            assert cli.main(argv) == 2
            assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()
    # Alone, each keeps its meaning: the file's max_iter, the paper angle study's 100,
    # which --max-iter overrides.
    parse = cli.build_parser().parse_args
    assert cli.assemble_config(parse(["inexact-angles", "--config", str(path)])).max_iter == 7
    assert cli.assemble_config(parse(["inexact-angles", "--preset", "paper"])).max_iter == 100
    argv = ["inexact-angles", "--preset", "paper", "--max-iter", "7"]
    assert cli.assemble_config(parse(argv)).max_iter == 7


def test_cli_output_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        capsys.readouterr()
        assert cli.main(["reconstruct", "--out", str(out), "--max-iter", "1"]) == 2
        assert capsys.readouterr().err.startswith("output error:")


def test_cli_runs_tiny_reconstruction(tmp_path):
    cfg = tiny_config(tmp_path)
    path = tmp_path / "cfg.json"
    config_to_json(cfg, path)
    rc = cli.main(
        ["reconstruct", "--config", str(path), "--out", str(tmp_path / "cli_out"), "--max-iter", "3"]
    )
    assert rc == 0
    history = (tmp_path / "cli_out" / "history.csv").read_text().splitlines()
    assert len(history) == 4


def test_cli_flag_overrides(tmp_path, monkeypatch):
    """One assemble_config call puts every flag into its field, over a file or a preset,
    and checks the ExperimentConfig once: cli.replace builds exactly one of them."""
    path = tmp_path / "cfg.json"
    config_to_json(tiny_config(tmp_path), path)
    flags = ["--seed", "7", "--out", "elsewhere", "--max-iter", "9", "--noise-level", "0.5",
             "--mode", "gengk", "--reg", "opt", "--beta", "1e-3", "--beta", "1e-5"]
    built = []

    def counted_replace(obj, **changes):
        built.append(type(obj))
        return replace(obj, **changes)

    monkeypatch.setattr(cli, "replace", counted_replace)
    parse = cli.build_parser().parse_args
    for source, base in (
        (["--config", str(path)], tiny_config(tmp_path)),
        (["--preset", "paper"], preset("paper", "compare-reg")),
    ):
        built.clear()
        assembled = cli.assemble_config(parse(["compare-reg", *source, *flags]))
        assert built.count(ExperimentConfig) == 1
        assert assembled == replace(
            base, experiment="compare-reg", seed=7, output_dir="elsewhere", max_iter=9,
            noise_level=0.5, mode="gengk", reg=replace(base.reg, rule="optimal"),
            betas=(1e-3, 1e-5), inexactness=replace(base.inexactness, beta=1e-3),
        )


def test_empty_angle_schedules_exit_code(tmp_path, capsys):
    cfg = tiny_config(
        tmp_path, angle_schedules=(), inexactness=InexactConfig(mode="angle-perturbation")
    )
    path = tmp_path / "cfg.json"
    config_to_json(cfg, path)
    for command in ("reconstruct", "compare-reg"):
        for mode in ("igk", "igengk"):
            out = tmp_path / f"{command}_{mode}"
            capsys.readouterr()
            rc = cli.main([command, "--config", str(path), "--mode", mode, "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err.startswith("configuration error:")
            assert not out.exists()
    # The sweep has its exact baseline to run; the exact modes ignore the schedules.
    out = tmp_path / "angles"
    assert cli.main(["inexact-angles", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("history_*.csv")) == ["history_exact.csv"]
    gk = ["reconstruct", "--config", str(path), "--mode", "gk", "--out", str(tmp_path / "gk")]
    assert cli.main(gk) == 0


def test_history_header_names_each_iterate_field_in_order():
    renamed = {"k": "iter", "lam": "lambda"}
    columns = [renamed.get(field, field) for field in solve.Iterate._fields]
    assert harness.HISTORY_HEADER.split(",") == columns


def test_repeated_betas_exit_code(tmp_path, capsys):
    """A repeated beta would write two relations.csv rows under one timings.json key."""
    out = tmp_path / "relations"
    argv = ["verify-relations", "--beta", "0.01", "--beta", "1e-2", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


def test_empty_betas_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    config_to_json(tiny_config(tmp_path, betas=()), path)
    out = tmp_path / "relations"
    rc = cli.main(["verify-relations", "--config", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_compare_reg_histories_equal_reconstruct_histories(tmp_path):
    base = {"mode": "igengk", "geometry": {"n": 16}, "max_iter": 6, "seed": 5,
            "reg": {"nu_dp": 1.3, "omega": 0.5}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    compared = tmp_path / "compare"
    assert cli.main(["compare-reg", "--config", str(path), "--out", str(compared)]) == 0
    for rule in ("optimal", "dp", "wgcv"):
        path = tmp_path / f"cfg_{rule}.json"
        path.write_text(json.dumps({**base, "reg": {**base["reg"], "rule": rule}}))
        out = tmp_path / rule
        assert cli.main(["reconstruct", "--config", str(path), "--out", str(out)]) == 0
        history = (out / "history.csv").read_bytes()
        assert (compared / f"history_{rule}.csv").read_bytes() == history


def test_negative_seed_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    config_to_json(tiny_config(tmp_path), path)
    capsys.readouterr()
    assert cli.main(["reconstruct", "--config", str(path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1, "inexactness": {"seed": -1}})


def test_several_bad_flags_exit_2_naming_the_first_failing_check(tmp_path, capsys, monkeypatch):
    """Flags are checked together: the message names max_iter, the first check that fails."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["reconstruct", "--seed", "-1", "--max-iter", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: max_iter") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_empty_output_dir_is_config_error(tmp_path, capsys, monkeypatch):
    """Path("") is the current directory; an empty --out or output_dir writes nothing there."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"n": 16}, "output_dir": ""}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for argv in (["--out", ""], ["--config", str(path)]):
        capsys.readouterr()
        assert cli.main(["reconstruct", "--max-iter", "1", *argv]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: output_dir must not be empty\n"
        assert list(work.iterdir()) == []


# Error levels at which the Q-norm of the first adjoint product (c11)
# overflows to inf, under a rule that selects lambda and under none.
OVERFLOW = (
    ({"inexactness": {"beta": 1e200}, "reg": {"rule": "optimal"}}, ["--beta", "1e200", "--reg", "opt"]),
    ({"inexactness": {"beta": 1e300}, "reg": {"rule": "none"}}, ["--beta", "1e300", "--reg", "none"]),
)


def test_overflow_is_numerical_failure(tmp_path, capsys):
    """An overflowing normalization exits 3, from JSON or flags, with the
    numerical-failure line as all of stderr. A new --out is never created,
    and an --out that already exists is left as it was."""
    path = tmp_path / "cfg.json"
    base = {"geometry": {"n": 16}, "mode": "igengk", "max_iter": 5}
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "keep.txt").write_text("kept")
    for bad, flags in OVERFLOW:
        for cfg, extra in (({**base, **bad}, []), (base, flags)):
            path.write_text(json.dumps(cfg))
            for command in ("reconstruct", "compare-reg"):
                for out in (tmp_path / "new" / "out", existing):
                    capsys.readouterr()
                    argv = [command, "--config", str(path), "--out", str(out), *extra]
                    assert cli.main(argv) == 3
                    err = capsys.readouterr().err
                    assert err.startswith("numerical failure:")
                    assert err.endswith("\n") and err.count("\n") == 1
    assert not (tmp_path / "new").exists()
    assert [p.name for p in existing.iterdir()] == ["keep.txt"]
    assert (existing / "keep.txt").read_text() == "kept"


# Valid but extreme values: a Matern order at which the kernel overflows, and
# noise levels whose square or its reciprocal is not a finite nonzero float.
EXTREME = (
    ({"prior": {"nu": 1e300}}, 3, "numerical failure: covariance"),
    ({"noise_sigma": 1e-300}, 2, "configuration error: noise_sigma"),
    ({"noise_sigma": 1e-160}, 2, "configuration error: noise_sigma"),
    ({"noise_sigma": 1e300}, 2, "configuration error: noise_sigma"),
    ({"prior": {"ell": 1e-310}}, 2, "configuration error: prior.ell"),
)


@pytest.mark.parametrize(
    "extreme, code, report",
    EXTREME,
    ids=("nu-1e300", "sigma-1e-300", "sigma-1e-160", "sigma-1e300", "ell-1e-310"),
)
def test_extreme_value_ends_in_one_line(tmp_path, capsys, extreme, code, report):
    """An extreme valid value exits with its documented code, its one-line
    report as all of stderr, no NumPy warning and no output directory."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"n": 16}, "mode": "igengk", "max_iter": 2, **extreme}))
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(report)
    assert err.endswith("\n") and err.count("\n") == 1
    assert not out.exists()
