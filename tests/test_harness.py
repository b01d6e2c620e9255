import json
from dataclasses import FrozenInstanceError, replace

import pytest

from igenkrylov import cli, harness
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


# JSON values of the wrong type: each must be a ConfigError, not a TypeError
# from validation or a silently accepted value.
TYPE_MISMATCHES = (
    {"reg": {"nu_dp": "x"}},
    {"geometry": {"n": "64"}},
    {"betas": 5},
    {"max_iter": 2.5},
    {"seed": True},
    {"angle_schedules": [[1, "a"]]},
)

NAN, INF = float("nan"), float("inf")

# Numbers of the right type that no check may let through: JSON's NaN and
# Infinity, integers no float can hold, and a negative fixed lambda.
NONFINITE_OR_OUT_OF_RANGE = (
    {"inexactness": {"beta": NAN}},
    {"inexactness": {"beta": INF}},
    {"reg": {"rule": "dp", "nu_dp": NAN}},
    {"reg": {"rule": "dp", "nu_dp": INF}},
    {"reg": {"rule": "wgcv", "omega": NAN}},
    {"reg": {"rule": "fixed", "lambda_fixed": -1}},
    {"reg": {"rule": "fixed", "lambda_fixed": NAN}},
    {"reg": {"rule": "fixed", "lambda_fixed": INF}},
    {"noise_level": NAN},
    {"noise_level": INF},
    {"noise_sigma": NAN},
    {"noise_sigma": INF},
    {"prior": {"ell": NAN}},
    {"prior": {"nu": INF}},
    {"geometry": {"angle_step": NAN}},
    {"geometry": {"angle_start": -INF}},
    {"betas": [1e-2, NAN]},
    {"betas": [INF]},
    {"angle_schedules": [[1e-1, NAN]]},
    {"angle_schedules": [[INF, 1e-6]]},
    {"noise_level": 10**400},  # a JSON integer beyond the float range
    {"inexactness": {"beta": 10**400}},
    {"reg": {"rule": "fixed", "lambda_fixed": 10**400}},
)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1, "mode": "quantum"})
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1, "noise_level": -0.1})
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 1, "reg": {"rule": "fixed"}})
    for bad in TYPE_MISMATCHES + NONFINITE_OR_OUT_OF_RANGE:
        with pytest.raises(ConfigError):
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
    assert (out / "timings.json").exists()

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


def test_thread_cap_does_not_change_results(tmp_path, monkeypatch):
    cfg = tiny_config(
        tmp_path, experiment="verify-relations", max_iter=5, betas=(1e-2, 1e-4)
    )
    harness.cmd_verify_relations(cfg)
    serial = (tmp_path / "out" / "relations.csv").read_bytes()
    monkeypatch.setenv("IGENKRYLOV_THREADS", "3")
    cfg2 = tiny_config(
        tmp_path,
        experiment="verify-relations",
        max_iter=5,
        betas=(1e-2, 1e-4),
        output_dir=str(tmp_path / "out_mt"),
    )
    harness.cmd_verify_relations(cfg2)
    assert (tmp_path / "out_mt" / "relations.csv").read_bytes() == serial


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["reconstruct", "--config", str(bad)]) == 2
    good_but_wrong = tmp_path / "wrong.json"
    good_but_wrong.write_text(json.dumps({"schema_version": 1, "mode": "martian"}))
    assert cli.main(["reconstruct", "--config", str(good_but_wrong)]) == 2
    for mismatch in TYPE_MISMATCHES:
        good_but_wrong.write_text(json.dumps(mismatch))
        capsys.readouterr()
        assert cli.main(["reconstruct", "--config", str(good_but_wrong)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")


def test_cli_nonfinite_numbers_exit_code(tmp_path, capsys):
    """NaN, Infinity and a negative fixed lambda exit 2 before any output, from JSON or flags."""
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    base = {"geometry": {"n": 16}, "max_iter": 3}
    for bad in NONFINITE_OR_OUT_OF_RANGE:
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
    # Alone, each keeps its meaning: the file's max_iter, the paper angle study's 100.
    parse = cli.build_parser().parse_args
    assert cli.assemble_config(parse(["inexact-angles", "--config", str(path)])).max_iter == 7
    assert cli.assemble_config(parse(["inexact-angles", "--preset", "paper"])).max_iter == 100


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


def test_cli_flag_overrides(tmp_path):
    cfg = tiny_config(tmp_path)
    path = tmp_path / "cfg.json"
    config_to_json(cfg, path)
    args = cli.build_parser().parse_args(
        ["reconstruct", "--config", str(path), "--reg", "opt", "--mode", "gengk", "--seed", "7"]
    )
    assembled = cli.assemble_config(args)
    assert assembled.reg.rule == "optimal"
    assert assembled.mode == "gengk"
    assert assembled.seed == 7


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
)


@pytest.mark.parametrize(
    "extreme, code, report", EXTREME, ids=("nu-1e300", "sigma-1e-300", "sigma-1e-160", "sigma-1e300")
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
