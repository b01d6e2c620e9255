"""Every mutated configuration ends in a documented exit code, never a traceback."""

import copy
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from igenkrylov import cli, harness
from igenkrylov.config import ExperimentConfig, GeometryConfig, InexactConfig
from igenkrylov.errors import ConfigError, InputError, NumericalError

# An n=16 run small enough that a valid mutation still finishes in milliseconds.
# Angle perturbation under igk: one mutation reaches either kind of inexactness.
BASE = asdict(
    ExperimentConfig(
        geometry=GeometryConfig(n=16, angle_count=6, angle_step=30.0),
        inexactness=InexactConfig(mode="angle-perturbation"),
        mode="igk",
        max_iter=3,
        seed=3,
        betas=(1e-2,),
        angle_schedules=((1e-1, 1e-3),),
    )
)

# Every key, with the path of sections above it.
PATHS = [(key,) for key in BASE] + [
    (section, key) for section, value in BASE.items() if isinstance(value, dict) for key in value
]

# Wrong types, empty and malformed lists, enum strings no field accepts, and
# the NaN and Infinity that JSON lets through.
BAD_VALUES = (
    None, True, False, -1, 0, 0.5, -2.5, float("nan"), float("inf"), "", "x",
    "gaussian-entry", "none", "dp",
    "angle-perturbation", [], [[]], [[1.0]], [1e-3, 1e-6], [[1e-1, 1e-3, 1.0]], {},
    {"n": 16},
)

COMMANDS = tuple(harness.COMMANDS)

DROP = object()

mutation = st.tuples(st.sampled_from(PATHS), st.sampled_from((DROP,) + BAD_VALUES))


def mutate(config, mutations):
    config = copy.deepcopy(config)
    for path, value in mutations:
        parent = config
        for key in path[:-1]:
            parent = parent.get(key)
            if not isinstance(parent, dict):
                break
        else:
            if value is DROP:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = copy.deepcopy(value)
    return config


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(COMMANDS),
    mutations=st.lists(mutation, min_size=1, max_size=3),
)
def test_mutated_config_exits_with_documented_code(command, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(mutate(BASE, mutations)))
        rc = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    # verify-relations exits 1 by design when a mutated beta fails its gate.
    assert rc in ((0, 1, 2, 3) if command == "verify-relations" else (0, 2, 3))


# Fields that take any positive magnitude, by their path in the configuration.
MAGNITUDE_PATHS = (
    ("inexactness", "beta"),
    ("noise_sigma",),
    ("noise_level",),
    ("prior", "ell"),
    ("prior", "nu"),
    ("reg", "lambda_fixed"),
    ("reg", "nu_dp"),
)

magnitude = st.integers(min_value=-300, max_value=300).map(lambda e: 10.0**e)


def reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(COMMANDS),
    mode=st.sampled_from(("igk", "igengk")),
    inexactness=st.sampled_from(("gaussian-entry", "angle-perturbation")),
    rule=st.sampled_from(("none", "fixed", "optimal", "dp", "wgcv")),
    fields=st.lists(st.tuples(st.sampled_from(MAGNITUDE_PATHS), magnitude), max_size=3),
    schedule=st.none() | st.tuples(magnitude, magnitude),
)
def test_extreme_magnitudes_exit_with_documented_code(
    command, mode, inexactness, rule, fields, schedule
):
    """Valid values from 1e-300 to 1e300 exit 0, 2 or 3, and a run that
    succeeds writes strict JSON with finite numbers only."""
    config = copy.deepcopy(BASE)
    config.update(mode=mode, max_iter=2)
    config["inexactness"]["mode"] = inexactness
    config["reg"].update(rule=rule, lambda_fixed=0.1)
    mutations = [(path, value) for path, value in fields]
    if schedule is not None:
        mutations.append((("angle_schedules",), [list(schedule)]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(mutate(config, mutations)))
        out = Path(tmp) / "out"
        rc = cli.main([command, "--config", str(path), "--out", str(out)])
        assert rc in ((0, 1, 2, 3) if command == "verify-relations" else (0, 2, 3))
        if rc in (0, 1):
            outputs = sorted(out.glob("*.json"))
            assert outputs
            for output in outputs:
                json.loads(output.read_text(), parse_constant=reject_constant)


# A UTF-16 byte-order mark, and nesting deeper than the JSON parser recurses.
UNREADABLE_CONFIGS = {"not-utf8": b"\xff\xfe{\x00}\x00", "too-deep": b"[" * 100_000}


@pytest.mark.parametrize("name", list(UNREADABLE_CONFIGS))
def test_unreadable_config_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_bytes(UNREADABLE_CONFIGS[name])
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


def test_non_finite_summary_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    run_fields = harness._run_fields
    monkeypatch.setattr(
        harness, "_run_fields", lambda record: {**run_fields(record), "final_relerr": float("nan")}
    )
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--max-iter", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not out.exists()


def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg):
        raise MemoryError("Unable to allocate 12.1 GiB for an array")

    monkeypatch.setitem(harness.COMMANDS, "reconstruct", out_of_memory)
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 12.1 GiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("error, code, line", [
    (ConfigError, 2, "configuration error: boom\n"),
    (NumericalError, 3, "numerical failure: boom\n"),
    (InputError, 3, "error: boom\n"),
])
def test_each_package_error_exits_with_its_code_and_line(capsys, monkeypatch, error, code, line):
    def fail(cfg):
        raise error("boom")

    monkeypatch.setitem(harness.COMMANDS, "reconstruct", fail)
    assert cli.main(["reconstruct"]) == code
    assert capsys.readouterr().err == line


# Runs that end in a U-side breakdown, which leaves the projected matrix square:
# at k = 4 under WGCV, and at k = 1.
U_BREAKDOWN_CONFIGS = {
    "wgcv-k4": {"geometry": {"n": 16, "angle_count": 2, "nrays": 2}, "mode": "gk",
                "reg": {"rule": "wgcv"}, "max_iter": 8},
    "k1": {"geometry": {"n": 16, "angle_count": 1, "nrays": 1}, "max_iter": 5},
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", list(U_BREAKDOWN_CONFIGS))
def test_a_run_that_ends_in_a_u_side_breakdown_exits_0(tmp_path, capsys, name, command):
    """WGCV is +inf, not a divide-by-zero warning, where the weighted trace
    of the square matrix vanishes, and the relation check covers every column."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(U_BREAKDOWN_CONFIGS[name]))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_a_zero_relation_residual_fails_the_scaling_gate_in_strict_json(tmp_path, capsys):
    """At beta 1e-300 the k = 1 run's relation residuals are exactly zero: the
    ratios to them are JSON null, and the pair fails the scaling gate."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**U_BREAKDOWN_CONFIGS["k1"], "betas": [1e-2, 1e-300]}))
    out = tmp_path / "out"
    assert cli.main(["verify-relations", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
    ratio = summary["scaling_ratios"][0]
    assert ratio["adjoint_ratio"] is None and ratio["forward_ratio"] is None
    assert summary["scaling_ok"] is False


def test_an_angle_jittered_past_the_float_range_exits_3(tmp_path, capsys):
    """A finite schedule of 1.7e308 degrees jitters an angle to infinity: the
    geometry's own check reports it, not a math domain error."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, "angle_schedules": [[1.7e308, 1.7e308]]}))
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: projection angles must be finite\n"
    assert not out.exists()
