"""Every mutated configuration ends in a documented exit code, never a traceback."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from igenkrylov import cli, harness
from igenkrylov.config import ExperimentConfig, GeometryConfig, InexactConfig

# An n=16 run small enough that a valid mutation still finishes in milliseconds.
# Angle perturbation under igk: one mutation reaches either kind of inexactness.
BASE = ExperimentConfig(
    geometry=GeometryConfig(n=16, angle_count=6, angle_step=30.0),
    inexactness=InexactConfig(mode="angle-perturbation"),
    mode="igk",
    max_iter=3,
    seed=3,
    betas=(1e-2,),
    angle_schedules=((1e-1, 1e-3),),
).to_dict()

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
