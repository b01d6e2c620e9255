"""Every mutated configuration ends in a documented exit code, never a traceback."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from igenkrylov import cli
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

# Wrong types, empty and malformed lists, and enum strings no field accepts.
BAD_VALUES = (
    None, True, False, -1, 0, 0.5, -2.5, "", "x", "gaussian-entry", "none", "dp",
    "angle-perturbation", [], [[]], [[1.0]], [1e-3, 1e-6], [[1e-1, 1e-3, 1.0]], {},
    {"n": 16},
)

COMMANDS = ("reconstruct", "compare-reg", "inexact-angles", "verify-relations")

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
