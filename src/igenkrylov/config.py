"""Experiment configuration: JSON round-trip with strict validation.

The document layout is versioned through ``schema_version``. Every section
is a frozen dataclass that checks its fields on construction, so a
configuration that exists is valid, and ``dataclasses.replace`` re-checks
the fields it overrides.
"""

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import FLOAT_MAX, ConfigError
from .harness import COMMANDS
from .linop import MODES as INEXACT_MODES
from .regparam import RegConfig
from .tomo import default_nrays

SCHEMA_VERSION = 1

SOLVER_MODES = ("gk", "igk", "gengk", "igengk")


# The bound of the pixel count (n^2) and the ray count (angle_count * nrays):
# the arrays of a larger problem cannot be allocated, and the check makes such
# a size a ConfigError (exit 2) that names its field, before build_problem
# runs. max_iter takes the same bound.
INDEX_MAX = 2**31 - 1


@dataclass(frozen=True)
class GeometryConfig:
    n: int = 64
    angle_start: float = 1.0
    angle_step: float = 5.0
    angle_count: int = 36
    nrays: int = None

    def __post_init__(self):
        if self.n < 16:
            raise ConfigError("geometry.n must be at least 16")
        if self.angle_count < 1:
            raise ConfigError("geometry.angle_count must be positive")
        if self.nrays is not None and self.nrays < 1:
            raise ConfigError("geometry.nrays must be positive")
        if self.n * self.n > INDEX_MAX:
            raise ConfigError(f"geometry.n squared must be at most {INDEX_MAX}")
        if self.nrows > INDEX_MAX:
            raise ConfigError(
                f"geometry.angle_count times the rays per angle must be at most {INDEX_MAX}"
            )
        if not (abs(self.angle_start) <= FLOAT_MAX and abs(self.angle_step) <= FLOAT_MAX):
            raise ConfigError("geometry.angle_start and geometry.angle_step must be finite")
        if not abs(self.angle_start + self.angle_step * float(self.angle_count - 1)) <= FLOAT_MAX:
            raise ConfigError("geometry's last angle must be finite")

    @property
    def nrows(self):
        """Rays in all, the system matrix's rows: angle_count times the rays per angle."""
        return self.angle_count * (default_nrays(self.n) if self.nrays is None else self.nrays)


@dataclass(frozen=True)
class PriorConfig:
    nu: float = 1.5
    ell: float = 0.01

    def __post_init__(self):
        if not (0 < self.nu <= FLOAT_MAX and 0 < self.ell <= FLOAT_MAX):
            raise ConfigError("prior.nu and prior.ell must be finite and positive")
        if not 1.0 / self.ell <= FLOAT_MAX:  # the kernel's scale is alpha = 1/ell
            raise ConfigError("prior.ell must have a finite reciprocal (at least about 5.6e-309)")


@dataclass(frozen=True)
class InexactConfig:
    mode: str = "gaussian-entry"
    beta: float = 1e-2
    seed: int = None  # defaults to the experiment seed

    def __post_init__(self):
        if self.mode not in INEXACT_MODES:
            raise ConfigError(f"unknown inexactness mode {self.mode!r}")
        if not 0 <= self.beta <= FLOAT_MAX:
            raise ConfigError("inexactness.beta must be finite and nonnegative")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("inexactness.seed must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "reconstruct"
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    prior: PriorConfig = field(default_factory=PriorConfig)
    noise_level: float = 0.04
    noise_sigma: float = 1.0
    inexactness: InexactConfig = field(default_factory=InexactConfig)
    mode: str = "igengk"
    reg: RegConfig = field(default_factory=RegConfig)
    max_iter: int = 50
    seed: int = 1234
    output_dir: str = "out"
    betas: tuple = (1e-2, 1e-4, 1e-6)
    angle_schedules: tuple = ((1e-1, 1e-6), (1e0, 1e-6))
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version {self.schema_version} not supported (expected {SCHEMA_VERSION})"
            )
        if self.experiment not in COMMANDS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.mode not in SOLVER_MODES:
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        if not 0 <= self.noise_level <= FLOAT_MAX:
            raise ConfigError("noise_level must be finite and nonnegative")
        if not 0 < self.noise_sigma <= FLOAT_MAX:
            raise ConfigError("noise_sigma must be finite and positive")
        # R^{-1} divides by sigma^2; neither it nor 1/sigma^2 may overflow or vanish.
        variance = float(self.noise_sigma) * float(self.noise_sigma)
        if not (0.0 < variance <= FLOAT_MAX and 1.0 / variance <= FLOAT_MAX):
            raise ConfigError("noise_sigma squared and its reciprocal must be finite and nonzero")
        if not 1 <= self.max_iter <= INDEX_MAX:
            raise ConfigError(f"max_iter must be between 1 and {INDEX_MAX}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not self.output_dir:  # Path("") is the current directory
            raise ConfigError("output_dir must not be empty")
        if not all(0 <= b <= FLOAT_MAX for b in self.betas):
            raise ConfigError("betas must be finite and nonnegative")
        for sched in self.angle_schedules:
            if len(sched) != 2 or not all(0 < a <= FLOAT_MAX for a in sched):
                raise ConfigError("angle_schedules entries must be finite positive (start, end)")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_number_list(v):
    return isinstance(v, list) and all(map(_is_number, v))


# What a JSON value must be for a field of each type: (description, check).
# The two tuple fields are named, because their element types differ.
_VALUE_CHECKS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    "betas": ("a list of numbers", _is_number_list),
    "angle_schedules": (
        "a list of lists of numbers",
        lambda v: isinstance(v, list) and all(map(_is_number_list, v)),
    ),
}


def _build(cls, data, prefix=""):
    """Instance of the config dataclass ``cls`` from a JSON object.

    Every value is checked against its field's type before anything is built:
    int fields reject bools and floats, float fields accept ints, and a field
    whose default is None also accepts null. Nested objects build the section
    dataclasses; JSON lists become tuples.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'configuration root'} must be an object")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {[prefix + k for k in sorted(unknown)]}")
    kwargs = {}
    for key, value in data.items():
        f = known[key]
        if is_dataclass(f.type):
            kwargs[key] = _build(f.type, value, f"{prefix}{key}.")
            continue
        what, ok = _VALUE_CHECKS.get(key) or _VALUE_CHECKS[f.type]
        if not (ok(value) or (value is None and f.default is None)):
            raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")
        kwargs[key] = _to_tuples(value)
    return cls(**kwargs)


def _to_tuples(value):
    return tuple(_to_tuples(v) for v in value) if isinstance(value, list) else value


def config_from_dict(data):
    return _build(ExperimentConfig, data)


def config_from_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(f"cannot parse configuration {path}: {exc}") from exc
    return config_from_dict(data)


PRESETS = ("desk", "paper")


def preset(name, experiment="reconstruct"):
    """Built-in configuration of ``experiment``: 'desk' at n=64 (the four experiments take about
    3 s on one core), 'paper' at n=128 (about 12 s), whose angle study makes 100 iterations."""
    if name == "desk":
        return ExperimentConfig(experiment=experiment)
    if name == "paper":
        cfg = ExperimentConfig(experiment=experiment, geometry=GeometryConfig(n=128))
        return replace(cfg, max_iter=100) if experiment == "inexact-angles" else cfg
    raise ConfigError(f"unknown preset {name!r}")
