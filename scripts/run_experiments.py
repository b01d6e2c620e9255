#!/usr/bin/env python3
"""Run a set of experiments into results/<set>/<run>/.

    python scripts/run_experiments.py desk|paper|sweep [extra igenkrylov flags]

``desk`` and ``paper`` run all four experiments at that preset. On one core
of a 2-core Xeon, the desk preset (n=64, 36 angles, 91 rays) takes about
3 s and the paper preset (n=128, A is 6516x16384) about 13 s; the paper
angle study runs 100 iterations, everything else 50. The two jittered
inexact-angles runs take the largest share, because they rebuild the
system matrix at every iteration (about 10 ms a build at n=64, 33 ms at
n=128).

``sweep`` is the byte-identity sweep: every solver mode under every rule,
both rule comparisons and angle studies, the relation check, the rule
options that only a configuration file sets, and a run that breaks down.
Run it at two commits (or twice, on different thread counts) from
same-named directories; apart from timings.json every file must be
byte-identical:

    diff -r -x timings.json results other/results

Extra flags are passed to every run.
"""

import json
import sys
import tempfile
from pathlib import Path

from igenkrylov import cli

EXPERIMENTS = [
    ("verify-relations", ["verify-relations"]),
    ("reconstruct-unregularized", ["reconstruct", "--mode", "igengk", "--reg", "none"]),
    ("reconstruct-hybrid", ["reconstruct", "--mode", "igengk", "--reg", "opt"]),
    ("compare-reg", ["compare-reg", "--mode", "igengk"]),
    ("inexact-angles", ["inexact-angles", "--mode", "igengk", "--reg", "opt"]),
]

# Runs of the desk preset at 20 iterations, by name: (command, mode, rule).
SWEEP_DESK_RUNS = {
    **{
        f"reconstruct-{mode}-{rule}": ("reconstruct", mode, rule)
        for mode in ("gk", "igk", "gengk", "igengk")
        for rule in ("none", "opt", "dp", "wgcv")
    },
    "compare-reg-igk": ("compare-reg", "igk", None),
    "compare-reg-igengk": ("compare-reg", "igengk", None),
    "inexact-angles-igengk-opt": ("inexact-angles", "igengk", "opt"),
    "inexact-angles-igk-wgcv": ("inexact-angles", "igk", "wgcv"),
    "verify-relations": ("verify-relations", None, None),
}

# reconstruct runs of configuration files. The gk/dp runs reach the full
# Krylov space of their 256 unknowns at k = 256: the run that may go on stops
# by breakdown, in the step that finds no v_257, and the run limited to 256
# iterations stops at max_iter.
N32 = {"geometry": {"n": 32}, "mode": "igengk", "max_iter": 20, "seed": 7}
SWEEP_CONFIGS = {
    "fixed-n32": {**N32, "reg": {"rule": "fixed", "lambda_fixed": 0.5}},
    "dp-nu-n32": {**N32, "reg": {"rule": "dp", "nu_dp": 1.3}},
    "wgcv-omega-n32": {**N32, "reg": {"rule": "wgcv", "omega": 0.5}},
    "wgcv-adaptive-n32": {**N32, "reg": {"rule": "wgcv", "omega_mode": "adaptive"}},
    "breakdown-gk-dp-n16": {
        "geometry": {"n": 16}, "mode": "gk", "reg": {"rule": "dp"}, "max_iter": 400,
    },
    "limit-gk-dp-n16": {
        "geometry": {"n": 16}, "mode": "gk", "reg": {"rule": "dp"}, "max_iter": 256,
    },
}


def runs(which, config_dir):
    """(name, igenkrylov arguments) of each run of a set; config files go to ``config_dir``."""
    if which != "sweep":
        return [(name, args + ["--preset", which]) for name, args in EXPERIMENTS]
    listed = []
    for name, (command, mode, rule) in SWEEP_DESK_RUNS.items():
        args = [command, "--preset", "desk", "--max-iter", "20"]
        args += ["--mode", mode] if mode else []
        args += ["--reg", rule] if rule else []
        listed.append((name, args))
    for name, cfg in SWEEP_CONFIGS.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        listed.append((name, ["reconstruct", "--config", str(path)]))
    return listed


def main(argv):
    if not argv or argv[0] not in ("desk", "paper", "sweep"):
        print("usage: run_experiments.py desk|paper|sweep [igenkrylov flags]", file=sys.stderr)
        return 2
    which, extra = argv[0], argv[1:]
    results = Path("results") / which
    with tempfile.TemporaryDirectory() as config_dir:
        for name, args in runs(which, Path(config_dir)):
            args = args + ["--out", str(results / name)] + extra
            print("-> igenkrylov", " ".join(args), flush=True)
            rc = cli.main(args)
            if rc != 0:
                print(f"command failed with exit code {rc}", file=sys.stderr)
                return rc
    print(f"all runs complete under {results}/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
