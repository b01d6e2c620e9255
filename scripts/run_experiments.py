#!/usr/bin/env python3
"""Run a set of experiments into results/<set>/<run>/, or compare two result trees.

    python scripts/run_experiments.py desk|paper|sweep [extra igenkrylov flags]
    python scripts/run_experiments.py compare OLD NEW

``desk`` and ``paper`` run all four experiments at that preset. On one core
of a 2-core Xeon, the desk preset (n=64, 36 angles, 91 rays) takes about
3 s and the paper preset (n=128, A is 6516x16384) about 12 s; the paper
angle study runs 100 iterations, everything else 50. The two jittered
inexact-angles runs take the largest share, because they rebuild the
system matrix at every iteration (about 10 ms a build at n=64, 33 ms at
n=128).

``sweep`` is the byte-identity sweep, 31 runs: every solver mode under every
rule, both rule comparisons and angle studies, the relation check, the rule
options that only a configuration file sets, a Matern prior of an order
without a closed form, and runs that break down, one of them with angle
jitter and two on the U side, one under WGCV and one in the relation check.
Run it at two commits, or twice at one, from same-named directories;
every file but timings.json must be byte-identical, and every timings.json
must have the same keys, which ``compare`` checks:

    python scripts/run_experiments.py compare results other/results

Extra flags are passed to every run.

``compare OLD NEW`` diffs two result trees. It names every file that is in
one tree only or differs, prints the largest relative move of each CSV
column that changed and, for an image of the same size, how many pixels
differ and the largest difference in levels of 1/65535, and exits 1 on any
difference, 0 on none. A timings.json is compared by its keys only, since
its values are wall times, and is left out of the file count; one whose
keys differ, or that is in one tree only, is a difference too.
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

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

# Runs of configuration files, each of the command its "experiment" key names
# (reconstruct when it has none). The gk/dp runs reach the full
# Krylov space of their 256 unknowns at k = 256: the run that may go on stops
# by breakdown, in the step that finds no v_257, and the run limited to 256
# iterations stops at max_iter.
N32 = {"geometry": {"n": 32}, "mode": "igengk", "max_iter": 20, "seed": 7}
SWEEP_CONFIGS = {
    "fixed-n32": {**N32, "reg": {"rule": "fixed", "lambda_fixed": 0.5}},
    "dp-nu-n32": {**N32, "reg": {"rule": "dp", "nu_dp": 1.3}},
    "wgcv-omega-n32": {**N32, "reg": {"rule": "wgcv", "omega": 0.5}},
    "wgcv-adaptive-n32": {**N32, "reg": {"rule": "wgcv", "omega_mode": "adaptive"}},
    # The one run of a Matern order without a closed form (the Bessel branch).
    "matern-nu-n32": {**N32, "prior": {"nu": 1.1}, "reg": {"rule": "optimal"}},
    "breakdown-gk-dp-n16": {
        "geometry": {"n": 16}, "mode": "gk", "reg": {"rule": "dp"}, "max_iter": 400,
    },
    "limit-gk-dp-n16": {
        "geometry": {"n": 16}, "mode": "gk", "reg": {"rule": "dp"}, "max_iter": 256,
    },
    # The one angle-jitter run that stops (by breakdown, at k = 38) long
    # before the last magnitude of its schedule.
    "angles-breakdown-igk-n16": {
        "geometry": {"n": 16, "angle_count": 2, "angle_step": 90.0}, "mode": "igk",
        "inexactness": {"mode": "angle-perturbation"}, "reg": {"rule": "optimal"},
        "max_iter": 100, "seed": 7,
    },
    # A U-side breakdown at k = 4 leaves M square, where the WGCV weighted
    # trace vanishes at the grid floor.
    "wgcv-ubreakdown-n16": {
        "geometry": {"n": 16, "angle_count": 2, "nrays": 2}, "mode": "gk",
        "reg": {"rule": "wgcv"}, "max_iter": 8,
    },
    # A U-side breakdown at k = 1, checked over its one column.
    "relations-ubreakdown-n16": {
        "experiment": "verify-relations", "geometry": {"n": 16, "angle_count": 1, "nrays": 1},
        "max_iter": 5,
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
        listed.append((name, [cfg.get("experiment", "reconstruct"), "--config", str(path)]))
    return listed


def _timing_keys(root):
    """{relative path: sorted keys} of each timings.json under ``root``."""
    return {
        path.relative_to(root).as_posix(): sorted(json.loads(path.read_text()))
        for path in root.rglob("timings.json")
    }


def _files(root):
    return {
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file() and path.name != "timings.json"
    }


def _relative_move(old, new):
    """|new - old| / |old| of two CSV cells; inf when either is not a number or old is 0."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0.0:
        return math.inf
    return abs(b - a) / abs(a)


def _csv_moves(old_path, new_path):
    """{column: largest relative move} over the rows two CSV files share, or None.

    None means the headers or the row counts differ, so no column lines up.
    """
    with open(old_path, newline="") as fa, open(new_path, newline="") as fb:
        old, new = list(csv.reader(fa)), list(csv.reader(fb))
    if not old or not new or old[0] != new[0] or len(old) != len(new):
        return None
    moves = {}
    for row_a, row_b in zip(old[1:], new[1:]):
        for name, a, b in zip(old[0], row_a, row_b):
            if a != b:
                moves[name] = max(moves.get(name, 0.0), _relative_move(a, b))
    return moves


def _pgm_moves(old_path, new_path):
    """(pixels that differ, largest difference in levels) of two 16-bit PGM
    files, or None when their headers differ."""
    old, new = (path.read_bytes().split(b"\n", 3) for path in (old_path, new_path))
    if len(old) != 4 or old[:3] != new[:3] or len(old[3]) != len(new[3]):
        return None
    levels = [np.frombuffer(data[3], dtype=">u2").astype(np.int64) for data in (old, new)]
    diff = np.abs(levels[1] - levels[0])
    return int(np.count_nonzero(diff)), int(diff.max())


def compare(old_root, new_root):
    """Print how two result trees differ, timings.json by its keys; 1 if they do, else 0."""
    old_files, new_files = _files(old_root), _files(new_root)
    differ = 0
    for name in sorted(old_files ^ new_files):
        print(f"only in {old_root if name in old_files else new_root}: {name}")
        differ += 1
    for name in sorted(old_files & new_files):
        old_path, new_path = old_root / name, new_root / name
        if old_path.read_bytes() == new_path.read_bytes():
            continue
        differ += 1
        if name.endswith(".pgm") and (pixels := _pgm_moves(old_path, new_path)):
            print(f"differs: {name}: {pixels[0]} pixels, largest by {pixels[1]}/65535")
            continue
        moves = _csv_moves(old_path, new_path) if name.endswith(".csv") else None
        if not moves:
            print(f"differs: {name}")
            continue
        for column, move in moves.items():
            print(f"differs: {name} column {column}: largest relative move {move:.3g}")
    old_keys, new_keys = _timing_keys(old_root), _timing_keys(new_root)
    keys_differ = 0
    for name in sorted(old_keys.keys() | new_keys.keys()):
        old, new = old_keys.get(name, "no file"), new_keys.get(name, "no file")
        if old != new:
            print(f"differs: {name} keys {old} in {old_root}, {new} in {new_root}")
            keys_differ += 1
    total = len(old_files | new_files)
    summary = f"{differ} of {total} files differ" if differ else f"all {total} files identical"
    print(summary + (f"; keys of {keys_differ} timings.json differ" if keys_differ else ""))
    return 1 if differ or keys_differ else 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3 or not all(Path(root).is_dir() for root in argv[1:]):
            print("usage: run_experiments.py compare OLD NEW (two directories)", file=sys.stderr)
            return 2
        return compare(Path(argv[1]), Path(argv[2]))
    if not argv or argv[0] not in ("desk", "paper", "sweep"):
        print(
            "usage: run_experiments.py desk|paper|sweep [igenkrylov flags]\n"
            "       run_experiments.py compare OLD NEW",
            file=sys.stderr,
        )
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
