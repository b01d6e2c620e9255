#!/usr/bin/env python3
"""Run all four experiments at one preset into results/<preset>/<run>/.

    python scripts/run_experiments.py desk|paper [extra igenkrylov flags]

On one core of a 2-core Xeon, the desk preset (n=64, 36 angles, 91 rays)
takes about 3 s and the paper preset (n=128, A is 6516x16384) about 13 s;
the paper angle study runs 100 iterations, everything else 50. The two
jittered inexact-angles runs take the largest share, because they rebuild
the system matrix at every iteration (about 10 ms a build at n=64, 33 ms at
n=128). Extra flags are passed to every run.
"""

import sys
from pathlib import Path

from igenkrylov import cli

RUNS = [
    ("verify-relations", ["verify-relations"]),
    ("reconstruct-unregularized", ["reconstruct", "--mode", "igengk", "--reg", "none"]),
    ("reconstruct-hybrid", ["reconstruct", "--mode", "igengk", "--reg", "opt"]),
    ("compare-reg", ["compare-reg", "--mode", "igengk"]),
    ("inexact-angles", ["inexact-angles", "--mode", "igengk", "--reg", "opt"]),
]


def main(argv):
    if not argv or argv[0] not in ("desk", "paper"):
        print("usage: run_experiments.py desk|paper [igenkrylov flags]", file=sys.stderr)
        return 2
    preset, extra = argv[0], argv[1:]
    results = Path("results") / preset
    for name, args in RUNS:
        args = args + ["--preset", preset, "--out", str(results / name)] + extra
        print("-> igenkrylov", " ".join(args), flush=True)
        rc = cli.main(args)
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"all runs complete under {results}/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
