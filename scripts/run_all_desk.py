#!/usr/bin/env python3
"""Run all four desk-scale experiments into results/desk/<command>/.

Desk scale (n=64, 36 angles, 91 rays) finishes in a few minutes; each
inexact product draws one error vector and each iteration makes one
covariance product, so the exact Radon products and the angle-jitter
rebuilds take most of the time.
"""

import sys
from pathlib import Path

from igenkrylov import cli

RESULTS = Path("results/desk")

RUNS = [
    ["verify-relations", "--out", str(RESULTS / "verify-relations")],
    ["reconstruct", "--mode", "igengk", "--reg", "none",
     "--out", str(RESULTS / "reconstruct-unregularized")],
    ["reconstruct", "--mode", "igengk", "--reg", "opt",
     "--out", str(RESULTS / "reconstruct-hybrid")],
    ["compare-reg", "--mode", "igengk",
     "--out", str(RESULTS / "compare-reg")],
    ["inexact-angles", "--mode", "igengk", "--reg", "opt",
     "--out", str(RESULTS / "inexact-angles")],
]


def main():
    extra = sys.argv[1:]
    for args in RUNS:
        print("-> igenkrylov", " ".join(args + extra), flush=True)
        rc = cli.main(args + extra)
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
    print(f"all runs complete under {RESULTS}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
