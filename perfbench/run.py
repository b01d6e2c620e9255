#!/usr/bin/env python3
"""Solver benchmark entry point; see bench.py for what it measures.

  python3 perfbench/run.py --workload gengk-dp-n128 --seed 1234 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seconds 30

The thread settings are pinned here, before numpy is imported: BLAS
reductions change their summation order with the thread count, which moves
``final_relerr`` in the last digits and widens the timing spread.
"""

import os
import sys

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "IGENKRYLOV_THREADS": "1",
}
os.environ.update(PINNED_ENV)

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src", "igenkrylov")):
        print("perfbench: no src/igenkrylov package in this checkout", file=sys.stderr)
        sys.exit(2)
    import bench

    sys.exit(bench.main(sys.argv[1:]))
