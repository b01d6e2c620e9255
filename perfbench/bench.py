"""Time to a reconstruction, end to end and by layer.

Each run measures one workload in one fresh process, through the package's
public entry points ``config.config_from_dict`` -> ``harness.build_problem``
-> ``harness.run_reconstruction``:

* ``--trace 0`` repeats the solve for ``--seconds`` (``solve_s``, median)
  with cold set-ups in between (``setup_s``, median), and reports the
  delivered ``final_relerr`` and the process's ``peak_rss_mb``.
* ``--trace 1`` repeats cold set-up plus solve with spans around every layer
  boundary (spans.py), each followed by the same solve untraced, and reports
  the per-layer medians of PER_LAYER.

Every solve is checked outside its timed region (``check``); a solve that
raises or fails a check counts in ``failed``. The last stdout line is the
JSON result; the lines before it give each metric with its sample count.

``--workload all`` runs every workload untraced and traced, each in its own
child process so that neither set-up caches nor peak memory carry over from
one workload to the next, and ends with one JSON line holding all metrics and
the derived baseline (layer shares of the solve, per-iteration counts and the
tracing overhead). perfbench/baseline.json is that line, pretty-printed:

  python3 perfbench/run.py --workload all --seconds 30 | tail -n 1 \
      | python3 -m json.tool > perfbench/baseline.json
"""

import argparse
import json
import logging
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from igenkrylov import bidiag, config, harness, tomo  # noqa: E402
from run import PINNED_ENV  # noqa: E402
from spans import Tracer, patched, summarize  # noqa: E402

# Cold set-ups are interleaved with the solves and take about this share of
# the window, so that both medians sample the same stretch of a shared
# machine's varying load.
SETUP_SHARE = 0.1
DEFAULT_SEED = 1234
DEFAULT_SECONDS = 30.0

# The caches a CLI process starts without. Held here because the tracer
# replaces tomo.system_matrix with a wrapper while it is installed.
SYSMAT = tomo.system_matrix
JITTER = tomo._jittered_operator


@dataclass(frozen=True)
class Workload:
    config: dict
    relerr_ceiling: float


# Why each workload: see "workloads" in BENCHMARK.json. Each ceiling sits about
# 10% above the final_relerr measured over ten seeds at these settings.
WORKLOADS = {
    # Paper headline: inexact generalized GK, oracle lambda. Error injection
    # dominates; max_iter is cut from 50 so that several solves fit a run.
    "igengk-opt-n64": Workload(
        config={
            "mode": "igengk",
            "inexactness": {"mode": "gaussian-entry", "beta": 1e-2},
            "reg": {"rule": "optimal"},
            "max_iter": 5,
        },
        relerr_ceiling=0.55,
    ),
    # Exact products at paper scale: covariance FFTs, reorthogonalization and
    # the discrepancy-principle bisection.
    "gengk-dp-n128": Workload(
        config={
            "mode": "gengk",
            "geometry": {"n": 128},
            "inexactness": {"mode": "none"},
            "reg": {"rule": "dp"},
            "max_iter": 50,
        },
        relerr_ceiling=0.41,
    ),
    # Angle jitter: a new system matrix per iteration, identity prior, WGCV.
    "igk-angles-wgcv-n64": Workload(
        config={
            "mode": "igk",
            "inexactness": {"mode": "angle-perturbation"},
            "reg": {"rule": "wgcv"},
            "max_iter": 50,
        },
        relerr_ceiling=0.42,
    ),
}

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "final_relerr": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tomo.fwd.calls": "count",
    "tomo.fwd.s": "s",
    "tomo.adj.calls": "count",
    "tomo.adj.s": "s",
    "tomo.bytes_computed": "B",
    "tomo.sysmat.builds": "count",
    "tomo.sysmat.cache_hits": "count",
    "tomo.sysmat.s": "s",
    "tomo.sysmat.per_iter": "1/iter",
    "tomo.jitter.calls": "count",
    "tomo.jitter.s": "s",
    "linop.pfwd.calls": "count",
    "linop.pfwd.s": "s",
    "linop.padj.calls": "count",
    "linop.padj.s": "s",
    "linop.inject.self_s": "s",
    "linop.product_s": "s",
    "linop.normals_computed": "count",
    "prior.cov.calls": "count",
    "prior.cov.s": "s",
    "prior.cov.bidiag.calls": "count",
    "prior.cov.regparam.calls": "count",
    "prior.cov.solve.calls": "count",
    "prior.cov.per_iter": "1/iter",
    "bidiag.step.calls": "count",
    "bidiag.step.s": "s",
    "bidiag.step.self_s": "s",
    "bidiag.breakdowns": "count",
    "bidiag.orth_err": "1",
    "solve.ptik.calls": "count",
    "solve.ptik.s": "s",
    "solve.ptik.per_iter": "1/iter",
    "solve.recover.calls": "count",
    "solve.recover.s": "s",
    "solve.run.s": "s",
    "solve.run.self_s": "s",
    "solve.run.overhead_s": "s",
    "regparam.select.s": "s",
    "regparam.select.self_s": "s",
    "regparam.evals_per_iter": "1/iter",
    "regparam.dp.saturated": "1/iter",
    "harness.build_problem.s": "s",
    "harness.synth.s": "s",
    "tomo.share": "%",
    "linop.share": "%",
    "prior.share": "%",
    "bidiag.share": "%",
    "solve.share": "%",
    "regparam.share": "%",
}


def make_config(workload, seed):
    return config.config_from_dict({**workload.config, "seed": int(seed)})


def clear_caches():
    SYSMAT.cache_clear()
    JITTER.cache_clear()


class WarningCounter(logging.Handler):
    """Counts the discrepancy-principle saturation warnings instead of printing them."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def check(record, cfg, workload, reference):
    """Reason a finished solve is wrong, or None. ``reference`` is an earlier
    solve's final_relerr for the same inputs, which must repeat exactly."""
    if record.stop_reason != "max_iter" or record.iterations != cfg.max_iter:
        return f"stopped early ({record.stop_reason}) after {record.iterations} iterations"
    if not (np.all(np.isfinite(record.solution)) and np.all(np.isfinite(record.relerr))):
        return "non-finite solution or error history"
    if record.final_relerr > workload.relerr_ceiling:
        return f"final_relerr {record.final_relerr:.6g} above ceiling {workload.relerr_ceiling}"
    if reference is not None and record.final_relerr != reference:
        return f"final_relerr {record.final_relerr!r} differs from first solve {reference!r}"
    return None


class Outcomes:
    """Attempted solves of one run and the numbers of those that failed."""

    def __init__(self, cfg, workload):
        self.cfg = cfg
        self.workload = workload
        self.attempted = 0
        self.failed = set()
        self.relerr = None

    def solve(self, problem):
        """One solve; returns its record, or None if it raised."""
        self.attempted += 1
        try:
            return harness.run_reconstruction(self.cfg, problem)
        except Exception:
            traceback.print_exc()
            self.fail("raised")
            return None

    def judge(self, record):
        """Check the latest solve, outside its timed region."""
        if record is None:
            return
        reason = check(record, self.cfg, self.workload, self.relerr)
        if reason is not None:
            self.fail(reason)
        elif self.relerr is None:
            self.relerr = record.final_relerr

    def fail(self, reason):
        print(f"solve {self.attempted} failed: {reason}", file=sys.stderr)
        self.failed.add(self.attempted)


def measure_untraced(workload, seed, seconds):
    """End-to-end metrics: {name: (value, samples)} and the outcomes."""
    cfg = make_config(workload, seed)
    outcomes = Outcomes(cfg, workload)
    setup, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        while not setup or sum(setup) < SETUP_SHARE * sum(times):
            clear_caches()
            t0 = time.perf_counter()
            problem = harness.build_problem(cfg)
            setup.append(time.perf_counter() - t0)
        clear_caches()
        t0 = time.perf_counter()
        record = outcomes.solve(problem)
        times.append(time.perf_counter() - t0)
        outcomes.judge(record)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s": (statistics.median(times), len(times)),
        "setup_s": (statistics.median(setup), len(setup)),
        "final_relerr": (outcomes.relerr, outcomes.attempted - len(outcomes.failed)),
        "peak_rss_mb": (peak_mb, 1),
    }
    return metrics, outcomes


def measure_traced(workload, seed, seconds, saturations):
    """Per-layer metrics from repeated traced (cold set-up + solve) samples."""
    cfg = make_config(workload, seed)
    tracer = Tracer()
    outcomes = Outcomes(cfg, workload)
    last = {}

    def capture(init):
        def wrapper(*args, **kwargs):
            last["state"] = init(*args, **kwargs)
            return last["state"]

        return wrapper

    samples = []
    start = time.perf_counter()
    took = 0.0
    while not samples or time.perf_counter() - start + took <= seconds:
        t_sample = time.perf_counter()
        clear_caches()
        saturations.count = 0
        with tracer.install(), patched(bidiag, "igenGK_init", capture(bidiag.igenGK_init)):
            problem = harness.build_problem(cfg)
            record = outcomes.solve(problem)
        info = SYSMAT.cache_info()
        m = summarize(*tracer.take())
        outcomes.judge(record)
        iters = max(record.iterations if record is not None else 0, 1)
        m["tomo.sysmat.builds"] = info.misses
        m["tomo.sysmat.cache_hits"] = info.hits
        m["regparam.dp.saturated"] = saturations.count / iters

        # The same solve untraced, straight after: a pair shares the machine's
        # load, so their difference is the tracing overhead.
        clear_caches()
        t0 = time.perf_counter()
        untraced = outcomes.solve(problem)
        m["solve.run.overhead_s"] = m["solve.run.s"] - (time.perf_counter() - t0)
        outcomes.judge(untraced)
        samples.append(m)
        took = time.perf_counter() - t_sample

    # Orthogonality of the last solve's bases, with freshly applied Q and R^-1.
    rep = bidiag.relation_diagnostics(last["state"], problem.A, problem.prior, problem.noise)
    orth = max(rep.err_Vorth, rep.err_Uorth)
    if orth > harness.ORTH_GATE:
        outcomes.fail(f"orthogonality loss {orth:.3e} above {harness.ORTH_GATE}")
    metrics = {
        name: (statistics.median(s[name] for s in samples), len(samples))
        for name in PER_LAYER
        if name != "bidiag.orth_err"
    }
    metrics["bidiag.orth_err"] = (float(orth), 1)
    return metrics, outcomes


def run_one(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    saturations = WarningCounter()
    logger = logging.getLogger("igenkrylov.regparam")
    logger.addHandler(saturations)
    try:
        if trace:
            metrics, outcomes = measure_traced(workload, seed, seconds, saturations)
            units = PER_LAYER
        else:
            metrics, outcomes = measure_untraced(workload, seed, seconds)
            units = END_TO_END
    finally:
        logger.removeHandler(saturations)

    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in PINNED_ENV)
    print(f"workload {name} seed {seed} trace {trace} max_iter {workload.config['max_iter']}")
    print(f"threads {threads}")
    for metric, unit in units.items():
        value, n = metrics[metric]
        print(f"  {metric:26s} {value!r:>24} {unit:7s} n={n}")
    failed = len(outcomes.failed)
    print(f"  {'failed_ratio':26s} {failed / outcomes.attempted!r:>24} {'1':7s} "
          f"n={outcomes.attempted} ({failed} of {outcomes.attempted} solves failed)")
    result = {
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return result


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh child process."""
    script = str(Path(__file__).resolve().parent / "run.py")
    out = {
        "seed": seed,
        "seconds": seconds,
        "threads": {v: os.environ.get(v) for v in PINNED_ENV},
        "workloads": {},
    }
    ok = True
    for name, workload in WORKLOADS.items():
        runs = []
        for trace in (0, 1):
            cmd = [sys.executable, script, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(lines[-1]))
        e2e, layers = ({k: v["value"] for k, v in r["metrics"].items()} for r in runs)
        ok = ok and all(r["correct"] for r in runs)
        overhead = layers["solve.run.overhead_s"]
        out["workloads"][name] = {
            "max_iter": workload.config["max_iter"],
            "relerr_ceiling": workload.relerr_ceiling,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer": layers,
            "baseline": {
                "self_share_of_solve_pct": {
                    k.split(".")[0]: v for k, v in layers.items() if k.endswith(".share")
                },
                "perturbed_product_s": layers["linop.product_s"],
                "cov_products_per_iter": layers["prior.cov.per_iter"],
                "projected_solves_per_iter": layers["solve.ptik.per_iter"],
                "assemblies_per_iter": layers["tomo.sysmat.per_iter"],
                "rule_evals_per_iter": layers["regparam.evals_per_iter"],
                "dp_saturations_per_iter": layers["regparam.dp.saturated"],
                "tracing_overhead_s": overhead,
                "tracing_overhead_pct": 100.0 * overhead / (layers["solve.run.s"] - overhead),
            },
        }
    print(json.dumps(out))
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0
