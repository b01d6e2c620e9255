"""Experiment drivers: problem assembly, sub-run scheduling, and file output.

Each command is a pure function of its configuration: observations, error
streams, and angle jitter all derive from the config seed through named
substreams, so identical configs produce byte-identical CSV output (timing
lives in a separate file). compare-reg and inexact-angles are sweeps of
named reconstructions of one problem, one per rule or per angle schedule
(the latter after the exact baseline); ``_sweep`` runs and times them and
writes every ``history_<name>.csv``. Independent sub-runs (beta sweeps and
the runs of a sweep) may execute concurrently up to IGENKRYLOV_THREADS
workers without changing any result.
"""

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import bidiag, solve, tomo
from .errors import ConfigError
from .linop import EXACT, InexactnessModel
from .prior import CovarianceOperator, Grid, MaternKernel, NoiseModel, PriorModel, identity_prior
from .regparam import SELECTING_RULES

ORTH_GATE = 1e-10
RATIO_GATE = 0.10

RELATIONS_HEADER = "beta,err_adjoint,err_forward,err_Vorth,err_Uorth"
HISTORY_HEADER = "iter,relerr,lambda,proj_residual"


def max_workers(n_tasks):
    cap = os.environ.get("IGENKRYLOV_THREADS", "1")
    try:
        cap = max(1, int(cap))
    except ValueError:
        cap = 1
    return min(cap, n_tasks)


def _run_all(fn, items):
    workers = max_workers(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _fmt(v):
    return f"{v:.17g}"


def write_csv(path, header, rows):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class CTProblem:
    """Everything needed to run one reconstruction experiment."""

    geom: tomo.CTGeometry
    A: tomo.RadonOperator
    prior: PriorModel
    noise: NoiseModel
    s_true: np.ndarray
    b: np.ndarray
    noise_norm: float

    @property
    def weighted_noise_norm(self):
        # Noise norm in the residual's R^{-1} metric.
        return self.noise_norm / self.noise.sigma


def build_problem(cfg):
    """Assemble geometry, prior, observation, and right-hand side from a config."""
    g = cfg.geometry
    angles = tomo.default_angles(g.angle_start, g.angle_step, g.angle_count)
    geom = tomo.CTGeometry(n=g.n, angles=angles, nrays=g.nrays)
    A = tomo.RadonOperator(geom)
    s_true = tomo.make_phantom(g.n)
    d, noise_norm = tomo.synthesize_observation(geom, s_true, cfg.noise_level, cfg.seed)
    if cfg.mode in ("gengk", "igengk"):
        kernel = MaternKernel(nu=cfg.prior.nu, alpha=1.0 / cfg.prior.ell)
        Q = CovarianceOperator(Grid((g.n, g.n)), kernel)
        prior_model = PriorModel(mu=np.zeros(geom.ncols), Q=Q)
    else:
        prior_model = identity_prior(geom.ncols)
    noise = NoiseModel(sigma=cfg.noise_sigma, dimension=geom.nrows)
    # Both priors have mean zero, so the right-hand side d - A mu is d.
    return CTProblem(geom, A, prior_model, noise, s_true, d, noise_norm)


def inexactness_for(cfg, beta=None, angles=None):
    """The InexactnessModel of a run; no other code turns a config into one.

    ``mode`` picks the prior. For ``reconstruct`` and ``compare-reg`` (no
    argument given), the "i" of ``igk``/``igengk`` also switches inexact
    products on, and ``inexactness.mode`` says which kind: ``gaussian-entry``
    at ``inexactness.beta``, or ``angle-perturbation`` with the first of
    ``angle_schedules``. The two sweep commands bring their own inexactness
    whatever the mode: ``verify-relations`` passes each of ``betas`` as
    ``beta`` and ``inexact-angles`` each of ``angle_schedules`` as ``angles``
    (its exact baseline is ``EXACT``). A schedule ``(start, end)`` jitters
    iteration k by ``np.geomspace(start, end, max_iter)[k - 1]``. The seed is
    ``inexactness.seed``, else the experiment ``seed``. An empty
    ``angle_schedules`` is a ``ConfigError`` only where the first schedule
    is needed.
    """
    if beta is None and angles is None:
        if cfg.mode in ("gk", "gengk") or cfg.inexactness.mode == "none":
            return EXACT
        if cfg.inexactness.mode == "gaussian-entry":
            beta = cfg.inexactness.beta
        elif not cfg.angle_schedules:
            raise ConfigError(
                f"{cfg.mode} with angle-perturbation needs at least one angle_schedules entry"
            )
        else:
            angles = cfg.angle_schedules[0]
    seed = cfg.inexactness.seed if cfg.inexactness.seed is not None else cfg.seed
    if angles is not None:
        start, end = angles
        schedule = np.geomspace(start, end, cfg.max_iter)
        return InexactnessModel(mode="angle-perturbation", schedule=schedule, seed=seed)
    return InexactnessModel(mode="gaussian-entry", beta=float(beta), seed=seed)


def run_reconstruction(cfg, problem, inexact=None, rule=None):
    """One solve of ``problem`` under ``cfg``; ``rule`` (a RegConfig) defaults to ``cfg.reg``."""
    if inexact is None:
        inexact = inexactness_for(cfg)
    if rule is None:
        rule = cfg.reg
    return solve.run_iterative_solve(
        problem.A, inexact, problem.prior, problem.noise, problem.b, cfg.max_iter, rule,
        noise_norm=problem.weighted_noise_norm, s_true=problem.s_true,
    )


def _history_rows(record):
    return [
        (i + 1, float(record.relerr[i]), float(record.lambdas[i]), float(record.proj_residual[i]))
        for i in range(record.iterations)
    ]


def _run_fields(record):
    """The summary fields of one reconstruction."""
    return {
        "final_relerr": record.final_relerr,
        "min_relerr": record.min_relerr,
        "argmin_iter": record.argmin_iter,
        "stop_reason": record.stop_reason,
        "lambda_final": record.lambdas[-1],
    }


def _per_run(records, keys):
    """The summary fields ``keys`` of a sweep, each as a {run name: value} map."""
    fields = {name: _run_fields(rec) for name, rec in records.items()}
    return {key: {name: f[key] for name, f in fields.items()} for key in keys}


def _write_summary(out, cfg, **fields):
    """summary.json: the schema version, the configuration and a command's own fields."""
    write_json(
        out / "summary.json",
        {"schema_version": cfg.schema_version, "config": cfg.to_dict(), **fields},
    )


def _outdir(cfg):
    """The output directory, created when a command has its results to write.

    A run that fails before then (exit 2 or 3) leaves no new directory.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sweep(cfg, problem, runs):
    """Named reconstructions of one problem: ``runs`` maps a name to (inexactness, rule).

    Each run is timed. Once all have finished, each history goes to
    ``history_<name>.csv`` and each time, as ``<name>_s``, to
    ``timings.json``. Returns the output directory and the records by name,
    in the order of ``runs``.
    """

    def one_run(item):
        name, (inexact, rule) = item
        t0 = time.perf_counter()
        record = run_reconstruction(cfg, problem, inexact=inexact, rule=rule)
        return name, record, time.perf_counter() - t0

    results = _run_all(one_run, list(runs.items()))
    out = _outdir(cfg)
    records, timings = {}, {}
    for name, record, dt in results:
        records[name] = record
        timings[f"{name}_s"] = dt
        write_csv(out / f"history_{name}.csv", HISTORY_HEADER, _history_rows(record))
    write_json(out / "timings.json", timings)
    return out, records


# Column groups of the merged per-iteration CSVs: header prefix -> ReconRecord list.
MERGED_COLUMNS = {"relerr": "relerr", "lambda": "lambdas"}


def _write_merged(path, records, columns):
    """One row per iteration, up to the shortest run: the ``columns`` of each run side by side."""
    iters = min(rec.iterations for rec in records.values())
    lists = [getattr(rec, MERGED_COLUMNS[col]) for rec in records.values() for col in columns]
    header = "iter," + ",".join(f"{col}_{name}" for name in records for col in columns)
    rows = [tuple([i + 1] + [float(values[i]) for values in lists]) for i in range(iters)]
    write_csv(path, header, rows)


def cmd_verify_relations(cfg):
    """Factorization-relation residuals per beta, with linear-scaling gates."""
    if not cfg.betas:
        raise ConfigError("verify-relations needs at least one betas entry")
    problem = build_problem(cfg)

    def one_beta(beta):
        t0 = time.perf_counter()
        model = inexactness_for(cfg, beta=beta)
        state, _ = bidiag.igenGK_run(
            problem.A, model, problem.prior, problem.noise, problem.b, cfg.max_iter
        )
        rep = bidiag.relation_diagnostics(state, problem.A, problem.prior, problem.noise)
        return beta, rep, time.perf_counter() - t0

    results = _run_all(one_beta, list(cfg.betas))
    out = _outdir(cfg)
    rows = [
        (float(beta), rep.err_adjoint, rep.err_forward, rep.err_Vorth, rep.err_Uorth)
        for beta, rep, _ in results
    ]
    write_csv(out / "relations.csv", RELATIONS_HEADER, rows)

    ratios = []
    nonzero = [(b, rep) for b, rep, _ in results if b > 0]
    for (b1, r1), (b2, r2) in zip(nonzero, nonzero[1:]):
        expected = b1 / b2
        ratios.append(
            {
                "beta_pair": [b1, b2],
                "expected": expected,
                "adjoint_ratio": r1.err_adjoint / r2.err_adjoint,
                "forward_ratio": r1.err_forward / r2.err_forward,
            }
        )
    orth_ok = all(rep.err_Vorth <= ORTH_GATE and rep.err_Uorth <= ORTH_GATE for _, rep, _ in results)
    ratio_ok = all(
        abs(r["adjoint_ratio"] / r["expected"] - 1) <= RATIO_GATE
        and abs(r["forward_ratio"] / r["expected"] - 1) <= RATIO_GATE
        for r in ratios
    )
    _write_summary(
        out,
        cfg,
        relations=[dict(zip(RELATIONS_HEADER.split(","), row)) for row in rows],
        scaling_ratios=ratios,
        orthogonality_ok=orth_ok,
        scaling_ok=ratio_ok,
    )
    write_json(out / "timings.json", {f"beta_{b:g}_s": t for b, _, t in results})
    return 0 if (orth_ok and ratio_ok) else 1


def cmd_reconstruct(cfg):
    """One reconstruction run: history.csv, final.pgm, summary.json."""
    inexact = inexactness_for(cfg)
    problem = build_problem(cfg)
    record = run_reconstruction(cfg, problem, inexact=inexact)
    out = _outdir(cfg)
    write_csv(out / "history.csv", HISTORY_HEADER, _history_rows(record))
    tomo.write_pgm(out / "final.pgm", record.solution, problem.geom.n)
    _write_summary(out, cfg, **_run_fields(record))
    write_json(out / "timings.json", record.timings)
    return 0


def cmd_compare_reg(cfg):
    """Every lambda-selecting rule (optimal, DP, WGCV) on the identical observation."""
    inexact = inexactness_for(cfg)
    problem = build_problem(cfg)
    runs = {name: (inexact, replace(cfg.reg, rule=name)) for name in SELECTING_RULES}
    out, records = _sweep(cfg, problem, runs)
    _write_merged(out / "compare.csv", records, ("relerr", "lambda"))
    _write_summary(
        out, cfg, **_per_run(records, ("final_relerr", "min_relerr", "argmin_iter", "lambda_final"))
    )
    return 0


def cmd_inexact_angles(cfg):
    """Angle-jitter schedules against the exact-angle baseline."""
    problem = build_problem(cfg)
    schedules = {"exact": None}
    schedules.update((f"sched{idx}", pair) for idx, pair in enumerate(cfg.angle_schedules))
    runs = {
        name: (EXACT if angles is None else inexactness_for(cfg, angles=angles), cfg.reg)
        for name, angles in schedules.items()
    }
    out, records = _sweep(cfg, problem, runs)
    _write_merged(out / "comparison.csv", records, ("relerr",))
    listed = {name: None if angles is None else list(angles) for name, angles in schedules.items()}
    _write_summary(out, cfg, schedules=listed, **_per_run(records, ("final_relerr", "min_relerr")))
    return 0


COMMANDS = {
    "verify-relations": cmd_verify_relations,
    "reconstruct": cmd_reconstruct,
    "compare-reg": cmd_compare_reg,
    "inexact-angles": cmd_inexact_angles,
}
