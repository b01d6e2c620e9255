"""Experiment drivers: problem assembly, sub-runs, and file output.

Each command is a pure function of its configuration: observations, error
streams, and angle jitter all derive from the config seed through named
substreams, so identical configs produce byte-identical CSV output (timing
lives in a separate file). compare-reg and inexact-angles are sweeps of
named reconstructions of one problem, one per rule or per angle schedule
(the latter after the exact baseline); ``_sweep`` runs them on one
decomposition per inexactness model and writes every ``history_<name>.csv``.
"""

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bidiag, solve, tomo
from .errors import ConfigError
from .linop import EXACT, InexactnessModel
from .prior import CovarianceOperator, MaternKernel, NoiseModel, PriorModel, identity_prior
from .regparam import SELECTING_RULES

ORTH_GATE = 1e-10
RATIO_GATE = 0.10

RELATIONS_HEADER = ",".join(("beta", *bidiag.RelationReport._fields))
HISTORY_HEADER = "iter,relerr,lambda,proj_residual"


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

    A: tomo.RadonOperator
    prior: PriorModel
    noise: NoiseModel
    s_true: np.ndarray
    b: np.ndarray
    noise_norm: float  # in the residual's R^{-1} metric


def build_problem(cfg):
    """Assemble geometry, prior, observation, and right-hand side from a config."""
    g = cfg.geometry
    angles = tomo.default_angles(g.angle_start, g.angle_step, g.angle_count)
    geom = tomo.CTGeometry(n=g.n, angles=angles, nrays=g.nrays)
    A = tomo.RadonOperator(geom)
    s_true = tomo.make_phantom(g.n)
    d, noise_norm = tomo.synthesize_observation(A, s_true, cfg.noise_level, cfg.seed)
    if cfg.mode in ("gengk", "igengk"):
        kernel = MaternKernel(nu=cfg.prior.nu, alpha=1.0 / cfg.prior.ell)
        Q = CovarianceOperator((g.n, g.n), kernel)
        prior_model = PriorModel(mu=np.zeros(geom.ncols), Q=Q)
    else:
        prior_model = identity_prior(geom.ncols)
    noise = NoiseModel(sigma=cfg.noise_sigma, dimension=geom.nrows)
    # Both priors have mean zero, so the right-hand side d - A mu is d.
    return CTProblem(A, prior_model, noise, s_true, d, noise_norm / noise.sigma)


def inexactness_for(cfg, beta=None, angles=None):
    """The InexactnessModel of a run; no other code turns a config into one.

    ``mode`` picks the prior. For ``reconstruct`` and ``compare-reg`` (no
    argument given), the "i" of ``igk``/``igengk`` also switches inexact
    products on, and ``inexactness.mode`` says which kind: ``gaussian-entry``
    at ``inexactness.beta``, or ``angle-perturbation`` with the first of
    ``angle_schedules``. The two sweep commands bring their own inexactness
    whatever the mode: ``verify-relations`` passes each of ``betas`` as
    ``beta`` and ``inexact-angles`` each of ``angle_schedules`` as ``angles``
    (its exact baseline is ``EXACT``). A schedule ``(start, end)`` becomes
    the model's ``(start, end, max_iter)``, which jitters iteration k by
    ``np.geomspace(start, end, max_iter)[k - 1]``. The seed is
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
        schedule = (*angles, cfg.max_iter)
        return InexactnessModel(mode="angle-perturbation", schedule=schedule, seed=seed)
    return InexactnessModel(mode="gaussian-entry", beta=float(beta), seed=seed)


def run_reconstruction(cfg, problem):
    """One solve of ``problem`` under ``cfg``."""
    return solve.run_iterative_solve(
        problem.A, inexactness_for(cfg), problem.prior, problem.noise, problem.b, cfg.max_iter,
        cfg.reg, noise_norm=problem.noise_norm, s_true=problem.s_true,
    )


def _run_fields(record):
    """The summary fields of one reconstruction."""
    relerr = record.relerr
    return {
        "final_relerr": record.final_relerr,
        "min_relerr": min(relerr),
        "argmin_iter": int(np.argmin(relerr)) + 1,
        "stop_reason": record.stop_reason,
        "lambda_final": record.history[-1].lam,
    }


def _per_run(records, keys):
    """The summary fields ``keys`` of a sweep, each as a {run name: value} map."""
    fields = {name: _run_fields(rec) for name, rec in records.items()}
    return {key: {name: f[key] for name, f in fields.items()} for key in keys}


def _write_summary(out, cfg, **fields):
    """summary.json: the schema version, the configuration and a command's own fields."""
    write_json(
        out / "summary.json",
        {"schema_version": cfg.schema_version, "config": asdict(cfg), **fields},
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

    A run decomposes only if its inexactness differs from the previous run's,
    else it projects that state again. Each run is timed, as ``<name>_s``,
    with its decomposition only if it made one. Once all have finished, each
    history goes to ``history_<name>.csv`` and each time to ``timings.json``.
    Returns the output directory and the records by name, in order of ``runs``.
    """
    records, timings, decomposition = {}, {}, {}
    for name, (inexact, rule) in runs.items():
        t0 = time.perf_counter()
        if inexact not in decomposition:
            decomposition.clear()  # frees the previous state before the next is allocated
            decomposition[inexact] = bidiag.igenGK_run(
                problem.A, inexact, problem.prior, problem.noise, problem.b, cfg.max_iter
            )
        records[name] = solve.project(
            decomposition[inexact], problem.prior, rule, problem.noise_norm, problem.s_true
        )
        timings[f"{name}_s"] = time.perf_counter() - t0
    out = _outdir(cfg)
    for name, record in records.items():
        write_csv(out / f"history_{name}.csv", HISTORY_HEADER, record.history)
    write_json(out / "timings.json", timings)
    return out, records


def _write_merged(path, records, columns):
    """One row per iteration, up to the shortest run: the ``columns`` of each run side by side.

    Each of ``columns`` names a ``history.csv`` column other than ``iter``.
    """
    picks = [HISTORY_HEADER.split(",").index(col) for col in columns]
    header = "iter," + ",".join(f"{col}_{name}" for name in records for col in columns)
    rows = [
        (same_k[0].k, *(row[i] for row in same_k for i in picks))
        for same_k in zip(*(rec.history for rec in records.values()))
    ]
    write_csv(path, header, rows)


def cmd_verify_relations(cfg):
    """Factorization-relation residuals per beta, with linear-scaling gates."""
    if not cfg.betas:
        raise ConfigError("verify-relations needs at least one betas entry")
    problem = build_problem(cfg)
    reports, timings = [], {}
    for beta in cfg.betas:
        t0 = time.perf_counter()
        model = inexactness_for(cfg, beta=beta)
        state = bidiag.igenGK_run(
            problem.A, model, problem.prior, problem.noise, problem.b, cfg.max_iter
        )
        reports.append(bidiag.relation_diagnostics(state, problem.A, problem.prior, problem.noise))
        timings[f"beta_{beta!r}_s"] = time.perf_counter() - t0
    out = _outdir(cfg)
    rows = [(float(beta), *rep) for beta, rep in zip(cfg.betas, reports)]
    write_csv(out / "relations.csv", RELATIONS_HEADER, rows)

    ratios = []
    nonzero = [(b, rep) for b, rep in zip(cfg.betas, reports) if b > 0]
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
    orth_ok = all(rep.err_Vorth <= ORTH_GATE and rep.err_Uorth <= ORTH_GATE for rep in reports)
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
    write_json(out / "timings.json", timings)
    return 0 if (orth_ok and ratio_ok) else 1


def cmd_reconstruct(cfg):
    """One reconstruction run: history.csv, final.pgm, summary.json."""
    problem = build_problem(cfg)
    record = run_reconstruction(cfg, problem)
    out = _outdir(cfg)
    write_csv(out / "history.csv", HISTORY_HEADER, record.history)
    tomo.write_pgm(out / "final.pgm", record.solution, problem.A.geom.n)
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
    _write_summary(
        out, cfg, schedules=schedules, **_per_run(records, ("final_relerr", "min_relerr"))
    )
    return 0


COMMANDS = {
    "verify-relations": cmd_verify_relations,
    "reconstruct": cmd_reconstruct,
    "compare-reg": cmd_compare_reg,
    "inexact-angles": cmd_inexact_angles,
}
