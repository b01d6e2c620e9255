"""Experiment drivers: problem assembly, sub-runs, and the files they make.

Each command is a pure function of its configuration: observations, error
streams, and angle jitter all derive from the config seed through named
substreams, so identical configs produce byte-identical CSV output (timing
lives in a separate file). compare-reg and inexact-angles are sweeps of
named reconstructions of one problem, one per rule or per angle schedule
(the latter after the exact baseline). Every reconstruction is a
``solve.run_iterative_solve``: compare-reg makes one for its three rules,
inexact-angles one per run; ``_sweep`` makes both sweeps and their files.
A command makes the contents of all of its files first (``csv_text``,
``json_text``, ``pgm_bytes``), then hands them to ``_publish``, the only
code that creates the output directory or writes a file.
"""

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bidiag, solve, tomo
from .errors import ConfigError, NumericalError
from .linop import EXACT, InexactnessModel
from .prior import CovarianceOperator, IdentityCovariance, MaternKernel, NoiseModel
from .regparam import SELECTING_RULES

ORTH_GATE = 1e-10
RATIO_GATE = 0.10

RELATIONS_HEADER = ",".join(("beta", *bidiag.RelationReport._fields))
HISTORY_HEADER = "iter,relerr,lambda,proj_residual"


def csv_text(header, rows):
    """A CSV file: ``header``, then one line per row, each float to 17 significant digits."""
    lines = (",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in r) for r in rows)
    return "".join(line + "\n" for line in (header, *lines))


def json_text(payload):
    """A JSON file; a NaN or infinite number in ``payload`` is a ``NumericalError``."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"an output holds a non-finite number: {exc}") from None


def pgm_bytes(vec, n):
    """A 16-bit binary PGM (P5) of an image vector, row-major as ``tomo.image_to_grid``."""
    arr = np.clip(tomo.image_to_grid(np.asarray(vec, dtype=float), n), 0.0, 1.0)
    data = np.round(arr * 65535.0).astype(">u2")
    return f"P5\n{n} {n}\n65535\n".encode("ascii") + data.tobytes()


@dataclass
class CTProblem:
    """Everything needed to run one reconstruction experiment."""

    A: tomo.RadonOperator
    prior: object  # the prior covariance Q: CovarianceOperator or IdentityCovariance
    noise: NoiseModel
    s_true: np.ndarray
    b: np.ndarray
    noise_norm: float  # in the residual's R^{-1} metric


def build_problem(cfg):
    """Assemble geometry, prior, observation, and right-hand side from a config.

    The prior mean is zero, so the prior is its covariance Q, the right-hand side
    is d and a solution is Z y.
    """
    g = cfg.geometry
    angles = tomo.default_angles(g.angle_start, g.angle_step, g.angle_count)
    geom = tomo.CTGeometry(n=g.n, angles=angles, nrays=g.nrays)
    A = tomo.RadonOperator(geom)
    s_true = tomo.make_phantom(g.n)
    d, noise_norm = tomo.synthesize_observation(A, s_true, cfg.noise_level, cfg.seed)
    if cfg.mode in ("gengk", "igengk"):
        kernel = MaternKernel(nu=cfg.prior.nu, alpha=1.0 / cfg.prior.ell)
        Q = CovarianceOperator((g.n, g.n), kernel)
    else:
        Q = IdentityCovariance()
    noise = NoiseModel(sigma=cfg.noise_sigma)
    return CTProblem(A, Q, noise, s_true, d, noise_norm / noise.sigma)


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


def _solve(cfg, problem, inexact, rules):
    """``solve.run_iterative_solve`` of ``problem`` under ``inexact``: one record per rule."""
    return solve.run_iterative_solve(
        problem.A, inexact, problem.prior, problem.noise, problem.b, cfg.max_iter,
        rules, problem.noise_norm, problem.s_true,
    )


def run_reconstruction(cfg, problem):
    """One solve of ``problem`` under ``cfg``."""
    return _solve(cfg, problem, inexactness_for(cfg), {"run": cfg.reg})["run"]


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


def _summary_json(cfg, **fields):
    """summary.json: the schema version, the configuration and a command's own fields."""
    return json_text({"schema_version": cfg.schema_version, "config": asdict(cfg), **fields})


def _publish(cfg, files):
    """Create the output directory and write ``files``, a {file name: contents} map, into it.

    Text is written as ASCII bytes, so lines end in "\n" on every platform.
    Every command makes all of its files before it calls this, so a run that
    fails first (exit 2 or 3) leaves no new directory; an ``OSError`` while
    writing can still leave some of the files.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data if isinstance(data, bytes) else data.encode("ascii"))


def _merged_csv(records, columns):
    """One row per iteration, up to the shortest run: the ``columns`` of each run side by side.

    Each of ``columns`` names a ``history.csv`` column other than ``iter``.
    """
    picks = [HISTORY_HEADER.split(",").index(col) for col in columns]
    header = "iter," + ",".join(f"{col}_{name}" for name in records for col in columns)
    rows = [
        (same_k[0].k, *(row[i] for row in same_k for i in picks))
        for same_k in zip(*(rec.history for rec in records.values()))
    ]
    return csv_text(header, rows)


def _sweep(cfg, problem, runs, merged, columns, keys, **fields):
    """Solve ``runs``, (inexactness, {name: RegConfig}) pairs in order, and publish the sweep.

    Its files: each history as ``history_<name>.csv``; ``timings.json``, whose
    ``<name>_s`` sums that record's timings (a decomposition counts only in the
    run that made it); ``merged``, the histories' ``columns`` side by side; and
    ``summary.json``: ``fields``, and each summary field of ``keys`` as a
    {name: value} map.
    """
    records = {}
    for inexact, rules in runs:
        records |= _solve(cfg, problem, inexact, rules)
    files = {f"history_{n}.csv": csv_text(HISTORY_HEADER, r.history) for n, r in records.items()}
    timings = {f"{n}_s": sum(r.timings.values()) for n, r in records.items()}
    files["timings.json"] = json_text(timings)
    files[merged] = _merged_csv(records, columns)
    per_run = {name: _run_fields(rec) for name, rec in records.items()}
    fields |= {key: {name: f[key] for name, f in per_run.items()} for key in keys}
    files["summary.json"] = _summary_json(cfg, **fields)
    _publish(cfg, files)
    return 0


def cmd_verify_relations(cfg):
    """Factorization-relation residuals per beta, with linear-scaling gates."""
    if not cfg.betas:
        raise ConfigError("verify-relations needs at least one betas entry")
    if len(set(cfg.betas)) < len(cfg.betas):
        raise ConfigError("verify-relations betas must not repeat a value")
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
    rows = [(float(beta), *rep) for beta, rep in zip(cfg.betas, reports)]

    nonzero = [(b, rep) for b, rep in zip(cfg.betas, reports) if b > 0]
    ratios = [
        {
            "beta_pair": [b1, b2],
            "expected": b1 / b2,
            "adjoint_ratio": r1.err_adjoint / r2.err_adjoint if r2.err_adjoint else None,
            "forward_ratio": r1.err_forward / r2.err_forward if r2.err_forward else None,
        }
        for (b1, r1), (b2, r2) in zip(nonzero, nonzero[1:])
    ]
    orth_ok = all(rep.err_Vorth <= ORTH_GATE and rep.err_Uorth <= ORTH_GATE for rep in reports)
    ratio_ok = all(
        r[key] is not None and abs(r[key] / r["expected"] - 1) <= RATIO_GATE
        for r in ratios for key in ("adjoint_ratio", "forward_ratio")
    )
    _publish(cfg, {
        "relations.csv": csv_text(RELATIONS_HEADER, rows),
        "summary.json": _summary_json(
            cfg, relations=[dict(zip(RELATIONS_HEADER.split(","), row)) for row in rows],
            scaling_ratios=ratios, orthogonality_ok=orth_ok, scaling_ok=ratio_ok,
        ),
        "timings.json": json_text(timings),
    })
    return 0 if (orth_ok and ratio_ok) else 1


def cmd_reconstruct(cfg):
    """One reconstruction run: history.csv, final.pgm, summary.json."""
    problem = build_problem(cfg)
    record = run_reconstruction(cfg, problem)
    _publish(cfg, {
        "history.csv": csv_text(HISTORY_HEADER, record.history),
        "final.pgm": pgm_bytes(record.solution, problem.A.geom.n),
        "summary.json": _summary_json(cfg, **_run_fields(record)),
        "timings.json": json_text(record.timings),
    })
    return 0


def cmd_compare_reg(cfg):
    """Every lambda-selecting rule (optimal, DP, WGCV) on the identical observation."""
    inexact = inexactness_for(cfg)
    problem = build_problem(cfg)
    rules = {name: replace(cfg.reg, rule=name) for name in SELECTING_RULES}
    return _sweep(
        cfg, problem, [(inexact, rules)], "compare.csv", ("relerr", "lambda"),
        ("final_relerr", "min_relerr", "argmin_iter", "lambda_final"),
    )


def cmd_inexact_angles(cfg):
    """Angle-jitter schedules against the exact-angle baseline."""
    problem = build_problem(cfg)
    schedules = {"exact": None} | {f"sched{i}": pair for i, pair in enumerate(cfg.angle_schedules)}
    runs = [
        (EXACT if angles is None else inexactness_for(cfg, angles=angles), {name: cfg.reg})
        for name, angles in schedules.items()
    ]
    return _sweep(
        cfg, problem, runs, "comparison.csv", ("relerr",), ("final_relerr", "min_relerr"),
        schedules=schedules,
    )


COMMANDS = {
    "verify-relations": cmd_verify_relations,
    "reconstruct": cmd_reconstruct,
    "compare-reg": cmd_compare_reg,
    "inexact-angles": cmd_inexact_angles,
}
