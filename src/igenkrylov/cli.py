"""Command-line interface.

    igenkrylov <command> [--config FILE | --preset desk|paper] [options]

Exit codes: 0 success, 1 an acceptance threshold failed, 2 usage,
configuration or output error (the output directory cannot be created or
written), 3 numerical failure.
"""

import argparse
import sys
from dataclasses import replace

from .config import SOLVER_MODES, config_from_json, preset
from .errors import ConfigError, IgenKrylovError, NumericalError
from .harness import COMMANDS
from .regparam import RULES

# --reg takes the rule names, with "opt" standing for "optimal".
REG_ALIASES = {("opt" if rule == "optimal" else rule): rule for rule in RULES}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="igenkrylov",
        description="Hybrid Krylov reconstruction experiments for CT with inexact operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="JSON configuration file")
        source.add_argument("--preset", choices=("desk", "paper"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--beta", type=float, action="append", default=None,
                       help="inexactness level; repeatable for verify-relations sweeps")
        p.add_argument("--reg", choices=sorted(REG_ALIASES), default=None)
        p.add_argument("--mode", choices=SOLVER_MODES, default=None)
        p.add_argument("--noise-level", type=float, default=None)
    return parser


def assemble_config(args):
    if args.config:
        cfg = config_from_json(args.config)
    else:
        cfg = preset(args.preset or "desk")
    cfg = replace(cfg, experiment=args.command)
    if args.command == "inexact-angles" and args.preset == "paper" and args.max_iter is None:
        cfg = replace(cfg, max_iter=100)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.max_iter is not None:
        cfg = replace(cfg, max_iter=args.max_iter)
    if args.noise_level is not None:
        cfg = replace(cfg, noise_level=args.noise_level)
    if args.mode is not None:
        cfg = replace(cfg, mode=args.mode)
    if args.reg is not None:
        cfg = replace(cfg, reg=replace(cfg.reg, rule=REG_ALIASES[args.reg]))
    if args.beta:
        cfg = replace(
            cfg,
            betas=tuple(args.beta),
            inexactness=replace(cfg.inexactness, beta=args.beta[0]),
        )
    return cfg


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = assemble_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except IgenKrylovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
