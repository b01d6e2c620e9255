"""Command-line interface.

    igenkrylov <command> [--config FILE | --preset desk|paper] [options]

Exit codes: 0 success, 1 an acceptance threshold failed, 2 usage or output
error (the output directory cannot be created or written), 3 out of memory;
a package error exits with its class's ``exit_code`` (see ``errors``).
"""

import argparse
import sys
from dataclasses import replace

from .config import PRESETS, SOLVER_MODES, config_from_json, preset
from .errors import IgenKrylovError
from .harness import COMMANDS
from .regparam import RULES

# --reg takes the rule names, with "opt" standing for "optimal".
REG_ALIASES = {("opt" if rule == "optimal" else rule): rule for rule in RULES}

# The flags that each set one ExperimentConfig field, flag -> field.
FLAG_FIELDS = {"seed": "seed", "out": "output_dir", "max_iter": "max_iter",
               "noise_level": "noise_level", "mode": "mode"}


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
        source.add_argument("--preset", choices=PRESETS, default=None)
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
    """The file's or preset's configuration with every flag given, checked once."""
    cfg = (config_from_json(args.config) if args.config
           else preset(args.preset or "desk", args.command))
    given = vars(args)
    fields = {name: given[flag] for flag, name in FLAG_FIELDS.items() if given[flag] is not None}
    if args.reg is not None:
        fields["reg"] = replace(cfg.reg, rule=REG_ALIASES[args.reg])
    if args.beta:
        fields["betas"] = tuple(args.beta)
        fields["inexactness"] = replace(cfg.inexactness, beta=args.beta[0])
    return replace(cfg, experiment=args.command, **fields)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = assemble_config(args)
        return COMMANDS[args.command](cfg)
    except IgenKrylovError as exc:
        print(f"{exc.report}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
