"""Command line entry point: parses the arguments, hands the run to
``runner.execute`` and maps its errors to exit codes.

Exit codes: 0 success, 1 verification failure, 2 config error or an
output directory that cannot be written, 3 numerical-domain error, 4 a
worker process of ``functionals`` or ``verify`` that died before returning.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import runner
from .config import _seed, default_config, load_config, merge_tolerances
from .errors import (ConfigError, ConfigValidationError, NumericalDomainError,
                     WorkerLostError)
from .version import __version__


SUBCOMMANDS = {
    "functionals": "sweep the deformed entropic functionals",
    "fcs": "counting and modular spectral measures with CGF",
    "classical": "classical functional sweep and rate distribution",
    "verify": "run the full invariant battery",
    "model": "print the assembled two-reservoir system",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflux", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="entropic functionals, fluctuation statistics, and "
                    "modular identities\nfor finite dynamical systems",
        epilog="subcommands:\n" + "".join(
            f"  {name:<13}{text}\n" for name, text in SUBCOMMANDS.items()))
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("-c", "--config", metavar="PATH",
                        help="config file (defaults to the built-in config)")
    parser.add_argument("-o", "--output-dir", metavar="DIR",
                        help="directory for CSV tables and run.json")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    parser.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override one named tolerance (repeatable)")
    return parser


def _parse_tolerance_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ConfigValidationError(
                f"tolerance override {pair!r} is not NAME=VALUE")
        try:
            overrides[name] = float(raw)
        except ValueError:
            raise ConfigValidationError(
                f"tolerance override {name}: {raw!r} is not a number")
    try:
        merge_tolerances(overrides)
    except ValueError as exc:
        raise ConfigValidationError(str(exc))
    return overrides


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=_seed(args.seed, "seed"))
    overrides = _parse_tolerance_overrides(args.tolerance)
    if overrides:
        cfg = replace(cfg, tolerances={**cfg.tolerances, **overrides})
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    target = None
    try:
        cfg = _load(args)
        target = args.output_dir or cfg.output_dir
        if args.subcommand == "model":
            target = None           # it only prints
        elif args.subcommand != "verify":
            target = target or runner.DEFAULT_OUTPUT_DIR
        if target:      # before the run, so an unusable path fails at once
            os.makedirs(target, exist_ok=True)
        report, passed = runner.execute(cfg, args.subcommand, target)
        sys.stdout.write(report)
        return 0 if passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalDomainError as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 3
    except WorkerLostError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        if target is None:
            raise
        print(f"output error: cannot write to directory {target}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
