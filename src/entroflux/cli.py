"""Command line entry point.

Exit codes: 0 success, 1 verification failure, 2 config error or an
output directory that cannot be written, 3 numerical-domain error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from . import runner
from . import verify as vf
from .config import _seed, default_config, load_config
from .errors import ConfigError, ConfigValidationError, NumericalDomainError
from .version import __version__

_SWEEPS = ("functionals", "fcs", "classical")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", metavar="PATH",
                        help="config file (defaults to the built-in config)")
    common.add_argument("-o", "--output-dir", metavar="DIR",
                        help="directory for CSV tables and run.json")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the config seed")
    common.add_argument("--tolerance", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override one named tolerance (repeatable)")

    parser = argparse.ArgumentParser(
        prog="entroflux",
        description="entropic functionals, fluctuation statistics, and "
                    "modular identities for finite dynamical systems")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("functionals", parents=[common],
                   help="sweep the deformed entropic functionals")
    sub.add_parser("fcs", parents=[common],
                   help="counting and modular spectral measures with CGF")
    sub.add_parser("classical", parents=[common],
                   help="classical functional sweep and rate distribution")
    sub.add_parser("verify", parents=[common],
                   help="run the full invariant battery")
    sub.add_parser("model", parents=[common],
                   help="print the assembled two-reservoir system")
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
        vf.merge_tolerances(overrides)
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
        if args.subcommand == "model":
            sys.stdout.write(runner.run_model(cfg))
            return 0
        target = args.output_dir or cfg.output_dir
        if args.subcommand in _SWEEPS:
            target = target or runner.DEFAULT_OUTPUT_DIR
        if target:      # before the run, so an unusable path fails at once
            os.makedirs(target, exist_ok=True)
        if args.subcommand in _SWEEPS:
            manifest = runner.execute(cfg, args.subcommand, target)
            rows = sum(count for _, count in manifest["rows"].items())
            print(f"{args.subcommand}: wrote {rows} rows to {target}")
            return 0
        start = time.monotonic()

        def write(results):
            if target:
                runner.write_outputs(target, "verify",
                                     {"checks": runner.checks_to_table(results)},
                                     cfg, time.monotonic() - start)

        try:
            results, passed = runner.run_verify(cfg)
        except NumericalDomainError as exc:
            write(exc.results)      # the rows that ran before the error
            raise
        print(runner.render_check_table(results))
        write(results)
        return 0 if passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalDomainError as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if target is None:
            raise
        print(f"output error: cannot write to directory {target}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
