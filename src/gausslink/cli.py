"""Command-line entry point: deterministic sweeps and randomized self-tests."""

import argparse
import math
import os
import sys
from pathlib import Path

from .heatmap import emit_heatmap
from .selftest import run_selftest
from .sweeps import ConfigError, NumericalError, parse_config, run_sweep

JOBS_ENV_VAR = "GAUSSLINK_JOBS"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _resolve_jobs(cli_value) -> int:
    if cli_value is not None:
        return cli_value
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{JOBS_ENV_VAR}: not an integer: {env!r}") from None
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausslink",
        description="Transducer sweeps: quantum-capacity bounds and entanglement rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a configured parameter sweep")
    sweep.add_argument("config", help="path to the INI sweep configuration")
    sweep.add_argument("--out", default=None, help="directory for output files")
    sweep.add_argument("--svg", action="store_true", help="also emit an SVG heatmap")
    sweep.add_argument("--jobs", type=int, default=None, help="parallel workers")
    sweep.add_argument(
        "--seed", type=int, default=None,
        help="accepted for interface symmetry; sweeps are deterministic",
    )

    self_test = sub.add_parser("selftest", help="run the oracle-equivalence suites")
    self_test.add_argument("--seed", type=int, default=0, help="random seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed: must be a non-negative integer")
        if args.command == "selftest":
            return EXIT_OK if run_selftest(seed=args.seed) else EXIT_NUMERICAL
        config = parse_config(args.config)
        jobs = _resolve_jobs(args.jobs)
        if jobs < 1:
            source = "--jobs" if args.jobs is not None else JOBS_ENV_VAR
            raise ConfigError(f"{source}: must be at least 1")
        if args.svg and len(config.axes) != 2:
            raise ConfigError("--svg: heatmaps need a two-axis sweep")
        if args.svg and Path(config.output).suffix.lower() == ".svg":
            raise ConfigError(f"--svg: output {config.output!r} is the name of its own heatmap")
        result = run_sweep(config, out_dir=args.out, jobs=jobs)
        print(f"wrote {result.path} ({math.prod(a.points for a in result.axes)} rows)")
        if config.emit_svg or args.svg:
            svg_path = result.path.with_suffix(".svg")
            emit_heatmap(result.path, config.svg_metric, svg_path)
            print(f"wrote {svg_path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ValueError, ArithmeticError) as exc:
        # covers linear-algebra failures too: LinAlgError subclasses ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
