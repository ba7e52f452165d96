"""Command line entry point.

Usage: darksteady <experiment> --config <file> --out <dir>
                  [--seed N] [--integrator rk4|propagator]

Exit codes: 0 success, 2 configuration error, 3 numerical or domain error,
4 non-unique steady state where a unique one is required.  Diagnostics go
to stderr; partial output files are removed on failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import EXPERIMENTS, INTEGRATORS, parse_config
from .errors import (
    ConfigError,
    DarksteadyError,
    NonUniqueSteadyState,
)
from .experiments import run_experiment
from .version import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONUNIQUE = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="darksteady",
        description="Dissipative electron-nuclear entanglement simulator",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", metavar="FILE", help="config file path")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="RNG seed")
    parser.add_argument("--integrator", choices=INTEGRATORS)
    parser.add_argument("--version", action="version", version=f"darksteady {__version__}")
    return parser


def _load_config(args):
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}")
    else:
        text = ""
    cfg = parse_config(text)
    if cfg.experiment is not None and cfg.experiment != args.experiment:
        raise ConfigError(
            f"config selects experiment {cfg.experiment!r} but the command "
            f"line says {args.experiment!r}"
        )
    updates = {"experiment": args.experiment}
    if args.out is not None:
        updates["output"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.integrator is not None:
        updates["integrator"] = args.integrator
    return replace(cfg, **updates)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        run_experiment(cfg)
    except ConfigError as exc:
        print(f"darksteady: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonUniqueSteadyState as exc:
        print(f"darksteady: non-unique steady state: {exc}", file=sys.stderr)
        if exc.null_dimension is not None:
            print(
                f"darksteady: stationary subspace dimension {exc.null_dimension}, "
                f"spectral gap {exc.spectral_gap}",
                file=sys.stderr,
            )
        return EXIT_NONUNIQUE
    except DarksteadyError as exc:
        print(f"darksteady: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
