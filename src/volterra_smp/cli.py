"""Command line entry point.

    volterra-smp <experiment> --config FILE --seed N --out DIR [--paths N] [--steps N]

Experiments: kernels | simulate | rates | bsde-check | adjoint | duality |
mp-check | bsvie-check | all.  The process exits nonzero iff any acceptance
assertion of the selected experiment fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (EXPERIMENTS, ConfigError, prepare_output, resolve_config, run_experiment,
                      write_results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="volterra-smp",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", type=str, default="out", help="output directory (or .csv path)")
    parser.add_argument("--paths", type=int, default=None, help="override grid.n_paths")
    parser.add_argument("--steps", type=int, default=None, help="override grid.n_steps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args.config, seed=args.seed, n_paths=args.paths,
                                n_steps=args.steps)
        prepare_output(Path(args.out), single=args.experiment != "all")
        results = run_experiment(args.experiment, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    write_results(results, config, Path(args.out))
    failed = False
    for res in results.values():
        for line in res.summary_lines():
            print(line)
        failed = failed or not res.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
