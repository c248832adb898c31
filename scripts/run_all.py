#!/usr/bin/env python3
"""Run the full experiment battery on the three bundled configurations.

Writes one output directory per configuration under --out (default ./out)
and exits nonzero if any experiment check fails: 2, before any experiment
runs, if those directories cannot be made.
"""

import argparse
import sys
from pathlib import Path

from volterra_smp.harness import (ConfigError, prepare_output, resolve_config, run_experiment,
                                  write_results)

HERE = Path(__file__).resolve().parent
CONFIGS = sorted((HERE / "configs").glob("*.json"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=str, default="out")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    try:
        for cfg_path in CONFIGS:
            prepare_output(Path(args.out) / cfg_path.stem, single=False)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for cfg_path in CONFIGS:
        config = resolve_config(cfg_path, seed=args.seed)
        out_dir = Path(args.out) / cfg_path.stem
        print(f"== {cfg_path.stem} -> {out_dir}")
        results = run_experiment("all", config)
        write_results(results, config, out_dir)
        for res in results.values():
            for line in res.summary_lines():
                print("  " + line)
            failed = failed or not res.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
