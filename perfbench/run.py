#!/usr/bin/env python3
"""volterra-smp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Each
run starts fresh interpreters (perfbench/worker.py) with the BLAS thread
count pinned to 1 and VOLTERRA_SMP_THREADS set per workload: several that
only set up, for the set-up time, and one that sets up and then runs passes
of the workload back to back for about S seconds.  The last line printed is
one JSON object: correct, attempted, failed and the metrics — the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.  A fuller
record of the run (environment, every pass, failures) goes to
perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
SETUP_SAMPLES = 4        # set-up-only interpreters, half before and half after the measuring one
RUN_DEADLINE_S = 170.0   # a run must end within 180 s

from tracer import PER_LAYER  # noqa: E402  (the script's directory is on sys.path)
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def child_env(workload) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    threads = len(os.sched_getaffinity(0)) if workload.threads == "nproc" else workload.threads
    env["VOLTERRA_SMP_THREADS"] = str(threads)
    return env


def spawn(args: list, env: dict, timeout: float) -> tuple[dict, float]:
    """Run a worker; returns its JSON result and the monotonic spawn time."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result:\n{err.strip()}")
    return json.loads(lines[-1]), spawned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "volterra_smp" / "__init__.py").is_file():
        print(f"error: no volterra_smp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env(workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = WORKDIR / tag
    base = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    base += ["--tiny"] if args.tiny else []

    def setup_only():
        result, spawned = spawn(base + ["--setup-only"], env, deadline - time.monotonic())
        return result["ready"] - spawned

    try:
        # spread over the run, so that one slow moment does not set the median
        setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        trace_out = WORKDIR / f"{tag}.spans.json"
        res, spawned = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                     "--trace-out", str(trace_out)],
                             env, deadline - time.monotonic())
        setups.append(res["ready"] - spawned)
        setups += [setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in res["passes"] if not p["traced"]]
    if args.trace:
        traced = sorted((p for p in res["passes"] if p["traced"]), key=lambda p: p["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]   # the median traced pass, whole
        values = dict(chosen["metrics"])
        values["trace.tracing_overhead_s"] = (statistics.median([p["wall_s"] for p in traced])
                                              - statistics.median([p["wall_s"] for p in plain]))
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    else:
        values = {"wall_s": statistics.median([p["wall_s"] for p in plain]),
                  "cpu_s": statistics.median([p["cpu_s"] for p in plain]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    record = {"args": vars(args), "why": workload.why, "environment": res["environment"],
              "setup_samples_s": setups, "passes": res["passes"],
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"], "metrics": metrics}
    WORKDIR.mkdir(parents=True, exist_ok=True)
    (WORKDIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] >= 1,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
