"""One benchmark process: set up a workload, run passes back to back, gate them.

Started by run.py in a fresh interpreter with the thread settings already in
its environment.  Prints one JSON line with the setup-ready clock reading,
per-pass wall and CPU seconds (plus per-layer metrics for traced passes),
the gate's counts and the process's peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent

from workloads import WORKLOADS  # noqa: E402  (the script's directory is on sys.path)


class Gate:
    """Counts operations and failures.  An operation fails when its pass
    raised, one of its checks failed, or its output bytes differ from the
    first pass of the run."""

    def __init__(self):
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _fail(self, pass_id: int, op: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"pass {pass_id} {op}: {why}")

    def judge(self, pass_id: int, ops, error: str | None, n_ops: int) -> None:
        if error is not None:
            self.attempted += n_ops
            for i in range(n_ops):
                self._fail(pass_id, f"op {i}", error)
            return
        for op in ops:
            self.attempted += 1
            bad = [f"{name} ({detail})" for name, ok, detail in op.checks if not ok]
            digest = hashlib.sha256(op.output).hexdigest()
            if self.reference.setdefault(op.name, digest) != digest:
                bad.append("output bytes differ from the first pass")
            if bad:
                self._fail(pass_id, op.name, "; ".join(bad))


def run_passes(workload, seconds: float, trace: bool, gate: Gate) -> tuple[list, object]:
    """Closed loop.  Untraced runs repeat plain passes; traced runs alternate
    plain and traced passes, at least one of each.  No pass is started that
    the last pass's length says would end after ``seconds``."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        pass_id = len(passes)
        traced = trace and pass_id % 2 == 1
        ctx = tracer.installed(workload.extra_modules) if traced else contextlib.nullcontext()
        error = None
        ops = None
        with ctx:
            if traced:
                tracer.begin_pass(pass_id)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                ops = workload.run_pass()
            except Exception:
                error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            t1, c1 = time.perf_counter(), time.process_time()
        gate.judge(pass_id, ops, error, workload.n_ops)
        record = {"id": pass_id, "traced": traced, "wall_s": t1 - t0, "cpu_s": c1 - c0}
        if traced:
            record["metrics"] = tracer.pass_metrics(t1 - t0)
        passes.append(record)
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + record["wall_s"] > seconds:
            return passes, tracer


def _blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds loaded in this process."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment(workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_runtime": _blas_threads(),
        "volterra_smp_threads": os.environ.get("VOLTERRA_SMP_THREADS"),
        "sizes": workload.sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](HERE.parent, args.seed, tiny=args.tiny)
    workload.setup(workdir)
    ready = time.monotonic()
    import volterra_smp
    source = Path(volterra_smp.__file__).resolve().parent
    if source != HERE.parent / "src" / "volterra_smp":
        sys.exit(f"volterra_smp imported from {source}, not from this checkout")
    result = {"started": STARTED, "ready": ready}
    if not args.setup_only:
        gate = Gate()
        passes, tracer = run_passes(workload, args.seconds, bool(args.trace), gate)
        if tracer is not None and args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.dump()))
        result.update(
            passes=passes, attempted=gate.attempted, failed=gate.failed,
            failures=gate.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=environment(workload),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
