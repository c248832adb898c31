"""Smoke test of the benchmark at tiny problem sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names is printed with its unit, that
a traced run's self times add up to its wall time, that the correctness gate
trips when a pass's output bytes differ or a pass raises, and that the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import Gate, run_passes  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # self times, tracer bookkeeping and the unattributed remainder
        # partition the traced pass's wall time
        parts = sum(v for k, v in values.items() if k.endswith(".self_s"))
        parts += values["trace.bookkeeping_s"] + values["trace.unattributed_s"]
        assert parts == pytest.approx(values["trace.traced_wall_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in values.values())


class _Scripted:
    """Fake workload: one operation per pass, output and errors scripted."""

    n_ops = 1
    extra_modules = ()

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = 0

    def run_pass(self):
        out = self.outputs[min(self.calls, len(self.outputs) - 1)]
        self.calls += 1
        time.sleep(0.01)
        if isinstance(out, Exception):
            raise out
        return [Op("table", [("check", True, "")], out)]


def test_gate_trips_when_output_bytes_differ():
    gate = Gate()
    passes, _ = run_passes(_Scripted([b"a", b"b", b"a"]), 0.2, False, gate)
    assert len(passes) >= 3
    assert gate.attempted == len(passes)
    assert gate.failed == 1
    assert "output bytes differ" in gate.failures[0]


def test_gate_counts_a_raising_pass_and_failed_checks():
    gate = Gate()
    gate.judge(0, [Op("table", [("check", True, "")], b"x")], None, 1)
    gate.judge(1, None, "ValueError: boom", 1)
    gate.judge(2, [Op("table", [("check", False, "off by one")], b"x")], None, 1)
    assert (gate.attempted, gate.failed) == (3, 2)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(tmp_path, "backward", 0, tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
