"""The benchmark's workloads against the package, in process at tiny sizes.

``perfbench/`` reaches many package names: stage attributes, keyword
arguments, result keys and the shapes of experiment results.  This runs
each workload's set-up and two passes under the benchmark's own gate, so a
change that renames or removes such a name fails here, not only in a
benchmark run.  Every op check must pass, and both passes must give the
same op bytes.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import Gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_gate_twice_at_tiny_size(name, tmp_path):
    workload = WORKLOADS[name](ROOT, seed=3, tiny=True)
    workload.setup(tmp_path)
    gate = Gate()
    for pass_id in range(2):
        gate.judge(pass_id, workload.run_pass(), None, workload.n_ops)
    assert gate.failures == []
    assert gate.attempted == 2 * workload.n_ops
