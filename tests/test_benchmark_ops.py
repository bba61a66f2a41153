"""The benchmark's ops and verdict checks, run on the package in tier-1.

`perfbench/workloads.py` defines each workload's certificate calls and the
check that counts an op as failed.  A change that fails one of those checks
would otherwise show only as a lower success rate in a benchmark run.  The
file is loaded as it is, under a name of its own, and not modified.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_passes_its_benchmark_check_with_one_digest(cfg, workload):
    ops = workloads.OPS[workload](1)
    assert ops
    for op in ops:
        first, second = (workloads.run_op(op, cfg, workloads.EXPECTED)
                         for _ in range(2))
        assert first.problem is None, first.problem
        assert second.problem is None, second.problem
        assert first.digest is not None and first.digest == second.digest
