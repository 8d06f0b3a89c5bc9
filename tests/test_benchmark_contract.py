"""The benchmark in perfbench/ reads the harness's results and the CLI's
outputs by name. One untraced cycle of two of its workloads, checked against
seed 0 of perfbench/reference.json, guards those names and values.

paper-point is left out: its bilimo mse_s meets the reference's 1e-6 gate
only at one BLAS thread (seed 0 reads 0.43603 at two against 0.43229), and
this test runs at whatever thread count its environment sets."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import workload  # noqa: E402


@pytest.mark.parametrize("name, cls", [("small-many", workload.SmallMany),
                                       ("design-sweep", workload.DesignSweep)])
def test_workload_meets_its_seed0_reference(tmp_path, name, cls):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    w = cls(0, tmp_path)
    w.setup()
    records, summary = workload.timed_cycles(w, 0)
    assert records and sum(r["failed"] for r in records) == 0
    problems = []
    run.check_quality({"first": summary}, reference["workloads"][name]["0"], problems)
    assert problems == []
