"""Smoke test of the benchmark at toy sizes: every metric that BENCHMARK.json
names is printed with its unit, and the correctness gate runs.

    python3 -m pytest perfbench
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
import workloads  # noqa: E402
from hkgeo.measures import DiscreteMeasure  # noqa: E402


def _result(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    res = _result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    assert res["attempted"] >= 1
    assert res["correct"] and res["failed"] == 0


def test_gate_counts_wrong_and_raising_operations():
    gate = run.Gate()
    for op in (
        workloads.Op("right", 1, lambda: 1, lambda out: out == 1),
        workloads.Op("wrong", 1, lambda: 2, lambda out: out == 1),
        workloads.Op("raises", 1, lambda: 1 / 0, lambda out: True),
    ):
        gate.run(op)
    assert gate.attempted == 3
    assert gate.failed == ["wrong", "raises"]


def test_let_gate_checks_the_closed_form():
    a, b, d = 2.0, 3.0, 0.7
    m0 = DiscreteMeasure([[0.0]], [a])
    m1 = DiscreteMeasure([[d]], [b])
    exact = a + b - 2 * np.sqrt(a * b) * np.exp(-d * d / 2)
    right = workloads._let_op("right", m0, m1, "ghk", closed=exact)
    wrong = workloads._let_op("wrong", m0, m1, "ghk", closed=exact * (1 + 1e-5))
    assert right.check(right.call())
    assert not wrong.check(wrong.call())
