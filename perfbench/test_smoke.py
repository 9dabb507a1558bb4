"""Short runs of every workload through the command line: every metric
named in ``BENCHMARK.json`` is printed, finite and in its unit."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, env=env,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_finite_with_its_unit(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "sim-untainted":
        assert metrics["taintmap.rpcs"] == 0
        assert metrics["wire.slow_fraction"] == 0
    if not trace:
        assert 4.9 <= metrics["wire_x"] <= 5.1


def test_pinned_environment_is_refused():
    env = dict(os.environ, DISTA_TAINTMAP_TRANSPORT="pooled")
    done = _bench("sim-tainted", 0, env=env)
    assert done.returncode == 2
    assert "DISTA_TAINTMAP_TRANSPORT" in done.stderr
    assert done.stdout == ""
