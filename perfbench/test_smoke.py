"""Smoke test: every workload runs at its smallest size and emits every
metric BENCHMARK.json names, in both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, key):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_speedometer_scales_stretches_and_leaves_out_sampling():
    sys.path.insert(0, str(HERE))
    from speed import Speedometer

    speed = Speedometer()
    # Samples [0, 1] and [9, 10]: factors 2 and 4, midpoints 0.5 and 9.5.
    speed.starts, speed.ends, speed.factors = [0.0, 9.0], [1.0, 10.0], [2.0, 4.0]
    assert speed.raw(1.0, 9.0) == pytest.approx(8.0)
    assert speed.raw(0.5, 10.0) == pytest.approx(9.5)   # a sample only partly inside counts
    assert speed.scaled(1.0, 9.0) == pytest.approx(8.0 * 3.0)
    speed.starts, speed.ends, speed.factors = [0.0, 4.0, 9.0], [1.0, 5.0, 10.0], [2.0, 2.0, 2.0]
    assert speed.raw(1.0, 9.0) == pytest.approx(7.0)    # the sample at [4, 5] is left out
    assert speed.scaled(1.0, 9.0) == pytest.approx(14.0)
